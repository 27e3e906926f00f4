#ifndef QBE_OBS_TRACE_H_
#define QBE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace qbe {

/// Request-scoped tracing & profiling (DESIGN.md §13).
///
/// A TraceContext rides through one discovery request (DiscoveryOptions::
/// trace → VerifyContext::trace → EvalEngine → Executor) and records a tree
/// of nested spans with nanosecond timings plus per-phase counters. The
/// recording path is built for the verify hot loop:
///
///  - per-thread lanes: each recording thread gets its own preallocated
///    span buffer and counter array, so Open/Close/Count never contend and
///    never allocate (lane registration — once per thread per request — is
///    the only mutex touch);
///  - fixed span capacity: a full lane drops further spans (counted in
///    kDroppedSpans) instead of growing, keeping the memory bound hard;
///  - null-context short-circuit: every instrumentation site guards on
///    `trace == nullptr`, so an untraced run costs one predictable branch
///    and is bit-identical to an uninstrumented build.
///
/// At request end Stitch() merges the lanes into one Trace whose span tree
/// satisfies: balanced open/close, monotonic clocks (end >= start), and
/// parent containment (a child's interval lies within its parent's) — the
/// invariants tests/trace_test.cc locks down.

/// Span taxonomy. Fixed at compile time so span records carry one byte
/// instead of a name allocation.
enum class SpanKind : uint8_t {
  kRequest = 0,      // whole service request (root)
  kCandidateGen,     // §3.2 candidate enumeration
  kEtTokenResolve,   // ET-cell token-id resolution against the TokenDict
  kVerifyAll,        // per-algorithm verification phase...
  kSimplePrune,
  kFilter,
  kFilterExact,
  kFilterUniverse,   // FILTER's universe build, nested in its verify span
  kWeave,
  kRelaxedVerify,    // min_row_support >= 0 row-counting path
  kRank,             // result ranking + SQL rendering
  kEvalExec,         // one executed existence query (eval-cache miss)
  kEvalCacheLookup,  // shared verification-outcome cache probe
  kTextMatch,        // phrase/exact matching inside one SeedNode
  kWalAppend,        // ingest: one WAL-logged mutation commit
  kWalReplay,        // ingest: WAL replay at attach
  kCompaction,       // ingest: overlay fold into a fresh base
  kNetRead,          // net: draining + framing one socket readable event
  kNetWrite,         // net: flushing buffered response bytes to a socket
  kNumKinds
};

const char* SpanKindName(SpanKind kind);

/// Counters accumulated per lane and summed at stitch time.
enum class TraceCounter : uint8_t {
  kCandidatesGenerated = 0,
  kQueriesVerified,   // existence queries actually executed
  kValidQueries,
  kEvalCacheHits,
  kEvalCacheLookups,
  kMatchCacheHits,
  kMatchCacheLookups,
  kSubtreeMemoHits,
  kSubtreeMemoLookups,
  kDeltaRows,        // overlay rows visible to this request's pinned epoch
  kDeltaTombstones,
  kShardProbes,      // shard-local existence-query probes (DESIGN.md §15)
  kDroppedSpans,
  kNumCounters
};

const char* TraceCounterName(TraceCounter counter);

/// Handle to a recorded span: lane index << 20 | (span index + 1).
/// 0 = null (span was dropped or tracing is off); Close on null is a no-op.
using SpanRef = uint32_t;
inline constexpr SpanRef kNullSpan = 0;

struct TraceConfig {
  /// Hard cap on spans recorded per lane; the overflow is dropped and
  /// counted. 2^20-1 is the representable maximum (SpanRef packing).
  uint32_t max_spans_per_lane = 32768;
  /// Hard cap on recording threads; late threads drop their spans.
  uint32_t max_lanes = 32;
  /// Test seam: injectable monotonic nanosecond clock. Null = the real
  /// steady clock. A plain function pointer so the hot path stays cheap.
  int64_t (*clock)() = nullptr;
};

/// One span of a stitched Trace.
struct TraceSpan {
  SpanKind kind = SpanKind::kRequest;
  uint32_t lane = 0;
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1: never closed (malformed tree)
  int32_t parent = -1;  // index into Trace::spans; -1 = root
  int32_t shard = -1;   // shard that answered (sharded eval_exec only)
};

/// The stitched, immutable result of one traced request.
struct Trace {
  /// Request sequence number (service-assigned; 0 for standalone runs).
  uint64_t request_id = 0;
  /// Kernel dispatch level (KernelLevelName of DESIGN.md §14's layer) the
  /// process ran this request under, captured at Stitch so speedups in
  /// text_match / eval_exec spans are attributable to the SIMD level that
  /// produced them. Exporters label those spans with it.
  std::string kernel_level;
  std::vector<TraceSpan> spans;
  int64_t counters[static_cast<size_t>(TraceCounter::kNumCounters)] = {};
  int64_t dropped_spans = 0;

  int64_t counter(TraceCounter c) const {
    return counters[static_cast<size_t>(c)];
  }
  /// Total nanoseconds across all (closed) spans of `kind`.
  int64_t PhaseNs(SpanKind kind) const;
  /// Number of spans of `kind`.
  size_t PhaseCount(SpanKind kind) const;
  /// Checks the span-tree invariants: every span closed, end >= start,
  /// parents precede children and contain their intervals. On failure
  /// returns false and (if non-null) writes the reason to `why`.
  bool WellFormed(std::string* why = nullptr) const;
};

/// Live recording context for one request. Thread-safe: any number of
/// threads may open/close spans and bump counters concurrently; each writes
/// only to its own lane. Stitch() must be called after all recording
/// threads are done (the request barrier guarantees this).
class TraceContext {
 public:
  explicit TraceContext(TraceConfig config = {});
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Opens a span. `parent_hint` supplies the parent when this thread has
  /// no enclosing open span (e.g. the net server's read/write spans hang
  /// off a connection's root span, opened on another lane); with an
  /// enclosing span on this lane, nesting wins and the hint is ignored.
  SpanRef OpenSpan(SpanKind kind, SpanRef parent_hint = kNullSpan);

  /// Closes `ref` (no-op for kNullSpan). Must be called on the opening
  /// thread in LIFO order — ScopedSpan guarantees both.
  void CloseSpan(SpanRef ref);

  /// Tags `ref` with the shard that answered it (sharded scatter-gather;
  /// DESIGN.md §15). Same discipline as CloseSpan: opening thread, while
  /// the span is open. No-op for kNullSpan.
  void AnnotateShard(SpanRef ref, int shard);

  void Count(TraceCounter counter, int64_t delta);

  /// Nanoseconds since context creation on the configured clock.
  int64_t NowNs() const;

  uint64_t request_id() const { return request_id_; }
  void set_request_id(uint64_t id) { request_id_ = id; }

  /// Merges all lanes into one Trace (see invariants above). Safe to call
  /// repeatedly; recording after a Stitch is allowed but unusual.
  Trace Stitch() const;

 private:
  struct SpanRec {
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    SpanRef parent = kNullSpan;  // packed ref, resolved at stitch
    SpanKind kind = SpanKind::kRequest;
    int32_t shard = -1;
  };

  static constexpr int kMaxDepth = 64;

  struct Lane {
    std::vector<SpanRec> spans;  // reserved up front, never reallocated
    uint32_t stack[kMaxDepth];   // open spans, innermost last
    uint32_t index = 0;          // this lane's slot in lanes_
    int depth = 0;
    int64_t counters[static_cast<size_t>(TraceCounter::kNumCounters)] = {};
    int64_t dropped = 0;
  };

  Lane* LaneForThisThread();

  TraceConfig config_;
  int64_t epoch_ns_;  // absolute clock value at construction
  uint64_t request_id_ = 0;
  /// Process-unique, never-reused id keying the per-thread lane cache.
  /// Keying on `this` would serve a stale freed lane when a context is
  /// destroyed (possibly on another thread) and its address is reused by
  /// the next request's context.
  uint64_t generation_;

  mutable std::mutex lanes_mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unordered_map<std::thread::id, uint32_t> lane_of_thread_;
  std::atomic<int64_t> unassigned_dropped_{0};  // beyond max_lanes
};

/// RAII span; tolerates a null context (records nothing).
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* ctx, SpanKind kind, SpanRef parent_hint = kNullSpan)
      : ctx_(ctx),
        ref_(ctx == nullptr ? kNullSpan : ctx->OpenSpan(kind, parent_hint)) {}
  ~ScopedSpan() {
    if (ctx_ != nullptr) ctx_->CloseSpan(ref_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanRef ref() const { return ref_; }

 private:
  TraceContext* ctx_;
  SpanRef ref_;
};

/// Deterministic per-request sampling decision: request n is traced iff
/// splitmix64(seed, n) < rate * 2^64. The same (seed, n) always decides the
/// same way — the determinism tests/trace_test.cc requires — and decisions
/// are independent across n.
struct TraceSampler {
  double rate = 0.0;
  uint64_t seed = 42;

  bool Sample(uint64_t n) const;
};

/// Renders traces as Chrome trace-event JSON ("X" complete events, ts/dur
/// in microseconds), loadable in chrome://tracing or Perfetto. Each trace
/// becomes one process (pid = request id), each lane one thread.
std::string ChromeTraceJson(const std::vector<Trace>& traces);
std::string ChromeTraceJson(const Trace& trace);

}  // namespace qbe

#endif  // QBE_OBS_TRACE_H_
