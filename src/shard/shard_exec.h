#ifndef QBE_SHARD_SHARD_EXEC_H_
#define QBE_SHARD_SHARD_EXEC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/executor.h"
#include "exec/match_cache.h"
#include "ingest/db_view.h"
#include "obs/trace.h"
#include "schema/schema_graph.h"

namespace qbe {

/// Shard-local execution state for one sharded discovery request: one
/// Executor per shard plus the per-shard caches whose values are functions
/// of shard-local data (SubtreeMemo stores shard-local row sets, MatchCache
/// shard-local row lists — sharing either across shards would corrupt
/// results). EvalEngine routes each *logical* existence query through
/// Exists(), which probes the shards in canonical order 0..N-1 and
/// short-circuits on the first witness.
///
/// Correctness (DESIGN.md §15): FK co-location guarantees every join
/// witness lies wholly inside one shard, so a logical existence query is
/// true iff it is true on some shard — the OR over shard-local probes.
/// The probe *order* only affects which shard answers, never the answer,
/// and the engine charges its counters once per logical query, so
/// verification counts and outcomes are bit-identical to the unsharded
/// engine.
class ShardExecSet {
 public:
  struct Options {
    /// Mirror of VerifyOptions::subtree_memo, applied per shard.
    bool subtree_memo = true;
    /// Mirror of DiscoveryOptions::use_match_cache, applied per shard.
    bool use_match_cache = true;
  };

  /// Snapshot of one shard's probe accounting (diagnostics only; never
  /// feeds back into outcomes).
  struct ShardCounters {
    int64_t probes = 0;         // existence queries actually run here
    int64_t hits = 0;           // probes that found a witness here
    int64_t skipped_empty = 0;  // probes skipped: some tree vertex empty
    double busy_seconds = 0.0;  // wall time spent executing probes
    int64_t subtree_memo_hits = 0;
    int64_t subtree_memo_lookups = 0;
    int64_t match_cache_hits = 0;
    int64_t match_cache_lookups = 0;
  };

  /// `views` must outlive this set (Executor copies the view, but probes
  /// read through it). The graph is schema-level and shared by all shards
  /// (identical catalogs by construction of SplitDatabase).
  ShardExecSet(const std::vector<DbView>& views, const SchemaGraph& graph,
               const Options& options);

  /// The scatter-gather probe: true iff some shard has a witness for the
  /// existence query. Probes shards in canonical order with short-circuit;
  /// shards where any tree vertex has zero live rows are skipped without
  /// executing (outcome-neutral: an empty vertex admits no witness).
  /// Called from the request's thread; it is nonetheless thread-safe
  /// (per-shard memo/match caches lock and stats are atomic). Writes the
  /// answering shard id to `answered_by` (-1 when no shard has a witness).
  bool Exists(const JoinTree& tree,
              const std::vector<PhrasePredicate>& predicates,
              TraceContext* trace, int* answered_by) const;

  /// Live rows of `rel` summed over all shards == the unsharded count
  /// (partitioning covers every row exactly once). FILTER's trivial-success
  /// check must see global emptiness, not shard 0's.
  uint64_t TotalLiveRows(int rel) const;

  std::vector<ShardCounters> Counters() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const DbView& view(int s) const { return shards_[s]->exec_view; }

 private:
  struct Shard {
    DbView exec_view;  // the shard's pinned view (copied; cheap value type)
    Executor exec;
    std::unique_ptr<Executor::SubtreeMemo> memo;
    std::unique_ptr<MatchCache> match_cache;
    std::atomic<int64_t> probes{0};
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> skipped_empty{0};
    std::atomic<int64_t> busy_ns{0};

    Shard(const DbView& view, const SchemaGraph& graph,
          const Options& options)
        : exec_view(view),
          exec(exec_view, graph),
          memo(options.subtree_memo
                   ? std::make_unique<Executor::SubtreeMemo>()
                   : nullptr),
          match_cache(options.use_match_cache ? std::make_unique<MatchCache>()
                                              : nullptr) {}
  };

  // unique_ptr per shard: Shard holds atomics and an Executor referencing
  // its own exec_view, so elements must never move.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace qbe

#endif  // QBE_SHARD_SHARD_EXEC_H_
