#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "kernels/kernels.h"
#include "util/check.h"

namespace qbe {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kCandidateGen: return "candidate_gen";
    case SpanKind::kEtTokenResolve: return "et_token_resolve";
    case SpanKind::kVerifyAll: return "verify:verifyall";
    case SpanKind::kSimplePrune: return "verify:simpleprune";
    case SpanKind::kFilter: return "verify:filter";
    case SpanKind::kFilterUniverse: return "filter_universe";
    case SpanKind::kWeave: return "verify:weave";
    case SpanKind::kRelaxedVerify: return "verify:relaxed";
    case SpanKind::kRank: return "rank";
    case SpanKind::kEvalExec: return "eval_exec";
    case SpanKind::kEvalCacheLookup: return "eval_cache_lookup";
    case SpanKind::kTextMatch: return "text_match";
    case SpanKind::kNetRead: return "net_read";
    case SpanKind::kNetWrite: return "net_write";
    case SpanKind::kNumKinds: break;
  }
  return "unknown";
}

int64_t Trace::PhaseNs(SpanKind kind) const {
  int64_t total = 0;
  for (const TraceSpan& span : spans) {
    if (span.kind == kind && span.end_ns >= span.start_ns) {
      total += span.end_ns - span.start_ns;
    }
  }
  return total;
}

size_t Trace::PhaseCount(SpanKind kind) const {
  size_t n = 0;
  for (const TraceSpan& span : spans) {
    if (span.kind == kind) ++n;
  }
  return n;
}

bool Trace::WellFormed(std::string* why) const {
  auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    if (span.end_ns < 0) {
      return fail(std::string("unclosed span ") + SpanKindName(span.kind));
    }
    if (span.end_ns < span.start_ns) {
      return fail(std::string("non-monotonic span ") +
                  SpanKindName(span.kind));
    }
    if (span.parent >= 0) {
      if (static_cast<size_t>(span.parent) >= spans.size()) {
        return fail("parent index out of range");
      }
      const TraceSpan& parent = spans[span.parent];
      if (parent.start_ns > span.start_ns || parent.end_ns < span.end_ns) {
        return fail(std::string("span ") + SpanKindName(span.kind) +
                    " escapes parent " + SpanKindName(parent.kind));
      }
    }
  }
  return true;
}

TraceContext::TraceContext(TraceConfig config) : config_(config) {
  QBE_CHECK(config_.max_spans >= 1 && config_.max_spans < (1u << 31));
  epoch_ns_ = config_.clock != nullptr ? config_.clock() : SteadyNowNs();
  spans_.reserve(config_.max_spans);
}

int64_t TraceContext::NowNs() const {
  return (config_.clock != nullptr ? config_.clock() : SteadyNowNs()) -
         epoch_ns_;
}

void TraceContext::CheckOwner() {
#ifndef NDEBUG
  if (owner_ == std::thread::id()) owner_ = std::this_thread::get_id();
  QBE_CHECK_MSG(owner_ == std::this_thread::get_id(),
                "TraceContext recorded from a second thread; a context has "
                "one recording thread");
#endif
}

SpanRef TraceContext::OpenSpan(SpanKind kind) {
  CheckOwner();
  if (spans_.size() >= config_.max_spans || depth_ >= kMaxDepth) {
    dropped_ += 1;
    return kNullSpan;
  }
  SpanRec rec;
  rec.kind = kind;
  rec.start_ns = NowNs();
  rec.parent = depth_ > 0 ? stack_[depth_ - 1] : kNullSpan;
  spans_.push_back(rec);
  const SpanRef ref = static_cast<SpanRef>(spans_.size());
  stack_[depth_++] = ref;
  return ref;
}

void TraceContext::CloseSpan(SpanRef ref) {
  CheckOwner();
  if (ref == kNullSpan) return;
  QBE_CHECK(ref <= spans_.size());
  spans_[ref - 1].end_ns = NowNs();
  if (depth_ > 0 && stack_[depth_ - 1] == ref) depth_ -= 1;
}

void TraceContext::AnnotateShard(SpanRef ref, int shard) {
  CheckOwner();
  if (ref == kNullSpan) return;
  QBE_CHECK(ref <= spans_.size());
  spans_[ref - 1].shard = static_cast<int32_t>(shard);
}

Trace TraceContext::Stitch() const {
  Trace trace;
  trace.request_id = request_id_;
  trace.kernel_level = KernelLevelName(ActiveKernelLevel());
  trace.spans.reserve(spans_.size());
  for (const SpanRec& rec : spans_) {
    TraceSpan span;
    span.kind = rec.kind;
    span.start_ns = rec.start_ns;
    span.end_ns = rec.end_ns;
    span.shard = rec.shard;
    span.parent = static_cast<int32_t>(rec.parent) - 1;  // kNullSpan → -1
    trace.spans.push_back(span);
  }
  trace.dropped_spans = dropped_;
  return trace;
}

bool TraceSampler::Sample(uint64_t n) const {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  uint64_t h = SplitMix64(seed ^ (n * 0x9E3779B97F4A7C15ull));
  return static_cast<double>(h) <
         rate * 18446744073709551616.0 /* 2^64 */;
}

namespace {

void AppendSpanEvent(const Trace& trace, const TraceSpan& span,
                     bool* first, std::string* out) {
  char buf[320];
  double ts_us = static_cast<double>(span.start_ns) / 1000.0;
  double dur_us =
      static_cast<double>(std::max<int64_t>(0, span.end_ns - span.start_ns)) /
      1000.0;
  // Kernel-bound spans carry the dispatch level so A/B traces are
  // attributable to the SIMD level that produced them.
  const bool kernel_bound = span.kind == SpanKind::kTextMatch ||
                            span.kind == SpanKind::kEvalExec;
  char args[96] = "";
  if (kernel_bound && !trace.kernel_level.empty()) {
    if (span.shard >= 0) {
      std::snprintf(args, sizeof(args),
                    ",\"args\":{\"kernel_level\":\"%s\",\"shard\":%d}",
                    trace.kernel_level.c_str(), span.shard);
    } else {
      std::snprintf(args, sizeof(args), ",\"args\":{\"kernel_level\":\"%s\"}",
                    trace.kernel_level.c_str());
    }
  } else if (span.shard >= 0) {
    std::snprintf(args, sizeof(args), ",\"args\":{\"shard\":%d}", span.shard);
  }
  std::snprintf(buf, sizeof(buf),
                "%s\n{\"name\":\"%s\",\"cat\":\"qbe\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%llu,\"tid\":0%s}",
                *first ? "" : ",", SpanKindName(span.kind), ts_us, dur_us,
                static_cast<unsigned long long>(trace.request_id), args);
  *first = false;
  out->append(buf);
}

}  // namespace

std::string ChromeTraceJson(const std::vector<Trace>& traces) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Trace& trace : traces) {
    for (const TraceSpan& span : trace.spans) {
      AppendSpanEvent(trace, span, &first, &out);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string ChromeTraceJson(const Trace& trace) {
  return ChromeTraceJson(std::vector<Trace>{trace});
}

}  // namespace qbe
