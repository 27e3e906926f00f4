#include "shard/shard_exec.h"

#include <algorithm>
#include <chrono>

#include "util/check.h"

namespace qbe {

ShardExecSet::ShardExecSet(std::span<const DbView> views,
                           const SchemaGraph& graph, const Options& options) {
  QBE_CHECK_MSG(!views.empty(), "ShardExecSet needs at least one shard");
  shards_.reserve(views.size());
  for (const DbView& view : views) {
    shards_.emplace_back(view, graph, options);
  }
}

bool ShardExecSet::Exists(const JoinTree& tree,
                          const std::vector<PhrasePredicate>& predicates,
                          TraceContext* trace, int* answered_by) {
  if (answered_by != nullptr) *answered_by = -1;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    // A shard where some tree vertex has no live rows admits no witness;
    // skipping it is outcome-neutral and keeps skewed/empty shards cheap.
    bool has_empty_vertex = false;
    tree.verts.ForEach([&](int v) {
      if (shard.exec_view.LiveRows(v) == 0) has_empty_vertex = true;
    });
    if (has_empty_vertex) {
      ++shard.skipped_empty;
      continue;
    }
    ++shard.probes;
    const auto t0 = std::chrono::steady_clock::now();
    const bool found = shard.exec.Exists(tree, predicates, shard.memo.get(),
                                         shard.match_cache.get(), trace);
    shard.busy_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (found) {
      ++shard.hits;
      if (answered_by != nullptr) *answered_by = static_cast<int>(s);
      return true;
    }
  }
  return false;
}

uint64_t ShardExecSet::TotalLiveRows(int rel) const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.exec_view.LiveRows(rel);
  }
  return total;
}

ShardStats ShardExecSet::Stats() const {
  ShardStats stats;
  stats.per_shard.reserve(shards_.size());
  double max_busy = 0.0;
  double sum_busy = 0.0;
  int active = 0;
  for (const Shard& shard : shards_) {
    ShardStats::PerShard c;
    c.probes = shard.probes;
    c.hits = shard.hits;
    c.skipped_empty = shard.skipped_empty;
    c.busy_seconds = static_cast<double>(shard.busy_ns) / 1e9;
    if (shard.memo != nullptr) {
      c.subtree_memo_hits = shard.memo->hits();
      c.subtree_memo_lookups = shard.memo->lookups();
    }
    if (shard.match_cache != nullptr) {
      c.match_cache_hits = static_cast<int64_t>(shard.match_cache->hits());
      c.match_cache_lookups =
          static_cast<int64_t>(shard.match_cache->lookups());
    }
    if (c.probes > 0) {
      max_busy = std::max(max_busy, c.busy_seconds);
      sum_busy += c.busy_seconds;
      ++active;
    }
    stats.per_shard.push_back(c);
  }
  const double mean_busy = active == 0 ? 0.0 : sum_busy / active;
  stats.straggler_ratio = mean_busy > 0.0 ? max_busy / mean_busy : 1.0;
  return stats;
}

}  // namespace qbe
