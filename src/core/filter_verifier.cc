#include "core/filter_verifier.h"

#include <algorithm>
#include <queue>

#include "shard/shard_exec.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace qbe {
namespace {

enum class FilterState : uint8_t { kUnknown, kSuccess, kFailed };

/// All mutable bookkeeping of one Algorithm 1 run.
struct AdaptiveState {
  const FilterUniverse& u;
  const VerifyContext& ctx;
  double failure_prior;
  bool adaptive_prior = false;
  int evaluated = 0;
  int failed = 0;

  std::vector<FilterState> state;
  std::vector<char> in_fx;          // FX membership
  std::vector<char> alive;          // QX membership
  std::vector<bool> valid;
  std::vector<int> rem;             // |F(Q) ∩ FX| per query
  std::vector<int> basic_unresolved;  // basic filters not yet known-success
  std::vector<int> live_count;      // alive queries containing each filter
  std::vector<std::vector<int>> basic_owners;  // filter -> queries it's basic for
  int num_alive;

  // Per-filter selection cost under the configured cost model (the
  // counters always charge the paper's tree-size cost so metrics stay
  // comparable; the model only steers selection).
  std::vector<double> selection_cost;

  AdaptiveState(const FilterUniverse& universe, const VerifyContext& context,
                double prior)
      : u(universe), ctx(context), failure_prior(prior) {
    int nf = u.num_filters();
    int nq = static_cast<int>(ctx.candidates.size());
    state.assign(nf, FilterState::kUnknown);
    in_fx.assign(nf, 1);
    alive.assign(nq, 1);
    valid.assign(nq, false);
    rem.resize(nq);
    basic_unresolved.resize(nq);
    live_count.assign(nf, 0);
    basic_owners.resize(nf);
    num_alive = nq;
    for (int q = 0; q < nq; ++q) {
      rem[q] = static_cast<int>(u.filters_of_query[q].size());
      basic_unresolved[q] =
          static_cast<int>(u.basic_filters_of_query[q].size());
      for (int f : u.filters_of_query[q]) live_count[f] += 1;
      for (int f : u.basic_filters_of_query[q]) basic_owners[f].push_back(q);
    }
  }

  double FailureProbability(int f) const {
    double prior = failure_prior;
    if (adaptive_prior) {
      // Bayes-smoothed running failure rate, clamped away from the
      // degenerate extremes; the model keeps the paper's "constant p̂"
      // structure, only the constant tracks the workload.
      prior = std::clamp((1.0 + failed) / (2.0 + evaluated), 0.02, 0.9);
    }
    return prior * u.filters[f].NumConstrainedCells() /
           ctx.et.num_columns();
  }

  void RecordOutcome(bool success) {
    ++evaluated;
    failed += success ? 0 : 1;
  }

  /// E[W(F | ...)] / cost(F), Eqs. (5)-(7) and (9). W+ counts the
  /// (query, filter) pairs whose success would be implied; W- counts the
  /// remaining unevaluated filters of every query the failure would kill.
  double Score(int f) const {
    double w_plus = live_count[f];  // F implies its own success trivially
    for (int sub : u.subs_of[f]) {
      if (in_fx[sub]) w_plus += live_count[sub];
    }
    double w_minus = 0;
    for (int q : u.queries_of_filter[f]) {
      if (alive[q]) w_minus += rem[q];
    }
    double p = FailureProbability(f);
    double expected = (1.0 - p) * w_plus + p * w_minus;
    return expected / selection_cost[f];
  }

  void RemoveFromFx(int f) {
    if (!in_fx[f]) return;
    in_fx[f] = 0;
    for (int q : u.queries_of_filter[f]) {
      if (alive[q]) rem[q] -= 1;
    }
  }

  void ResolveQuery(int q, bool is_valid) {
    if (!alive[q]) return;
    alive[q] = 0;
    valid[q] = is_valid;
    num_alive -= 1;
    for (int f : u.filters_of_query[q]) live_count[f] -= 1;
  }

  void MarkSuccess(int f) {
    if (state[f] != FilterState::kUnknown) return;
    state[f] = FilterState::kSuccess;
    RemoveFromFx(f);
    for (int q : basic_owners[f]) {
      if (!alive[q]) continue;
      if (--basic_unresolved[q] == 0) ResolveQuery(q, /*is_valid=*/true);
    }
  }

  void MarkFailure(int f) {
    if (state[f] != FilterState::kUnknown) return;
    state[f] = FilterState::kFailed;
    RemoveFromFx(f);
    for (int q : u.queries_of_filter[f]) ResolveQuery(q, /*is_valid=*/false);
  }

  /// Applies an evaluation outcome with full dependency propagation; the
  /// sub/super lists are transitively closed by construction (the
  /// sub-filter relation is transitive), so one pass suffices.
  void Apply(int f, bool success) {
    if (success) {
      MarkSuccess(f);
      for (int sub : u.subs_of[f]) MarkSuccess(sub);  // Lemma 4
    } else {
      MarkFailure(f);
      for (int super : u.supers_of[f]) MarkFailure(super);  // Lemma 3
    }
  }

  /// Fallback selection when every score degenerates to zero: any basic
  /// filter of an alive query still awaiting evaluation (one always exists
  /// while QX is non-empty; see class invariants).
  int FallbackSelection() const {
    for (size_t q = 0; q < alive.size(); ++q) {
      if (!alive[q]) continue;
      for (int f : u.basic_filters_of_query[q]) {
        if (in_fx[f]) return f;
      }
    }
    return -1;
  }
};

int SelectExact(const AdaptiveState& s) {
  int best = -1;
  double best_score = 0.0;
  for (int f = 0; f < s.u.num_filters(); ++f) {
    if (!s.in_fx[f]) continue;
    double score = s.Score(f);
    if (score > best_score) {
      best_score = score;
      best = f;
    }
  }
  return best >= 0 ? best : s.FallbackSelection();
}

}  // namespace

std::vector<bool> FilterVerifier::Verify(const VerifyContext& ctx,
                                         VerificationCounters* counters) {
  Stopwatch timer;
  Executor::SubtreeMemo subtree_memo;
  EvalEngine engine(ctx, counters,
                    ctx.verify.subtree_memo ? &subtree_memo : nullptr);
  FilterUniverse universe =
      BuildFilterUniverse(ctx.graph, ctx.et, ctx.candidates);
  AdaptiveState s(universe, ctx, options_.failure_prior);
  s.adaptive_prior = options_.adaptive_prior;
  s.selection_cost.resize(universe.num_filters());
  for (int f = 0; f < universe.num_filters(); ++f) {
    const Filter& filter = universe.filters[f];
    if (options_.cost_model == FilterCostModel::kEstimated) {
      QBE_CHECK_MSG(options_.stats != nullptr,
                    "kEstimated cost model requires Options::stats");
      s.selection_cost[f] = options_.stats->EstimateProbeCost(
          ctx.graph, filter.tree, FilterPredicates(filter, ctx.et));
    } else {
      s.selection_cost[f] = filter.Cost();
    }
  }

  // Trivially successful filters (see Filter::IsTriviallySuccessful) are
  // resolved up front: candidate generation already proved them, so no
  // verification is spent and the greedy never gambles on them.
  for (int f = 0; f < universe.num_filters(); ++f) {
    const Filter& filter = universe.filters[f];
    if (!filter.IsTriviallySuccessful()) continue;
    // Sharded mode: emptiness is a global property — a relation can be
    // empty in shard 0 yet populated elsewhere, so the check must sum
    // live rows across the whole shard set (DESIGN.md §15).
    const uint64_t live_rows =
        ctx.shards != nullptr
            ? ctx.shards->TotalLiveRows(filter.tree.verts.First())
            : DbView(ctx.db, ctx.delta).LiveRows(filter.tree.verts.First());
    if (live_rows > 0) s.MarkSuccess(f);
  }

  if (options_.lazy_greedy) {
    // Max-heap of (stale score, filter). Scores are adaptively diminishing,
    // so a stale entry is an upper bound: pop, rescore, and accept when the
    // fresh score still dominates the next entry's stale bound.
    std::priority_queue<std::pair<double, int>> heap;
    for (int f = 0; f < universe.num_filters(); ++f) {
      heap.emplace(s.Score(f), f);
    }
    while (s.num_alive > 0) {
      int chosen = -1;
      while (!heap.empty()) {
        auto [stale, f] = heap.top();
        heap.pop();
        if (!s.in_fx[f]) continue;
        double fresh = s.Score(f);
        if (heap.empty() || fresh >= heap.top().first) {
          chosen = f;
          break;
        }
        heap.emplace(fresh, f);
      }
      if (chosen < 0) chosen = s.FallbackSelection();
      QBE_CHECK(chosen >= 0);
      bool ok = engine.EvaluateFilter(universe.filters[chosen]);
      s.RecordOutcome(ok);
      s.Apply(chosen, ok);
    }
  } else {
    while (s.num_alive > 0) {
      int chosen = SelectExact(s);
      QBE_CHECK(chosen >= 0);
      bool ok = engine.EvaluateFilter(universe.filters[chosen]);
      s.RecordOutcome(ok);
      s.Apply(chosen, ok);
    }
  }

  counters->subtree_memo_hits += subtree_memo.hits();
  counters->subtree_memo_lookups += subtree_memo.lookups();
  counters->elapsed_seconds += timer.ElapsedSeconds();
  return s.valid;
}

}  // namespace qbe
