#include "core/filter_verifier.h"

#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "shard/shard_exec.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace qbe {
namespace {

enum class FilterState : uint8_t { kUnknown, kSuccess, kFailed };

/// All mutable bookkeeping of one Algorithm 1 run. Outcomes are tracked
/// per filter, but the sub-filter order is walked class by class: a class
/// is one existence query, so an outcome resolves whole classes.
struct AdaptiveState {
  const FilterUniverse& u;
  const VerifyContext& ctx;
  double failure_prior;

  std::vector<FilterState> state;
  std::vector<char> in_fx;          // FX membership
  std::vector<char> alive;          // QX membership
  std::vector<bool> valid;
  std::vector<int> rem;             // |F(Q) ∩ FX| per query
  std::vector<int> basic_unresolved;  // basic filters not yet known-success
  std::vector<int> live_count;      // alive queries containing each filter
  Csr basic_owners;                 // filter -> queries it's basic for
  int num_alive;

  // Per class: the sum of live_count over its members still in FX (the
  // class's share of every W+ that counts it), and its members whose
  // outcome is still unknown.
  std::vector<int64_t> fx_live;
  std::vector<int> unknown;

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
    live_count.resize(nf);
    basic_owners = u.basic_filters_of_query.Transposed(nf);
    num_alive = nq;
    for (int q = 0; q < nq; ++q) {
      rem[q] = static_cast<int>(u.filters_of_query[q].size());
      basic_unresolved[q] =
          static_cast<int>(u.basic_filters_of_query[q].size());
    }
    fx_live.assign(u.num_classes(), 0);
    unknown.assign(u.num_classes(), 0);
    for (int f = 0; f < nf; ++f) {
      live_count[f] = static_cast<int>(u.queries_of_filter[f].size());
      fx_live[u.filters[f].cls] += live_count[f];
      unknown[u.filters[f].cls] += 1;
    }
  }

  double FailureProbability(int f) const {
    return failure_prior * u.classes[u.filters[f].cls].NumConstrainedCells() /
           ctx.et.num_columns();
  }

  /// E[W(F | ...)] / cost(F), Eqs. (5)-(7) and (9). W+ counts the
  /// (query, filter) pairs whose success would be implied: F's own, and
  /// those of every sub-filter still in FX — its class-mates and the
  /// members of its sub-classes. W- counts the remaining unevaluated
  /// filters of every query the failure would kill. Both are exact integer
  /// sums, so the score does not depend on the order they are taken in.
  double Score(int f) const {
    const int cls = u.filters[f].cls;
    int64_t w_plus = (in_fx[f] ? 0 : live_count[f]) + fx_live[cls];
    for (int sub : u.sub_classes[cls]) w_plus += fx_live[sub];
    int64_t w_minus = 0;
    for (int q : u.queries_of_filter[f]) {
      if (alive[q]) w_minus += rem[q];
    }
    double p = FailureProbability(f);
    double expected = (1.0 - p) * static_cast<double>(w_plus) +
                      p * static_cast<double>(w_minus);
    return expected / u.classes[cls].tree_size;
  }

  void RemoveFromFx(int f) {
    if (!in_fx[f]) return;
    in_fx[f] = 0;
    fx_live[u.filters[f].cls] -= live_count[f];
    for (int q : u.queries_of_filter[f]) {
      if (alive[q]) rem[q] -= 1;
    }
  }

  void ResolveQuery(int q, bool is_valid) {
    if (!alive[q]) return;
    alive[q] = 0;
    valid[q] = is_valid;
    num_alive -= 1;
    for (int f : u.filters_of_query[q]) {
      live_count[f] -= 1;
      if (in_fx[f]) fx_live[u.filters[f].cls] -= 1;
    }
  }

  void MarkSuccess(int f) {
    if (state[f] != FilterState::kUnknown) return;
    state[f] = FilterState::kSuccess;
    unknown[u.filters[f].cls] -= 1;
    RemoveFromFx(f);
    for (int q : basic_owners[f]) {
      if (!alive[q]) continue;
      if (--basic_unresolved[q] == 0) ResolveQuery(q, /*is_valid=*/true);
    }
  }

  void MarkFailure(int f) {
    if (state[f] != FilterState::kUnknown) return;
    state[f] = FilterState::kFailed;
    unknown[u.filters[f].cls] -= 1;
    RemoveFromFx(f);
    for (int q : u.queries_of_filter[f]) ResolveQuery(q, /*is_valid=*/false);
  }

  void MarkClassSuccess(int cls) {
    if (unknown[cls] == 0) return;
    for (int f : u.filters_of_class[cls]) MarkSuccess(f);
  }

  void MarkClassFailure(int cls) {
    if (unknown[cls] == 0) return;
    for (int f : u.filters_of_class[cls]) MarkFailure(f);
  }

  /// Applies an evaluation outcome with full dependency propagation; the
  /// class order is transitively closed by construction (the sub-filter
  /// relation is transitive), so one pass suffices. The resulting state
  /// does not depend on the order classes are marked in.
  void Apply(int f, bool success) {
    const int cls = u.filters[f].cls;
    if (success) {
      MarkClassSuccess(cls);
      for (int sub : u.sub_classes[cls]) MarkClassSuccess(sub);  // Lemma 4
    } else {
      MarkClassFailure(cls);
      for (int super : u.super_classes[cls]) {
        MarkClassFailure(super);  // Lemma 3
      }
    }
  }

  /// Fallback selection when every score degenerates to zero: any basic
  /// filter of an alive query still awaiting evaluation (one always exists
  /// while QX is non-empty; see class invariants).
  int FallbackSelection() const {
    for (size_t q = 0; q < alive.size(); ++q) {
      if (!alive[q]) continue;
      for (int f : u.basic_filters_of_query[static_cast<int>(q)]) {
        if (in_fx[f]) return f;
      }
    }
    return -1;
  }
};

}  // namespace

std::vector<bool> FilterVerifier::Verify(const VerifyContext& ctx,
                                         VerificationCounters* counters) {
  Stopwatch timer;
  Executor::SubtreeMemo subtree_memo;
  EvalEngine engine(ctx, counters,
                    ctx.verify.subtree_memo ? &subtree_memo : nullptr);
  const FilterUniverse universe = [&] {
    ScopedSpan span(ctx.trace, SpanKind::kFilterUniverse);
    return BuildFilterUniverse(ctx.graph, ctx.et, ctx.candidates);
  }();
  AdaptiveState s(universe, ctx, failure_prior_);

  // Trivially successful classes (see FilterClass::IsTriviallySuccessful)
  // are resolved up front: candidate generation already proved them, so no
  // verification is spent and the greedy never gambles on them.
  for (int c = 0; c < universe.num_classes(); ++c) {
    const FilterClass& cls = universe.classes[c];
    if (!cls.IsTriviallySuccessful()) continue;
    // Sharded mode: emptiness is a global property — a relation can be
    // empty in shard 0 yet populated elsewhere, so the check must sum
    // live rows across the whole shard set (DESIGN.md §15).
    const int rel = universe.trees[cls.tree].verts.First();
    const uint64_t live_rows =
        ctx.shards != nullptr ? ctx.shards->TotalLiveRows(rel)
                              : DbView(ctx.db, ctx.delta).LiveRows(rel);
    if (live_rows > 0) s.MarkClassSuccess(c);
  }

  // Max-heap of (stale score, filter). Scores are adaptively diminishing,
  // so a stale entry is an upper bound: pop, rescore, and accept when the
  // fresh score still dominates the next entry's stale bound. Entries are
  // distinct pairs, so the pop order does not depend on how the heap was
  // built.
  std::vector<std::pair<double, int>> entries;
  entries.reserve(universe.num_filters());
  for (int f = 0; f < universe.num_filters(); ++f) {
    entries.emplace_back(s.Score(f), f);
  }
  std::priority_queue<std::pair<double, int>> heap(
      std::less<std::pair<double, int>>(), std::move(entries));
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
    s.Apply(chosen, engine.EvaluateFilter(universe, chosen));
  }

  counters->subtree_memo_hits += subtree_memo.hits();
  counters->subtree_memo_lookups += subtree_memo.lookups();
  counters->elapsed_seconds += timer.ElapsedSeconds();
  return s.valid;
}

}  // namespace qbe
