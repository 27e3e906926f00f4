#ifndef QBE_CORE_FILTER_VERIFIER_H_
#define QBE_CORE_FILTER_VERIFIER_H_

#include "core/filter_universe.h"
#include "core/verifier.h"
#include "exec/stats.h"

namespace qbe {

/// How cost(F) is computed for the E[W]/cost greedy criterion.
enum class FilterCostModel {
  /// The paper's proxy: join-tree size (§5.2 Remarks — "we use the number
  /// of joins in a filter F to approximate the cost").
  kTreeSize,
  /// Index-statistics estimate (seed selectivity × join expansion) via
  /// exec/stats.h. Extension; compared in bench_ablation_filter.
  kEstimated,
};

/// FILTER (§5): the paper's contribution. Builds the deduplicated filter
/// universe of all candidates, then runs the adaptive verification loop of
/// Algorithm 1: repeatedly evaluate the filter maximizing expected workload
/// per unit cost (Eq. 9), propagate success down the sub-filter order
/// (Lemma 4) and failure up it (Lemma 3), invalidate every candidate owning
/// a failed filter (Lemma 2), and validate a candidate once all its basic
/// filters are known successes — until every candidate is resolved.
///
/// The expected-workload model follows §5.3.1: a filter constraining nF of
/// the ET's n columns fails with probability p(F) = p̂·nF/n where p̂ is the
/// average failure prior; cost(F) is its join-tree size. Greedy selection
/// by E[W]/cost enjoys the adaptive-submodularity guarantee of Theorem 4.
class FilterVerifier : public CandidateVerifier {
 public:
  struct Options {
    /// p̂, the average failure probability constant of the model (§5.3.1
    /// leaves its value open). Empirically a small prior works best: most
    /// weakly-constrained filters succeed, so over-betting on failure
    /// wastes evaluations. The parameter sensitivity is charted by the
    /// ablation micro-bench.
    double failure_prior = 0.1;

    /// When set, p̂ is re-estimated online from observed filter outcomes
    /// (Bayes-smoothed running failure rate), clamped to [0.02, 0.9]. The
    /// model stays "a constant p" in structure; only the constant adapts
    /// to the workload. Extension beyond the paper; off by default.
    bool adaptive_prior = false;

    /// See FilterCostModel; kEstimated requires `stats`.
    FilterCostModel cost_model = FilterCostModel::kTreeSize;

    /// Statistics snapshot for kEstimated (not owned; must outlive the
    /// verifier call).
    const Statistics* stats = nullptr;

    /// Accelerated (lazy) greedy selection: scores are adaptively
    /// diminishing (Lemma 6), so stale priority-queue entries are upper
    /// bounds and can be re-validated on pop instead of rescoring every
    /// filter each round. The selection overhead drops from O(|F|) per
    /// evaluation to amortized O(log |F|) — on heavy-tailed ETs with
    /// thousands of candidates the exact scan dominates wall time, so lazy
    /// is the default; the exact scan remains available for the ablation
    /// study.
    ///
    /// Both always return identical valid sets, but their verification
    /// counts can differ because they break score ties differently: the
    /// exact scan keeps the lowest filter index among equal scores, while
    /// the max-heap pops the highest index first and accepts a popped
    /// filter whose fresh score only equals the next entry's stale bound.
    /// Ties are common (many filters share a cost and a workload), and
    /// with the exact scan's tie-break the lazy loop makes the exact
    /// scan's choices on every instance of tests/golden/verify_counts.json.
    bool lazy_greedy = true;
  };

  FilterVerifier() = default;
  explicit FilterVerifier(Options options) : options_(options) {}

  /// Convenience for the common two-knob construction.
  FilterVerifier(double failure_prior, bool lazy_greedy) {
    options_.failure_prior = failure_prior;
    options_.lazy_greedy = lazy_greedy;
  }

  std::string name() const override {
    return options_.lazy_greedy ? "Filter(lazy)" : "Filter";
  }

  std::vector<bool> Verify(const VerifyContext& ctx,
                           VerificationCounters* counters) override;

 private:
  Options options_;
};

}  // namespace qbe

#endif  // QBE_CORE_FILTER_VERIFIER_H_
