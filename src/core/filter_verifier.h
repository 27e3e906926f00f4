#ifndef QBE_CORE_FILTER_VERIFIER_H_
#define QBE_CORE_FILTER_VERIFIER_H_

#include "core/filter_universe.h"
#include "core/verifier.h"

namespace qbe {

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
///
/// The argmax is taken lazily: scores are adaptively diminishing (Lemma 6),
/// so stale priority-queue entries are upper bounds and are re-validated on
/// pop instead of rescoring every filter each round. Among equal scores the
/// max-heap pops the highest filter index first and accepts a popped filter
/// whose fresh score only equals the next entry's stale bound.
class FilterVerifier : public CandidateVerifier {
 public:
  /// `failure_prior` is p̂, the average failure probability constant of the
  /// model (§5.3.1 leaves its value open). Empirically a small prior works
  /// best: most weakly-constrained filters succeed, so over-betting on
  /// failure wastes evaluations. bench_ablation_filter charts the
  /// sensitivity.
  explicit FilterVerifier(double failure_prior = 0.1)
      : failure_prior_(failure_prior) {}

  std::string name() const override { return "Filter"; }

  std::vector<bool> Verify(const VerifyContext& ctx,
                           VerificationCounters* counters) override;

 private:
  double failure_prior_;
};

}  // namespace qbe

#endif  // QBE_CORE_FILTER_VERIFIER_H_
