#ifndef QBE_CORE_FILTER_H_
#define QBE_CORE_FILTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/candidate_query.h"
#include "core/example_table.h"
#include "exec/predicate.h"
#include "schema/join_tree.h"
#include "storage/database.h"

namespace qbe {

/// A filter (Definition 5): a connected sub-join tree J' of some candidate
/// query, the range restriction φ' of the candidate's projection to J', and
/// one ET row. Filters are the verification currency of §5 — a candidate is
/// valid iff all its *basic* filters (J' = J) succeed, and one failed filter
/// invalidates every candidate containing it.
struct Filter {
  JoinTree tree;
  /// φ'(i): the mapped column if its relation lies in `tree`, invalid
  /// ColumnRef for the paper's "*" (undefined).
  std::vector<ColumnRef> phi;
  int row = 0;

  /// Bit i set iff ET cell (row, i) is non-empty AND φ'(i) is defined —
  /// exactly the cells that contribute CONTAINS predicates. Cached because
  /// every dependency test consults it.
  uint32_t constrained_mask = 0;

  /// Subset of `constrained_mask`: cells flagged exact-match (§2.2
  /// Remarks), whose predicates require whole-cell equality.
  uint32_t exact_mask = 0;

  /// nF of §5.3.1: number of constrained cells.
  int NumConstrainedCells() const;

  /// cost(F): join-tree size (the estimated-cost unit used throughout the
  /// paper's experiments is the sum of join tree sizes).
  int Cost() const { return tree.NumVertices(); }

  friend bool operator==(const Filter& a, const Filter& b) {
    return a.row == b.row && a.tree == b.tree && a.phi == b.phi;
  }
};

/// Builds the filter Q(J', r) of candidate `query` (Definition 5): restricts
/// the projection to `subtree` and records the constrained-cell mask.
Filter MakeFilter(const CandidateQuery& query, const JoinTree& subtree,
                  const ExampleTable& et, int row);

/// The CONTAINS predicates evaluating this filter (Definition 6), without
/// token ids.
std::vector<PhrasePredicate> FilterPredicates(const Filter& filter,
                                              const ExampleTable& et);

/// Sub-filter relation: true iff `sub.tree` ⊆ `super.tree`, rows match, and
/// for every non-empty cell either sub's φ is undefined or equals super's.
/// By Lemmas 3 and 4 this single relation carries both dependencies:
///   failure(sub)  ⇒ failure(super)   (Lemma 3)
///   success(super) ⇒ success(sub)    (Lemma 4)
bool IsSubFilterOf(const Filter& sub, const Filter& super);

/// Lemma 1's candidate-level failure dependency, used by SIMPLEPRUNE:
/// failure of `failed` on row `row` implies failure of `other` on `row` iff
/// failed.tree ⊆ other.tree and the projections agree on every non-empty
/// cell of the row.
bool QueryFailureImplies(const CandidateQuery& failed,
                         const CandidateQuery& other, const ExampleTable& et,
                         int row);

}  // namespace qbe

#endif  // QBE_CORE_FILTER_H_
