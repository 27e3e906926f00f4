#ifndef QBE_CORE_FILTER_UNIVERSE_H_
#define QBE_CORE_FILTER_UNIVERSE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "core/candidate_query.h"
#include "core/example_table.h"
#include "core/filter.h"
#include "schema/schema_graph.h"

namespace qbe {

/// Compressed sparse rows: list i is ids[offsets[i], offsets[i + 1]).
struct Csr {
  std::vector<int> offsets = {0};
  std::vector<int> ids;

  int size() const { return static_cast<int>(offsets.size()) - 1; }
  std::span<const int> operator[](int i) const {
    return {ids.data() + offsets[i], ids.data() + offsets[i + 1]};
  }
  /// Closes the list being appended to `ids`.
  void EndList() { offsets.push_back(static_cast<int>(ids.size())); }
  /// The inverse relation over `num_targets` lists: j lists i iff i lists
  /// j. Each transposed list is in ascending order.
  Csr Transposed(int num_targets) const;
};

/// One interned filter (Definition 5): a connected subtree of a candidate's
/// join tree, the candidate's projection restricted to it, and an ET row.
struct FilterRecord {
  int tree = 0;        // FilterUniverse::trees
  int projection = 0;  // FilterUniverse::Phi
  int row = 0;
  int cls = 0;         // FilterUniverse::classes
};

/// Filters with one tree and one row that agree on φ' on every constrained
/// cell (non-empty, φ' defined). They differ only where a cell is empty, so
/// all of them evaluate the same existence query and each is a sub-filter
/// of every other: an outcome of one is the outcome of the whole class.
struct FilterClass {
  int tree = 0;
  int row = 0;
  int projection = 0;  // φ' of the first member
  int tree_size = 0;   // cost(F) of §5.2: join-tree size
  uint32_t constrained_mask = 0;
  uint32_t exact_mask = 0;

  /// nF of §5.3.1: number of constrained cells.
  int NumConstrainedCells() const;

  /// True iff the class is guaranteed to succeed without evaluation: a
  /// single-relation filter with at most one constrained cell, none of
  /// them exact-match. The column constraint established during candidate
  /// generation (Eq. 2) already proves the cell value is *contained* in
  /// the mapped column, so the TOP-1 existence query cannot be empty.
  /// (Exact-match cells are excluded: the column index proves containment
  /// only.) Algorithm 1 marks such filters known-successful up front
  /// instead of spending verifications on them — provided the relation has
  /// live rows.
  bool IsTriviallySuccessful() const {
    return tree_size == 1 && NumConstrainedCells() <= 1 && exact_mask == 0;
  }
};

/// The deduplicated set F = ∪_Q F(Q) of all filters of all candidates
/// (§5.2), interned as flat records, with the bipartite membership
/// structure and the sub-filter order needed by Algorithm 1:
///
///  * queries_of_filter[f]  — Q→−(F): candidates Q with F ∈ F(Q); a failed
///    filter invalidates exactly these (Lemma 2).
///  * filters_of_query[q]   — F(Q).
///  * basic_filters_of_query[q] — FB(Q): one filter per ET row (J' = J).
///  * sub_classes[c] / super_classes[c] — the sub-filter order between
///    filter classes, transitively closed, without c itself.
///  * supers_of[f] — F→−(F) \ {F}: failure of f implies failure of these
///    (Lemma 3).
///  * subs_of[f]   — F→+(F) \ {F}: success of f implies success of these
///    (Lemma 4).
///
/// supers_of and subs_of are views over the class order: the other
/// members of f's class followed by every member of each super- (sub-)
/// class. Their sizes are the filter-level edge counts, but nothing per
/// filter pair is stored. The views point into the universe, so it can be
/// neither copied nor moved.
struct FilterUniverse {
  /// The filters related to one filter through the class order.
  class FilterRange {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = int;
      using difference_type = std::ptrdiff_t;
      using pointer = const int*;
      using reference = int;

      Iterator() = default;
      int operator*() const { return *pos_; }
      Iterator& operator++() {
        ++pos_;
        Settle();
        return *this;
      }
      Iterator operator++(int) {
        Iterator old = *this;
        ++*this;
        return old;
      }
      friend bool operator==(const Iterator& a, const Iterator& b) {
        return a.pos_ == b.pos_;
      }

     private:
      friend class FilterRange;
      Iterator(const FilterRange* range, int k);
      /// Moves to the next member that is not the range's own filter.
      void Settle();

      const FilterRange* range_ = nullptr;
      int k_ = 0;  // 0: own class; k > 0: classes[k - 1]
      const int* pos_ = nullptr;
      const int* end_ = nullptr;
    };

    Iterator begin() const { return Iterator(this, 0); }
    Iterator end() const { return Iterator(); }
    size_t size() const;

   private:
    friend struct FilterUniverse;
    FilterRange(const FilterUniverse* u, int self, std::span<const int> classes)
        : u_(u), self_(self), classes_(classes) {}
    std::span<const int> ClassMembers(int k) const;

    const FilterUniverse* u_;
    int self_;
    std::span<const int> classes_;
  };

  /// Indexes the per-filter view of one direction of the class order.
  class DependencyView {
   public:
    DependencyView(const FilterUniverse* u, const Csr* classes)
        : u_(u), classes_(classes) {}
    FilterRange operator[](int f) const {
      return FilterRange(u_, f, (*classes_)[u_->filters[f].cls]);
    }

   private:
    const FilterUniverse* u_;
    const Csr* classes_;
  };

  FilterUniverse(const FilterUniverse&) = delete;
  FilterUniverse& operator=(const FilterUniverse&) = delete;

  int num_filters() const { return static_cast<int>(filters.size()); }
  int num_classes() const { return static_cast<int>(classes.size()); }

  /// φ' of interned projection p: one entry per ET column, invalid where
  /// the column's relation lies outside the projection's tree.
  std::span<const ColumnRef> Phi(int p) const {
    return {phi_cells.data() + static_cast<size_t>(p) * num_columns,
            static_cast<size_t>(num_columns)};
  }

  /// The filter as a self-contained value (the form MakeFilter builds).
  Filter Materialize(int f) const;

  /// Distinct join trees: every candidate tree and all their connected
  /// subtrees.
  std::vector<JoinTree> trees;
  int num_columns = 0;
  std::vector<ColumnRef> phi_cells;  // num_columns entries per projection
  std::vector<FilterRecord> filters;
  std::vector<FilterClass> classes;
  Csr filters_of_class;
  Csr sub_classes;
  Csr super_classes;
  Csr queries_of_filter;
  Csr filters_of_query;
  Csr basic_filters_of_query;
  DependencyView supers_of{this, &super_classes};
  DependencyView subs_of{this, &sub_classes};

 private:
  friend FilterUniverse BuildFilterUniverse(
      const SchemaGraph&, const ExampleTable&,
      const std::vector<CandidateQuery>&);
  FilterUniverse(const SchemaGraph& graph, const ExampleTable& et,
                 const std::vector<CandidateQuery>& candidates);
};

/// Builds the universe. Filter ids follow first appearance over candidates
/// × rows × connected subtrees. The connected-subtree list and the subtree
/// lattice are computed once per distinct tree, and the class order is
/// found by hashed lookup: for each class and each subtree of its tree,
/// every subset of its constrained cells that lie in the subtree names at
/// most one sub-class. The work grows with the filters and class edges, not
/// with pairs of filters.
FilterUniverse BuildFilterUniverse(const SchemaGraph& graph,
                                   const ExampleTable& et,
                                   const std::vector<CandidateQuery>&
                                       candidates);

}  // namespace qbe

#endif  // QBE_CORE_FILTER_UNIVERSE_H_
