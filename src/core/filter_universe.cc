#include "core/filter_universe.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "schema/subtree_enum.h"
#include "util/check.h"
#include "util/hash64.h"

namespace qbe {
namespace {

/// One step of a multiplicative hash combine. Mix(0, x) is a bijection, so
/// distinct packed keys never collide.
uint64_t Mix(uint64_t h, uint64_t x) {
  h = (h ^ x) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 29);
}

uint64_t MixColumn(uint64_t h, const ColumnRef& col) {
  return Mix(h, (static_cast<uint64_t>(col.rel + 1) << 32) |
                    static_cast<uint32_t>(col.col + 1));
}

/// Open-addressing hash index over dense ids whose keys live in the
/// caller's arrays: a slot holds an id and its key hash, and the caller's
/// predicate decides key equality.
class IdIndex {
 public:
  template <typename Eq>
  int Find(uint64_t hash, Eq eq) const {
    if (slots_.empty()) return -1;
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id < 0) return -1;
      if (slot.hash == hash && eq(slot.id)) return slot.id;
    }
  }

  /// Adds `id`, whose key must not be present yet.
  void Insert(uint64_t hash, int id) {
    if (2 * (size_ + 1) > slots_.size()) {
      std::vector<Slot> old = std::move(slots_);
      slots_.assign(std::max<size_t>(64, 2 * old.size()), Slot{});
      mask_ = slots_.size() - 1;
      for (const Slot& slot : old) {
        if (slot.id >= 0) Place(slot);
      }
    }
    Place({hash, id});
    ++size_;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    int id = -1;
  };

  void Place(const Slot& entry) {
    size_t i = entry.hash & mask_;
    while (slots_[i].id >= 0) i = (i + 1) & mask_;
    slots_[i] = entry;
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace

Csr Csr::Transposed(int num_targets) const {
  Csr t;
  t.offsets.assign(num_targets + 1, 0);
  for (int id : ids) t.offsets[id + 1] += 1;
  for (int j = 0; j < num_targets; ++j) t.offsets[j + 1] += t.offsets[j];
  t.ids.resize(ids.size());
  std::vector<int> fill(t.offsets.begin(), t.offsets.end() - 1);
  for (int i = 0; i < size(); ++i) {
    for (int id : (*this)[i]) t.ids[fill[id]++] = i;
  }
  return t;
}

int FilterClass::NumConstrainedCells() const {
  return std::popcount(constrained_mask);
}

FilterUniverse::FilterRange::Iterator::Iterator(const FilterRange* range,
                                                int k)
    : range_(range), k_(k) {
  std::span<const int> members = range_->ClassMembers(k_);
  pos_ = members.data();
  end_ = members.data() + members.size();
  Settle();
}

void FilterUniverse::FilterRange::Iterator::Settle() {
  for (;;) {
    if (pos_ == end_) {
      if (++k_ > static_cast<int>(range_->classes_.size())) {
        pos_ = nullptr;
        return;
      }
      std::span<const int> members = range_->ClassMembers(k_);
      pos_ = members.data();
      end_ = members.data() + members.size();
    } else if (*pos_ == range_->self_) {
      ++pos_;
    } else {
      return;
    }
  }
}

std::span<const int> FilterUniverse::FilterRange::ClassMembers(int k) const {
  return u_->filters_of_class[k == 0 ? u_->filters[self_].cls
                                     : classes_[k - 1]];
}

size_t FilterUniverse::FilterRange::size() const {
  size_t n = ClassMembers(0).size() - 1;
  for (int c : classes_) n += u_->filters_of_class[c].size();
  return n;
}

Filter FilterUniverse::Materialize(int f) const {
  const FilterRecord& rec = filters[f];
  const FilterClass& cls = classes[rec.cls];
  std::span<const ColumnRef> phi = Phi(rec.projection);
  Filter filter;
  filter.tree = trees[rec.tree];
  filter.phi.assign(phi.begin(), phi.end());
  filter.row = rec.row;
  filter.constrained_mask = cls.constrained_mask;
  filter.exact_mask = cls.exact_mask;
  return filter;
}

namespace {

/// Builds one universe in place: interns trees, projections, classes and
/// filters, then derives the class order.
class UniverseInterner {
 public:
  UniverseInterner(FilterUniverse* u, const SchemaGraph& graph,
                   const ExampleTable& et)
      : u_(*u), graph_(graph), num_rows_(et.num_rows()) {
    nonempty_cells_.assign(num_rows_, 0);
    exact_cells_.assign(num_rows_, 0);
    for (int row = 0; row < num_rows_; ++row) {
      for (int c = 0; c < u_.num_columns; ++c) {
        const EtCell& cell = et.cell(row, c);
        if (cell.IsEmpty()) continue;
        nonempty_cells_[row] |= uint32_t{1} << c;
        if (cell.exact) exact_cells_[row] |= uint32_t{1} << c;
      }
    }
  }

  void Build(const std::vector<CandidateQuery>& candidates) {
    for (const CandidateQuery& query : candidates) AddCandidate(query);
    u_.queries_of_filter = u_.filters_of_query.Transposed(u_.num_filters());
    Csr class_of_filter;
    for (const FilterRecord& rec : u_.filters) {
      class_of_filter.ids.push_back(rec.cls);
      class_of_filter.EndList();
    }
    u_.filters_of_class = class_of_filter.Transposed(u_.num_classes());
    BuildClassOrder();
  }

 private:
  int InternTree(const JoinTree& tree) {
    auto [it, inserted] =
        tree_ids_.emplace(tree, static_cast<int>(u_.trees.size()));
    if (inserted) u_.trees.push_back(tree);
    return it->second;
  }

  /// The connected subtrees of candidate tree `tree`, enumerated once per
  /// distinct tree.
  const std::vector<int>& SubtreesOfCandidateTree(int tree) {
    if (tree >= static_cast<int>(subtrees_of_candidate_tree_.size())) {
      subtrees_of_candidate_tree_.resize(tree + 1);
    }
    if (subtrees_of_candidate_tree_[tree].empty()) {
      std::vector<int> ids;
      for (const JoinTree& sub :
           EnumerateSubtreesOfTree(u_.trees[tree], graph_)) {
        ids.push_back(InternTree(sub));
      }
      subtrees_of_candidate_tree_[tree] = std::move(ids);
    }
    return subtrees_of_candidate_tree_[tree];
  }

  /// The projection (tree, φ' = `query`'s projection restricted to tree).
  int InternProjection(int tree, const CandidateQuery& query) {
    const RelationSet& verts = u_.trees[tree].verts;
    uint64_t h = Mix(0, static_cast<uint64_t>(tree));
    uint32_t defined = 0;
    for (int c = 0; c < u_.num_columns; ++c) {
      const ColumnRef& col = query.projection[c];
      const bool in_tree = verts.Test(col.rel);
      h = MixColumn(h, in_tree ? col : ColumnRef{});
      if (in_tree) defined |= uint32_t{1} << c;
    }
    int p = projection_index_.Find(h, [&](int id) {
      if (projection_tree_[id] != tree || defined_cells_[id] != defined) {
        return false;
      }
      std::span<const ColumnRef> phi = u_.Phi(id);
      for (int c = 0; c < u_.num_columns; ++c) {
        if ((defined >> c & 1) && !(phi[c] == query.projection[c])) {
          return false;
        }
      }
      return true;
    });
    if (p >= 0) return p;
    p = static_cast<int>(projection_tree_.size());
    projection_index_.Insert(h, p);
    projection_tree_.push_back(tree);
    defined_cells_.push_back(defined);
    for (int c = 0; c < u_.num_columns; ++c) {
      u_.phi_cells.push_back((defined >> c & 1) ? query.projection[c]
                                                : ColumnRef{});
    }
    return p;
  }

  /// Class key hash: (tree, row, constrained mask, φ' on the mask's cells).
  static uint64_t ClassHash(int tree, int row, uint32_t mask,
                            std::span<const ColumnRef> phi) {
    uint64_t h = Mix(Mix(Mix(0, static_cast<uint64_t>(tree)), row), mask);
    for (uint32_t m = mask; m != 0; m &= m - 1) {
      h = MixColumn(h, phi[std::countr_zero(m)]);
    }
    return h;
  }

  int FindClass(uint64_t h, int tree, int row, uint32_t mask,
                std::span<const ColumnRef> phi) const {
    return class_index_.Find(h, [&](int c) {
      const FilterClass& k = u_.classes[c];
      if (k.tree != tree || k.row != row || k.constrained_mask != mask) {
        return false;
      }
      std::span<const ColumnRef> other = u_.Phi(k.projection);
      for (uint32_t m = mask; m != 0; m &= m - 1) {
        const int cell = std::countr_zero(m);
        if (!(other[cell] == phi[cell])) return false;
      }
      return true;
    });
  }

  int InternClass(int projection, int row) {
    const int tree = projection_tree_[projection];
    const uint32_t mask = defined_cells_[projection] & nonempty_cells_[row];
    std::span<const ColumnRef> phi = u_.Phi(projection);
    const uint64_t h = ClassHash(tree, row, mask, phi);
    int c = FindClass(h, tree, row, mask, phi);
    if (c >= 0) return c;
    c = u_.num_classes();
    class_index_.Insert(h, c);
    u_.classes.push_back({.tree = tree,
                          .row = row,
                          .projection = projection,
                          .tree_size = u_.trees[tree].NumVertices(),
                          .constrained_mask = mask,
                          .exact_mask = mask & exact_cells_[row]});
    return c;
  }

  /// Appends the candidate's filters, rows × subtrees, interning new ones
  /// in first-appearance order.
  void AddCandidate(const CandidateQuery& query) {
    const int tree = InternTree(query.tree);
    const std::vector<int>& subtrees = SubtreesOfCandidateTree(tree);
    projections_.clear();
    for (int sub : subtrees) {
      projections_.push_back(InternProjection(sub, query));
    }
    const size_t basic_begin = u_.basic_filters_of_query.ids.size();
    for (int row = 0; row < num_rows_; ++row) {
      for (size_t k = 0; k < subtrees.size(); ++k) {
        const int p = projections_[k];
        const uint64_t h =
            Mix(0, static_cast<uint64_t>(p) << 32 | static_cast<uint32_t>(row));
        int f = filter_index_.Find(h, [&](int id) {
          return u_.filters[id].projection == p && u_.filters[id].row == row;
        });
        if (f < 0) {
          f = u_.num_filters();
          filter_index_.Insert(h, f);
          u_.filters.push_back({.tree = subtrees[k],
                                .projection = p,
                                .row = row,
                                .cls = InternClass(p, row)});
        }
        u_.filters_of_query.ids.push_back(f);
        if (subtrees[k] == tree) u_.basic_filters_of_query.ids.push_back(f);
      }
    }
    QBE_CHECK(u_.basic_filters_of_query.ids.size() - basic_begin ==
              static_cast<size_t>(num_rows_));
    u_.filters_of_query.EndList();
    u_.basic_filters_of_query.EndList();
  }

  /// The class order. Class d is a sub-class of c iff d's tree is a subtree
  /// of c's, the rows match, d's constrained cells are a subset of c's and
  /// φ' agrees on them (IsSubFilterOf). The cells d may constrain are those
  /// of c whose column lies in d's tree, and a sub-filter may leave any of
  /// them unconstrained, so each subset of them is one lookup. Only the
  /// masks some class of (d's tree, row) has are probed.
  void BuildClassOrder() {
    // The subtree lattice, once per distinct tree: lattice[t] lists every
    // tree that is a subtree of trees[t], t included.
    const int num_trees = static_cast<int>(u_.trees.size());
    Csr lattice;
    for (int t = 0; t < num_trees; ++t) {
      for (int s = 0; s < num_trees; ++s) {
        if (u_.trees[s].IsSubtreeOf(u_.trees[t])) lattice.ids.push_back(s);
      }
      lattice.EndList();
    }
    std::vector<std::vector<uint32_t>> masks_at(
        static_cast<size_t>(num_trees) * num_rows_);
    for (const FilterClass& k : u_.classes) {
      std::vector<uint32_t>& masks = masks_at[k.tree * num_rows_ + k.row];
      if (std::find(masks.begin(), masks.end(), k.constrained_mask) ==
          masks.end()) {
        masks.push_back(k.constrained_mask);
      }
    }

    Csr& subs = u_.sub_classes;
    for (int c = 0; c < u_.num_classes(); ++c) {
      const FilterClass& k = u_.classes[c];
      std::span<const ColumnRef> phi = u_.Phi(k.projection);
      const size_t first = subs.ids.size();
      for (int sub : lattice[k.tree]) {
        const RelationSet& verts = u_.trees[sub].verts;
        uint32_t allowed = 0;
        for (uint32_t m = k.constrained_mask; m != 0; m &= m - 1) {
          const int cell = std::countr_zero(m);
          if (verts.Test(phi[cell].rel)) allowed |= uint32_t{1} << cell;
        }
        for (uint32_t mask : masks_at[sub * num_rows_ + k.row]) {
          if ((mask & ~allowed) != 0) continue;
          const int d = FindClass(ClassHash(sub, k.row, mask, phi), sub,
                                  k.row, mask, phi);
          if (d >= 0 && d != c) subs.ids.push_back(d);
        }
      }
      std::sort(subs.ids.begin() + first, subs.ids.end());
      subs.EndList();
    }
    u_.super_classes = subs.Transposed(u_.num_classes());
  }

  FilterUniverse& u_;
  const SchemaGraph& graph_;
  const int num_rows_;
  std::vector<uint32_t> nonempty_cells_, exact_cells_;  // per row
  std::unordered_map<JoinTree, int, JoinTreeHash> tree_ids_;
  std::vector<std::vector<int>> subtrees_of_candidate_tree_;
  // Per projection: its tree and the cells where φ' is defined.
  std::vector<int> projection_tree_;
  std::vector<uint32_t> defined_cells_;
  IdIndex projection_index_, class_index_, filter_index_;
  std::vector<int> projections_;  // AddCandidate scratch
};

}  // namespace

FilterUniverse BuildFilterUniverse(
    const SchemaGraph& graph, const ExampleTable& et,
    const std::vector<CandidateQuery>& candidates) {
  return FilterUniverse(graph, et, candidates);
}

FilterUniverse::FilterUniverse(const SchemaGraph& graph,
                               const ExampleTable& et,
                               const std::vector<CandidateQuery>& candidates)
    : num_columns(et.num_columns()) {
  UniverseInterner(this, graph, et).Build(candidates);
}

}  // namespace qbe
