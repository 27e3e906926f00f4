#ifndef QBE_TESTS_TEST_UTIL_H_
#define QBE_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "core/filter.h"
#include "core/filter_universe.h"
#include "exec/predicate.h"
#include "schema/join_tree.h"
#include "schema/schema_graph.h"
#include "storage/database.h"
#include "text/tokenizer.h"
#include "util/check.h"

namespace qbe {
namespace test {

/// ColumnRef from a "Relation.Column" string.
inline ColumnRef Col(const Database& db, const std::string& qualified) {
  size_t dot = qualified.find('.');
  QBE_CHECK(dot != std::string::npos);
  int rel = db.RelationIdByName(qualified.substr(0, dot));
  QBE_CHECK(rel >= 0);
  int col = db.relation(rel).ColumnIndexByName(qualified.substr(dot + 1));
  QBE_CHECK(col >= 0);
  return ColumnRef{rel, col};
}

/// Join tree from relation names, connected greedily via schema edges.
inline JoinTree Tree(const Database& db, const SchemaGraph& graph,
                     const std::vector<std::string>& names) {
  JoinTree tree = JoinTree::Single(db.RelationIdByName(names[0]));
  std::vector<int> wanted;
  for (size_t i = 1; i < names.size(); ++i) {
    wanted.push_back(db.RelationIdByName(names[i]));
  }
  while (!wanted.empty()) {
    bool advanced = false;
    for (size_t i = 0; i < wanted.size() && !advanced; ++i) {
      for (int e = 0; e < graph.num_edges() && !advanced; ++e) {
        const SchemaGraph::Edge& edge = graph.edge(e);
        bool from_in = tree.verts.Test(edge.from);
        bool to_in = tree.verts.Test(edge.to);
        if (from_in == to_in) continue;
        int other = from_in ? edge.to : edge.from;
        if (other != wanted[i]) continue;
        tree = ExtendTree(tree, graph, e);
        wanted.erase(wanted.begin() + i);
        advanced = true;
      }
    }
    QBE_CHECK_MSG(advanced, "relations not connectable into a tree");
  }
  return tree;
}

/// Filter `f` of `u` as a self-contained value (the form MakeFilter
/// builds), for comparing universe records against the Definition 5 oracle.
inline Filter Materialize(const FilterUniverse& u, int f) {
  const FilterRecord& rec = u.filters[f];
  const FilterClass& cls = u.classes[rec.cls];
  std::span<const ColumnRef> phi = u.Phi(rec.projection);
  Filter filter;
  filter.tree = u.trees[rec.tree];
  filter.phi.assign(phi.begin(), phi.end());
  filter.row = rec.row;
  filter.constrained_mask = cls.constrained_mask;
  filter.exact_mask = cls.exact_mask;
  return filter;
}

/// Reference (index-free, exponential) implementation of the existence
/// query: enumerates every combination of rows over the tree's relations
/// and checks all join conditions and phrase predicates. Only usable on
/// tiny databases; validates the executor's semijoin algorithm.
inline bool BruteForceExists(const Database& db, const SchemaGraph& graph,
                             const JoinTree& tree,
                             const std::vector<PhrasePredicate>& predicates) {
  (void)graph;
  std::vector<int> vertices = tree.Vertices();
  std::vector<int> edge_ids = tree.EdgeIds();
  std::vector<uint32_t> assignment(vertices.size(), 0);
  auto vertex_pos = [&](int rel) {
    for (size_t i = 0; i < vertices.size(); ++i) {
      if (vertices[i] == rel) return static_cast<int>(i);
    }
    return -1;
  };
  // Odometer over the cartesian product.
  for (;;) {
    bool ok = true;
    for (int e : edge_ids) {
      const ForeignKey& fk = db.foreign_key(e);
      int64_t lhs = db.relation(fk.from_rel)
                        .IdAt(fk.from_col, assignment[vertex_pos(fk.from_rel)]);
      int64_t rhs = db.relation(fk.to_rel)
                        .IdAt(fk.to_col, assignment[vertex_pos(fk.to_rel)]);
      if (lhs != rhs) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (const PhrasePredicate& pred : predicates) {
        const std::string_view cell =
            db.relation(pred.column.rel)
                .TextAt(pred.column.col,
                        assignment[vertex_pos(pred.column.rel)]);
        std::vector<std::string> cell_tokens = Tokenize(cell);
        bool match = pred.exact ? cell_tokens == pred.tokens
                                : IsTokenSubsequence(pred.tokens, cell_tokens);
        if (!match) {
          ok = false;
          break;
        }
      }
    }
    if (ok) return true;
    // Advance odometer.
    size_t pos = 0;
    while (pos < vertices.size()) {
      if (++assignment[pos] < db.relation(vertices[pos]).num_rows()) break;
      assignment[pos] = 0;
      ++pos;
    }
    if (pos == vertices.size()) return false;
  }
}

}  // namespace test
}  // namespace qbe

#endif  // QBE_TESTS_TEST_UTIL_H_
