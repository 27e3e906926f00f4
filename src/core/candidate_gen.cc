#include "core/candidate_gen.h"

#include <algorithm>
#include <iterator>

#include "ingest/db_view.h"
#include "kernels/kernels.h"
#include "schema/subtree_enum.h"
#include "util/check.h"

namespace qbe {
namespace {

/// Reusable buffers for CellColumns.
struct CellScratch {
  std::vector<uint32_t> ids;
  std::vector<int> view_matches;
  std::vector<int> merged;
  std::vector<int> union_buf;
};

/// The gids of the text columns containing ET cell (r, c) in any of
/// `views` (sorted ascending; aliases `s->merged`). Tokens are resolved
/// against each view's own dictionary: a token absent from a shard matches
/// nothing there, which is what the global answer needs. With one view
/// this is that view's lookup.
const std::vector<int>& CellColumns(std::span<const DbView> views,
                                    const ExampleTable& et, int r, int c,
                                    CellScratch* s) {
  views[0].IdsOfInto(et.CellTokens(r, c), &s->ids);
  views[0].ColumnsContainingIdsInto(s->ids, &s->merged);
  for (const DbView& view : views.subspan(1)) {
    view.IdsOfInto(et.CellTokens(r, c), &s->ids);
    view.ColumnsContainingIdsInto(s->ids, &s->view_matches);
    if (s->view_matches.empty()) continue;
    s->union_buf.clear();
    std::set_union(s->merged.begin(), s->merged.end(),
                   s->view_matches.begin(), s->view_matches.end(),
                   std::back_inserter(s->union_buf));
    s->merged.swap(s->union_buf);
  }
  return s->merged;
}

}  // namespace

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumns(
    std::span<const DbView> views, const ExampleTable& et) {
  QBE_CHECK_MSG(!views.empty(), "retrieval needs at least one view");
  std::vector<std::vector<ColumnRef>> result(et.num_columns());
  CellScratch cell;
  std::vector<int> scratch;
  for (int c = 0; c < et.num_columns(); ++c) {
    // Fold the per-row column lists into their intersection; the
    // intersection runs on the dispatched kernel layer (DESIGN.md §14).
    std::vector<int> gids;
    bool first = true;
    for (int r = 0; r < et.num_rows() && (first || !gids.empty()); ++r) {
      if (et.cell(r, c).IsEmpty()) continue;
      const std::vector<int>& matches = CellColumns(views, et, r, c, &cell);
      if (first) {
        gids = matches;
        first = false;
      } else {
        kernels::IntersectSortedInPlace(&gids, matches, &scratch);
      }
    }
    // A well-formed ET has at least one non-empty cell per column
    // (Definition 1 forbids empty columns).
    QBE_CHECK_MSG(!first, "example table has an empty column");
    for (int gid : gids) result[c].push_back(views[0].TextColumnByGid(gid));
  }
  return result;
}

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumnsRelaxed(
    std::span<const DbView> views, const ExampleTable& et,
    int min_row_support) {
  QBE_CHECK_MSG(!views.empty(), "retrieval needs at least one view");
  const Database& db = views[0].base();
  int need = std::min(min_row_support, et.num_rows());
  std::vector<std::vector<ColumnRef>> result(et.num_columns());
  CellScratch cell;
  for (int c = 0; c < et.num_columns(); ++c) {
    // Per-column compatible-row counts; empty cells are compatible with
    // every column and contribute a base count instead.
    std::vector<int> counts(db.TotalTextColumns(), 0);
    int empty_rows = 0;
    for (int r = 0; r < et.num_rows(); ++r) {
      if (et.cell(r, c).IsEmpty()) {
        ++empty_rows;
        continue;
      }
      for (int gid : CellColumns(views, et, r, c, &cell)) counts[gid] += 1;
    }
    for (int gid = 0; gid < db.TotalTextColumns(); ++gid) {
      if (counts[gid] + empty_rows >= need) {
        result[c].push_back(db.TextColumnByGid(gid));
      }
    }
  }
  return result;
}

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumns(
    const DbView& view, const ExampleTable& et) {
  return RetrieveCandidateColumns(std::span<const DbView>(&view, 1), et);
}

std::vector<std::vector<ColumnRef>> RetrieveCandidateColumnsRelaxed(
    const DbView& view, const ExampleTable& et, int min_row_support) {
  return RetrieveCandidateColumnsRelaxed(std::span<const DbView>(&view, 1), et,
                                         min_row_support);
}

namespace {

/// Recursively assigns ET columns to candidate columns within the tree,
/// emitting every minimal assignment.
void AssignColumns(const Database& db, const SchemaGraph& graph,
                   const JoinTree& tree,
                   const std::vector<std::vector<ColumnRef>>& options,
                   size_t max_candidates, size_t column,
                   std::vector<ColumnRef>& assignment,
                   std::vector<CandidateQuery>& out) {
  if (out.size() >= max_candidates) return;
  if (column == options.size()) {
    CandidateQuery query{tree, assignment};
    if (IsMinimalCandidate(query, graph)) out.push_back(std::move(query));
    return;
  }
  for (const ColumnRef& choice : options[column]) {
    assignment[column] = choice;
    AssignColumns(db, graph, tree, options, max_candidates, column + 1,
                  assignment, out);
    if (out.size() >= max_candidates) return;
  }
}

}  // namespace

std::vector<CandidateQuery> EnumerateCandidateQueries(
    const Database& db, const SchemaGraph& graph, const ExampleTable& et,
    const std::vector<std::vector<ColumnRef>>& candidate_columns,
    const CandidateGenOptions& options) {
  (void)et;  // the ET's constraints arrive pre-digested in candidate_columns
  std::vector<CandidateQuery> out;
  // Relations hosting at least one candidate projection column; every
  // useful join tree touches one, and all its leaves must lie in this set.
  RelationSet hosting;
  for (const auto& cols : candidate_columns) {
    if (cols.empty()) return out;  // some ET column is unmatchable
    for (const ColumnRef& col : cols) hosting.Set(col.rel);
  }

  for (const JoinTree& tree :
       EnumerateSubtrees(graph, options.max_join_tree_size, &hosting)) {
    // Minimality requires every leaf to host a mapped column; leaves
    // outside `hosting` can never be mapped, so skip such trees outright.
    bool leaves_ok = true;
    for (int leaf : tree.LeafVertices(graph)) {
      if (!hosting.Test(leaf)) {
        leaves_ok = false;
        break;
      }
    }
    if (!leaves_ok) continue;

    // Restrict each ET column's options to columns inside this tree.
    std::vector<std::vector<ColumnRef>> in_tree(candidate_columns.size());
    bool feasible = true;
    for (size_t c = 0; c < candidate_columns.size() && feasible; ++c) {
      for (const ColumnRef& col : candidate_columns[c]) {
        if (tree.verts.Test(col.rel)) in_tree[c].push_back(col);
      }
      feasible = !in_tree[c].empty();
    }
    if (!feasible) continue;

    std::vector<ColumnRef> assignment(candidate_columns.size());
    AssignColumns(db, graph, tree, in_tree, options.max_candidates, 0,
                  assignment, out);
    if (out.size() >= options.max_candidates) break;
  }
  return out;
}

std::vector<CandidateQuery> GenerateCandidates(
    const Database& db, const SchemaGraph& graph, const ExampleTable& et,
    const CandidateGenOptions& options) {
  return EnumerateCandidateQueries(db, graph, et,
                                   RetrieveCandidateColumns(DbView(db), et),
                                   options);
}

}  // namespace qbe
