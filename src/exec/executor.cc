#include "exec/executor.h"

#include <algorithm>
#include <unordered_set>

#include "kernels/kernels.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/intersect.h"

namespace qbe {
namespace {

/// Reusable per-thread buffers for the seed/semijoin hot path. Exists is
/// called thousands of times per request; with these, its steady state
/// allocates nothing — clear() keeps vector capacity.
/// Safe because SeedNode/Semijoin never recurse: each use is bracketed
/// within one call, even though Reduce recurses around them.
struct ExecScratch {
  std::vector<uint32_t> ids;      // resolved token ids of one predicate
  std::vector<uint32_t> matches;  // one predicate's match rows
  std::vector<uint32_t> tmp;      // semijoin/seed result being built
  std::vector<uint32_t> tmp2;     // intersection output buffer
  std::vector<uint64_t> bits;     // row bitmap for semijoin dedup/membership
  std::vector<uint32_t> edge_rows;  // overlay-merged span backing (DbView)
};

ExecScratch& Scratch() {
  thread_local ExecScratch scratch;
  return scratch;
}

// The semijoin bitmaps use the kernel layer's scalar helpers (DESIGN.md
// §14): BitmapClear/BitmapSet/BitmapTest are single-op inlines, and
// kernels::BitmapEmitInto scans set words with ctz instead of testing bits
// one by one.
using kernels::BitmapClear;
using kernels::BitmapSet;
using kernels::BitmapTest;

}  // namespace

bool Executor::SeedNode(int vertex,
                        const std::vector<const PhrasePredicate*>& predicates,
                        NodeState* state, MatchCache* match_cache,
                        TraceContext* trace) const {
  state->rel = vertex;
  state->full = true;
  state->rows.clear();
  ExecScratch& scratch = Scratch();
  // Text-match phase span: covers every phrase probe of this node. Null
  // context (or a predicate-free seed) records nothing.
  ScopedSpan match_span(predicates.empty() ? nullptr : trace,
                        SpanKind::kTextMatch);
  for (const PhrasePredicate* pred : predicates) {
    // Predicates built by the discovery pipeline carry ids resolved once
    // per request; hand-built ones fall back to a per-call dictionary
    // lookup (heterogeneous — no string is materialized). Resolution goes
    // through the view so overlay-only vocabulary still gets real ids.
    std::span<const uint32_t> ids;
    if (pred->ids.size() == pred->tokens.size()) {
      ids = pred->ids;
    } else {
      view_.IdsOfInto(pred->tokens, &scratch.ids);
      ids = scratch.ids;
    }
    // Exact match is answered from the index (occurrence at position 0
    // covering the whole cell) — the cell is never re-tokenized.
    const std::vector<uint32_t>* matches = nullptr;
    std::shared_ptr<const std::vector<uint32_t>> cached;
    if (match_cache != nullptr) {
      cached = match_cache->GetOrCompute(
          view_.TextColumnGid(pred->column), pred->exact, ids,
          [&](std::vector<uint32_t>* out) {
            if (pred->exact) {
              view_.MatchExactIdsInto(pred->column, ids, out);
            } else {
              view_.MatchPhraseIdsInto(pred->column, ids, out);
            }
          });
      matches = cached.get();
    } else {
      if (pred->exact) {
        view_.MatchExactIdsInto(pred->column, ids, &scratch.matches);
      } else {
        view_.MatchPhraseIdsInto(pred->column, ids, &scratch.matches);
      }
      matches = &scratch.matches;
    }
    if (state->full) {
      state->full = false;
      state->rows.assign(matches->begin(), matches->end());
    } else {
      IntersectSortedInPlace(&state->rows, *matches, &scratch.tmp2);
    }
    if (state->Empty()) return false;
  }
  return true;
}

void Executor::Semijoin(NodeState* parent, int edge,
                        const NodeState& child) const {
  const ForeignKey& fk = view_.foreign_key(edge);
  ExecScratch& scratch = Scratch();

  if (fk.from_rel == parent->rel) {
    // Parent holds the FK, child is the PK side.
    if (child.full) {
      if (view_.EdgeHasNoDangling(edge)) return;  // every FK row has a partner
      const std::span<const uint32_t> valid =
          view_.ValidFromRows(edge, &scratch.edge_rows);
      if (parent->full) {
        parent->full = false;
        parent->rows.assign(valid.begin(), valid.end());
      } else {
        IntersectSortedInPlace(&parent->rows, valid, &scratch.tmp2);
      }
      return;
    }
    if (parent->full) {
      // Expand: referencing rows of each surviving child row. The spans of
      // distinct child rows are disjoint (every FK row references exactly
      // one PK row), so a bitmap emits the union already sorted — no
      // sort+unique pass.
      BitmapClear(&scratch.bits, view_.TotalRows(fk.from_rel));
      for (uint32_t child_row : child.rows) {
        for (uint32_t row :
             view_.ChildRowsOf(edge, child_row, &scratch.edge_rows)) {
          BitmapSet(&scratch.bits, row);
        }
      }
      kernels::BitmapEmitInto(scratch.bits, &scratch.tmp);
      parent->full = false;
      std::swap(parent->rows, scratch.tmp);
      return;
    }
    // Filter parent rows: keep those whose referenced row survived in the
    // child. Child membership is a bitmap test; the referenced row is an
    // O(1) join-index read (no key extraction, no hashing).
    BitmapClear(&scratch.bits, view_.TotalRows(fk.to_rel));
    kernels::BitmapSetBatch(&scratch.bits, child.rows);
    scratch.tmp.clear();
    for (uint32_t row : parent->rows) {
      int32_t referenced = view_.ParentRowOf(edge, row);
      if (referenced >= 0 &&
          BitmapTest(scratch.bits, static_cast<uint32_t>(referenced))) {
        scratch.tmp.push_back(row);
      }
    }
    std::swap(parent->rows, scratch.tmp);
    return;
  }

  // Parent is the PK side; child holds the FK.
  QBE_DCHECK(fk.to_rel == parent->rel);
  if (child.full) {
    const std::span<const uint32_t> referenced =
        view_.ReferencedRows(edge, &scratch.edge_rows);
    if (parent->full) {
      parent->full = false;
      parent->rows.assign(referenced.begin(), referenced.end());
    } else {
      IntersectSortedInPlace(&parent->rows, referenced, &scratch.tmp2);
    }
    return;
  }
  // Rows referenced by the surviving child rows, deduplicated in ascending
  // order via the bitmap (many child rows share a parent).
  BitmapClear(&scratch.bits, view_.TotalRows(fk.to_rel));
  for (uint32_t child_row : child.rows) {
    int32_t referenced = view_.ParentRowOf(edge, child_row);
    if (referenced >= 0) {
      BitmapSet(&scratch.bits, static_cast<uint32_t>(referenced));
    }
  }
  kernels::BitmapEmitInto(scratch.bits, &scratch.tmp);
  if (parent->full) {
    parent->full = false;
    std::swap(parent->rows, scratch.tmp);
  } else {
    IntersectSortedInPlace(&parent->rows, scratch.tmp, &scratch.tmp2);
  }
}

namespace {

/// Collects the subtree of `tree` reachable from `vertex` without crossing
/// `via_edge`, and whether any of its vertices carries a predicate. The
/// (root, verts, edges) triple is the memo identity of the subtree.
struct SubtreeScan {
  RelationSet verts;
  EdgeSet edges;
  bool has_predicates = false;
};

void ScanSubtree(const SchemaGraph& graph, const JoinTree& tree, int vertex,
                 int via_edge,
                 const std::vector<std::vector<const PhrasePredicate*>>&
                     preds_by_vertex,
                 SubtreeScan* scan) {
  scan->verts.Set(vertex);
  if (!preds_by_vertex[vertex].empty()) scan->has_predicates = true;
  for (int e : graph.IncidentEdges(vertex)) {
    if (e == via_edge || !tree.edges.Test(e) || scan->edges.Test(e)) continue;
    scan->edges.Set(e);
    ScanSubtree(graph, tree, graph.OtherEnd(e, vertex), e, preds_by_vertex,
                scan);
  }
}

}  // namespace

Executor::NodeState Executor::Reduce(
    const JoinTree& tree, int vertex, int via_edge,
    const std::vector<std::vector<const PhrasePredicate*>>& preds_by_vertex,
    bool* feasible, SubtreeMemo* memo, MatchCache* match_cache,
    TraceContext* trace) const {
  NodeState state;
  if (!SeedNode(vertex, preds_by_vertex[vertex], &state, match_cache,
                trace)) {
    *feasible = false;
    return state;
  }
  for (int e : graph_.IncidentEdges(vertex)) {
    if (e == via_edge || !tree.edges.Test(e)) continue;
    int child_vertex = graph_.OtherEnd(e, vertex);

    if (memo != nullptr) {
      SubtreeScan scan;
      ScanSubtree(graph_, tree, child_vertex, e, preds_by_vertex, &scan);
      if (!scan.has_predicates) {
        // Predicate-free subtree: its reduced root state depends only on
        // (root, verts, edges) and the database — reuse it across every
        // candidate and ET row of the request. An infeasible subtree is
        // stored as the canonical empty state so replay reproduces the
        // serial feasibility outcome.
        SubtreeKey key{child_vertex, scan.verts, scan.edges};
        std::shared_ptr<const NodeState> cached = memo->Lookup(key);
        if (cached == nullptr) {
          bool child_feasible = true;
          NodeState fresh = Reduce(tree, child_vertex, e, preds_by_vertex,
                                   &child_feasible, memo, match_cache,
                                   trace);
          if (!child_feasible) {
            fresh.full = false;
            fresh.rows.clear();
            fresh.rel = child_vertex;
          }
          cached = std::make_shared<const NodeState>(std::move(fresh));
          memo->Insert(key, cached);
        }
        if (cached->Empty()) {
          *feasible = false;
          return state;
        }
        Semijoin(&state, e, *cached);
        if (state.Empty()) {
          *feasible = false;
          return state;
        }
        continue;
      }
    }

    NodeState child = Reduce(tree, child_vertex, e, preds_by_vertex, feasible,
                             memo, match_cache, trace);
    if (!*feasible) return state;
    Semijoin(&state, e, child);
    if (state.Empty()) {
      *feasible = false;
      return state;
    }
  }
  return state;
}

bool Executor::Exists(const JoinTree& tree,
                      const std::vector<PhrasePredicate>& predicates,
                      SubtreeMemo* memo, MatchCache* match_cache,
                      TraceContext* trace) const {
  // Bucket predicates by vertex without copying them; the per-thread bucket
  // vectors keep their capacity across calls.
  thread_local std::vector<std::vector<const PhrasePredicate*>>
      preds_by_vertex;
  if (preds_by_vertex.size() < static_cast<size_t>(graph_.num_vertices())) {
    preds_by_vertex.resize(graph_.num_vertices());
  }
  for (auto& bucket : preds_by_vertex) bucket.clear();
  int root = -1;
  for (const PhrasePredicate& pred : predicates) {
    QBE_CHECK_MSG(tree.verts.Test(pred.column.rel),
                  "predicate column outside join tree");
    preds_by_vertex[pred.column.rel].push_back(&pred);
    root = pred.column.rel;  // root at some predicate node
  }
  if (root < 0) root = tree.verts.First();
  QBE_CHECK(root >= 0);
  bool feasible = true;
  NodeState state = Reduce(tree, root, -1, preds_by_vertex, &feasible, memo,
                           match_cache, trace);
  if (!feasible) return false;
  if (state.full) return view_.LiveRows(root) > 0;
  return !state.rows.empty();
}

std::vector<std::vector<uint32_t>> Executor::MaterializeAssignments(
    const JoinTree& tree, const std::vector<PhrasePredicate>& predicates,
    size_t limit, std::vector<int>* vertex_order) const {
  std::vector<std::vector<uint32_t>> results;
  if (limit == 0) return results;

  std::vector<std::vector<const PhrasePredicate*>> preds_by_vertex(
      graph_.num_vertices());
  for (const PhrasePredicate& pred : predicates) {
    QBE_CHECK(tree.verts.Test(pred.column.rel));
    preds_by_vertex[pred.column.rel].push_back(&pred);
  }

  // Seed every node; remember per-node candidate sets for filtering.
  std::vector<int> vertices = tree.Vertices();
  std::vector<NodeState> seeded(graph_.num_vertices());
  for (int v : vertices) {
    if (!SeedNode(v, preds_by_vertex[v], &seeded[v], nullptr, nullptr))
      return results;
  }

  // Root at the most selective node (fewest candidate rows; an
  // unconstrained node counts its full relation).
  int root = vertices[0];
  size_t best = SIZE_MAX;
  for (int v : vertices) {
    size_t sz = seeded[v].full ? static_cast<size_t>(view_.LiveRows(v))
                               : seeded[v].rows.size();
    if (sz < best || (sz == best && !seeded[v].full)) {
      best = sz;
      root = v;
    }
  }

  // BFS order from root; each vertex is joined via the edge to its parent.
  std::vector<int> order = {root};
  std::vector<int> via_edge = {-1};
  std::vector<int> parent_pos = {-1};
  {
    RelationSet visited;
    visited.Set(root);
    for (size_t i = 0; i < order.size(); ++i) {
      int v = order[i];
      for (int e : graph_.IncidentEdges(v)) {
        if (!tree.edges.Test(e)) continue;
        int other = graph_.OtherEnd(e, v);
        if (visited.Test(other)) continue;
        visited.Set(other);
        order.push_back(other);
        via_edge.push_back(e);
        parent_pos.push_back(static_cast<int>(i));
      }
    }
  }
  if (vertex_order != nullptr) *vertex_order = order;

  // Membership filters for non-root nodes.
  std::vector<std::unordered_set<uint32_t>> allowed(order.size());
  for (size_t i = 1; i < order.size(); ++i) {
    const NodeState& s = seeded[order[i]];
    if (!s.full) allowed[i] = {s.rows.begin(), s.rows.end()};
  }

  std::vector<uint32_t> assignment(order.size(), 0);
  // Depth-first assignment with early exit at `limit`.
  auto assign = [&](auto&& self, size_t pos) -> bool {
    if (pos == order.size()) {
      results.push_back(assignment);
      return results.size() >= limit;
    }
    int v = order[pos];
    int e = via_edge[pos];
    const ForeignKey& fk = view_.foreign_key(e);
    uint32_t parent_row = assignment[parent_pos[pos]];
    const NodeState& seed = seeded[v];
    auto try_row = [&](uint32_t row) -> bool {
      if (!seed.full && allowed[pos].count(row) == 0) return false;
      assignment[pos] = row;
      return self(self, pos + 1);
    };
    if (fk.from_rel == v) {
      // Child rows referencing the parent row (row-level join index). A
      // recursion-local buffer: the overlay-merged span must survive the
      // nested self() calls, unlike the executor's flat scratch.
      std::vector<uint32_t> merged;
      for (uint32_t row : view_.ChildRowsOf(e, parent_row, &merged)) {
        if (try_row(row)) return true;
      }
    } else {
      // Child is the PK side of the parent's FK: at most one partner row.
      int32_t row = view_.ParentRowOf(e, parent_row);
      if (row >= 0 && try_row(static_cast<uint32_t>(row))) return true;
    }
    return false;
  };

  const NodeState& root_seed = seeded[root];
  if (root_seed.full) {
    uint32_t n = view_.TotalRows(root);
    for (uint32_t row = 0; row < n; ++row) {
      if (!view_.IsLive(root, row)) continue;
      assignment[0] = row;
      if (assign(assign, 1)) break;
    }
  } else {
    for (uint32_t row : root_seed.rows) {
      assignment[0] = row;
      if (assign(assign, 1)) break;
    }
  }
  return results;
}

std::vector<std::vector<std::string>> Executor::Materialize(
    const JoinTree& tree, const std::vector<PhrasePredicate>& predicates,
    const std::vector<ColumnRef>& projection, size_t limit) const {
  std::vector<int> order;
  std::vector<std::vector<uint32_t>> assignments =
      MaterializeAssignments(tree, predicates, limit, &order);

  std::vector<int> vertex_pos(graph_.num_vertices(), -1);
  for (size_t i = 0; i < order.size(); ++i) vertex_pos[order[i]] = i;

  std::vector<std::vector<std::string>> rows;
  rows.reserve(assignments.size());
  for (const std::vector<uint32_t>& assignment : assignments) {
    std::vector<std::string> row;
    row.reserve(projection.size());
    for (const ColumnRef& col : projection) {
      int pos = vertex_pos[col.rel];
      QBE_CHECK_MSG(pos >= 0, "projection column outside join tree");
      row.emplace_back(view_.TextAt(col.rel, col.col, assignment[pos]));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace qbe
