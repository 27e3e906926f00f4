#include "ingest/db_view.h"

#include <algorithm>

namespace qbe {

std::string_view DbView::TextAt(int rel, int col, uint32_t row) const {
  const uint32_t base_rows = base_->relation(rel).num_rows();
  if (row < base_rows) return base_->relation(rel).TextAt(col, row);
  // Views into the overlay's owned strings: stable for the lifetime of the
  // pinned DeltaView (it is immutable and shared_ptr-held by the version).
  return std::get<std::string>(delta_->rels[rel].rows[row - base_rows][col]);
}

int64_t DbView::IdAt(int rel, int col, uint32_t row) const {
  const uint32_t base_rows = base_->relation(rel).num_rows();
  if (row < base_rows) return base_->relation(rel).IdAt(col, row);
  return std::get<int64_t>(delta_->rels[rel].rows[row - base_rows][col]);
}

void DbView::IdsOfInto(const std::vector<std::string>& tokens,
                       std::vector<uint32_t>* out) const {
  out->clear();
  out->reserve(tokens.size());
  for (const std::string& token : tokens) out->push_back(FindToken(token));
}

void DbView::MatchPhraseIdsInto(const ColumnRef& col,
                                std::span<const uint32_t> ids,
                                std::vector<uint32_t>* rows) const {
  base_->TextIndex(col).MatchPhraseIdsInto(ids, rows);
  if (delta_ == nullptr) return;
  const DeltaView::RelDelta& rd = delta_->rels[col.rel];
  if (!rd.tombstones.empty()) {
    std::erase_if(*rows,
                  [&](uint32_t r) { return rd.tombstones.count(r) != 0; });
  }
  delta_->MatchPhraseInto(col.rel, base_->TextColumnGid(col), ids, rows);
}

void DbView::MatchExactIdsInto(const ColumnRef& col,
                               std::span<const uint32_t> ids,
                               std::vector<uint32_t>* rows) const {
  base_->TextIndex(col).MatchExactIdsInto(ids, rows);
  if (delta_ == nullptr) return;
  const DeltaView::RelDelta& rd = delta_->rels[col.rel];
  if (!rd.tombstones.empty()) {
    std::erase_if(*rows,
                  [&](uint32_t r) { return rd.tombstones.count(r) != 0; });
  }
  delta_->MatchExactInto(col.rel, base_->TextColumnGid(col), ids, rows);
}

bool DbView::AnyMatch(const ColumnRef& col,
                      std::span<const uint32_t> ids) const {
  const DeltaView::RelDelta* rd =
      delta_ == nullptr ? nullptr : &delta_->rels[col.rel];
  if (rd == nullptr || rd->tombstones.empty()) {
    if (base_->TextIndex(col).AnyMatchIds(ids)) return true;
  } else {
    // A base hit could be a tombstoned row; fall back to the exact set.
    std::vector<uint32_t> rows;
    base_->TextIndex(col).MatchPhraseIdsInto(ids, &rows);
    for (uint32_t r : rows) {
      if (rd->tombstones.count(r) == 0) return true;
    }
  }
  return delta_ != nullptr &&
         delta_->AnyMatch(col.rel, base_->TextColumnGid(col), ids);
}

void DbView::ColumnsContainingIdsInto(std::span<const uint32_t> ids,
                                      std::vector<int>* gids) const {
  gids->clear();
  std::vector<int> base_gids = base_->column_index().ColumnsContainingIds(ids);
  if (delta_ == nullptr) {
    *gids = std::move(base_gids);
    return;
  }
  // Overlay columns containing the phrase in a live appended row.
  std::vector<int> delta_gids;
  if (ids.empty()) {
    // An empty phrase matches every column whose relation has a live
    // appended row (the base CI covers relations with base rows).
    for (int rel = 0; rel < base_->num_relations(); ++rel) {
      const DeltaView::RelDelta& rd = delta_->rels[rel];
      if (std::none_of(rd.row_live.begin(), rd.row_live.end(),
                       [](char live) { return live != 0; })) {
        continue;
      }
      const Relation& relation = base_->relation(rel);
      for (int c = 0; c < relation.num_columns(); ++c) {
        if (relation.columns()[c].type == ColumnType::kText) {
          delta_gids.push_back(base_->TextColumnGid({rel, c}));
        }
      }
    }
    std::sort(delta_gids.begin(), delta_gids.end());
  } else {
    for (const auto& [gid, gd] : delta_->gids) {  // ascending (ordered map)
      const ColumnRef& col = base_->TextColumnByGid(gid);
      if (delta_->AnyMatch(col.rel, gid, ids)) delta_gids.push_back(gid);
    }
  }
  std::set_union(base_gids.begin(), base_gids.end(), delta_gids.begin(),
                 delta_gids.end(), std::back_inserter(*gids));
}

int32_t DbView::OverlayParentRowOf(int edge, uint32_t from_row) const {
  const DeltaView::EdgeDelta& ed = delta_->edges[edge];
  if (!ed.affected) return base_->ParentRowOf(edge, from_row);
  const ForeignKey& fk = base_->foreign_key(edge);
  const uint32_t base_from = delta_->rels[fk.from_rel].base_rows;
  if (from_row >= base_from) return ed.delta_parent[from_row - base_from];
  const int32_t p = base_->ParentRowOf(edge, from_row);
  if (p >= 0 && delta_->IsLive(fk.to_rel, static_cast<uint32_t>(p))) return p;
  auto it = ed.revalidated.find(from_row);
  return it == ed.revalidated.end() ? -1 : it->second;
}

std::span<const uint32_t> DbView::OverlayChildRowsOf(
    int edge, uint32_t to_row, std::vector<uint32_t>* scratch) const {
  const DeltaView::EdgeDelta& ed = delta_->edges[edge];
  const ForeignKey& fk = base_->foreign_key(edge);
  const uint32_t base_to = delta_->rels[fk.to_rel].base_rows;
  if (!ed.affected && to_row < base_to) {
    return base_->ChildRowsOf(edge, to_row);
  }
  scratch->clear();
  if (to_row < base_to) {
    for (uint32_t r : base_->ChildRowsOf(edge, to_row)) {
      if (delta_->IsLive(fk.from_rel, r)) scratch->push_back(r);
    }
  }
  auto it = ed.extra_children.find(to_row);
  if (it != ed.extra_children.end()) {
    // For a base parent the extras are all appended rows (>= base child
    // rows); for an appended parent the base list is empty — either way
    // the concatenation stays ascending.
    scratch->insert(scratch->end(), it->second.begin(), it->second.end());
  }
  return *scratch;
}

std::span<const uint32_t> DbView::ValidFromRows(
    int edge, std::vector<uint32_t>* scratch) const {
  if (delta_ == nullptr) return base_->ValidFromRows(edge);
  const DeltaView::EdgeDelta& ed = delta_->edges[edge];
  if (!ed.affected) return base_->ValidFromRows(edge);
  const ForeignKey& fk = base_->foreign_key(edge);
  const DeltaView::RelDelta& from_d = delta_->rels[fk.from_rel];
  scratch->clear();
  // Sorted union of base-valid rows and revalidated rows, re-filtered
  // against this epoch's liveness and parent resolution.
  const std::span<const uint32_t> base_valid = base_->ValidFromRows(edge);
  size_t i = 0, j = 0;
  while (i < base_valid.size() || j < ed.revalidated_rows.size()) {
    uint32_t r;
    if (j >= ed.revalidated_rows.size() ||
        (i < base_valid.size() && base_valid[i] <= ed.revalidated_rows[j])) {
      r = base_valid[i];
      if (i < base_valid.size() && j < ed.revalidated_rows.size() &&
          base_valid[i] == ed.revalidated_rows[j]) {
        ++j;
      }
      ++i;
    } else {
      r = ed.revalidated_rows[j++];
    }
    if (delta_->IsLive(fk.from_rel, r) && ParentRowOf(edge, r) >= 0) {
      scratch->push_back(r);
    }
  }
  for (size_t k = 0; k < from_d.rows.size(); ++k) {
    if (from_d.row_live[k] && ed.delta_parent[k] >= 0) {
      scratch->push_back(from_d.base_rows + static_cast<uint32_t>(k));
    }
  }
  return *scratch;
}

std::span<const uint32_t> DbView::ReferencedRows(
    int edge, std::vector<uint32_t>* scratch) const {
  if (delta_ == nullptr) return base_->ReferencedRows(edge);
  const DeltaView::EdgeDelta& ed = delta_->edges[edge];
  if (!ed.affected && ed.extra_referenced.empty()) {
    return base_->ReferencedRows(edge);
  }
  const ForeignKey& fk = base_->foreign_key(edge);
  scratch->clear();
  const std::span<const uint32_t> base_ref = base_->ReferencedRows(edge);
  size_t i = 0, j = 0;
  while (i < base_ref.size() || j < ed.extra_referenced.size()) {
    uint32_t t;
    if (j >= ed.extra_referenced.size() ||
        (i < base_ref.size() && base_ref[i] <= ed.extra_referenced[j])) {
      t = base_ref[i];
      if (i < base_ref.size() && j < ed.extra_referenced.size() &&
          base_ref[i] == ed.extra_referenced[j]) {
        ++j;
      }
      ++i;
    } else {
      t = ed.extra_referenced[j++];
    }
    if (delta_->IsLive(fk.to_rel, t) &&
        ed.dropped_referenced.count(t) == 0) {
      scratch->push_back(t);
    }
  }
  return *scratch;
}

}  // namespace qbe
