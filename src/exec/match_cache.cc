#include "exec/match_cache.h"

namespace qbe {
namespace {

void MatchInto(const DbView& view, const ColumnRef& col, bool exact,
               std::span<const uint32_t> ids, std::vector<uint32_t>* rows) {
  if (exact) {
    view.MatchExactIdsInto(col, ids, rows);
  } else {
    view.MatchPhraseIdsInto(col, ids, rows);
  }
}

}  // namespace

const std::vector<uint32_t>& MatchCache::Rows(const DbView& view,
                                              const ColumnRef& col, bool exact,
                                              std::span<const uint32_t> ids) {
  ++lookups_;
  key_.assign(1, static_cast<uint32_t>(view.TextColumnGid(col)) << 1 |
                     (exact ? 1u : 0u));
  key_.insert(key_.end(), ids.begin(), ids.end());
  auto [it, inserted] = rows_.try_emplace(key_);
  if (inserted) {
    MatchInto(view, col, exact, ids, &it->second);
  } else {
    ++hits_;
  }
  return it->second;
}

const std::vector<uint32_t>& MatchRows(MatchCache* table, const DbView& view,
                                       const ColumnRef& col, bool exact,
                                       std::span<const uint32_t> ids,
                                       std::vector<uint32_t>* scratch) {
  if (table != nullptr) return table->Rows(view, col, exact, ids);
  MatchInto(view, col, exact, ids, scratch);
  return *scratch;
}

}  // namespace qbe
