#ifndef QBE_EXEC_MATCH_CACHE_H_
#define QBE_EXEC_MATCH_CACHE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "ingest/db_view.h"

namespace qbe {

/// One request's phrase-match table: (text column gid, exact?, token ids) →
/// sorted live row set, filled lazily. The same handful of ET-cell phrases
/// is probed by SeedNode across thousands of candidate trees per request and
/// again by ranking, so each phrase is matched at most once per column per
/// request.
///
/// Single-threaded: a request owns its table and uses it from one thread.
/// A table belongs to one view (row sets are view-local), so a sharded
/// request keeps one table per shard. Returned row sets keep their address
/// for the table's lifetime (map nodes never move).
class MatchCache {
 public:
  MatchCache() = default;
  MatchCache(const MatchCache&) = delete;
  MatchCache& operator=(const MatchCache&) = delete;

  /// The live rows of `col` (read through `view`) containing the phrase
  /// `ids` — or, when `exact`, whose whole cell is the phrase. Matched on
  /// the first lookup of the key, served from the table afterwards.
  const std::vector<uint32_t>& Rows(const DbView& view, const ColumnRef& col,
                                    bool exact, std::span<const uint32_t> ids);

  uint64_t hits() const { return hits_; }
  uint64_t lookups() const { return lookups_; }

 private:
  struct KeyHash {
    size_t operator()(const std::vector<uint32_t>& key) const {
      uint64_t h = 1469598103934665603ull;
      for (uint32_t word : key) {
        h ^= word;
        h *= 1099511628211ull;
      }
      return static_cast<size_t>(h);
    }
  };

  /// Key layout: [gid << 1 | exact, ids...]. `key_` is the lookup buffer,
  /// so a hit allocates nothing.
  std::vector<uint32_t> key_;
  std::unordered_map<std::vector<uint32_t>, std::vector<uint32_t>, KeyHash>
      rows_;
  uint64_t hits_ = 0;
  uint64_t lookups_ = 0;
};

/// Row set of phrase `ids` in `col`: from `table` when non-null, else
/// matched directly into `*scratch` (the uncached reference path).
const std::vector<uint32_t>& MatchRows(MatchCache* table, const DbView& view,
                                       const ColumnRef& col, bool exact,
                                       std::span<const uint32_t> ids,
                                       std::vector<uint32_t>* scratch);

}  // namespace qbe

#endif  // QBE_EXEC_MATCH_CACHE_H_
