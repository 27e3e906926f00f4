// Unit tests for the request-scoped phrase-match table (exec/match_cache.h):
// each key is matched once, the hit/lookup counters are exact, and a row set
// handed out keeps its address and contents while the table keeps growing
// (SeedNode holds such a reference; run under ASan to catch a dangling one).

#include "exec/match_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "datagen/retailer.h"
#include "ingest/db_view.h"
#include "text/token_dict.h"

namespace qbe {
namespace {

struct Fixture {
  Fixture()
      : db(MakeRetailerDatabase()),
        view(db),
        name{db.RelationIdByName("Customer"), 1},
        mike(view.IdsOf({"mike"})),
        mike_jones(view.IdsOf({"mike", "jones"})) {}

  std::vector<uint32_t> Direct(bool exact,
                               const std::vector<uint32_t>& ids) const {
    std::vector<uint32_t> rows;
    if (exact) {
      view.MatchExactIdsInto(name, ids, &rows);
    } else {
      view.MatchPhraseIdsInto(name, ids, &rows);
    }
    return rows;
  }

  Database db;
  DbView view;
  ColumnRef name;
  std::vector<uint32_t> mike;
  std::vector<uint32_t> mike_jones;
};

TEST(MatchCacheTest, RepeatedKeyIsMatchedOnceWithExactCounts) {
  Fixture f;
  MatchCache table;
  const std::vector<uint32_t>& first = table.Rows(f.view, f.name, false, f.mike);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, f.Direct(false, f.mike));
  EXPECT_EQ(table.lookups(), 1u);
  EXPECT_EQ(table.hits(), 0u);

  // The same key is served from the table: same storage, one more hit.
  EXPECT_EQ(&table.Rows(f.view, f.name, false, f.mike), &first);
  EXPECT_EQ(table.lookups(), 2u);
  EXPECT_EQ(table.hits(), 1u);

  // Exactness and the token ids are part of the key.
  const std::vector<uint32_t>& exact = table.Rows(f.view, f.name, true, f.mike);
  const std::vector<uint32_t>& phrase =
      table.Rows(f.view, f.name, false, f.mike_jones);
  EXPECT_NE(&exact, &first);
  EXPECT_NE(&phrase, &first);
  EXPECT_EQ(exact, f.Direct(true, f.mike));
  EXPECT_EQ(phrase, f.Direct(false, f.mike_jones));
  EXPECT_EQ(table.lookups(), 4u);
  EXPECT_EQ(table.hits(), 1u);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(&table.Rows(f.view, f.name, true, f.mike), &exact);
    EXPECT_EQ(&table.Rows(f.view, f.name, false, f.mike_jones), &phrase);
  }
  EXPECT_EQ(table.lookups(), 10u);
  EXPECT_EQ(table.hits(), 7u);
}

TEST(MatchCacheTest, MatchRowsWithoutTableMatchesIntoScratch) {
  Fixture f;
  std::vector<uint32_t> scratch;
  const std::vector<uint32_t>& rows =
      MatchRows(nullptr, f.view, f.name, false, f.mike, &scratch);
  EXPECT_EQ(&rows, &scratch);
  EXPECT_EQ(rows, f.Direct(false, f.mike));

  MatchCache table;
  EXPECT_EQ(&MatchRows(&table, f.view, f.name, false, f.mike, &scratch),
            &table.Rows(f.view, f.name, false, f.mike));
  EXPECT_EQ(table.lookups(), 2u);
  EXPECT_EQ(table.hits(), 1u);
}

TEST(MatchCacheTest, RowSetReferenceSurvivesLaterInserts) {
  Fixture f;
  MatchCache table;
  const std::vector<uint32_t>& held = table.Rows(f.view, f.name, false, f.mike);
  const std::vector<uint32_t> expected = held;
  ASSERT_FALSE(expected.empty());

  // 10k distinct keys force many rehashes. A phrase starting with an unseen
  // token matches nothing, so each insert is cheap.
  constexpr uint32_t kInserts = 10000;
  for (uint32_t i = 0; i < kInserts; ++i) {
    const std::vector<uint32_t> ids = {TokenDict::kNoToken, i};
    EXPECT_TRUE(table.Rows(f.view, f.name, false, ids).empty());
  }
  EXPECT_EQ(held, expected);
  EXPECT_EQ(&table.Rows(f.view, f.name, false, f.mike), &held);
  EXPECT_EQ(table.lookups(), kInserts + 2);
  EXPECT_EQ(table.hits(), 1u);
}

}  // namespace
}  // namespace qbe
