// Differential test for the interned-token CSR text index (DESIGN.md §10).
//
// Part 1 checks the index against a naive tokenize-and-scan oracle on
// seeded random corpora: MatchPhrase, MatchAllPhrases, TokenRowCount,
// MatchExactIds, and the equivalence of the string API with the id API
// under a shared dictionary (including multi-column ColumnIndex lookups).
//
// Part 2 checks the end-to-end determinism contract around interning:
// DiscoverQueries returns bit-identical ranked queries and verification
// counts with the match table on or off — over a plain database, a live
// epoch with appended rows and tombstones, and a 2-shard split — and
// ranking's reads of the table leave the cache counters unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <span>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "datagen/et_gen.h"
#include "datagen/retailer.h"
#include "datagen/text_gen.h"
#include "exec/executor.h"
#include "ingest/live_db.h"
#include "shard/partition.h"
#include "shard_test_util.h"
#include "text/column_index.h"
#include "text/inverted_index.h"
#include "text/token_dict.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace qbe {
namespace {

// --- naive oracle over tokenized cells -------------------------------------

bool OracleCellContains(const std::vector<std::string>& cell_tokens,
                        const std::vector<std::string>& phrase) {
  if (phrase.empty()) return true;
  if (phrase.size() > cell_tokens.size()) return false;
  for (size_t start = 0; start + phrase.size() <= cell_tokens.size();
       ++start) {
    if (std::equal(phrase.begin(), phrase.end(),
                   cell_tokens.begin() + start)) {
      return true;
    }
  }
  return false;
}

std::vector<uint32_t> OracleMatchPhrase(
    const std::vector<std::vector<std::string>>& corpus_tokens,
    const std::vector<std::string>& phrase) {
  std::vector<uint32_t> rows;
  for (uint32_t row = 0; row < corpus_tokens.size(); ++row) {
    if (OracleCellContains(corpus_tokens[row], phrase)) rows.push_back(row);
  }
  return rows;
}

size_t OracleTokenRowCount(
    const std::vector<std::vector<std::string>>& corpus_tokens,
    const std::string& token) {
  size_t n = 0;
  for (const std::vector<std::string>& cell : corpus_tokens) {
    if (std::find(cell.begin(), cell.end(), token) != cell.end()) ++n;
  }
  return n;
}

std::vector<uint32_t> OracleExactMatch(
    const std::vector<std::vector<std::string>>& corpus_tokens,
    const std::vector<std::string>& phrase) {
  std::vector<uint32_t> rows;
  for (uint32_t row = 0; row < corpus_tokens.size(); ++row) {
    if (corpus_tokens[row] == phrase) rows.push_back(row);
  }
  return rows;
}

/// A corpus with deliberate pathologies: empty cells, punctuation-only
/// cells, heavy token repetition, and ordinary generated phrases.
std::vector<std::string> RandomCorpus(Rng& rng, TextGenerator& text,
                                      int rows) {
  std::vector<std::string> cells;
  cells.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    switch (rng.NextBounded(8)) {
      case 0:
        cells.push_back("");
        break;
      case 1:
        cells.push_back("... !!! ,,,");
        break;
      case 2: {
        // Repeat one token to stress position handling ("go go go").
        std::string token = text.NotePhrase(rng, 1, 1);
        std::string cell = token;
        for (uint64_t k = rng.NextBounded(4); k > 0; --k) {
          cell += ' ';
          cell += token;
        }
        cells.push_back(cell);
        break;
      }
      default:
        cells.push_back(text.NotePhrase(rng, 1, 6));
    }
  }
  return cells;
}

/// A probe phrase: usually a token window of a real cell, sometimes random
/// (likely absent), sometimes with a token swapped out.
std::vector<std::string> RandomPhrase(
    Rng& rng, TextGenerator& text,
    const std::vector<std::vector<std::string>>& corpus_tokens) {
  std::vector<std::string> phrase;
  const std::vector<std::string>* src = nullptr;
  for (int attempts = 0; attempts < 20 && src == nullptr; ++attempts) {
    const std::vector<std::string>& cell =
        corpus_tokens[rng.NextBounded(corpus_tokens.size())];
    if (!cell.empty()) src = &cell;
  }
  if (src == nullptr || rng.NextBounded(4) == 0) {
    size_t len = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < len; ++i) {
      phrase.push_back(Tokenize(text.NotePhrase(rng, 1, 1))[0]);
    }
    return phrase;
  }
  size_t start = rng.NextBounded(src->size());
  size_t len = 1 + rng.NextBounded(src->size() - start);
  phrase.assign(src->begin() + start, src->begin() + start + len);
  if (rng.NextBounded(4) == 0) {
    phrase[rng.NextBounded(phrase.size())] = "zzyzx";  // unindexed token
  }
  return phrase;
}

class TextIndexDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(TextIndexDifferentialTest, CsrIndexAgreesWithTokenizeAndScanOracle) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  TextGenerator text;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::string> cells = RandomCorpus(rng, text, 80);
    std::vector<std::vector<std::string>> corpus_tokens;
    for (const std::string& cell : cells) {
      corpus_tokens.push_back(Tokenize(cell));
    }

    TokenDict dict;
    InvertedIndex index;
    index.Build(cells, &dict);
    ASSERT_EQ(&index.dict(), &dict);

    for (uint32_t row = 0; row < cells.size(); ++row) {
      ASSERT_EQ(index.RowTokenCount(row), corpus_tokens[row].size());
    }

    for (int probe = 0; probe < 40; ++probe) {
      std::vector<std::string> phrase =
          RandomPhrase(rng, text, corpus_tokens);
      std::vector<uint32_t> want = OracleMatchPhrase(corpus_tokens, phrase);
      EXPECT_EQ(index.MatchPhrase(phrase), want)
          << "seed " << seed << " trial " << trial;

      // String API ≡ id API.
      std::vector<uint32_t> ids = dict.IdsOf(phrase);
      EXPECT_EQ(index.MatchPhraseIds(ids), want);
      EXPECT_EQ(index.AnyMatchIds(ids), !want.empty());

      std::vector<uint32_t> exact;
      index.MatchExactIdsInto(ids, &exact);
      EXPECT_EQ(exact, OracleExactMatch(corpus_tokens, phrase));

      for (const std::string& token : phrase) {
        EXPECT_EQ(index.TokenRowCount(token),
                  OracleTokenRowCount(corpus_tokens, token));
      }

      // Conjunction against a second independent phrase.
      std::vector<std::string> other =
          RandomPhrase(rng, text, corpus_tokens);
      std::vector<uint32_t> both;
      std::vector<uint32_t> other_rows =
          OracleMatchPhrase(corpus_tokens, other);
      std::set_intersection(want.begin(), want.end(), other_rows.begin(),
                            other_rows.end(), std::back_inserter(both));
      EXPECT_EQ(index.MatchAllPhrases({phrase, other}), both);
    }

    // Empty phrase and empty-cell exact match.
    EXPECT_EQ(index.MatchPhrase({}).size(), cells.size());
    std::vector<uint32_t> empty_exact;
    index.MatchExactIdsInto({}, &empty_exact);
    EXPECT_EQ(empty_exact, OracleExactMatch(corpus_tokens, {}));
  }
}

TEST_P(TextIndexDifferentialTest, SharedDictColumnIndexAgreesWithOracle) {
  uint64_t seed = GetParam();
  Rng rng(seed * 977 + 5);
  TextGenerator text;
  constexpr int kColumns = 4;

  std::vector<std::vector<std::string>> columns(kColumns);
  std::vector<std::vector<std::vector<std::string>>> column_tokens(kColumns);
  TokenDict dict;
  std::vector<InvertedIndex> indexes(kColumns);
  ColumnIndex ci;
  for (int c = 0; c < kColumns; ++c) {
    columns[c] = RandomCorpus(rng, text, 40);
    for (const std::string& cell : columns[c]) {
      column_tokens[c].push_back(Tokenize(cell));
    }
    indexes[c].Build(columns[c], &dict);
    ci.RegisterColumn(c, &indexes[c]);
  }

  for (int probe = 0; probe < 60; ++probe) {
    int src_col = static_cast<int>(rng.NextBounded(kColumns));
    std::vector<std::string> phrase =
        RandomPhrase(rng, text, column_tokens[src_col]);
    std::vector<int> want;
    for (int c = 0; c < kColumns; ++c) {
      if (!OracleMatchPhrase(column_tokens[c], phrase).empty()) {
        want.push_back(c);
      }
    }
    EXPECT_EQ(ci.ColumnsContaining(phrase), want) << "seed " << seed;
    EXPECT_EQ(ci.ColumnsContainingIds(dict.IdsOf(phrase)), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextIndexDifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

// --- end-to-end bit-identity around interning ------------------------------

std::vector<ExampleTable> SampleEts(const Database& db, int count) {
  SchemaGraph graph(db);
  Executor exec(db, graph);
  EtSource::Options source_options;
  source_options.num_matrices = 4;
  source_options.min_text_cols = 3;
  source_options.min_matrix_rows = 6;
  EtSource source(db, graph, exec, 7, source_options);
  EtParams params;
  params.m = 3;
  params.n = 3;
  params.s = 0.3;
  params.v = 1;
  return source.SampleMany(params, count, 4242);
}

/// Appends a copy of every third row of every relation (fresh values in
/// referenced key columns, so ET phrases also hit overlay rows) and
/// tombstones every fifth base row.
void MutateEveryRelation(LiveDatabase& live) {
  const DbVersion version = live.Pin();
  const Database& db = *version.base;
  std::string error;
  for (int rel = 0; rel < db.num_relations(); ++rel) {
    const Relation& relation = db.relation(rel);
    std::vector<bool> is_key(relation.num_columns(), false);
    for (const ForeignKey& fk : db.foreign_keys()) {
      if (fk.to_rel == rel) is_key[fk.to_col] = true;
    }
    std::vector<std::vector<Value>> copies;
    for (uint32_t row = 0; row < relation.num_rows(); row += 3) {
      std::vector<Value>& values = copies.emplace_back();
      for (int c = 0; c < relation.num_columns(); ++c) {
        if (relation.columns()[c].type == ColumnType::kText) {
          values.emplace_back(std::string(relation.TextAt(c, row)));
        } else {
          values.emplace_back(is_key[c] ? int64_t{1000000} + row
                                        : relation.IdAt(c, row));
        }
      }
    }
    ASSERT_TRUE(live.AppendBatch(rel, std::move(copies), &error)) << error;
    for (uint32_t row = 1; row < relation.num_rows(); row += 5) {
      ASSERT_TRUE(live.Tombstone(rel, row, &error)) << error;
    }
  }
}

/// Runs `et` over `views` with the match table off (the reference: every
/// phrase, rank's included, matched directly) and on, and checks that the
/// ranked SQL, score bits, matched rows and verification counters agree.
/// Returns the cached run's table lookups.
int64_t ExpectMatchTableNeutral(std::span<const DbView> views,
                                const ExampleTable& et, uint64_t epoch,
                                int64_t* verifications) {
  DiscoveryOptions base;
  base.use_match_cache = false;
  DiscoveryResult reference = DiscoverQueries(views, et, base, epoch);
  *verifications += reference.counters.verifications;
  EXPECT_EQ(reference.counters.match_cache_lookups, 0);

  // The match cache is an execution-cost knob only: the ranked query
  // list and the verification counters are bit-identical to the
  // uncached reference.
  DiscoveryOptions cached;
  cached.use_match_cache = true;
  DiscoveryResult result = DiscoverQueries(views, et, cached, epoch);
  EXPECT_EQ(result.ok(), reference.ok());
  EXPECT_EQ(result.queries.size(), reference.queries.size());
  for (size_t i = 0;
       i < std::min(result.queries.size(), reference.queries.size()); ++i) {
    EXPECT_EQ(result.queries[i].sql, reference.queries[i].sql);
    EXPECT_EQ(result.queries[i].score, reference.queries[i].score);
    EXPECT_EQ(std::bit_cast<uint64_t>(result.queries[i].score),
              std::bit_cast<uint64_t>(reference.queries[i].score));
    EXPECT_EQ(result.queries[i].matched_rows,
              reference.queries[i].matched_rows);
  }
  EXPECT_EQ(result.counters.verifications, reference.counters.verifications)
      << "match cache changed the verification count";
  EXPECT_EQ(result.counters.estimated_cost,
            reference.counters.estimated_cost);
  EXPECT_EQ(result.counters.pruned_without_verification,
            reference.counters.pruned_without_verification);
  EXPECT_EQ(result.counters.subtree_memo_lookups,
            reference.counters.subtree_memo_lookups);
  return result.counters.match_cache_lookups;
}

TEST(TextIndexEndToEndTest, DiscoveryBitIdenticalWithAndWithoutMatchCache) {
  Database db = MakeScaledRetailerDatabase(30, 30, 12, 12, 120, 120, 50, 7);
  const std::vector<ExampleTable> ets = SampleEts(db, 6);

  // A live epoch with appended rows and tombstones on every relation.
  LiveDatabase live(MakeScaledRetailerDatabase(30, 30, 12, 12, 120, 120, 50, 7));
  MutateEveryRelation(live);
  const DbVersion version = live.Pin();
  ASSERT_NE(version.delta, nullptr);
  const DbView live_view = version.view();

  // A 2-shard split of a database whose join components actually spread
  // (the retailer is one component).
  Database shardable = MakeShardableDatabase(40, 3, 2, 5);
  const std::vector<ExampleTable> shard_ets = SampleEts(shardable, 6);
  PartitionOptions partition;
  partition.num_shards = 2;
  const std::vector<Database> shard_dbs =
      SplitDatabase(shardable, ComputePartitionPlan(shardable, partition));
  std::vector<DbView> shard_views(shard_dbs.begin(), shard_dbs.end());
  ASSERT_EQ(shard_views.size(), 2u);
  for (const DbView& view : shard_views) ASSERT_GT(view.LiveRows(0), 0u);

  int64_t plain_verifications = 0, plain_lookups = 0;
  int64_t live_verifications = 0, live_lookups = 0;
  int64_t shard_verifications = 0, shard_lookups = 0;
  const DbView plain_view(db);
  for (const ExampleTable& et : ets) {
    plain_lookups += ExpectMatchTableNeutral(std::span(&plain_view, 1), et, 0,
                                             &plain_verifications);
    live_lookups += ExpectMatchTableNeutral(std::span(&live_view, 1), et,
                                            version.epoch,
                                            &live_verifications);
  }
  for (const ExampleTable& et : shard_ets) {
    shard_lookups +=
        ExpectMatchTableNeutral(shard_views, et, 0, &shard_verifications);
  }
  // Guard against a degenerate instance set silently passing the check.
  EXPECT_GT(plain_verifications, 0);
  EXPECT_GT(plain_lookups, 0);
  EXPECT_GT(live_verifications, 0);
  EXPECT_GT(live_lookups, 0);
  EXPECT_GT(shard_verifications, 0);
  EXPECT_GT(shard_lookups, 0);
}

// Ranking reads the match table after verification, but match_cache_* stays
// verification-phase traffic: rank on and off report identical cache and
// verification counters, on one view and over two shards.
TEST(TextIndexEndToEndTest, RankingLeavesMatchCacheCountersUnchanged) {
  Database db = MakeShardableDatabase(40, 3, 2, 5);
  PartitionOptions partition;
  partition.num_shards = 2;
  const std::vector<Database> shard_dbs =
      SplitDatabase(db, ComputePartitionPlan(db, partition));
  const std::vector<DbView> shard_views(shard_dbs.begin(), shard_dbs.end());
  const DbView plain_view(db);
  const std::span<const DbView> layouts[] = {std::span(&plain_view, 1),
                                             shard_views};

  int64_t total_lookups = 0;
  for (const ExampleTable& et : SampleEts(db, 6)) {
    for (std::span<const DbView> views : layouts) {
      DiscoveryOptions ranked;
      ranked.rank_results = true;
      DiscoveryOptions unranked;
      unranked.rank_results = false;
      const DiscoveryResult a = DiscoverQueries(views, et, ranked, 0);
      const DiscoveryResult b = DiscoverQueries(views, et, unranked, 0);
      EXPECT_EQ(a.queries.size(), b.queries.size());
      EXPECT_EQ(a.counters.match_cache_hits, b.counters.match_cache_hits);
      EXPECT_EQ(a.counters.match_cache_lookups,
                b.counters.match_cache_lookups);
      EXPECT_EQ(a.counters.verifications, b.counters.verifications);
      EXPECT_EQ(a.counters.estimated_cost, b.counters.estimated_cost);
      EXPECT_EQ(a.counters.subtree_memo_hits, b.counters.subtree_memo_hits);
      EXPECT_EQ(a.counters.subtree_memo_lookups,
                b.counters.subtree_memo_lookups);
      total_lookups += a.counters.match_cache_lookups;
    }
  }
  EXPECT_GT(total_lookups, 0);
}

}  // namespace
}  // namespace qbe
