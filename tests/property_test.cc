// Property-based suites for the paper's central invariants:
//
//  1. Every verification algorithm — VERIFYALL, SIMPLEPRUNE, FILTER (exact
//     and lazy), WEAVE (join-tree and tuple-tree) — computes the same valid
//     set on the same input (§2.3: "All techniques considered in this paper
//     produce the same output; they differ only in efficiency").
//  2. The dependency lemmas hold semantically: whenever the structural
//     side-conditions of Lemmas 1, 3 and 4 hold, the implied evaluation
//     outcome matches what the executor reports.
//  3. Corollary 1: every valid query is a candidate (validity implies the
//     per-column constraints used for candidate generation).

#include <gtest/gtest.h>

#include "core/candidate_gen.h"
#include "core/filter_universe.h"
#include "core/filter_verifier.h"
#include "core/simple_prune.h"
#include "core/verify_all.h"
#include "core/weave.h"
#include "datagen/et_gen.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace qbe {
namespace {

struct Workbench {
  explicit Workbench(uint64_t seed)
      : db(MakeScaledRetailerDatabase(40, 40, 15, 15, 150, 150, 60, seed)),
        graph(db),
        exec(db, graph) {}

  Database db;
  SchemaGraph graph;
  Executor exec;
};

/// Random ETs drawn from actual join results of the scaled retailer, so a
/// healthy mix of valid and invalid candidates arises.
std::vector<ExampleTable> RandomEts(Workbench& wb, uint64_t seed, int count) {
  EtSource::Options options;
  options.num_matrices = 4;
  options.min_text_cols = 3;
  options.min_matrix_rows = 8;
  EtSource source(wb.db, wb.graph, wb.exec, seed, options);
  EtParams params;
  params.m = 3;
  params.n = 3;
  params.s = 0.3;
  params.v = 1;
  return source.SampleMany(params, count, seed * 31 + 1);
}

class AgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AgreementTest, AllAlgorithmsComputeTheSameValidSet) {
  uint64_t seed = GetParam();
  Workbench wb(seed);
  for (const ExampleTable& et : RandomEts(wb, seed + 100, 6)) {
    std::vector<CandidateQuery> candidates =
        GenerateCandidates(wb.db, wb.graph, et, {});
    if (candidates.empty()) continue;
    VerifyContext ctx{wb.db, wb.graph, wb.exec, et, candidates, seed};

    VerifyAll verify_all(RowOrder::kDenseFirst);
    VerificationCounters c0;
    std::vector<bool> reference = verify_all.Verify(ctx, &c0);

    VerifyAll verify_all_random(RowOrder::kRandom);
    SimplePrune simple_prune;
    FilterVerifier filter_exact(0.5, false);
    FilterVerifier filter_lazy(0.5, true);
    FilterVerifier filter_prior0(0.0, false);
    JoinTreeWeave weave;
    TupleTreeWeave tuple_weave;
    CandidateVerifier* algos[] = {&verify_all_random, &simple_prune,
                                  &filter_exact,      &filter_lazy,
                                  &filter_prior0,     &weave,
                                  &tuple_weave};
    for (CandidateVerifier* algo : algos) {
      VerificationCounters counters;
      EXPECT_EQ(algo->Verify(ctx, &counters), reference)
          << algo->name() << " disagrees (seed " << seed << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class LemmaTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LemmaTest, FilterDependencyLemmasHoldSemantically) {
  uint64_t seed = GetParam();
  Workbench wb(seed);
  Rng rng(seed * 7 + 3);
  for (const ExampleTable& et : RandomEts(wb, seed + 200, 2)) {
    std::vector<CandidateQuery> candidates =
        GenerateCandidates(wb.db, wb.graph, et, {});
    if (candidates.empty()) continue;
    const FilterUniverse u = BuildFilterUniverse(wb.graph, et, candidates);
    // Evaluate a bounded random sample of filters.
    std::vector<int> ids(u.num_filters());
    for (int i = 0; i < u.num_filters(); ++i) ids[i] = i;
    rng.Shuffle(ids);
    ids.resize(std::min<size_t>(ids.size(), 40));
    std::vector<int> outcome(u.num_filters(), -1);  // -1 unknown
    auto eval = [&](int f) {
      if (outcome[f] < 0) {
        const Filter filter = u.Materialize(f);
        outcome[f] =
            wb.exec.Exists(filter.tree, FilterPredicates(filter, et)) ? 1 : 0;
      }
      return outcome[f] == 1;
    };
    for (int f : ids) {
      bool ok = eval(f);
      if (ok) {
        // Lemma 4: success implies success of all sub-filters.
        for (int sub : u.subs_of[f]) {
          EXPECT_TRUE(eval(sub)) << "Lemma 4 violated (seed " << seed << ")";
        }
      } else {
        // Lemma 3: failure implies failure of all super-filters.
        for (int super : u.supers_of[f]) {
          EXPECT_FALSE(eval(super))
              << "Lemma 3 violated (seed " << seed << ")";
        }
        // Lemma 2: every candidate containing f is invalid.
        for (int q : u.queries_of_filter[f]) {
          bool candidate_valid = true;
          for (int r = 0; r < et.num_rows() && candidate_valid; ++r) {
            candidate_valid = wb.exec.Exists(
                candidates[q].tree, RowPredicates(candidates[q], et, r));
          }
          EXPECT_FALSE(candidate_valid)
              << "Lemma 2 violated (seed " << seed << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LemmaTest, ::testing::Values(11, 12, 13, 14));

class Corollary1Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Corollary1Test, ValidQueriesSatisfyColumnConstraints) {
  uint64_t seed = GetParam();
  Workbench wb(seed);
  for (const ExampleTable& et : RandomEts(wb, seed + 300, 3)) {
    std::vector<CandidateQuery> candidates =
        GenerateCandidates(wb.db, wb.graph, et, {});
    VerifyContext ctx{wb.db, wb.graph, wb.exec, et, candidates, seed};
    VerifyAll verify_all;
    VerificationCounters counters;
    std::vector<bool> valid = verify_all.Verify(ctx, &counters);
    auto candidate_cols = RetrieveCandidateColumns(wb.db, et);
    for (size_t q = 0; q < candidates.size(); ++q) {
      if (!valid[q]) continue;
      // A valid query's projection columns must be candidate projection
      // columns (Eq. 2 holds for each column when Eq. 1 holds for all
      // rows) — the containment that makes candidate generation complete.
      for (int c = 0; c < et.num_columns(); ++c) {
        const std::vector<ColumnRef>& options = candidate_cols[c];
        EXPECT_NE(std::find(options.begin(), options.end(),
                            candidates[q].projection[c]),
                  options.end());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Corollary1Test,
                         ::testing::Values(21, 22, 23));

// ---------------------------------------------------------------------------
// Tokenizer / phrase-containment properties (Definition 2 Remarks). The
// token model underpins every containment check, so its edge cases — empty
// cells, punctuation-only strings, repeated phrases, whole-tuple cells —
// get their own property suite.
// ---------------------------------------------------------------------------

/// Random "word": 1-6 lowercase/uppercase alphanumeric chars.
std::string RandomWord(Rng& rng) {
  static const char kAlpha[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  int len = static_cast<int>(rng.NextInRange(1, 6));
  std::string w;
  for (int i = 0; i < len; ++i) {
    w.push_back(kAlpha[rng.NextBounded(sizeof(kAlpha) - 1)]);
  }
  return w;
}

/// Random inter-token separator: whitespace and/or punctuation.
std::string RandomSeparator(Rng& rng) {
  static const char kSep[] = " \t.,;:!?-()[]'\"/";
  int len = static_cast<int>(rng.NextInRange(1, 3));
  std::string s;
  for (int i = 0; i < len; ++i) {
    s.push_back(kSep[rng.NextBounded(sizeof(kSep) - 1)]);
  }
  return s;
}

/// Joins `tokens[lo, hi)` with fresh random separators, so the string form
/// differs from the original while the token sequence is identical.
std::string JoinSlice(const std::vector<std::string>& tokens, size_t lo,
                      size_t hi, Rng& rng) {
  std::string out;
  for (size_t i = lo; i < hi; ++i) {
    if (i > lo) out += RandomSeparator(rng);
    out += tokens[i];
  }
  return out;
}

class TokenizerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TokenizerPropertyTest, ContainmentEdgeCases) {
  Rng rng(GetParam() * 9176 + 5);
  for (int iter = 0; iter < 200; ++iter) {
    int n = static_cast<int>(rng.NextInRange(1, 8));
    std::vector<std::string> words;
    for (int i = 0; i < n; ++i) words.push_back(RandomWord(rng));
    std::string text = JoinSlice(words, 0, words.size(), rng);
    std::vector<std::string> tokens = Tokenize(text);

    // Tokenization normalizes case and strips separators: re-joining the
    // tokens with different separators re-tokenizes to the same sequence.
    EXPECT_EQ(Tokenize(JoinSlice(tokens, 0, tokens.size(), rng)), tokens);

    // Containment is reflexive, and any consecutive slice is contained —
    // even when re-punctuated and re-cased.
    EXPECT_TRUE(ContainsPhrase(text, text));
    size_t lo = rng.NextBounded(tokens.size() + 1);
    size_t hi = lo + rng.NextBounded(tokens.size() - lo + 1);
    std::string slice = JoinSlice(tokens, lo, hi, rng);
    EXPECT_TRUE(ContainsPhrase(text, slice))
        << "slice [" << lo << "," << hi << ") of \"" << text << "\"";

    // The empty cell ("") and punctuation-only cells tokenize to nothing
    // and are therefore contained in everything (Definition 2: an empty
    // needle matches any haystack).
    EXPECT_TRUE(ContainsPhrase(text, ""));
    std::string punct = RandomSeparator(rng);
    EXPECT_TRUE(Tokenize(punct).empty());
    EXPECT_TRUE(ContainsPhrase(text, punct));
    EXPECT_TRUE(ContainsPhrase(punct, punct));
    EXPECT_EQ(ContainsPhrase(punct, text), tokens.empty());

    // Repeated phrases: doubling the haystack preserves containment of the
    // phrase and of its doubling, while the doubled phrase exceeds a single
    // copy whenever the phrase has at least one token.
    std::string doubled = text + RandomSeparator(rng) + text;
    EXPECT_TRUE(ContainsPhrase(doubled, text));
    EXPECT_TRUE(ContainsPhrase(doubled, doubled));
    EXPECT_EQ(ContainsPhrase(text, doubled), tokens.empty());

    // Containment is monotone in the haystack: extending it on either side
    // cannot break a match.
    std::string extended =
        RandomWord(rng) + RandomSeparator(rng) + text + " " + RandomWord(rng);
    EXPECT_TRUE(ContainsPhrase(extended, slice));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerPropertyTest,
                         ::testing::Values(31, 32, 33, 34));

/// Collects non-empty text values of the workbench database, for building
/// hand-crafted ETs out of real tuple content.
std::vector<std::string> SampleTexts(const Database& db, int limit) {
  std::vector<std::string> texts;
  for (int r = 0; r < db.num_relations(); ++r) {
    const Relation& rel = db.relation(r);
    for (int c = 0; c < rel.num_columns(); ++c) {
      if (rel.columns()[c].type != ColumnType::kText) continue;
      for (uint32_t row = 0; row < rel.num_rows() && texts.size() <
                                 static_cast<size_t>(limit); ++row) {
        if (!rel.TextAt(c, row).empty()) {
          texts.emplace_back(rel.TextAt(c, row));
        }
      }
    }
  }
  return texts;
}

/// Runs every verifier over the ET and asserts they agree; returns the number of candidates so callers
/// can assert the scenario was not vacuous.
size_t ExpectAllVerifiersAgree(Workbench& wb, const ExampleTable& et,
                               uint64_t seed) {
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(wb.db, wb.graph, et, {});
  if (candidates.empty()) return 0;
  VerifyContext ctx{wb.db, wb.graph, wb.exec, et, candidates, seed};

  VerifyAll verify_all(RowOrder::kDenseFirst);
  VerificationCounters c0;
  std::vector<bool> reference = verify_all.Verify(ctx, &c0);

  SimplePrune simple_prune;
  FilterVerifier filter_lazy(0.1, true);
  CandidateVerifier* algos[] = {&simple_prune, &filter_lazy};
  for (CandidateVerifier* algo : algos) {
    VerificationCounters counters;
    EXPECT_EQ(algo->Verify(ctx, &counters), reference) << algo->name();
  }
  return candidates.size();
}

class EtEdgeCaseTest : public ::testing::TestWithParam<uint64_t> {};

// Hand-crafted ETs around the tokenizer edge cases must flow through the
// whole pipeline — candidate generation and every verifier — without
// crashes and with all algorithms agreeing.
TEST_P(EtEdgeCaseTest, PipelineHandlesDegenerateCells) {
  uint64_t seed = GetParam();
  Workbench wb(seed);
  std::vector<std::string> texts = SampleTexts(wb.db, 64);
  ASSERT_GE(texts.size(), 4u);

  // Empty cells: a sparse two-column ET of real values.
  {
    ExampleTable et = ExampleTable::WithColumns(2);
    et.AddRow({texts[0], ""});
    et.AddRow({"", texts[1]});
    ASSERT_TRUE(et.IsWellFormed());
    ExpectAllVerifiersAgree(wb, et, seed);
  }

  // Punctuation-only cell: non-empty text, zero tokens. The ET is
  // structurally well-formed (the cell is not empty), yet the cell behaves
  // as "contained in everything" during verification.
  {
    ExampleTable et = ExampleTable::WithColumns(2);
    et.AddRow({texts[0], "?!..."});
    ASSERT_TRUE(et.IsWellFormed());
    EXPECT_FALSE(et.cell(0, 1).IsEmpty());
    EXPECT_TRUE(et.CellTokens(0, 1).empty());
    ExpectAllVerifiersAgree(wb, et, seed);
  }

  // Repeated phrase: "w w" only matches cells where the word really occurs
  // twice in a row — strictly stronger than "w".
  {
    std::vector<std::string> tokens = Tokenize(texts[2]);
    ASSERT_FALSE(tokens.empty());
    ExampleTable et = ExampleTable::WithColumns(1);
    et.AddRow({tokens[0] + " " + tokens[0]});
    ExpectAllVerifiersAgree(wb, et, seed);
  }

  // Cell equal to a whole tuple's text: concatenating every text column of
  // one tuple yields a phrase that no single column need contain. The
  // pipeline must treat it as an ordinary (likely unsatisfiable) phrase.
  {
    const Relation& rel = wb.db.relation(0);
    std::string whole;
    for (int c = 0; c < rel.num_columns(); ++c) {
      if (rel.columns()[c].type != ColumnType::kText) continue;
      if (!whole.empty()) whole += " ";
      whole += rel.TextAt(c, 0);
    }
    ASSERT_FALSE(whole.empty());
    ExampleTable et = ExampleTable::WithColumns(1);
    et.AddRow({whole});
    ExpectAllVerifiersAgree(wb, et, seed);
  }

  // A single-word ET drawn from a dense column — guaranteed to produce
  // candidates, so the agreement helper above is exercised non-vacuously
  // at least once per seed.
  {
    std::vector<std::string> tokens = Tokenize(texts[3]);
    ASSERT_FALSE(tokens.empty());
    ExampleTable et = ExampleTable::WithColumns(1);
    et.AddRow({tokens[0]});
    EXPECT_GT(ExpectAllVerifiersAgree(wb, et, seed), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EtEdgeCaseTest, ::testing::Values(41, 42));

}  // namespace
}  // namespace qbe
