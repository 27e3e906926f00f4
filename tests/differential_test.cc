// Differential test suite for the verification algorithms.
//
// Over ≥ 200 seeded random database/ET instances it asserts that FILTER,
// VERIFYALL and SIMPLEPRUNE return identical minimal-valid-query sets (the
// paper's §2.3 invariant), and pins every algorithm's verification count
// against a golden snapshot.
//
// Instances are drawn as 20 seeded scaled-retailer databases × 10 random
// ETs each = 200 (database, ET) pairs, sharded into gtest params so
// failures name the offending seed. The golden snapshot also pins FILTER's
// counts on 12 CUST ETs with 500-2000 candidates each (see HeavyCustEts).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "core/candidate_gen.h"
#include "core/filter_verifier.h"
#include "core/simple_prune.h"
#include "core/verify_all.h"
#include "core/weave.h"
#include "datagen/cust_like.h"
#include "datagen/et_gen.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "util/rng.h"

namespace qbe {
namespace {

constexpr int kEtsPerSeed = 10;

struct Workbench {
  explicit Workbench(uint64_t seed)
      : Workbench(
            MakeScaledRetailerDatabase(30, 30, 12, 12, 120, 120, 50, seed)) {}
  explicit Workbench(Database database)
      : db(std::move(database)), graph(db), exec(db, graph) {}

  Database db;
  SchemaGraph graph;
  Executor exec;
};

std::vector<ExampleTable> RandomEts(Workbench& wb, uint64_t seed) {
  EtSource::Options options;
  options.num_matrices = 4;
  options.min_text_cols = 3;
  options.min_matrix_rows = 6;
  EtSource source(wb.db, wb.graph, wb.exec, seed, options);
  EtParams params;
  params.m = 3;
  params.n = 3;
  params.s = 0.3;
  params.v = 1;
  return source.SampleMany(params, kEtsPerSeed, seed * 131 + 7);
}

/// Runs `algo` and returns (valid set, #verifications).
std::pair<std::vector<bool>, int64_t> RunVerifier(
    const Workbench& wb, const ExampleTable& et,
    const std::vector<CandidateQuery>& cands, CandidateVerifier& algo,
    uint64_t seed) {
  VerifyContext ctx{wb.db, wb.graph, wb.exec, et, cands, seed};
  VerificationCounters counters;
  std::vector<bool> valid = algo.Verify(ctx, &counters);
  return {std::move(valid), counters.verifications};
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Part 1: algorithm agreement — all verifiers compute the same minimal
// valid set on every instance.
TEST_P(DifferentialTest, AlgorithmsAgreeOnRandomInstances) {
  uint64_t seed = GetParam();
  Workbench wb(seed);
  int instances = 0;
  for (const ExampleTable& et : RandomEts(wb, seed + 1000)) {
    ++instances;
    std::vector<CandidateQuery> cands =
        GenerateCandidates(wb.db, wb.graph, et, {});
    if (cands.empty()) continue;

    VerifyAll verify_all(RowOrder::kDenseFirst);
    auto [reference, ref_verifs] =
        RunVerifier(wb, et, cands, verify_all, seed);

    SimplePrune simple_prune(RowOrder::kDenseFirst);
    FilterVerifier filter;
    CandidateVerifier* algos[] = {&simple_prune, &filter};
    for (CandidateVerifier* algo : algos) {
      auto [valid, verifs] = RunVerifier(wb, et, cands, *algo, seed);
      EXPECT_EQ(valid, reference)
          << algo->name() << " disagrees with VerifyAll (seed " << seed
          << ", instance " << instances << ")";
    }
  }
  EXPECT_EQ(instances, kEtsPerSeed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

// Part 2: verification-count regression harness. The serial per-algorithm
// verification counts over all 200 seeded instances are snapshotted into
// tests/golden/verify_counts.json (key "sNN.eNN.algo"); any drift fails.
// Counts are the paper's cost currency (Table 4, Figure 9): a pruning or
// filter-scheduling regression shows up here even when the valid sets —
// which part 1 pins — still agree. Regenerate intentionally with
//   QBE_UPDATE_GOLDEN=1 ctest -R differential_test

using CountMap = std::map<std::string, int64_t>;

std::string InstanceKey(uint64_t seed, int et, const char* algo) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "s%02llu.e%02d.%s",
                static_cast<unsigned long long>(seed), et, algo);
  return buf;
}

CountMap CollectVerifyCounts() {
  CountMap counts;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Workbench wb(seed);
    int e = 0;
    for (const ExampleTable& et : RandomEts(wb, seed + 1000)) {
      std::vector<CandidateQuery> cands =
          GenerateCandidates(wb.db, wb.graph, et, {});
      ++e;
      if (cands.empty()) continue;
      VerifyAll verify_all(RowOrder::kDenseFirst);
      SimplePrune simple_prune(RowOrder::kDenseFirst);
      FilterVerifier filter;
      JoinTreeWeave weave;
      std::pair<const char*, CandidateVerifier*> algos[] = {
          {"verifyall", &verify_all},   {"simpleprune", &simple_prune},
          {"filter", &filter},          {"weave", &weave}};
      for (auto [name, algo] : algos) {
        auto [valid, verifs] = RunVerifier(wb, et, cands, *algo, seed);
        (void)valid;
        counts[InstanceKey(seed, e - 1, name)] = verifs;
      }
    }
  }
  return counts;
}

// CUST instances. The retailer ETs above yield at most a few dozen
// candidates; ETs cut from CUST's wide fact-table join graph (EtSource
// matrix 4 at scale 0.2) yield 500-2000, so FILTER runs on thousands of
// filters and a dense sub-filter order: the heavy-ET path of the filter
// universe and the greedy loop. Capping enumeration at kCustMaxCandidates + 1
// keeps the few much larger ETs of that matrix cheap to skip.
constexpr double kCustScale = 0.2;
constexpr int kCustMatrix = 4;
constexpr int kCustEts = 12;
constexpr size_t kCustMinCandidates = 500;
constexpr size_t kCustMaxCandidates = 2000;

struct HeavyCustEt {
  ExampleTable et;
  std::vector<CandidateQuery> candidates;
};

std::vector<HeavyCustEt> HeavyCustEts(const Workbench& wb) {
  EtSource source(wb.db, wb.graph, wb.exec, /*seed=*/3);
  Rng rng(7);
  CandidateGenOptions options;
  options.max_candidates = kCustMaxCandidates + 1;
  std::vector<HeavyCustEt> out;
  for (int draw = 0; draw < 100 && out.size() < kCustEts; ++draw) {
    std::optional<ExampleTable> et =
        source.Sample(EtParams{}, kCustMatrix, rng);
    if (!et) continue;
    std::vector<CandidateQuery> candidates =
        GenerateCandidates(wb.db, wb.graph, *et, options);
    if (candidates.size() <= kCustMinCandidates ||
        candidates.size() > kCustMaxCandidates) {
      continue;
    }
    out.push_back({std::move(*et), std::move(candidates)});
  }
  return out;
}

void CollectCustVerifyCounts(CountMap* counts) {
  CustConfig config;
  config.scale = kCustScale;
  Workbench wb(MakeCustLikeDatabase(config));
  std::vector<HeavyCustEt> ets = HeavyCustEts(wb);
  ASSERT_EQ(ets.size(), static_cast<size_t>(kCustEts));
  for (size_t e = 0; e < ets.size(); ++e) {
    FilterVerifier filter;
    auto [valid, verifs] =
        RunVerifier(wb, ets[e].et, ets[e].candidates, filter, 1);
    (void)valid;
    char key[64];
    std::snprintf(key, sizeof(key), "cust.e%02zu.filter", e);
    (*counts)[key] = verifs;
  }
}

std::string GoldenPath() {
  return std::string(QBE_GOLDEN_DIR) + "/verify_counts.json";
}

void WriteGolden(const CountMap& counts) {
  std::ofstream out(GoldenPath());
  ASSERT_TRUE(out.is_open()) << "cannot write " << GoldenPath();
  out << "{\n";
  size_t i = 0;
  for (const auto& [key, value] : counts) {
    out << "  \"" << key << "\": " << value
        << (++i == counts.size() ? "\n" : ",\n");
  }
  out << "}\n";
}

/// Parses the flat {"key": int, ...} golden file; false on read failure.
bool ReadGolden(CountMap* counts) {
  std::ifstream in(GoldenPath());
  if (!in.is_open()) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) return false;
    std::string key = text.substr(pos + 1, end - pos - 1);
    size_t colon = text.find(':', end);
    if (colon == std::string::npos) return false;
    (*counts)[key] = std::strtoll(text.c_str() + colon + 1, nullptr, 10);
    pos = end + 1;
  }
  return !counts->empty();
}

TEST(VerifyCountGoldenTest, CountsMatchGoldenSnapshot) {
  CountMap counts = CollectVerifyCounts();
  CollectCustVerifyCounts(&counts);
  ASSERT_FALSE(counts.empty());

  if (std::getenv("QBE_UPDATE_GOLDEN") != nullptr) {
    WriteGolden(counts);
    GTEST_LOG_(INFO) << "wrote " << counts.size() << " counts to "
                     << GoldenPath();
    return;
  }

  CountMap golden;
  ASSERT_TRUE(ReadGolden(&golden))
      << GoldenPath() << " missing or unreadable; regenerate with "
      << "QBE_UPDATE_GOLDEN=1";

  // Compare both directions with per-key messages: a bare map EXPECT_EQ
  // would drown the signal in one giant diff.
  for (const auto& [key, value] : golden) {
    auto it = counts.find(key);
    if (it == counts.end()) {
      ADD_FAILURE() << "instance " << key
                    << " missing from this run (golden has " << value << ")";
    } else {
      EXPECT_EQ(it->second, value)
          << "verification count drift on " << key;
    }
  }
  for (const auto& [key, value] : counts) {
    EXPECT_TRUE(golden.count(key))
        << "new instance " << key << " (" << value
        << " verifications) absent from golden; regenerate if intended";
  }
}

}  // namespace
}  // namespace qbe
