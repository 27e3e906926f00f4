// Tests of the benchmark's own logic: the quantile and tail rules, the
// NURand draw, and the response check.

#include "bench_lib.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <vector>

namespace qbebench {
namespace {

TEST(Quantile, ExactNearestRankOverRawSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // unsorted
  EXPECT_EQ(Quantile(v, 0.5), 500);
  EXPECT_EQ(Quantile(v, 0.99), 990);
  EXPECT_EQ(Quantile(v, 1.0), 1000);
  EXPECT_EQ(Quantile({7.5}, 0.99), 7.5);
  EXPECT_EQ(Quantile({}, 0.5), 0);
  // Values between the old 100 us x 2 histogram bounds stay distinct.
  EXPECT_EQ(Quantile({0.21, 0.39}, 0.5), 0.21);
}

TEST(Quantile, TailRuleNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9);
  EXPECT_EQ(HighestReportablePercentile(1000), 99.0);
  EXPECT_EQ(HighestReportablePercentile(999), 95.0);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
  EXPECT_EQ(HighestReportablePercentile(100000), 99.99);
  EXPECT_EQ(HighestReportablePercentile(100), 90.0);
  EXPECT_EQ(HighestReportablePercentile(20), 50.0);
  EXPECT_EQ(HighestReportablePercentile(19), 0.0);
}

TEST(NURand, RepeatsForAFixedSeedAndIsSkewed) {
  NURand a(7, 15, 0, 63, 5), b(7, 15, 0, 63, 5), c(8, 15, 0, 63, 5);
  std::vector<int64_t> da, db, dc;
  std::map<int64_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    da.push_back(a.Next());
    db.push_back(b.Next());
    dc.push_back(c.Next());
    ASSERT_GE(da.back(), 0);
    ASSERT_LE(da.back(), 63);
    counts[da.back()]++;
  }
  EXPECT_EQ(da, db);
  EXPECT_NE(da, dc);
  int hottest = 0;
  for (const auto& [value, n] : counts) hottest = std::max(hottest, n);
  // Uniform would give each value ~312 draws; NURand concentrates them.
  EXPECT_GT(hottest, 2 * 20000 / 64);
}

TEST(Strata, BoundsAreInclusive) {
  EXPECT_EQ(StratumOf(0), 0);
  EXPECT_EQ(StratumOf(64), 0);
  EXPECT_EQ(StratumOf(65), 1);
  EXPECT_EQ(StratumOf(512), 1);
  EXPECT_EQ(StratumOf(4096), 2);
  EXPECT_EQ(StratumOf(4097), 3);
  EXPECT_EQ(StratumOf(9300), 3);
}

TEST(Strata, EveryPrefixKeepsTheShares) {
  const std::array<int, kStrata> shares = {586, 333, 67, 14};
  const std::vector<int> plan = StreamPlan(3000, shares);
  ASSERT_EQ(plan.size(), 3000u);
  std::array<int, kStrata> seen{};
  for (size_t p = 0; p < plan.size(); ++p) {
    ++seen[plan[p]];
    for (int s = 0; s < kStrata; ++s) {
      EXPECT_LE(std::abs(seen[s] - (p + 1) * shares[s] / 1000.0), 1.0)
          << "prefix " << p + 1 << " stratum " << s;
    }
  }
  EXPECT_EQ(StreamPlan(10, {1000, 0, 0, 0}), std::vector<int>(10, 0));
  EXPECT_TRUE(StreamPlan(10, {0, 0, 0, 0}).empty());
}

Answer Sample() {
  Answer a;
  a.sql = {"SELECT a FROM t", "SELECT b FROM u JOIN t"};
  a.matched = {3, 3};
  a.scores = {0.75, 0.5};
  a.num_candidates = 12;
  a.verifications = 9;
  return a;
}

TEST(Mismatch, AcceptsIdenticalAndCacheReducedAnswers) {
  EXPECT_EQ(Mismatch(Sample(), Sample()), "");
  Answer cached = Sample();
  cached.verifications = 2;  // outcomes served from the shared cache
  EXPECT_EQ(Mismatch(Sample(), cached), "");
}

TEST(Mismatch, DetectsCorruptedResults) {
  Answer sql = Sample();
  sql.sql[1] = "SELECT c FROM v";
  EXPECT_NE(Mismatch(Sample(), sql), "");
  Answer order = Sample();
  std::swap(order.sql[0], order.sql[1]);
  EXPECT_NE(Mismatch(Sample(), order), "");
  Answer missing = Sample();
  missing.sql.pop_back();
  missing.matched.pop_back();
  missing.scores.pop_back();
  EXPECT_NE(Mismatch(Sample(), missing), "");
  Answer score = Sample();
  score.scores[0] = 0.7500000001;
  EXPECT_NE(Mismatch(Sample(), score), "");
  Answer rows = Sample();
  rows.matched[1] = 2;
  EXPECT_NE(Mismatch(Sample(), rows), "");
  Answer candidates = Sample();
  candidates.num_candidates = 13;
  EXPECT_NE(Mismatch(Sample(), candidates), "");
  Answer extra = Sample();
  extra.verifications = 10;
  EXPECT_NE(Mismatch(Sample(), extra), "");
  Answer status = Sample();
  status.status = "rejected";
  EXPECT_NE(Mismatch(Sample(), status), "");
}

}  // namespace
}  // namespace qbebench
