#include "core/verifier.h"

#include <gtest/gtest.h>

#include "core/candidate_gen.h"
#include "core/execute_all.h"
#include "core/filter_universe.h"
#include "core/simple_prune.h"
#include "core/verify_all.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "test_util.h"

namespace qbe {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest()
      : db_(MakeRetailerDatabase()),
        graph_(db_),
        exec_(db_, graph_),
        et_(MakeFigure2ExampleTable()) {
    candidates_ = GenerateCandidates(db_, graph_, et_, {});
  }

  VerifyContext Ctx() {
    return VerifyContext{db_, graph_, exec_, et_, candidates_, 42};
  }

  int ValidCount(const std::vector<bool>& valid) {
    int n = 0;
    for (bool v : valid) n += v;
    return n;
  }

  Database db_;
  SchemaGraph graph_;
  Executor exec_;
  ExampleTable et_;
  std::vector<CandidateQuery> candidates_;
};

TEST_F(VerifierTest, MakeRowOrderGiven) {
  EXPECT_EQ(MakeRowOrder(et_, RowOrder::kGiven, 1),
            (std::vector<int>{0, 1, 2}));
}

TEST_F(VerifierTest, MakeRowOrderDenseFirst) {
  // Row 0 has 3 non-empty cells, rows 1 and 2 have 2 each (stable order).
  EXPECT_EQ(MakeRowOrder(et_, RowOrder::kDenseFirst, 1),
            (std::vector<int>{0, 1, 2}));
}

TEST_F(VerifierTest, MakeRowOrderRandomIsSeededPermutation) {
  std::vector<int> a = MakeRowOrder(et_, RowOrder::kRandom, 5);
  std::vector<int> b = MakeRowOrder(et_, RowOrder::kRandom, 5);
  EXPECT_EQ(a, b);
  std::vector<int> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2}));
}

TEST_F(VerifierTest, VerifyAllFindsOnlyCq1) {
  VerifyAll algo;
  VerificationCounters counters;
  VerifyContext ctx = Ctx();
  std::vector<bool> valid = algo.Verify(ctx, &counters);
  EXPECT_EQ(ValidCount(valid), 1);
  // The valid candidate is the Sales-based CQ1.
  JoinTree cq1 = test::Tree(db_, graph_,
                            {"Sales", "Customer", "Device", "App"});
  for (size_t q = 0; q < candidates_.size(); ++q) {
    if (valid[q]) EXPECT_TRUE(candidates_[q].tree == cq1);
  }
  EXPECT_GT(counters.verifications, 0);
  EXPECT_GT(counters.estimated_cost, 0);
}

TEST_F(VerifierTest, VerifyAllVerificationAccounting) {
  // With the 3 default-l candidates: CQ1 passes all 3 rows (3 checks);
  // the two Owner-based candidates pass row 1 and fail row 2 (2 checks
  // each) under dense-first order = 3 + 2 + 2 = 7.
  VerifyAll algo(RowOrder::kDenseFirst);
  VerificationCounters counters;
  VerifyContext ctx = Ctx();
  algo.Verify(ctx, &counters);
  EXPECT_EQ(counters.verifications, 7);
}

TEST_F(VerifierTest, EvalEngineChargesPredicateFreeTreeOnceAcrossRows) {
  // Each row of the one-column ET gets a filter on {Sales, Device}, whose
  // relations hold no projected column: two predicate-free filters on one
  // tree. The engine executes that join once and serves every later ask,
  // from either row, out of its memo.
  ExampleTable et({"A"});
  et.AddRow({"Mike"});
  et.AddRow({"Mary"});
  CandidateQuery query;
  query.tree = test::Tree(db_, graph_, {"Sales", "Customer", "Device"});
  query.projection = {test::Col(db_, "Customer.CustName")};
  const std::vector<CandidateQuery> candidates = {query};
  const FilterUniverse u = BuildFilterUniverse(graph_, et, candidates);
  const JoinTree free_tree = test::Tree(db_, graph_, {"Sales", "Device"});
  std::vector<int> free_filters;
  for (int f = 0; f < u.num_filters(); ++f) {
    if (u.trees[u.filters[f].tree] == free_tree) free_filters.push_back(f);
  }
  ASSERT_EQ(free_filters.size(), 2u);
  EXPECT_NE(u.filters[free_filters[0]].row, u.filters[free_filters[1]].row);
  std::vector<PhrasePredicate> predicates;
  for (int f : free_filters) {
    u.PredicatesInto(f, et, nullptr, &predicates);
    EXPECT_TRUE(predicates.empty());
  }

  VerifyContext ctx{.db = db_,
                    .graph = graph_,
                    .exec = exec_,
                    .et = et,
                    .candidates = candidates,
                    .verify = {}};
  VerificationCounters counters;
  EvalEngine engine(ctx, &counters);
  EXPECT_TRUE(engine.EvaluateFilter(u, free_filters[0]));
  EXPECT_TRUE(engine.EvaluateFilter(u, free_filters[0]));
  EXPECT_TRUE(engine.EvaluateFilter(u, free_filters[1]));
  EXPECT_EQ(counters.verifications, 1);
  EXPECT_EQ(counters.estimated_cost, 2);

  // A filter with predicates is charged on every evaluation.
  const int basic = u.basic_filters_of_query[0][0];
  EXPECT_TRUE(engine.EvaluateFilter(u, basic));
  EXPECT_TRUE(engine.EvaluateFilter(u, basic));
  EXPECT_EQ(counters.verifications, 3);
}

TEST_F(VerifierTest, SimplePruneAgreesWithVerifyAll) {
  VerifyAll verify_all;
  SimplePrune simple_prune;
  VerificationCounters c1, c2;
  VerifyContext ctx = Ctx();
  EXPECT_EQ(verify_all.Verify(ctx, &c1), simple_prune.Verify(ctx, &c2));
}

TEST_F(VerifierTest, SimplePrunePrunesViaFailureDependency) {
  // Build the Example 6 pair: small CQ (subtree) ordered before its
  // supertree candidate; the failure on row 2 must prune the supertree
  // without verifying it.
  std::vector<CandidateQuery> pair;
  CandidateQuery small;
  small.tree = test::Tree(db_, graph_, {"Owner", "Employee", "Device"});
  small.projection = {test::Col(db_, "Employee.EmpName"),
                      test::Col(db_, "Device.DevName"),
                      test::Col(db_, "Employee.EmpName")};
  CandidateQuery big;
  big.tree = test::Tree(db_, graph_, {"Owner", "Employee", "Device", "App"});
  big.projection = small.projection;
  pair.push_back(big);    // order in the vector must not matter:
  pair.push_back(small);  // SimplePrune sorts by tree size itself.

  VerifyContext ctx{db_, graph_, exec_, et_, pair, 42};
  VerificationCounters prune_counters, all_counters;
  SimplePrune simple_prune;
  VerifyAll verify_all;
  std::vector<bool> pruned = simple_prune.Verify(ctx, &prune_counters);
  std::vector<bool> reference = verify_all.Verify(ctx, &all_counters);
  EXPECT_EQ(pruned, reference);
  EXPECT_EQ(prune_counters.pruned_without_verification, 1);
  EXPECT_LT(prune_counters.verifications, all_counters.verifications);
}

TEST_F(VerifierTest, CountersAddAggregates) {
  VerificationCounters a, b;
  a.verifications = 3;
  a.estimated_cost = 10;
  a.peak_memory_bytes = 100;
  b.verifications = 2;
  b.estimated_cost = 5;
  b.peak_memory_bytes = 200;
  a.Add(b);
  EXPECT_EQ(a.verifications, 5);
  EXPECT_EQ(a.estimated_cost, 15);
  EXPECT_EQ(a.peak_memory_bytes, 200u);
}

TEST_F(VerifierTest, ExecuteAllAgreesAndChargesOutputSize) {
  ExampleTable et = MakeFigure2ExampleTable();
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db_, graph_, et, {});
  VerifyContext ctx{.db = db_,
                    .graph = graph_,
                    .exec = exec_,
                    .et = et,
                    .candidates = candidates,
                    .seed = 1,
                    .verify = {}};
  VerifyAll reference;
  VerificationCounters c0;
  std::vector<bool> expected = reference.Verify(ctx, &c0);

  ExecuteAll execute_all;
  VerificationCounters c1;
  EXPECT_EQ(execute_all.Verify(ctx, &c1), expected);
  // One verification per candidate, but cost counts whole outputs: the
  // Sales and Owner candidates produce 3 tuples each, the ESR-based one 2
  // (only employees e1 and e2 filed service requests) — 8 tuples over
  // 4-relation trees.
  EXPECT_EQ(c1.verifications, static_cast<int64_t>(candidates.size()));
  EXPECT_EQ(c1.estimated_cost, 8 * 4);
}

TEST_F(VerifierTest, ExecuteAllFallbackUnderTinyCap) {
  ExampleTable et = MakeFigure2ExampleTable();
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db_, graph_, et, {});
  VerifyContext ctx{.db = db_,
                    .graph = graph_,
                    .exec = exec_,
                    .et = et,
                    .candidates = candidates,
                    .seed = 1,
                    .verify = {}};
  VerifyAll reference;
  VerificationCounters c0;
  std::vector<bool> expected = reference.Verify(ctx, &c0);
  ExecuteAll tiny_cap(/*output_cap=*/1);
  VerificationCounters c1;
  EXPECT_EQ(tiny_cap.Verify(ctx, &c1), expected);
}

TEST_F(VerifierTest, ExecuteAllWithExactCells) {
  ExampleTable et({"A"});
  et.AddRowCells({EtCell{"Office", true}});  // never a whole cell
  std::vector<CandidateQuery> candidates =
      GenerateCandidates(db_, graph_, et, {});
  if (candidates.empty()) GTEST_SKIP();
  VerifyContext ctx{.db = db_,
                    .graph = graph_,
                    .exec = exec_,
                    .et = et,
                    .candidates = candidates,
                    .seed = 1,
                    .verify = {}};
  ExecuteAll execute_all;
  VerificationCounters c;
  for (bool v : execute_all.Verify(ctx, &c)) EXPECT_FALSE(v);
}

}  // namespace
}  // namespace qbe
