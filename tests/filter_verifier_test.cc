#include "core/filter_verifier.h"

#include <gtest/gtest.h>

#include "core/candidate_gen.h"
#include "core/verify_all.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "test_util.h"

namespace qbe {
namespace {

class FilterVerifierTest : public ::testing::Test {
 protected:
  FilterVerifierTest()
      : db_(MakeRetailerDatabase()),
        graph_(db_),
        exec_(db_, graph_),
        et_(MakeFigure2ExampleTable()) {
    candidates_ = GenerateCandidates(db_, graph_, et_, {});
  }

  VerifyContext Ctx() {
    return VerifyContext{db_, graph_, exec_, et_, candidates_, 42};
  }

  Database db_;
  SchemaGraph graph_;
  Executor exec_;
  ExampleTable et_;
  std::vector<CandidateQuery> candidates_;
};

TEST_F(FilterVerifierTest, AgreesWithVerifyAll) {
  VerifyAll reference;
  FilterVerifier filter;
  VerificationCounters c1, c2;
  VerifyContext ctx = Ctx();
  EXPECT_EQ(reference.Verify(ctx, &c1), filter.Verify(ctx, &c2));
}

TEST_F(FilterVerifierTest, RobustToFailurePrior) {
  // Over the default candidates and the 14 of max join length 5.
  CandidateGenOptions options;
  options.max_join_tree_size = 5;
  std::vector<CandidateQuery> many =
      GenerateCandidates(db_, graph_, et_, options);
  for (const std::vector<CandidateQuery>* candidates : {&candidates_, &many}) {
    VerifyContext ctx{.db = db_,
                      .graph = graph_,
                      .exec = exec_,
                      .et = et_,
                      .candidates = *candidates,
                      .verify = {}};
    VerifyAll reference;
    VerificationCounters c0;
    std::vector<bool> expected = reference.Verify(ctx, &c0);
    for (double prior : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      FilterVerifier filter(prior);
      VerificationCounters c;
      EXPECT_EQ(filter.Verify(ctx, &c), expected)
          << "prior " << prior << ", " << candidates->size() << " candidates";
    }
  }
}

TEST_F(FilterVerifierTest, HandlesEmptyCandidateSet) {
  std::vector<CandidateQuery> none;
  VerifyContext ctx{db_, graph_, exec_, et_, none, 42};
  FilterVerifier filter;
  VerificationCounters counters;
  EXPECT_TRUE(filter.Verify(ctx, &counters).empty());
  EXPECT_EQ(counters.verifications, 0);
}

TEST_F(FilterVerifierTest, SingleValidCandidateEvaluatesBasicFilters) {
  // Only CQ1 — valid — so every row's basic filter must be confirmed
  // (directly or via success dependency): at least one verification, and
  // the result is valid.
  std::vector<CandidateQuery> only_cq1;
  for (const CandidateQuery& q : candidates_) {
    if (q.tree ==
        test::Tree(db_, graph_, {"Sales", "Customer", "Device", "App"})) {
      only_cq1.push_back(q);
    }
  }
  ASSERT_EQ(only_cq1.size(), 1u);
  VerifyContext ctx{db_, graph_, exec_, et_, only_cq1, 42};
  FilterVerifier filter;
  VerificationCounters counters;
  std::vector<bool> valid = filter.Verify(ctx, &counters);
  EXPECT_TRUE(valid[0]);
  EXPECT_GE(counters.verifications, 1);
}

TEST_F(FilterVerifierTest, SharedFilterPruningBeatsPerCandidateWork) {
  // The Example 2 scenario: many candidates sharing a failing subtree. The
  // filter approach should resolve all Owner-based candidates without
  // evaluating each one per row. Build an inflated candidate set by using
  // max join length 5 (14 candidates on this database).
  CandidateGenOptions options;
  options.max_join_tree_size = 5;
  std::vector<CandidateQuery> many =
      GenerateCandidates(db_, graph_, et_, options);
  ASSERT_GT(many.size(), 10u);
  VerifyContext ctx{db_, graph_, exec_, et_, many, 42};
  VerifyAll reference;
  FilterVerifier filter;
  VerificationCounters c_ref, c_filter;
  std::vector<bool> expected = reference.Verify(ctx, &c_ref);
  EXPECT_EQ(filter.Verify(ctx, &c_filter), expected);
  // The headline claim: fewer verifications than VERIFYALL.
  EXPECT_LT(c_filter.verifications, c_ref.verifications);
}

}  // namespace
}  // namespace qbe
