#include "core/filter.h"

#include <gtest/gtest.h>

#include "datagen/retailer.h"
#include "exec/executor.h"
#include "test_util.h"

namespace qbe {
namespace {

class FilterTest : public ::testing::Test {
 protected:
  FilterTest()
      : db_(MakeRetailerDatabase()),
        graph_(db_),
        et_(MakeFigure2ExampleTable()) {
    // CQ2 of Figure 4: Owner joining Employee, Device, App with
    // A -> Employee.EmpName, B -> Device.DevName, C -> App.AppName.
    cq2_.tree = test::Tree(db_, graph_, {"Owner", "Employee", "Device",
                                         "App"});
    cq2_.projection = {test::Col(db_, "Employee.EmpName"),
                       test::Col(db_, "Device.DevName"),
                       test::Col(db_, "App.AppName")};
  }

  Database db_;
  SchemaGraph graph_;
  ExampleTable et_;
  CandidateQuery cq2_;
};

TEST_F(FilterTest, Figure7FilterF1) {
  // F1: sub-join tree {Owner, Employee, Device} of CQ2 on row 1.
  // φ'(A)=EmpName, φ'(B)=DevName, φ'(C)=* (App outside the subtree).
  JoinTree sub = test::Tree(db_, graph_, {"Owner", "Employee", "Device"});
  Filter f1 = MakeFilter(cq2_, sub, et_, 0);
  EXPECT_EQ(f1.phi[0], test::Col(db_, "Employee.EmpName"));
  EXPECT_EQ(f1.phi[1], test::Col(db_, "Device.DevName"));
  EXPECT_FALSE(f1.phi[2].valid());  // '*'
  EXPECT_EQ(f1.NumConstrainedCells(), 2);
  EXPECT_EQ(f1.Cost(), 3);
  // Predicates: Mike on EmpName, ThinkPad on DevName (row 1 cells).
  auto preds = FilterPredicates(f1, et_);
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(preds[0].tokens, (std::vector<std::string>{"mike"}));
  EXPECT_EQ(preds[1].tokens, (std::vector<std::string>{"thinkpad"}));
}

TEST_F(FilterTest, Figure7BasicFilterF2) {
  Filter f2 = MakeFilter(cq2_, cq2_.tree, et_, 0);
  EXPECT_TRUE(f2.phi[2].valid());
  EXPECT_EQ(f2.NumConstrainedCells(), 3);
  EXPECT_EQ(f2.Cost(), 4);
}

TEST_F(FilterTest, EmptyCellsAreUnconstrained) {
  // Row 2 (Mary, iPad, —): C is empty, so even the basic filter constrains
  // only two cells.
  Filter f = MakeFilter(cq2_, cq2_.tree, et_, 1);
  EXPECT_EQ(f.NumConstrainedCells(), 2);
  EXPECT_EQ(FilterPredicates(f, et_).size(), 2u);
}

TEST_F(FilterTest, Example8DependencyBetweenF1AndF2) {
  // Example 8: F1 ≻− F2 and F2 ≻+ F1 — both directions of the single
  // sub-filter relation.
  JoinTree sub = test::Tree(db_, graph_, {"Owner", "Employee", "Device"});
  Filter f1 = MakeFilter(cq2_, sub, et_, 0);
  Filter f2 = MakeFilter(cq2_, cq2_.tree, et_, 0);
  EXPECT_TRUE(IsSubFilterOf(f1, f2));
  EXPECT_FALSE(IsSubFilterOf(f2, f1));
}

TEST_F(FilterTest, NoDependencyAcrossRows) {
  JoinTree sub = test::Tree(db_, graph_, {"Owner", "Employee", "Device"});
  Filter f1 = MakeFilter(cq2_, sub, et_, 0);
  Filter f2 = MakeFilter(cq2_, cq2_.tree, et_, 1);
  EXPECT_FALSE(IsSubFilterOf(f1, f2));
}

TEST_F(FilterTest, NoDependencyWhenProjectionsDisagree) {
  // Same subtree {Owner, Device, App} but the C mapping differs between a
  // candidate mapping C->App.AppName and one mapping C->ESR.Desc restricted
  // to this subtree... here: compare against CQ2 with A mapped elsewhere.
  CandidateQuery cq_other = cq2_;
  cq_other.projection[0] = test::Col(db_, "Customer.CustName");
  // (Not a real candidate — Customer isn't in the tree — but MakeFilter
  // handles it: φ'(A) becomes undefined.)
  Filter f_other = MakeFilter(cq_other, cq2_.tree, et_, 0);
  Filter f2 = MakeFilter(cq2_, cq2_.tree, et_, 0);
  // f_other constrains {B, C}; f2 constrains {A, B, C} and they agree
  // there, so f_other is a sub-filter of f2 but not vice versa.
  EXPECT_TRUE(IsSubFilterOf(f_other, f2));
  EXPECT_FALSE(IsSubFilterOf(f2, f_other));
}

TEST_F(FilterTest, SubFilterRelationIsTransitive) {
  JoinTree sub1 = JoinTree::Single(db_.RelationIdByName("Device"));
  JoinTree sub2 = test::Tree(db_, graph_, {"Owner", "Device"});
  Filter a = MakeFilter(cq2_, sub1, et_, 0);
  Filter b = MakeFilter(cq2_, sub2, et_, 0);
  Filter c = MakeFilter(cq2_, cq2_.tree, et_, 0);
  EXPECT_TRUE(IsSubFilterOf(a, b));
  EXPECT_TRUE(IsSubFilterOf(b, c));
  EXPECT_TRUE(IsSubFilterOf(a, c));
}

TEST_F(FilterTest, FilterIdentity) {
  JoinTree sub = test::Tree(db_, graph_, {"Owner", "Employee", "Device"});
  Filter a = MakeFilter(cq2_, sub, et_, 0);
  Filter b = MakeFilter(cq2_, sub, et_, 0);
  EXPECT_TRUE(a == b);
  Filter c = MakeFilter(cq2_, sub, et_, 1);
  EXPECT_FALSE(a == c);
}

TEST_F(FilterTest, SharedFilterAcrossCandidates) {
  // §5.1 Remark: two candidates sharing the same restriction within J'
  // yield the *same* filter. CQ3 (Figure 4): Owner-Employee-Device + ESR
  // with C -> ESR.Desc shares the {Owner, Employee, Device} filter with
  // CQ2.
  CandidateQuery cq3;
  cq3.tree = test::Tree(db_, graph_, {"Owner", "Employee", "Device", "ESR"});
  cq3.projection = {test::Col(db_, "Employee.EmpName"),
                    test::Col(db_, "Device.DevName"),
                    test::Col(db_, "ESR.Desc")};
  JoinTree shared = test::Tree(db_, graph_, {"Owner", "Employee", "Device"});
  Filter from_cq2 = MakeFilter(cq2_, shared, et_, 1);
  Filter from_cq3 = MakeFilter(cq3, shared, et_, 1);
  EXPECT_TRUE(from_cq2 == from_cq3);
}

TEST_F(FilterTest, Lemma3SemanticSoundness) {
  // The Example 2 pruning story: the shared {Owner, Employee, Device}
  // filter fails on row 2, and so do the basic filters of CQ2 and CQ3.
  Executor exec(db_, graph_);
  JoinTree shared = test::Tree(db_, graph_, {"Owner", "Employee", "Device"});
  Filter small = MakeFilter(cq2_, shared, et_, 1);
  Filter big = MakeFilter(cq2_, cq2_.tree, et_, 1);
  ASSERT_TRUE(IsSubFilterOf(small, big));
  bool small_ok = exec.Exists(small.tree, FilterPredicates(small, et_));
  bool big_ok = exec.Exists(big.tree, FilterPredicates(big, et_));
  EXPECT_FALSE(small_ok);
  // Lemma 3: failure of the sub-filter implies failure of the super-filter.
  EXPECT_FALSE(big_ok);
}

TEST_F(FilterTest, QueryFailureImpliesLemma1) {
  // Example 6: CQ2 = {Owner, Employee, Device} failing row 2 implies CQ5 =
  // {Owner, Employee, Device, App} (same mappings for A and B) fails row 2.
  CandidateQuery small;
  small.tree = test::Tree(db_, graph_, {"Owner", "Employee", "Device"});
  small.projection = {test::Col(db_, "Employee.EmpName"),
                      test::Col(db_, "Device.DevName"),
                      test::Col(db_, "Device.DevName")};
  CandidateQuery big = cq2_;
  big.projection[2] = test::Col(db_, "Device.DevName");
  // Row 2's non-empty cells are A and B; C may differ (it is empty).
  EXPECT_TRUE(QueryFailureImplies(small, big, et_, 1));
  // Row 1 has a non-empty C cell and the C mappings differ? Here they are
  // equal, so implication also holds for row 1 structurally.
  EXPECT_TRUE(QueryFailureImplies(small, big, et_, 0));
  // Disagreement on a non-empty cell kills the implication.
  CandidateQuery other = big;
  other.projection[0] = test::Col(db_, "Customer.CustName");
  EXPECT_FALSE(QueryFailureImplies(small, other, et_, 1));
}

}  // namespace
}  // namespace qbe
