#include "core/candidate_gen.h"

#include <gtest/gtest.h>

#include <set>

#include "datagen/retailer.h"
#include "ingest/db_view.h"
#include "test_util.h"

namespace qbe {
namespace {

class CandidateGenTest : public ::testing::Test {
 protected:
  CandidateGenTest() : db_(MakeRetailerDatabase()), graph_(db_) {}

  Database db_;
  SchemaGraph graph_;
};

TEST_F(CandidateGenTest, Figure2CandidateColumns) {
  // §3.2's worked example: A -> {Customer.CustName, Employee.EmpName},
  // B -> {Device.DevName}, C -> {App.AppName, ESR.Desc}.
  ExampleTable et = MakeFigure2ExampleTable();
  auto cols = RetrieveCandidateColumns(DbView(db_), et);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0], (std::vector<ColumnRef>{
                         test::Col(db_, "Customer.CustName"),
                         test::Col(db_, "Employee.EmpName")}));
  EXPECT_EQ(cols[1],
            (std::vector<ColumnRef>{test::Col(db_, "Device.DevName")}));
  EXPECT_EQ(cols[2], (std::vector<ColumnRef>{test::Col(db_, "App.AppName"),
                                             test::Col(db_, "ESR.Desc")}));
}

TEST_F(CandidateGenTest, ColumnConstraintIntersectsOverRows) {
  // 'Evernote' appears only in App.AppName; 'crash' only in ESR.Desc; an ET
  // column containing both values has no candidate projection column.
  ExampleTable et({"A"});
  et.AddRow({"Evernote"});
  et.AddRow({"crash"});
  auto cols = RetrieveCandidateColumns(DbView(db_), et);
  EXPECT_TRUE(cols[0].empty());
  // And candidate generation yields nothing.
  EXPECT_TRUE(GenerateCandidates(db_, graph_, et, {}).empty());
}

TEST_F(CandidateGenTest, Figure2CandidatesAtDefaultJoinLength) {
  ExampleTable et = MakeFigure2ExampleTable();
  CandidateGenOptions options;  // l = 4
  auto candidates = GenerateCandidates(db_, graph_, et, options);
  ASSERT_EQ(candidates.size(), 3u);
  // CQ1 (Figure 2's valid query) must be among them.
  JoinTree cq1_tree =
      test::Tree(db_, graph_, {"Sales", "Customer", "Device", "App"});
  bool found_cq1 = false;
  for (const CandidateQuery& q : candidates) {
    if (q.tree == cq1_tree &&
        q.projection[0] == test::Col(db_, "Customer.CustName") &&
        q.projection[1] == test::Col(db_, "Device.DevName") &&
        q.projection[2] == test::Col(db_, "App.AppName")) {
      found_cq1 = true;
    }
  }
  EXPECT_TRUE(found_cq1);
}

TEST_F(CandidateGenTest, AllCandidatesAreMinimal) {
  ExampleTable et = MakeFigure2ExampleTable();
  CandidateGenOptions options;
  options.max_join_tree_size = 5;
  for (const CandidateQuery& q : GenerateCandidates(db_, graph_, et, options)) {
    EXPECT_TRUE(IsMinimalCandidate(q, graph_));
    EXPECT_EQ(q.tree.NumEdges(), q.tree.NumVertices() - 1);
    EXPECT_LE(q.tree.NumVertices(), 5);
    // Every ET column is mapped into the tree.
    for (const ColumnRef& col : q.projection) {
      EXPECT_TRUE(q.tree.verts.Test(col.rel));
    }
  }
}

TEST_F(CandidateGenTest, LargerJoinLengthGrowsCandidateSet) {
  // Figure 13's premise: higher l admits more candidates.
  ExampleTable et = MakeFigure2ExampleTable();
  CandidateGenOptions l4, l5;
  l4.max_join_tree_size = 4;
  l5.max_join_tree_size = 5;
  size_t n4 = GenerateCandidates(db_, graph_, et, l4).size();
  size_t n5 = GenerateCandidates(db_, graph_, et, l5).size();
  EXPECT_GT(n5, n4);
}

TEST_F(CandidateGenTest, NoDuplicateCandidates) {
  ExampleTable et = MakeFigure2ExampleTable();
  CandidateGenOptions options;
  options.max_join_tree_size = 5;
  auto candidates = GenerateCandidates(db_, graph_, et, options);
  for (size_t i = 0; i < candidates.size(); ++i) {
    for (size_t j = i + 1; j < candidates.size(); ++j) {
      EXPECT_FALSE(candidates[i] == candidates[j]);
    }
  }
}

TEST_F(CandidateGenTest, MaxCandidatesCapRespected) {
  ExampleTable et = MakeFigure2ExampleTable();
  CandidateGenOptions options;
  options.max_join_tree_size = 5;
  options.max_candidates = 2;
  EXPECT_EQ(GenerateCandidates(db_, graph_, et, options).size(), 2u);
}

TEST_F(CandidateGenTest, SingleRelationCandidate) {
  // An ET whose two columns both map into ESR alone.
  ExampleTable et({"A", "B"});
  et.AddRow({"crash", "crash"});
  auto candidates = GenerateCandidates(db_, graph_, et, {});
  bool found_single = false;
  for (const CandidateQuery& q : candidates) {
    if (q.tree.NumVertices() == 1 &&
        q.tree.verts.Test(db_.RelationIdByName("ESR"))) {
      found_single = true;
    }
  }
  EXPECT_TRUE(found_single);
}

TEST_F(CandidateGenTest, MinimalityRejectsUnmappedLeaf) {
  // Hand-built non-minimal query: CQ1's tree but everything mapped to
  // Customer — Device and App are unmapped leaves.
  CandidateQuery q;
  q.tree = test::Tree(db_, graph_, {"Sales", "Customer", "Device", "App"});
  q.projection = {test::Col(db_, "Customer.CustName"),
                  test::Col(db_, "Customer.CustName"),
                  test::Col(db_, "Customer.CustName")};
  EXPECT_FALSE(IsMinimalCandidate(q, graph_));
}

TEST_F(CandidateGenTest, CandidatesAreSupersetOfValidQueries) {
  // Corollary 1 sanity at generation level: the valid CQ1 satisfies the
  // candidate column constraints by construction (checked structurally in
  // Figure2CandidatesAtDefaultJoinLength); here we confirm every candidate
  // satisfies the per-column constraint (Eq. 2's necessary condition).
  ExampleTable et = MakeFigure2ExampleTable();
  auto cols = RetrieveCandidateColumns(DbView(db_), et);
  for (const CandidateQuery& q : GenerateCandidates(db_, graph_, et, {})) {
    for (int c = 0; c < et.num_columns(); ++c) {
      bool in_candidate_cols = false;
      for (const ColumnRef& option : cols[c]) {
        if (option == q.projection[c]) in_candidate_cols = true;
      }
      EXPECT_TRUE(in_candidate_cols);
    }
  }
}

}  // namespace
}  // namespace qbe
