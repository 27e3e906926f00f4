#include <gtest/gtest.h>

#include "core/candidate_gen.h"
#include "datagen/retailer.h"
#include "ingest/db_view.h"
#include "test_util.h"

namespace qbe {
namespace {

class RelaxedRetrievalTest : public ::testing::Test {
 protected:
  RelaxedRetrievalTest() : db_(MakeRetailerDatabase()) {}
  Database db_;
};

TEST_F(RelaxedRetrievalTest, FullSupportEqualsStrictRetrieval) {
  ExampleTable et = MakeFigure2ExampleTable();
  EXPECT_EQ(RetrieveCandidateColumnsRelaxed(DbView(db_), et, et.num_rows()),
            RetrieveCandidateColumns(DbView(db_), et));
}

TEST_F(RelaxedRetrievalTest, OneBadRowRecoveredAtLowerSupport) {
  ExampleTable et({"A"});
  et.AddRow({"Mike"});
  et.AddRow({"Mary"});
  et.AddRow({"Zelda"});  // matches nothing
  // Strict: no column contains all three values.
  EXPECT_TRUE(RetrieveCandidateColumns(DbView(db_), et)[0].empty());
  // Support 2: CustName and EmpName both contain Mike and Mary.
  auto relaxed = RetrieveCandidateColumnsRelaxed(DbView(db_), et, 2);
  EXPECT_EQ(relaxed[0],
            (std::vector<ColumnRef>{test::Col(db_, "Customer.CustName"),
                                    test::Col(db_, "Employee.EmpName")}));
}

TEST_F(RelaxedRetrievalTest, EmptyCellsCountAsCompatible) {
  ExampleTable et({"A", "B"});
  et.AddRow({"Mike", "ThinkPad"});
  et.AddRow({"", "Nexus"});
  // Column A has one empty cell: with support 2 a column qualifies with a
  // single contained value.
  auto relaxed = RetrieveCandidateColumnsRelaxed(DbView(db_), et, 2);
  EXPECT_EQ(relaxed[0].size(), 2u);  // CustName, EmpName
  EXPECT_EQ(relaxed[1].size(), 1u);  // DevName
}

TEST_F(RelaxedRetrievalTest, SupportLargerThanRowsClamps) {
  ExampleTable et({"A"});
  et.AddRow({"Mike"});
  auto relaxed = RetrieveCandidateColumnsRelaxed(DbView(db_), et, 99);
  EXPECT_EQ(relaxed, RetrieveCandidateColumns(DbView(db_), et));
}

TEST_F(RelaxedRetrievalTest, SupportZeroAdmitsEveryColumn) {
  ExampleTable et({"A"});
  et.AddRow({"Zelda"});
  auto relaxed = RetrieveCandidateColumnsRelaxed(DbView(db_), et, 0);
  EXPECT_EQ(relaxed[0].size(),
            static_cast<size_t>(db_.TotalTextColumns()));
}

TEST_F(RelaxedRetrievalTest, RelaxedIsSupersetOfStrict) {
  ExampleTable et = MakeFigure2ExampleTable();
  auto strict = RetrieveCandidateColumns(DbView(db_), et);
  for (int k = 0; k <= et.num_rows(); ++k) {
    auto relaxed = RetrieveCandidateColumnsRelaxed(DbView(db_), et, k);
    for (size_t c = 0; c < strict.size(); ++c) {
      for (const ColumnRef& col : strict[c]) {
        EXPECT_NE(std::find(relaxed[c].begin(), relaxed[c].end(), col),
                  relaxed[c].end());
      }
    }
  }
}

}  // namespace
}  // namespace qbe
