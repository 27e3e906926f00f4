#include "datagen/et_gen.h"

#include <gtest/gtest.h>

#include "core/candidate_gen.h"
#include "datagen/imdb_like.h"
#include "datagen/retailer.h"
#include "ingest/db_view.h"

namespace qbe {
namespace {

class EtGenTest : public ::testing::Test {
 protected:
  EtGenTest()
      : db_(MakeImdbLikeDatabase(SmallConfig())),
        graph_(db_),
        exec_(db_, graph_),
        source_(db_, graph_, exec_, 11) {}

  static ImdbConfig SmallConfig() {
    ImdbConfig config;
    config.scale = 0.1;
    return config;
  }

  Database db_;
  SchemaGraph graph_;
  Executor exec_;
  EtSource source_;
};

TEST_F(EtGenTest, BuildsTenMatrices) {
  EXPECT_EQ(source_.num_matrices(), 10);
  for (int i = 0; i < source_.num_matrices(); ++i) {
    EXPECT_GE(source_.matrix_rows(i), 12u);
  }
}

TEST_F(EtGenTest, SampleRespectsShapeParameters) {
  EtParams params;
  params.m = 4;
  params.n = 5;
  params.s = 0.3;
  params.v = 2;
  Rng rng(3);
  std::optional<ExampleTable> et = source_.Sample(params, 0, rng);
  ASSERT_TRUE(et.has_value());
  EXPECT_EQ(et->num_rows(), 4);
  EXPECT_EQ(et->num_columns(), 5);
  EXPECT_TRUE(et->IsWellFormed());
  // Exactly floor(m*n*s) = 6 blank cells.
  int blanks = 0;
  for (int r = 0; r < et->num_rows(); ++r) {
    blanks += et->num_columns() - et->NonEmptyCellCount(r);
  }
  EXPECT_EQ(blanks, static_cast<int>(4 * 5 * 0.3));
}

TEST_F(EtGenTest, CellValueLengthBounded) {
  EtParams params;
  params.v = 1;
  Rng rng(5);
  std::optional<ExampleTable> et = source_.Sample(params, 1, rng);
  ASSERT_TRUE(et.has_value());
  for (int r = 0; r < et->num_rows(); ++r) {
    for (int c = 0; c < et->num_columns(); ++c) {
      if (!et->cell(r, c).IsEmpty()) {
        EXPECT_EQ(et->CellTokens(r, c).size(), 1u);
      }
    }
  }
}

TEST_F(EtGenTest, ZeroSparsityMeansNoEmptyCells) {
  EtParams params;
  params.s = 0.0;
  Rng rng(7);
  std::optional<ExampleTable> et = source_.Sample(params, 2, rng);
  ASSERT_TRUE(et.has_value());
  for (int r = 0; r < et->num_rows(); ++r) {
    EXPECT_EQ(et->NonEmptyCellCount(r), et->num_columns());
  }
}

TEST_F(EtGenTest, SampleManyReturnsRequestedCount) {
  EtParams params;
  std::vector<ExampleTable> ets = source_.SampleMany(params, 25, 13);
  EXPECT_EQ(ets.size(), 25u);
  for (const ExampleTable& et : ets) EXPECT_TRUE(et.IsWellFormed());
}

TEST_F(EtGenTest, SampleManyDeterministic) {
  EtParams params;
  std::vector<ExampleTable> a = source_.SampleMany(params, 5, 17);
  std::vector<ExampleTable> b = source_.SampleMany(params, 5, 17);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (int r = 0; r < a[i].num_rows(); ++r) {
      for (int c = 0; c < a[i].num_columns(); ++c) {
        EXPECT_EQ(a[i].cell(r, c).text, b[i].cell(r, c).text);
      }
    }
  }
}

TEST_F(EtGenTest, GeneratedEtsYieldValidQueries) {
  // By construction an ET drawn from a join matrix should admit at least
  // one valid query when the discovery join-length bound covers the source
  // tree (sanity for the whole experimental pipeline). We check candidates
  // exist; validity is exercised by the verifier tests.
  EtParams params;
  params.s = 0.0;
  std::vector<ExampleTable> ets = source_.SampleMany(params, 5, 19);
  for (const ExampleTable& et : ets) {
    auto cols = RetrieveCandidateColumns(DbView(db_), et);
    for (const auto& options : cols) {
      EXPECT_FALSE(options.empty());
    }
  }
}

TEST_F(EtGenTest, RetailerTooSmallForMatrices) {
  // The Figure 1 database has tiny join results; EtSource should simply
  // produce fewer (possibly zero) matrices rather than crash.
  Database db = MakeRetailerDatabase();
  SchemaGraph graph(db);
  Executor exec(db, graph);
  EtSource::Options options;
  options.min_matrix_rows = 2;
  EtSource source(db, graph, exec, 3, options);
  SUCCEED();
}

}  // namespace
}  // namespace qbe
