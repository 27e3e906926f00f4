// Parameterized property sweep over the ET-generation grid of Table 3:
// every (m, n, s, v) combination in the paper's ranges must yield
// well-formed example tables with exactly the requested shape, the floor
// ⌊m·n·s⌋ blank cells, and cells of at most v tokens — and the downstream
// discovery pipeline must accept each of them.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/candidate_gen.h"
#include "datagen/et_gen.h"
#include "datagen/imdb_like.h"
#include "exec/executor.h"
#include "ingest/db_view.h"
#include "schema/schema_graph.h"

namespace qbe {
namespace {

struct SweepFixture {
  SweepFixture() {
    ImdbConfig config;
    config.scale = 0.15;
    db = std::make_unique<Database>(MakeImdbLikeDatabase(config));
    graph = std::make_unique<SchemaGraph>(*db);
    exec = std::make_unique<Executor>(*db, *graph);
    source = std::make_unique<EtSource>(*db, *graph, *exec, 31);
  }
  std::unique_ptr<Database> db;
  std::unique_ptr<SchemaGraph> graph;
  std::unique_ptr<Executor> exec;
  std::unique_ptr<EtSource> source;
};

SweepFixture& Fixture() {
  static SweepFixture& fixture = *new SweepFixture();
  return fixture;
}

using SweepParam = std::tuple<int, int, double, int>;  // m, n, s, v

class EtSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EtSweepTest, SampledTablesHonourParameters) {
  auto [m, n, s, v] = GetParam();
  // Covering every row and column needs at least max(m, n) filled cells;
  // combinations blanking more than that are infeasible by construction
  // (the paper's sweeps never hit them since they vary one parameter from
  // the defaults at a time).
  int filled = m * n - static_cast<int>(m * n * s);
  if (filled < std::max(m, n)) {
    GTEST_SKIP() << "infeasible parameter combination";
  }
  EtParams params;
  params.m = m;
  params.n = n;
  params.s = s;
  params.v = v;
  SweepFixture& fx = Fixture();
  Rng rng(1000 + m * 100 + n * 10 + v);
  int produced = 0;
  for (int matrix = 0; matrix < fx.source->num_matrices(); ++matrix) {
    std::optional<ExampleTable> et = fx.source->Sample(params, matrix, rng);
    if (!et.has_value()) continue;  // matrix too small for these params
    ++produced;
    EXPECT_EQ(et->num_rows(), m);
    EXPECT_EQ(et->num_columns(), n);
    EXPECT_TRUE(et->IsWellFormed());
    int blanks = 0;
    for (int r = 0; r < m; ++r) {
      for (int c = 0; c < n; ++c) {
        const EtCell& cell = et->cell(r, c);
        if (cell.IsEmpty()) {
          ++blanks;
        } else {
          EXPECT_LE(et->CellTokens(r, c).size(), static_cast<size_t>(v));
          EXPECT_GE(et->CellTokens(r, c).size(), 1u);
        }
      }
    }
    EXPECT_EQ(blanks, static_cast<int>(m * n * s));
    // The pipeline front-end must accept the table.
    auto cols = RetrieveCandidateColumns(DbView(*fx.db), *et);
    EXPECT_EQ(cols.size(), static_cast<size_t>(n));
  }
  EXPECT_GT(produced, 0) << "no matrix supported m=" << m << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Table3Grid, EtSweepTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6),   // m
                       ::testing::Values(2, 3, 4, 5, 6),   // n
                       ::testing::Values(0.0, 0.2, 0.3, 0.5, 0.7),  // s
                       ::testing::Values(1, 2, 3)),        // v
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      // No structured bindings here: commas inside [] are not protected
      // from the preprocessor within a macro argument.
      return "m" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 10)) +
             "_v" + std::to_string(std::get<3>(info.param));
    });

}  // namespace
}  // namespace qbe
