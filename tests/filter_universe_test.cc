#include "core/filter_universe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/candidate_gen.h"
#include "datagen/cust_like.h"
#include "datagen/et_gen.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "schema/subtree_enum.h"
#include "test_util.h"
#include "util/rng.h"

namespace qbe {
namespace {

class FilterUniverseTest : public ::testing::Test {
 protected:
  FilterUniverseTest()
      : db_(MakeRetailerDatabase()),
        graph_(db_),
        et_(MakeFigure2ExampleTable()),
        candidates_(GenerateCandidates(db_, graph_, et_, {})),
        universe_(BuildFilterUniverse(graph_, et_, candidates_)) {}

  bool Contains(std::span<const int> ids, int id) const {
    return std::find(ids.begin(), ids.end(), id) != ids.end();
  }

  Database db_;
  SchemaGraph graph_;
  ExampleTable et_;
  std::vector<CandidateQuery> candidates_;
  const FilterUniverse universe_;
};

TEST_F(FilterUniverseTest, EveryCandidateHasOneBasicFilterPerRow) {
  ASSERT_EQ(universe_.basic_filters_of_query.size(),
            static_cast<int>(candidates_.size()));
  for (size_t q = 0; q < candidates_.size(); ++q) {
    std::span<const int> basic = universe_.basic_filters_of_query[q];
    EXPECT_EQ(basic.size(), static_cast<size_t>(et_.num_rows()));
    for (int f : basic) {
      EXPECT_TRUE(test::Materialize(universe_, f).tree == candidates_[q].tree);
    }
  }
}

TEST_F(FilterUniverseTest, FiltersAreDeduplicated) {
  for (int i = 0; i < universe_.num_filters(); ++i) {
    for (int j = i + 1; j < universe_.num_filters(); ++j) {
      EXPECT_FALSE(test::Materialize(universe_, i) ==
                   test::Materialize(universe_, j));
    }
  }
  // Sharing happened: strictly fewer filters than candidate×subtree×row
  // combinations (all 3 candidates share e.g. the Device singleton filter).
  EXPECT_LT(static_cast<size_t>(universe_.num_filters()),
            universe_.filters_of_query.ids.size());
}

TEST_F(FilterUniverseTest, MembershipIsConsistent) {
  for (int f = 0; f < universe_.num_filters(); ++f) {
    for (int q : universe_.queries_of_filter[f]) {
      EXPECT_TRUE(Contains(universe_.filters_of_query[q], f));
    }
  }
  for (int q = 0; q < static_cast<int>(candidates_.size()); ++q) {
    for (int f : universe_.filters_of_query[q]) {
      EXPECT_TRUE(Contains(universe_.queries_of_filter[f], q));
    }
  }
}

TEST_F(FilterUniverseTest, FilterTreesAreSubtreesOfTheirCandidates) {
  for (size_t q = 0; q < candidates_.size(); ++q) {
    for (int f : universe_.filters_of_query[q]) {
      EXPECT_TRUE(test::Materialize(universe_, f).tree.IsSubtreeOf(
          candidates_[q].tree));
    }
  }
}

TEST_F(FilterUniverseTest, SharedSubtreeFilterServesMultipleCandidates) {
  // The Example 2 insight: some filter is contained in several candidates.
  bool found_shared = false;
  for (int f = 0; f < universe_.num_filters(); ++f) {
    if (universe_.queries_of_filter[f].size() >= 2) found_shared = true;
  }
  EXPECT_TRUE(found_shared);
}

TEST_F(FilterUniverseTest, EmptyCandidateSet) {
  const FilterUniverse empty = BuildFilterUniverse(graph_, et_, {});
  EXPECT_EQ(empty.num_filters(), 0);
  EXPECT_EQ(empty.num_classes(), 0);
}

// ---------------------------------------------------------------------------
// Differential check of the universe against the spec: Definition 5 filters
// built one by one with MakeFilter, and the sub-filter relation decided by
// IsSubFilterOf over every pair of filters.
// ---------------------------------------------------------------------------

/// Returns the number of filter-level dependency edges checked.
size_t ExpectUniverseMatchesOracle(const SchemaGraph& graph,
                                   const ExampleTable& et,
                                   const std::vector<CandidateQuery>& cands,
                                   const std::string& label) {
  SCOPED_TRACE(label);
  const FilterUniverse u = BuildFilterUniverse(graph, et, cands);

  // Filters, their ids (first appearance over candidates × rows ×
  // subtrees) and the membership lists.
  std::vector<Filter> oracle;
  std::vector<std::vector<int>> oracle_filters_of_query(cands.size());
  for (size_t q = 0; q < cands.size(); ++q) {
    std::vector<JoinTree> subtrees =
        EnumerateSubtreesOfTree(cands[q].tree, graph);
    for (int row = 0; row < et.num_rows(); ++row) {
      for (const JoinTree& sub : subtrees) {
        Filter f = MakeFilter(cands[q], sub, et, row);
        auto it = std::find(oracle.begin(), oracle.end(), f);
        if (it == oracle.end()) it = oracle.insert(oracle.end(), f);
        oracle_filters_of_query[q].push_back(
            static_cast<int>(it - oracle.begin()));
      }
    }
  }
  const int n = static_cast<int>(oracle.size());
  EXPECT_EQ(u.num_filters(), n);
  if (u.num_filters() != n) return 0;
  std::vector<Filter> filters;
  for (int f = 0; f < n; ++f) {
    filters.push_back(test::Materialize(u, f));
    EXPECT_TRUE(filters[f] == oracle[f]) << "filter " << f;
    EXPECT_EQ(filters[f].constrained_mask, oracle[f].constrained_mask);
    EXPECT_EQ(filters[f].exact_mask, oracle[f].exact_mask);
  }
  for (size_t q = 0; q < cands.size(); ++q) {
    std::span<const int> listed = u.filters_of_query[static_cast<int>(q)];
    EXPECT_EQ(std::vector<int>(listed.begin(), listed.end()),
              oracle_filters_of_query[q]);
  }

  // Classes: members agree on tree, row and φ' over the constrained cells.
  for (int c = 0; c < u.num_classes(); ++c) {
    std::span<const int> members = u.filters_of_class[c];
    EXPECT_FALSE(members.empty());
    for (int f : members) {
      EXPECT_EQ(u.filters[f].cls, c);
      EXPECT_TRUE(IsSubFilterOf(filters[f], filters[members[0]]));
      EXPECT_TRUE(IsSubFilterOf(filters[members[0]], filters[f]));
    }
  }

  // The dependency lists against the pairwise predicate, both directions,
  // with sizes matching their iteration.
  size_t edges = 0;
  for (int f1 = 0; f1 < n; ++f1) {
    std::vector<char> super(n, 0), sub(n, 0);
    size_t supers = 0, subs = 0;
    for (int f2 : u.supers_of[f1]) {
      EXPECT_NE(f2, f1);
      EXPECT_EQ(super[f2]++, 0) << "duplicate super " << f2 << " of " << f1;
      ++supers;
    }
    for (int f2 : u.subs_of[f1]) {
      EXPECT_NE(f2, f1);
      EXPECT_EQ(sub[f2]++, 0) << "duplicate sub " << f2 << " of " << f1;
      ++subs;
    }
    EXPECT_EQ(u.supers_of[f1].size(), supers);
    EXPECT_EQ(u.subs_of[f1].size(), subs);
    for (int f2 = 0; f2 < n; ++f2) {
      if (f1 == f2) continue;
      EXPECT_EQ(IsSubFilterOf(filters[f1], filters[f2]), super[f2] == 1)
          << "filters " << f1 << " ⊑ " << f2;
      EXPECT_EQ(IsSubFilterOf(filters[f2], filters[f1]), sub[f2] == 1)
          << "filters " << f2 << " ⊑ " << f1;
    }
    edges += supers;
  }
  return edges;
}

TEST_F(FilterUniverseTest, DependencyListsMatchPairwisePredicate) {
  EXPECT_GT(ExpectUniverseMatchesOracle(graph_, et_, candidates_, "figure 2"),
            0u);
}

/// The seeded scaled-retailer instance families of differential_test and
/// property_test, with their ET draws.
struct RetailerFamily {
  const char* name;
  int customers, employees, devices, apps, sales, owners, esrs;
  size_t min_matrix_rows;
  uint64_t source_offset, sample_mul, sample_add;
};

constexpr RetailerFamily kFamilies[] = {
    {"differential", 30, 30, 12, 12, 120, 120, 50, 6, 1000, 131, 7},
    {"property", 40, 40, 15, 15, 150, 150, 60, 8, 100, 31, 1},
};

class UniverseDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UniverseDifferentialTest, RetailerInstancesMatchPairwiseOracle) {
  const uint64_t seed = GetParam();
  size_t edges = 0;
  for (const RetailerFamily& family : kFamilies) {
    Database db = MakeScaledRetailerDatabase(
        family.customers, family.employees, family.devices, family.apps,
        family.sales, family.owners, family.esrs, seed);
    SchemaGraph graph(db);
    Executor exec(db, graph);
    EtSource::Options options;
    options.num_matrices = 4;
    options.min_text_cols = 3;
    options.min_matrix_rows = family.min_matrix_rows;
    EtSource source(db, graph, exec, seed + family.source_offset, options);
    EtParams params;
    params.m = 3;
    params.n = 3;
    params.s = 0.3;
    params.v = 1;
    const uint64_t source_seed = seed + family.source_offset;
    int e = 0;
    for (const ExampleTable& et : source.SampleMany(
             params, 10, source_seed * family.sample_mul + family.sample_add)) {
      edges += ExpectUniverseMatchesOracle(
          graph, et, GenerateCandidates(db, graph, et, {}),
          std::string(family.name) + " seed " + std::to_string(seed) +
              " et " + std::to_string(e++));
    }
  }
  EXPECT_GT(edges, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniverseDifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// The predicates FILTER evaluates are built straight from the flat filter
// records; they must equal the Definition 6 predicates of the materialized
// filter.
// ---------------------------------------------------------------------------

/// Checks every filter of `u`: same column, tokens, ids, exact flag and
/// order. One scratch vector serves all filters, with and without ids, as
/// the engine's does. Returns the number of predicates compared.
size_t ExpectFlatPredicatesMatchMaterialized(const Database& db,
                                             const ExampleTable& et,
                                             const FilterUniverse& u) {
  const EtTokenIds ids(et, db.token_dict());
  std::vector<PhrasePredicate> flat;
  size_t compared = 0;
  for (int f = 0; f < u.num_filters(); ++f) {
    const Filter filter = test::Materialize(u, f);
    const std::vector<PhrasePredicate> expected = FilterPredicates(filter, et);
    for (const EtTokenIds* et_ids : {&ids, static_cast<const EtTokenIds*>(
                                               nullptr)}) {
      u.PredicatesInto(f, et, et_ids, &flat);
      if (flat.size() != expected.size()) {
        ADD_FAILURE() << "filter " << f << ": " << flat.size()
                      << " predicates, expected " << expected.size();
        return compared;
      }
      size_t i = 0;
      for (int c = 0; c < et.num_columns(); ++c) {
        if ((filter.constrained_mask >> c & 1) == 0) continue;
        EXPECT_TRUE(flat[i].column == expected[i].column) << "filter " << f;
        EXPECT_EQ(flat[i].tokens, expected[i].tokens) << "filter " << f;
        EXPECT_EQ(flat[i].exact, expected[i].exact) << "filter " << f;
        EXPECT_EQ(flat[i].ids, et_ids != nullptr
                                   ? ids.CellIds(filter.row, c)
                                   : std::vector<uint32_t>{})
            << "filter " << f;
        ++i;
      }
      compared += i;
    }
  }
  return compared;
}

TEST_F(FilterUniverseTest, FlatPredicatesMatchMaterializedFilters) {
  EXPECT_GT(ExpectFlatPredicatesMatchMaterialized(db_, et_, universe_), 0u);
}

TEST(UniverseOracleTest, FlatPredicatesMatchOnHeavyCustUniverse) {
  // A CUST ET with hundreds of candidates (the heavy-ET family of
  // differential_test). Its cells in column 0 are then flagged exact: the
  // candidates stay those of the plain ET, and the universe's classes carry
  // exact masks next to the ET's empty cells.
  CustConfig config;
  config.scale = 0.2;
  Database db = MakeCustLikeDatabase(config);
  SchemaGraph graph(db);
  Executor exec(db, graph);
  EtSource source(db, graph, exec, /*seed=*/3);
  Rng rng(7);
  CandidateGenOptions options;
  options.max_candidates = 2001;
  std::optional<ExampleTable> et;
  std::vector<CandidateQuery> candidates;
  for (int draw = 0; draw < 100 && candidates.size() <= 500; ++draw) {
    et = source.Sample(EtParams{}, /*index=*/4, rng);
    if (!et) continue;
    candidates = GenerateCandidates(db, graph, *et, options);
    if (candidates.size() > 2000) candidates.clear();
  }
  ASSERT_GT(candidates.size(), 500u);
  ASSERT_GT(et->Sparsity(), 0.0);
  ExampleTable marked(std::vector<std::string>(et->num_columns()));
  for (int r = 0; r < et->num_rows(); ++r) {
    std::vector<EtCell> cells;
    for (int c = 0; c < et->num_columns(); ++c) {
      EtCell cell = et->cell(r, c);
      cell.exact = c == 0 && !cell.IsEmpty();
      cells.push_back(cell);
    }
    marked.AddRowCells(cells);
  }
  const FilterUniverse u = BuildFilterUniverse(graph, marked, candidates);
  bool exact = false;
  for (const FilterClass& c : u.classes) exact = exact || c.exact_mask != 0;
  EXPECT_TRUE(exact);
  EXPECT_GT(ExpectFlatPredicatesMatchMaterialized(db, marked, u), 0u);
}

TEST(UniverseOracleTest, CustInstancesMatchPairwiseOracle) {
  CustConfig config;
  config.scale = 0.08;
  Database db = MakeCustLikeDatabase(config);
  SchemaGraph graph(db);
  Executor exec(db, graph);
  EtSource::Options options;
  options.min_matrix_rows = 8;
  EtSource source(db, graph, exec, 3, options);
  size_t edges = 0;
  int e = 0;
  for (const ExampleTable& et : source.SampleMany(EtParams{}, 12, 17)) {
    edges += ExpectUniverseMatchesOracle(
        graph, et, GenerateCandidates(db, graph, et, {}),
        "cust et " + std::to_string(e++));
  }
  EXPECT_GT(edges, 0u);
}

TEST_F(FilterUniverseTest, SubFilterMayLeaveConstrainedCellsUndefined) {
  // Both ET cells constrained on {Employee} by one candidate (mask 0b11);
  // another candidate maps both cells to Device, so its filter on the same
  // single-relation tree constrains nothing (mask 0). That filter is a
  // sub-filter of the first although it fixes none of its cells — the
  // lookup must try every subset of the constrained cells, not only their
  // full restriction.
  ExampleTable et({"A", "B"});
  et.AddRow({"Mike", "Mike"});
  CandidateQuery both;
  both.tree = test::Tree(db_, graph_, {"Employee"});
  both.projection = {test::Col(db_, "Employee.EmpName"),
                     test::Col(db_, "Employee.EmpName")};
  CandidateQuery none;
  none.tree = test::Tree(db_, graph_, {"Employee", "Owner", "Device"});
  none.projection = {test::Col(db_, "Device.DevName"),
                     test::Col(db_, "Device.DevName")};
  const std::vector<CandidateQuery> cands = {both, none};
  ExpectUniverseMatchesOracle(graph_, et, cands, "subset case");

  const FilterUniverse u = BuildFilterUniverse(graph_, et, cands);
  const int super = u.basic_filters_of_query[0][0];
  int sub = -1;
  for (int f : u.filters_of_query[1]) {
    if (u.filters[f].tree == u.filters[super].tree) sub = f;
  }
  ASSERT_GE(sub, 0);
  EXPECT_EQ(u.classes[u.filters[super].cls].constrained_mask, 0b11u);
  EXPECT_EQ(u.classes[u.filters[sub].cls].constrained_mask, 0u);
  EXPECT_TRUE(Contains(u.sub_classes[u.filters[super].cls],
                       u.filters[sub].cls));
  bool listed = false;
  for (int f : u.supers_of[sub]) listed = listed || f == super;
  EXPECT_TRUE(listed);
}

TEST_F(FilterUniverseTest, EmptyAndExactCellsMatchPairwiseOracle) {
  // Empty cells split filters that a class merges (they differ only where
  // φ' meets an empty cell); exact-match cells ride along in the class's
  // exact mask.
  ExampleTable et({"A", "B", "C"});
  et.AddRowCells({{"Mike", false}, {"ThinkPad", true}, {"Office", false}});
  et.AddRowCells({{"Mary", true}, {"", false}, {"", false}});
  et.AddRowCells({{"", false}, {"iPad", false}, {"Dropbox", true}});
  std::vector<CandidateQuery> cands = candidates_;
  // A variant differing only in column C, which row 2 leaves empty: on that
  // row its filters join the original's classes.
  CandidateQuery variant = cands[0];
  variant.projection[2] = variant.projection[1];
  cands.push_back(variant);
  ExpectUniverseMatchesOracle(graph_, et, cands, "empty and exact cells");
  const FilterUniverse u = BuildFilterUniverse(graph_, et, cands);
  EXPECT_LT(u.num_classes(), u.num_filters());
  bool exact = false;
  for (const FilterClass& c : u.classes) exact = exact || c.exact_mask != 0;
  EXPECT_TRUE(exact);
  EXPECT_GT(ExpectFlatPredicatesMatchMaterialized(db_, et, u), 0u);
}

/// Game references Team twice (home and away): two distinct join trees over
/// one vertex set, whose filters must not be related to each other.
Database MakeSportsDb() {
  Database db;
  Relation team("Team", {{"team_id", ColumnType::kId},
                         {"tname", ColumnType::kText}});
  team.AppendRow({int64_t{1}, std::string("Lions")});
  team.AppendRow({int64_t{2}, std::string("Bears")});
  Relation game("Game", {{"game_id", ColumnType::kId},
                         {"home_id", ColumnType::kId},
                         {"away_id", ColumnType::kId},
                         {"venue", ColumnType::kText}});
  game.AppendRow({int64_t{1}, int64_t{1}, int64_t{2}, std::string("north")});
  game.AppendRow({int64_t{2}, int64_t{2}, int64_t{1}, std::string("south")});
  db.AddRelation(std::move(team));
  db.AddRelation(std::move(game));
  db.AddForeignKey("Game", "home_id", "Team", "team_id");
  db.AddForeignKey("Game", "away_id", "Team", "team_id");
  db.BuildIndexes();
  return db;
}

TEST(UniverseOracleTest, MultiEdgeSchemaMatchesPairwiseOracle) {
  Database db = MakeSportsDb();
  SchemaGraph graph(db);
  ExampleTable et({"team", "venue"});
  et.AddRow({"Lions", "north"});
  et.AddRow({"Bears", ""});
  std::vector<CandidateQuery> cands = GenerateCandidates(db, graph, et, {});
  int two_vertex = 0;
  for (const CandidateQuery& q : cands) two_vertex += q.tree.NumVertices() == 2;
  ASSERT_GE(two_vertex, 2);  // one tree per parallel edge
  EXPECT_GT(ExpectUniverseMatchesOracle(graph, et, cands, "multi-edge"), 0u);
}

}  // namespace
}  // namespace qbe
