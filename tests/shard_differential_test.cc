// Sharded-engine differential suite (DESIGN.md §15): DiscoverQueriesSharded
// must be bit-identical to unsharded DiscoverQueries — same SQL set in the
// same order, exact-double scores, matched-row counts, candidate counts,
// and the logical verification counters (verifications / estimated_cost /
// pruned_without_verification are charged once per logical existence query
// regardless of how many shard probes answer it).
//
// 12 seeded decomposable databases × 9 random ETs = 108 instances, each
// checked at shards {1, 2, 4} under both partition modes,
// plus algorithm-coverage (VERIFYALL / SIMPLEPRUNE / relaxed support) and a
// degenerate single-component retailer instance. Run under TSan and ASan by
// the sanitizer CI legs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/discovery.h"
#include "datagen/et_gen.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "ingest/db_view.h"
#include "schema/schema_graph.h"
#include "shard/coordinator.h"
#include "shard/partition.h"
#include "shard_test_util.h"

namespace qbe {
namespace {

constexpr int kEtsPerSeed = 9;

struct ShardWorkbench {
  explicit ShardWorkbench(uint64_t seed)
      : db(MakeShardableDatabase(40, 3, 2, seed)), graph(db), exec(db, graph) {}

  Database db;
  SchemaGraph graph;
  Executor exec;
};

std::vector<ExampleTable> RandomEts(ShardWorkbench& wb, uint64_t seed) {
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

/// A materialized partition: the shard databases plus views over them.
struct Sharding {
  std::vector<Database> dbs;
  std::vector<DbView> views;
};

Sharding Shard(const Database& db, int num_shards, PartitionMode mode,
               uint64_t seed = 0) {
  PartitionOptions options;
  options.num_shards = num_shards;
  options.mode = mode;
  options.seed = seed;
  Sharding out;
  out.dbs = SplitDatabase(db, ComputePartitionPlan(db, options));
  for (const Database& shard : out.dbs) out.views.emplace_back(shard);
  return out;
}

/// Every observable the deterministic-merge contract covers. `what` names
/// the configuration so a failure pins (seed, mode, shards).
void ExpectBitIdentical(const DiscoveryResult& reference,
                        const DiscoveryResult& sharded,
                        const std::string& what) {
  ASSERT_EQ(sharded.ok(), reference.ok()) << what << ": " << sharded.error;
  EXPECT_EQ(sharded.timed_out, reference.timed_out) << what;
  EXPECT_EQ(sharded.num_candidates, reference.num_candidates) << what;
  EXPECT_EQ(sharded.candidate_columns_per_et_column,
            reference.candidate_columns_per_et_column)
      << what;
  EXPECT_EQ(sharded.counters.verifications, reference.counters.verifications)
      << what;
  EXPECT_EQ(sharded.counters.estimated_cost, reference.counters.estimated_cost)
      << what;
  EXPECT_EQ(sharded.counters.pruned_without_verification,
            reference.counters.pruned_without_verification)
      << what;
  ASSERT_EQ(sharded.queries.size(), reference.queries.size()) << what;
  for (size_t i = 0; i < sharded.queries.size(); ++i) {
    EXPECT_EQ(sharded.queries[i].sql, reference.queries[i].sql)
        << what << " query " << i;
    // Exact double equality: the merged rank inputs are integers summed
    // across shards, then fed through the identical float expression.
    EXPECT_EQ(sharded.queries[i].score, reference.queries[i].score)
        << what << " query " << i;
    EXPECT_EQ(sharded.queries[i].matched_rows,
              reference.queries[i].matched_rows)
        << what << " query " << i;
  }
}

class ShardDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// The acceptance matrix: shards {1,2,4}, both partition modes, default
// (FILTER) algorithm.
TEST_P(ShardDifferentialTest, MatchesUnshardedAcrossShardCounts) {
  const uint64_t seed = GetParam();
  ShardWorkbench wb(seed);

  std::vector<std::pair<std::string, Sharding>> shardings;
  for (int shards : {1, 2, 4}) {
    shardings.emplace_back(
        "hash/" + std::to_string(shards),
        Shard(wb.db, shards, PartitionMode::kHashPk, /*seed=*/seed));
    if (shards > 1) {
      shardings.emplace_back("range/" + std::to_string(shards),
                             Shard(wb.db, shards, PartitionMode::kRowRange));
    }
  }
  // The 2-shard hash split must actually occupy both shards, else the
  // suite silently degenerates into testing the 1-shard passthrough.
  {
    const Sharding& two = shardings[1].second;
    ASSERT_EQ(two.dbs.size(), 2u);
    uint64_t rows0 = 0;
    for (int r = 0; r < two.dbs[0].num_relations(); ++r) {
      rows0 += two.dbs[0].relation(r).num_rows();
    }
    ASSERT_GT(rows0, 0u) << "hash/2 left shard 0 empty";
    ASSERT_LT(rows0, 40u + 120u + 240u) << "hash/2 left shard 1 empty";
  }

  int instances = 0;
  for (const ExampleTable& et : RandomEts(wb, seed + 1000)) {
    ++instances;
    DiscoveryOptions options;
    DiscoveryResult reference = DiscoverQueries(wb.db, et, options);
    for (const auto& [label, sharding] : shardings) {
      DiscoveryResult sharded =
          DiscoverQueriesSharded(sharding.views, et, options);
      ExpectBitIdentical(reference, sharded,
                         "seed " + std::to_string(seed) + " instance " +
                             std::to_string(instances) + " " + label);
    }
  }
  EXPECT_EQ(instances, kEtsPerSeed);
}

// Algorithm coverage: the scatter-gather seam sits below every verifier, so
// VERIFYALL and SIMPLEPRUNE (and FILTER's exact variant) must also merge
// bit-identically.
TEST_P(ShardDifferentialTest, AllVerifiersAgreeSharded) {
  const uint64_t seed = GetParam();
  if (seed > 4) GTEST_SKIP() << "algorithm sweep runs on a seed subset";
  ShardWorkbench wb(seed);
  Sharding sharding = Shard(wb.db, 4, PartitionMode::kHashPk, seed);

  for (const ExampleTable& et : RandomEts(wb, seed + 3000)) {
    for (Algorithm algorithm :
         {Algorithm::kVerifyAll, Algorithm::kSimplePrune,
          Algorithm::kFilterExact}) {
      DiscoveryOptions options;
      options.algorithm = algorithm;
      DiscoveryResult reference = DiscoverQueries(wb.db, et, options);
      DiscoveryResult sharded =
          DiscoverQueriesSharded(sharding.views, et, options);
      ExpectBitIdentical(reference, sharded,
                         "seed " + std::to_string(seed) + " algorithm " +
                             std::to_string(static_cast<int>(algorithm)));
    }
  }
}

// Relaxed validity (min_row_support ≥ 0) takes the relaxed retrieval and
// verification paths — both have their own sharded merge.
TEST_P(ShardDifferentialTest, RelaxedSupportMatchesUnsharded) {
  const uint64_t seed = GetParam();
  if (seed > 4) GTEST_SKIP() << "relaxed sweep runs on a seed subset";
  ShardWorkbench wb(seed);
  Sharding sharding = Shard(wb.db, 4, PartitionMode::kHashPk, seed);

  for (const ExampleTable& et : RandomEts(wb, seed + 4000)) {
    DiscoveryOptions options;
    options.min_row_support = 2;
    DiscoveryResult reference = DiscoverQueries(wb.db, et, options);
    DiscoveryResult sharded =
        DiscoverQueriesSharded(sharding.views, et, options);
    ExpectBitIdentical(reference, sharded,
                       "relaxed seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

// Degenerate case: the retailer schema's shared dimensions collapse it into
// one giant join component, so every row lands in a single shard and the
// other shards stay empty. Discovery must still be bit-identical (the
// empty-shard probes are skipped, never executed).
TEST(ShardDifferentialDegenerateTest, SingleComponentDatabaseStillMatches) {
  Database db = MakeScaledRetailerDatabase(30, 30, 12, 12, 120, 120, 50, 7);
  SchemaGraph graph(db);
  Executor exec(db, graph);
  EtSource::Options source_options;
  source_options.num_matrices = 4;
  source_options.min_text_cols = 3;
  source_options.min_matrix_rows = 6;
  EtSource source(db, graph, exec, 7, source_options);
  EtParams params;
  params.m = 3;
  params.n = 3;
  params.s = 0.3;
  params.v = 1;

  Sharding sharding = Shard(db, 4, PartitionMode::kHashPk);
  int occupied = 0;
  for (const Database& shard : sharding.dbs) {
    uint64_t rows = 0;
    for (int r = 0; r < shard.num_relations(); ++r) {
      rows += shard.relation(r).num_rows();
    }
    occupied += rows > 0 ? 1 : 0;
  }
  EXPECT_EQ(occupied, 1) << "retailer should be one join component";

  for (const ExampleTable& et : source.SampleMany(params, 4, 4242)) {
    DiscoveryOptions options;
    DiscoveryResult reference = DiscoverQueries(db, et, options);
    DiscoveryResult sharded =
        DiscoverQueriesSharded(sharding.views, et, options);
    ExpectBitIdentical(reference, sharded, "degenerate");
  }
}

// WEAVE materializes tuple trees directly — no scatter-gather form; the
// sharded engine must refuse rather than silently under-report.
TEST(ShardDifferentialDegenerateTest, WeaveIsRejected) {
  ShardWorkbench wb(1);
  Sharding sharding = Shard(wb.db, 2, PartitionMode::kHashPk);
  for (const ExampleTable& et : RandomEts(wb, 5000)) {
    DiscoveryOptions options;
    options.algorithm = Algorithm::kWeave;
    DiscoveryResult result = DiscoverQueriesSharded(sharding.views, et, options);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("WEAVE"), std::string::npos) << result.error;
    break;  // one ET suffices; the gate is input-independent
  }
}

// The owning coordinator wrapper produces the same results as calling the
// free function over caller-held views, and reports shard stats.
TEST(ShardCoordinatorTest, DiscoverMatchesFreeFunctionAndFillsStats) {
  ShardWorkbench wb(3);
  PartitionOptions poptions;
  poptions.num_shards = 4;
  poptions.mode = PartitionMode::kHashPk;
  poptions.seed = 3;
  ShardCoordinator coordinator(
      SplitDatabase(wb.db, ComputePartitionPlan(wb.db, poptions)));
  ASSERT_EQ(coordinator.num_shards(), 4);

  Sharding sharding = Shard(wb.db, 4, PartitionMode::kHashPk, 3);
  for (const ExampleTable& et : RandomEts(wb, 6000)) {
    DiscoveryOptions options;
    ShardStats stats;
    DiscoveryResult via_coordinator = coordinator.Discover(et, options, &stats);
    DiscoveryResult via_views = DiscoverQueriesSharded(sharding.views, et,
                                                       options);
    ExpectBitIdentical(via_views, via_coordinator, "coordinator");

    ASSERT_EQ(stats.per_shard.size(), 4u);
    if (via_coordinator.counters.verifications > 0) {
      int64_t probes = 0;
      for (const auto& shard : stats.per_shard) probes += shard.probes;
      // Short-circuit scatter-gather: at least one probe per logical eval,
      // at most num_shards.
      EXPECT_GE(probes, via_coordinator.counters.verifications);
      EXPECT_LE(probes, via_coordinator.counters.verifications * 4);
      EXPECT_GE(stats.straggler_ratio, 1.0);
    }
    break;  // one ET exercises the wrapper; identity is covered above
  }
}

}  // namespace
}  // namespace qbe
