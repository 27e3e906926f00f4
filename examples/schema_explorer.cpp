// Schema exploration on a large warehouse: a user who has never seen the
// IMDB-like schema provides example tuples (an actor and a movie they
// remember) and the system locates the relevant tables and join paths for
// them. Demonstrates: every verification algorithm side by side with its
// cost, result ranking, and the relaxed-validity extension
// (min_row_support) for when one remembered tuple is wrong.

#include <cstdio>

#include "core/discovery.h"
#include "datagen/imdb_like.h"
#include "util/stopwatch.h"

namespace {

const char* AlgoLabel(qbe::Algorithm algo) {
  switch (algo) {
    case qbe::Algorithm::kVerifyAll:
      return "VerifyAll";
    case qbe::Algorithm::kSimplePrune:
      return "SimplePrune";
    case qbe::Algorithm::kFilter:
      return "Filter";
    case qbe::Algorithm::kWeave:
      return "Weave";
  }
  return "?";
}

}  // namespace

int main() {
  qbe::ImdbConfig config;
  config.scale = 0.5;
  qbe::Database db = qbe::MakeImdbLikeDatabase(config);
  std::printf("IMDB-like warehouse: %d relations, %zu foreign keys, %d "
              "text columns\n\n",
              db.num_relations(), db.foreign_keys().size(),
              db.TotalTextColumns());

  // The user remembers two people and fragments of movie titles. Values
  // are pulled from the generated data the way a user would remember them.
  int person = db.RelationIdByName("person");
  int title = db.RelationIdByName("title");
  qbe::ExampleTable et({"who", "movie"});
  et.AddRow({std::string(db.relation(person).TextAt(1, 10)),
             std::string(db.relation(title).TextAt(1, 20))});
  et.AddRow({std::string(db.relation(person).TextAt(1, 11)), ""});

  std::printf("Example table:\n");
  for (int r = 0; r < et.num_rows(); ++r) {
    for (int c = 0; c < et.num_columns(); ++c) {
      std::printf("  %-22s", et.cell(r, c).IsEmpty()
                                 ? "(empty)"
                                 : et.cell(r, c).text.c_str());
    }
    std::printf("\n");
  }

  std::printf("\nalgorithm comparison (same valid set, different cost):\n");
  size_t expected = SIZE_MAX;
  for (qbe::Algorithm algo :
       {qbe::Algorithm::kVerifyAll, qbe::Algorithm::kSimplePrune,
        qbe::Algorithm::kFilter, qbe::Algorithm::kWeave}) {
    qbe::DiscoveryOptions options;
    options.algorithm = algo;
    qbe::Stopwatch timer;
    qbe::DiscoveryResult result = qbe::DiscoverQueries(db, et, options);
    std::printf("  %-14s %4lld verifications  cost %5lld  %7.2f ms  "
                "(%zu candidates -> %zu valid)\n",
                AlgoLabel(algo),
                static_cast<long long>(result.counters.verifications),
                static_cast<long long>(result.counters.estimated_cost),
                timer.ElapsedMillis(), result.num_candidates,
                result.queries.size());
    if (expected == SIZE_MAX) {
      expected = result.queries.size();
    } else if (result.queries.size() != expected) {
      std::printf("ERROR: algorithms disagree!\n");
      return 1;
    }
  }

  qbe::DiscoveryOptions options;
  qbe::DiscoveryResult result = qbe::DiscoverQueries(db, et, options);
  std::printf("\ntop discovered queries (ranked):\n");
  for (size_t i = 0; i < result.queries.size() && i < 5; ++i) {
    std::printf("  score=%.3f  %s\n", result.queries[i].score,
                result.queries[i].sql.c_str());
  }

  // Relaxed validity: add a bogus third row; strict discovery returns
  // nothing, min_row_support=2 recovers the queries for the good rows.
  qbe::ExampleTable with_typo({"who", "movie"});
  with_typo.AddRow({std::string(db.relation(person).TextAt(1, 10)),
                    std::string(db.relation(title).TextAt(1, 20))});
  with_typo.AddRow({std::string(db.relation(person).TextAt(1, 11)), ""});
  with_typo.AddRow({"noSuchPerson xq", "noSuchMovie zz"});
  qbe::DiscoveryOptions strict;
  qbe::DiscoveryOptions relaxed;
  relaxed.min_row_support = 2;
  size_t strict_count = qbe::DiscoverQueries(db, with_typo, strict)
                            .queries.size();
  size_t relaxed_count = qbe::DiscoverQueries(db, with_typo, relaxed)
                             .queries.size();
  std::printf("\nwith one impossible row: strict finds %zu queries, "
              "min_row_support=2 finds %zu\n",
              strict_count, relaxed_count);
  return 0;
}
