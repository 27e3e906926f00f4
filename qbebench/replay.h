#ifndef QBEBENCH_REPLAY_H_
#define QBEBENCH_REPLAY_H_

// The traced run's layer replay. Each ET is run three ways, one after the
// other, in process and serially:
//
//  1. plain DiscoverQueries — the untraced reference time;
//  2. DiscoverQueries with an obs TraceContext armed — reads the spans the
//     program already records (eval_exec, text_match, rank,
//     eval_cache_lookup) and its counters;
//  3. the public layer calls in the order discovery makes them, each inside
//     a span the benchmark records itself: SchemaGraph/Executor set-up,
//     RetrieveCandidateColumns, EnumerateCandidateQueries, EtTokenIds,
//     BuildFilterUniverse, FilterVerifier::Verify and RenderProjectJoinSql,
//     plus the wire codec over the request and the answer.
//
// Each pass has its own outcome cache, so every pass sees the same cache
// history. Passes 2 and 3 are checked against the expected answers.

#include <map>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "core/example_table.h"
#include "storage/database.h"

namespace qbebench {

struct ReplayResult {
  /// Per-layer metrics by name (see BENCHMARK.json "per_layer").
  std::map<std::string, double> metrics;
  /// First mismatch against the expected answers ("" = all matched).
  std::string mismatch;
};

ReplayResult ReplayLayers(const qbe::Database& db,
                          const std::vector<const qbe::ExampleTable*>& ets,
                          const std::vector<const Answer*>& expected);

}  // namespace qbebench

#endif  // QBEBENCH_REPLAY_H_
