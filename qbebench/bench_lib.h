#ifndef QBEBENCH_BENCH_LIB_H_
#define QBEBENCH_BENCH_LIB_H_

// Pure logic of the end-to-end benchmark, kept apart from the driver so
// bench_lib_test.cc can pin it down: exact quantiles over raw samples, the
// tail rule for the highest reportable percentile, the NURand skew draw,
// and the response check against a direct DiscoverQueries call.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "core/example_table.h"
#include "net/wire.h"
#include "service/discovery_service.h"

namespace qbebench {

/// Exact nearest-rank quantile of `samples` (need not be sorted): the
/// smallest sample x such that at least ceil(q * n) samples are <= x.
/// Returns 0 for an empty vector.
double Quantile(std::vector<double> samples, double q);

/// Samples ranked strictly above the nearest-rank `percentile` (0..100)
/// of `n` samples: n - ceil(percentile / 100 * n).
int64_t SamplesBeyond(int64_t n, double percentile);

/// The highest of 50, 90, 95, 99, 99.9 and 99.99 that leaves at least
/// `min_tail` samples beyond it among `n`; 0 when even the median does not.
double HighestReportablePercentile(int64_t n, int64_t min_tail = 10);

/// TPC-C style non-uniform random draw (clause 2.1.6):
///   NURand(A, x, y) = (((rand(0, A) | rand(x, y)) + C) mod (y - x + 1)) + x
/// with the constant C in [0, A]. Deterministic for a fixed seed.
class NURand {
 public:
  NURand(uint64_t seed, int64_t a, int64_t x, int64_t y, int64_t c);
  int64_t Next();

 private:
  uint64_t Uniform(uint64_t bound);  // [0, bound]

  uint64_t state_;
  int64_t a_, x_, y_, c_;
};

/// ETs are grouped by candidate count into strata: [0, 64], (64, 512],
/// (512, 4096] and more than 4096. Cost grows steeply with the count, so a
/// fixed share per stratum keeps a run's mix the same whatever the seed.
inline constexpr int kStrata = 4;
int StratumOf(uint64_t candidates);

/// The stratum of each of `total` stream positions for the given per-mille
/// shares: every prefix holds each stratum at its share to within one ET.
std::vector<int> StreamPlan(size_t total, const std::array<int, kStrata>& per_mille);

/// Canonical text of an ET (cells and exact flags), used to deduplicate.
std::string EtKey(const qbe::ExampleTable& et);

/// The deterministic part of a discovery answer: ranked SQL, matched rows,
/// scores, the candidate count, and the verification count. A response
/// matches an expected answer when everything but the verification count is
/// identical and its verification count is no larger: verifications answered
/// from the service's shared outcome cache are not charged, so a served
/// request can only report fewer.
struct Answer {
  std::string status = "ok";
  std::vector<std::string> sql;
  std::vector<uint32_t> matched;
  std::vector<double> scores;
  uint64_t num_candidates = 0;
  int64_t verifications = 0;
};

Answer AnswerOf(const qbe::DiscoveryResult& result);
Answer AnswerOf(const qbe::ServiceResponse& response);
Answer AnswerOf(const qbe::WireResponse& response);

/// "" when `got` matches `expected` (see Answer), else what differs.
std::string Mismatch(const Answer& expected, const Answer& got);

}  // namespace qbebench

#endif  // QBEBENCH_BENCH_LIB_H_
