#include "bench_lib.h"

#include <algorithm>
#include <cmath>

namespace qbebench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const int64_t n = static_cast<int64_t>(samples.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

int64_t SamplesBeyond(int64_t n, double percentile) {
  // The small epsilon keeps e.g. 0.99 * 1000 from rounding up to 991.
  const double rank = std::ceil(percentile / 100.0 * static_cast<double>(n) -
                                1e-9);
  return n - static_cast<int64_t>(rank);
}

double HighestReportablePercentile(int64_t n, int64_t min_tail) {
  static const double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 50.0};
  for (double p : kLadder) {
    if (SamplesBeyond(n, p) >= min_tail) return p;
  }
  return 0.0;
}

NURand::NURand(uint64_t seed, int64_t a, int64_t x, int64_t y, int64_t c)
    : state_(seed ^ 0x9e3779b97f4a7c15ull), a_(a), x_(x), y_(y), c_(c) {}

uint64_t NURand::Uniform(uint64_t bound) {
  // splitmix64; bound is tiny here, so modulo bias is negligible.
  state_ += 0x9e3779b97f4a7c15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z % (bound + 1);
}

int64_t NURand::Next() {
  const int64_t r1 = static_cast<int64_t>(Uniform(static_cast<uint64_t>(a_)));
  const int64_t r2 =
      x_ + static_cast<int64_t>(Uniform(static_cast<uint64_t>(y_ - x_)));
  return (((r1 | r2) + c_) % (y_ - x_ + 1)) + x_;
}

int StratumOf(uint64_t candidates) {
  static const uint64_t kBounds[kStrata - 1] = {64, 512, 4096};
  int s = 0;
  while (s < kStrata - 1 && candidates > kBounds[s]) ++s;
  return s;
}

std::vector<int> StreamPlan(size_t total,
                            const std::array<int, kStrata>& per_mille) {
  std::vector<int> plan;
  std::array<double, kStrata> taken{};
  for (size_t p = 0; p < total; ++p) {
    int best = -1;
    double best_deficit = 0;
    for (int s = 0; s < kStrata; ++s) {
      if (per_mille[s] <= 0) continue;
      const double deficit = (p + 1) * per_mille[s] / 1000.0 - taken[s];
      if (best < 0 || deficit > best_deficit) {
        best = s;
        best_deficit = deficit;
      }
    }
    if (best < 0) break;
    taken[best] += 1;
    plan.push_back(best);
  }
  return plan;
}

std::string EtKey(const qbe::ExampleTable& et) {
  std::string key = std::to_string(et.num_columns());
  for (int r = 0; r < et.num_rows(); ++r) {
    key += '\n';
    for (int c = 0; c < et.num_columns(); ++c) {
      const qbe::EtCell& cell = et.cell(r, c);
      key += cell.exact ? "\x01" : "\x02";
      key += cell.text;
      key += '\x1f';
    }
  }
  return key;
}

Answer AnswerOf(const qbe::DiscoveryResult& result) {
  Answer answer;
  if (!result.ok()) answer.status = result.timed_out ? "timed_out" : "failed";
  for (const qbe::DiscoveredQuery& q : result.queries) {
    answer.sql.push_back(q.sql);
    answer.matched.push_back(static_cast<uint32_t>(q.matched_rows));
    answer.scores.push_back(q.score);
  }
  answer.num_candidates = result.num_candidates;
  answer.verifications = result.counters.verifications;
  return answer;
}

Answer AnswerOf(const qbe::ServiceResponse& response) {
  Answer answer = AnswerOf(response.result);
  answer.status = qbe::ToString(response.status);
  return answer;
}

Answer AnswerOf(const qbe::WireResponse& response) {
  Answer answer;
  answer.status = response.status;
  for (const qbe::WireQuery& q : response.queries) {
    answer.sql.push_back(q.sql);
    answer.matched.push_back(q.matched_rows);
    answer.scores.push_back(q.score);
  }
  answer.num_candidates = response.num_candidates;
  answer.verifications = response.verifications;
  return answer;
}

std::string Mismatch(const Answer& expected, const Answer& got) {
  if (got.status != expected.status) {
    return "status " + got.status + " != " + expected.status;
  }
  if (got.sql != expected.sql) return "ranked SQL differs";
  if (got.matched != expected.matched) return "matched rows differ";
  if (got.scores != expected.scores) return "scores differ";
  if (got.num_candidates != expected.num_candidates) {
    return "candidate count " + std::to_string(got.num_candidates) +
           " != " + std::to_string(expected.num_candidates);
  }
  if (got.verifications < 0 || got.verifications > expected.verifications) {
    return "verifications " + std::to_string(got.verifications) +
           " outside [0, " + std::to_string(expected.verifications) + "]";
  }
  return "";
}

}  // namespace qbebench
