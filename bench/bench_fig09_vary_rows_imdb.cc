// Reproduces Figure 9: varying the number of ET rows (m = 2..6) on IMDB —
// (a) number of verifications and (b) execution time for VERIFYALL,
// SIMPLEPRUNE and FILTER. Expected shape: FILTER needs the fewest
// verifications and is robust to m; VERIFYALL degrades for small m (more
// candidates); SIMPLEPRUNE is U-shaped. Panel (d) charts the subtree-memo
// hit rate of each algorithm.
//
// --kernel-ab=PATH switches to the SIMD kernel A/B mode (DESIGN.md §14):
// the same m = 2..6 sweep runs once per supported dispatch level (scalar,
// AVX2 — forced in-process, the QBE_KERNEL equivalents), asserting that
// verification counts are bit-identical across levels, plus timed
// micro-kernels for the dense sorted intersection and the phrase
// shifted-span merge. Per-level wall times and widest-vs-scalar speedups
// are written as JSON to PATH (the CI bench leg archives it as
// results/BENCH_PR8.json).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "kernels/kernels.h"
#include "util/check.h"

namespace qbe {
namespace {

std::vector<KernelLevel> SupportedLevels() {
  std::vector<KernelLevel> levels;
  for (KernelLevel level : {KernelLevel::kScalar, KernelLevel::kAvx2}) {
    if (KernelLevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

std::vector<uint32_t> SortedUnique32(uint64_t seed, size_t n,
                                     uint32_t universe) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint32_t> dist(0, universe);
  std::vector<uint32_t> v(n);
  for (auto& x : v) x = dist(rng);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Best-of-`reps` nanoseconds per call of `body` (min over reps tames
/// scheduler noise on shared runners; each rep times `iters` calls).
template <typename Body>
double BestNsPerCall(int reps, int iters, Body&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) body();
    auto end = std::chrono::steady_clock::now();
    double ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count() /
        static_cast<double>(iters);
    best = std::min(best, ns);
  }
  return best;
}

/// ns/call of the two micro-kernels at the currently forced level.
struct MicroTimes {
  double dense_intersect_ns = 0;
  double phrase_shift_ns = 0;
};

MicroTimes RunMicro() {
  MicroTimes t;
  const KernelOps& ops = ActiveKernelOps();
  // Dense u32 intersection: 4k x 4k, ~25% overlap — the CSR posting /
  // semijoin row-set shape the dense merge kernel exists for. Times the
  // raw kernel into a preallocated buffer; wrapper/resize overhead is
  // level-independent and shows up in the fig09 end-to-end numbers.
  std::vector<uint32_t> a = SortedUnique32(1, 4096, 16384);
  std::vector<uint32_t> b = SortedUnique32(2, 4096, 16384);
  std::vector<uint32_t> out(std::min(a.size(), b.size()) + kIntersectPad32);
  size_t sink = 0;
  t.dense_intersect_ns = BestNsPerCall(9, 400, [&] {
    sink += ops.intersect_u32(a.data(), a.size(), b.data(), b.size(),
                              out.data());
  });
  QBE_CHECK(sink != 0);  // keep the kernel calls observable
  // Phrase shifted-span merge: 2k candidates against a 4k span (dense
  // side of the gallop threshold), packed row<<32|pos like the CSR index.
  std::vector<uint64_t> cand, span;
  for (uint32_t v : SortedUnique32(3, 2048, 1u << 16)) {
    cand.push_back((uint64_t{v >> 4} << 32) | (v & 15));
  }
  for (uint32_t v : SortedUnique32(4, 4096, 1u << 16)) {
    span.push_back((uint64_t{v >> 4} << 32) | (v & 15));
  }
  std::sort(cand.begin(), cand.end());
  std::sort(span.begin(), span.end());
  std::vector<uint64_t> out64(cand.size() + kIntersectPad64);
  t.phrase_shift_ns = BestNsPerCall(9, 400, [&] {
    sink += ops.intersect_shifted_u64(cand.data(), cand.size(), span.data(),
                                      span.size(), 1, out64.data());
  });
  return t;
}

int RunKernelAb(const BenchArgs& args) {
  std::vector<KernelLevel> levels = SupportedLevels();
  const KernelLevel widest = levels.back();
  const KernelLevel prev = ActiveKernelLevel();

  Bundle bundle = MakeBundle(DatasetKind::kImdb, args.scale, args.seed);
  std::vector<AlgoKind> algos = {AlgoKind::kVerifyAll, AlgoKind::kFilter};

  // Sample every instance once so all levels verify the same work.
  std::vector<std::vector<ExampleTable>> et_batches;
  std::vector<std::string> labels;
  for (int m = 2; m <= 6; ++m) {
    EtParams params;
    params.m = m;
    et_batches.push_back(
        bundle.ets->SampleMany(params, args.ets_per_point, args.seed + m));
    labels.push_back(std::to_string(m));
  }

  // Per-level: the full m-sweep, total wall millis, and the per-(point,
  // algo) verification counts for the cross-level identity check.
  std::vector<MicroTimes> micro(levels.size());
  std::vector<double> total_millis(levels.size(), 0.0);
  std::vector<std::vector<double>> verif_counts(levels.size());
  for (size_t li = 0; li < levels.size(); ++li) {
    ForceKernelLevel(levels[li]);
    micro[li] = RunMicro();
    std::vector<ExperimentPoint> points;
    for (size_t p = 0; p < et_batches.size(); ++p) {
      points.push_back(
          RunPoint(bundle, et_batches[p], algos, 4, args.seed));
    }
    for (const ExperimentPoint& point : points) {
      for (const AlgoAggregate& agg : point.algos) {
        total_millis[li] += agg.avg_millis;
        verif_counts[li].push_back(agg.avg_verifications);
      }
    }
    std::printf("level %-6s  fig09 total %8.2f ms  "
                "dense-intersect %7.1f ns  phrase %7.1f ns\n",
                KernelLevelName(levels[li]), total_millis[li],
                micro[li].dense_intersect_ns, micro[li].phrase_shift_ns);
  }
  ForceKernelLevel(prev);

  // The layer's contract: the dispatch level can never change how many
  // verifications any algorithm performs on any instance.
  for (size_t li = 1; li < levels.size(); ++li) {
    QBE_CHECK_MSG(verif_counts[li] == verif_counts[0],
                  "verification counts differ across kernel levels");
  }

  const size_t wi = levels.size() - 1;
  std::FILE* f = std::fopen(args.kernel_ab_path.c_str(), "w");
  QBE_CHECK_MSG(f != nullptr, "cannot open --kernel-ab output path");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"kernel_ab\",\n");
  std::fprintf(f, "  \"dataset\": \"imdb\",\n");
  std::fprintf(f, "  \"scale\": %g,\n", args.scale);
  std::fprintf(f, "  \"ets_per_point\": %d,\n", args.ets_per_point);
  std::fprintf(f, "  \"widest_level\": \"%s\",\n", KernelLevelName(widest));
  std::fprintf(f, "  \"verification_counts_identical\": true,\n");
  std::fprintf(f, "  \"micro\": {\n");
  for (size_t li = 0; li < levels.size(); ++li) {
    const char* name = KernelLevelName(levels[li]);
    std::fprintf(f, "    \"dense_intersect_ns_%s\": %.1f,\n", name,
                 micro[li].dense_intersect_ns);
    std::fprintf(f, "    \"phrase_shift_ns_%s\": %.1f,\n", name,
                 micro[li].phrase_shift_ns);
  }
  std::fprintf(f, "    \"dense_intersect_speedup\": %.3f,\n",
               micro[0].dense_intersect_ns / micro[wi].dense_intersect_ns);
  std::fprintf(f, "    \"phrase_shift_speedup\": %.3f\n",
               micro[0].phrase_shift_ns / micro[wi].phrase_shift_ns);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fig09\": {\n");
  for (size_t li = 0; li < levels.size(); ++li) {
    std::fprintf(f, "    \"total_millis_%s\": %.3f,\n",
                 KernelLevelName(levels[li]), total_millis[li]);
  }
  std::fprintf(f, "    \"speedup\": %.3f\n",
               total_millis[0] / total_millis[wi]);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("kernel A/B: %s is %.2fx scalar on dense intersect, "
              "%.2fx end-to-end (fig09); wrote %s\n",
              KernelLevelName(widest),
              micro[0].dense_intersect_ns / micro[wi].dense_intersect_ns,
              total_millis[0] / total_millis[wi],
              args.kernel_ab_path.c_str());
  return 0;
}

}  // namespace
}  // namespace qbe

int main(int argc, char** argv) {
  qbe::BenchArgs args = qbe::ParseBenchArgs(argc, argv, /*default_ets=*/50,
                                            /*default_scale=*/1.0);
  if (!args.kernel_ab_path.empty()) return qbe::RunKernelAb(args);
  qbe::Bundle bundle =
      qbe::MakeBundle(qbe::DatasetKind::kImdb, args.scale, args.seed);
  std::vector<qbe::AlgoKind> algos = {qbe::AlgoKind::kVerifyAll,
                                      qbe::AlgoKind::kSimplePrune,
                                      qbe::AlgoKind::kFilter};
  std::vector<std::string> labels;
  std::vector<qbe::ExperimentPoint> points;
  for (int m = 2; m <= 6; ++m) {
    qbe::EtParams params;
    params.m = m;
    std::vector<qbe::ExampleTable> ets =
        bundle.ets->SampleMany(params, args.ets_per_point, args.seed + m);
    points.push_back(qbe::RunPoint(bundle, ets, algos, 4, args.seed));
    labels.push_back(std::to_string(m));
  }
  qbe::PrintSweep("Figure 9: vary the number of rows (IMDB)", "m", labels,
                  points);
  if (!args.json_path.empty()) {
    qbe::WriteSweepJson(args.json_path,
                        "Figure 9: vary the number of rows (IMDB)", "m",
                        labels, points);
  }
  return 0;
}
