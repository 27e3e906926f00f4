// Differential test suite for the runtime-dispatched SIMD kernel layer
// (src/kernels/, DESIGN.md §14).
//
// The layer's whole contract is bit-identity: whatever CPU level dispatch
// picks (scalar or AVX2), every kernel must produce byte-for-byte the
// output of the portable scalar oracle. This suite enforces that at three
// granularities:
//
//  1. raw kernel differentials — every KernelOps entry of every supported
//     level against an independent std:: oracle, across sizes 0..1k,
//     overlap densities, the 16x gallop-boundary shapes, block-unaligned
//     tails, and adversarial bit patterns;
//  2. wrapper semantics — the IntersectSorted*/IntersectShifted* wrappers
//     under ForceKernelLevel, including the gallop hybrid, plus the
//     level-independent Bitmap* helpers against a bit-loop oracle;
//  3. end-to-end — 20 seeded scaled-retailer databases × 10 random ETs =
//     200 discovery instances run under every supported level: ranked
//     query sets, scores, candidate counts and verification counts must
//     all match the scalar run exactly.
//
// Plus unit tests for the QBE_KERNEL parsing / dispatch plumbing itself.

#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/discovery.h"
#include "datagen/et_gen.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "schema/schema_graph.h"

namespace qbe {
namespace {

std::vector<KernelLevel> SupportedLevels() {
  std::vector<KernelLevel> levels;
  for (KernelLevel level : {KernelLevel::kScalar, KernelLevel::kAvx2}) {
    if (KernelLevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

/// RAII guard: forces a level for one scope, restores the previous one.
class ScopedLevel {
 public:
  explicit ScopedLevel(KernelLevel level) : prev_(ActiveKernelLevel()) {
    ForceKernelLevel(level);
  }
  ~ScopedLevel() { ForceKernelLevel(prev_); }

 private:
  KernelLevel prev_;
};

std::vector<uint32_t> RandomSortedUnique32(std::mt19937_64& rng, size_t n,
                                           uint32_t universe) {
  std::vector<uint32_t> v;
  v.reserve(n);
  std::uniform_int_distribution<uint32_t> dist(0, universe);
  for (size_t i = 0; i < n; ++i) v.push_back(dist(rng));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::vector<uint64_t> RandomSortedUnique64(std::mt19937_64& rng, size_t n,
                                           uint64_t universe) {
  std::vector<uint64_t> v;
  v.reserve(n);
  std::uniform_int_distribution<uint64_t> dist(0, universe);
  for (size_t i = 0; i < n; ++i) v.push_back(dist(rng));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// ---------------------------------------------------------------------------
// 1. Raw kernel differentials vs independent std:: oracles.

/// Checks ops.intersect_u32 on (a, b) against std::set_intersection,
/// in both argument orders (the kernel must be symmetric in its result).
void CheckIntersectU32(const KernelOps& ops, const char* level_name,
                       const std::vector<uint32_t>& a,
                       const std::vector<uint32_t>& b) {
  std::vector<uint32_t> expected;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected));
  for (int order = 0; order < 2; ++order) {
    const auto& x = order == 0 ? a : b;
    const auto& y = order == 0 ? b : a;
    std::vector<uint32_t> out(std::min(x.size(), y.size()) + kIntersectPad32,
                              0xDEADBEEFu);
    size_t n = ops.intersect_u32(x.data(), x.size(), y.data(), y.size(),
                                 out.data());
    ASSERT_EQ(n, expected.size())
        << level_name << " |a|=" << x.size() << " |b|=" << y.size();
    out.resize(n);
    EXPECT_EQ(out, expected)
        << level_name << " |a|=" << x.size() << " |b|=" << y.size();
  }
}

TEST(IntersectU32Test, AllLevelsMatchOracleAcrossSizesAndDensities) {
  std::mt19937_64 rng(20260808);
  // Sizes straddle the AVX2 8-lane block boundary (and its halves) plus
  // zero/one/odd tails and up-to-1k bulk.
  const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17,
                           31, 32, 33, 63, 64, 65, 100, 127, 128, 129,
                           255, 256, 257, 500, 1000};
  // Universe width controls overlap density: tight universe → dense
  // overlap, wide universe → sparse.
  const uint32_t kUniverses[] = {16, 256, 4096, 1u << 20};
  for (KernelLevel level : SupportedLevels()) {
    const KernelOps& ops = KernelOpsFor(level);
    for (size_t na : kSizes) {
      for (size_t nb : kSizes) {
        if (na > nb) continue;  // CheckIntersectU32 runs both orders
        for (uint32_t universe : kUniverses) {
          CheckIntersectU32(ops, KernelLevelName(level),
                            RandomSortedUnique32(rng, na, universe),
                            RandomSortedUnique32(rng, nb, universe));
        }
      }
    }
  }
}

TEST(IntersectU32Test, AdversarialPatterns) {
  for (KernelLevel level : SupportedLevels()) {
    const KernelOps& ops = KernelOpsFor(level);
    const char* name = KernelLevelName(level);
    // Identical inputs: everything survives.
    std::vector<uint32_t> ramp(100);
    for (uint32_t i = 0; i < 100; ++i) ramp[i] = i * 3 + 1;
    CheckIntersectU32(ops, name, ramp, ramp);
    // Disjoint interleaved (evens vs odds): nothing survives, but every
    // SIMD comparison block is "almost equal".
    std::vector<uint32_t> evens, odds;
    for (uint32_t i = 0; i < 64; ++i) {
      evens.push_back(2 * i);
      odds.push_back(2 * i + 1);
    }
    CheckIntersectU32(ops, name, evens, odds);
    // Block-max ties: values repeat at exactly the 4/8-lane stride so the
    // amax==bmax advance-both path triggers.
    std::vector<uint32_t> strided_a, strided_b;
    for (uint32_t i = 0; i < 96; ++i) strided_a.push_back(i);
    for (uint32_t i = 0; i < 96; i += 8) strided_b.push_back(i + 7);
    CheckIntersectU32(ops, name, strided_a, strided_b);
    // Extreme values incl. sign-bit patterns (kernels must be unsigned).
    std::vector<uint32_t> hi = {0u, 1u, 0x7FFFFFFFu, 0x80000000u,
                                0xFFFFFFFEu, 0xFFFFFFFFu};
    CheckIntersectU32(ops, name, hi, hi);
    CheckIntersectU32(ops, name, hi, {0x7FFFFFFFu, 0x80000001u});
  }
}

TEST(IntersectU32Test, UnalignedTailsViaOffsetSubspans) {
  std::mt19937_64 rng(7);
  std::vector<uint32_t> a = RandomSortedUnique32(rng, 300, 2048);
  std::vector<uint32_t> b = RandomSortedUnique32(rng, 300, 2048);
  for (KernelLevel level : SupportedLevels()) {
    const KernelOps& ops = KernelOpsFor(level);
    for (size_t off_a : {0u, 1u, 3u, 5u, 7u}) {
      for (size_t off_b : {0u, 2u, 6u}) {
        std::vector<uint32_t> sub_a(a.begin() + off_a, a.end());
        std::vector<uint32_t> sub_b(b.begin() + off_b, b.end() - off_b);
        CheckIntersectU32(ops, KernelLevelName(level), sub_a, sub_b);
      }
    }
  }
}

void CheckShiftedU64(const KernelOps& ops, const char* level_name,
                     const std::vector<uint64_t>& cand,
                     const std::vector<uint64_t>& span, uint64_t shift) {
  std::vector<uint64_t> expected;
  for (uint64_t c : cand) {
    if (std::binary_search(span.begin(), span.end(), c + shift)) {
      expected.push_back(c);
    }
  }
  std::vector<uint64_t> out(cand.size() + kIntersectPad64,
                            0xFEEDFACEFEEDFACEull);
  size_t n = ops.intersect_shifted_u64(cand.data(), cand.size(), span.data(),
                                       span.size(), shift, out.data());
  ASSERT_EQ(n, expected.size())
      << level_name << " |cand|=" << cand.size() << " |span|=" << span.size()
      << " shift=" << shift;
  out.resize(n);
  EXPECT_EQ(out, expected) << level_name << " shift=" << shift;
}

TEST(IntersectShiftedU64Test, AllLevelsMatchOracle) {
  std::mt19937_64 rng(99);
  const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 33, 64, 100, 257};
  for (KernelLevel level : SupportedLevels()) {
    const KernelOps& ops = KernelOpsFor(level);
    for (size_t nc : kSizes) {
      for (size_t ns : kSizes) {
        for (uint64_t shift : {0ull, 1ull, 2ull, 5ull}) {
          // Posting-shaped values (row<<32 | pos) with a small position
          // universe so shifted hits actually occur.
          std::vector<uint64_t> cand, span;
          for (uint64_t v : RandomSortedUnique64(rng, nc, 500)) {
            cand.push_back(((v >> 4) << 32) | (v & 15));
          }
          for (uint64_t v : RandomSortedUnique64(rng, ns, 500)) {
            span.push_back(((v >> 4) << 32) | (v & 15));
          }
          std::sort(cand.begin(), cand.end());
          cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
          std::sort(span.begin(), span.end());
          span.erase(std::unique(span.begin(), span.end()), span.end());
          CheckShiftedU64(ops, KernelLevelName(level), cand, span, shift);
        }
      }
    }
  }
}

TEST(IntersectShiftedU64Test, SelfShiftAndHighBitPatterns) {
  for (KernelLevel level : SupportedLevels()) {
    const KernelOps& ops = KernelOpsFor(level);
    const char* name = KernelLevelName(level);
    // shift=0 over identical arrays: everything survives.
    std::vector<uint64_t> ramp;
    for (uint64_t i = 0; i < 70; ++i) ramp.push_back(i * 7);
    CheckShiftedU64(ops, name, ramp, ramp, 0);
    // Consecutive positions: cand+1 ∈ cand for all but the last.
    std::vector<uint64_t> consecutive;
    for (uint64_t i = 0; i < 70; ++i) consecutive.push_back(i);
    CheckShiftedU64(ops, name, consecutive, consecutive, 1);
    // Values with the sign bit set: _mm256_cmpeq_epi64 is bit-exact, but the
    // advance logic must stay unsigned.
    std::vector<uint64_t> hi = {0ull, 1ull, 0x7FFFFFFFFFFFFFFFull,
                                0x8000000000000000ull, 0x8000000000000001ull,
                                0xFFFFFFFFFFFFFFFEull};
    CheckShiftedU64(ops, name, hi, hi, 0);
    CheckShiftedU64(ops, name, hi, hi, 1);
  }
}

// ---------------------------------------------------------------------------
// 2. Wrapper semantics under ForceKernelLevel.

TEST(WrapperTest, IntersectSortedGallopBoundary) {
  std::mt19937_64 rng(11);
  // Small=4 against large sizes straddling the 16x gallop threshold: 63
  // (dense merge), 64 (boundary), 65/128/1000 (gallop). All must agree
  // with the oracle at every level.
  for (KernelLevel level : SupportedLevels()) {
    ScopedLevel scoped(level);
    for (size_t small_n : {1u, 3u, 4u, 5u}) {
      for (size_t large_n : {16u, 60u, 63u, 64u, 65u, 66u, 128u, 1000u}) {
        std::vector<uint32_t> small =
            RandomSortedUnique32(rng, small_n, 4 * large_n);
        std::vector<uint32_t> large =
            RandomSortedUnique32(rng, large_n, 4 * large_n);
        std::vector<uint32_t> expected;
        std::set_intersection(small.begin(), small.end(), large.begin(),
                              large.end(), std::back_inserter(expected));
        std::vector<uint32_t> out;
        kernels::IntersectSortedInto(small, large, &out);
        EXPECT_EQ(out, expected)
            << KernelLevelName(level) << " " << small_n << "x" << large_n;
        kernels::IntersectSortedInto(large, small, &out);
        EXPECT_EQ(out, expected) << KernelLevelName(level) << " swapped";
        // In-place variant.
        std::vector<uint32_t> acc = small;
        std::vector<uint32_t> scratch;
        kernels::IntersectSortedInPlace(&acc, large, &scratch);
        EXPECT_EQ(acc, expected) << KernelLevelName(level) << " in-place";
      }
    }
  }
}

TEST(WrapperTest, IntOverloadsMatchUnsigned) {
  std::mt19937_64 rng(5);
  for (KernelLevel level : SupportedLevels()) {
    ScopedLevel scoped(level);
    // 200x150 takes the dense kernel, 4x1000 the gallop path.
    for (auto [na, nb] : {std::pair<size_t, size_t>{200, 150}, {4, 1000}}) {
      std::vector<int> a, b;
      for (uint32_t v : RandomSortedUnique32(rng, na, 1000)) {
        a.push_back(static_cast<int>(v));
      }
      for (uint32_t v : RandomSortedUnique32(rng, nb, 1000)) {
        b.push_back(static_cast<int>(v));
      }
      std::vector<int> expected;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(expected));
      std::vector<int> out;
      kernels::IntersectSortedInto(std::span<const int>(a),
                                   std::span<const int>(b), &out);
      EXPECT_EQ(out, expected) << KernelLevelName(level) << " " << na;
      std::vector<int> acc = a;
      std::vector<int> scratch;
      kernels::IntersectSortedInPlace(&acc, b, &scratch);
      EXPECT_EQ(acc, expected) << KernelLevelName(level) << " " << na;
    }
  }
}

TEST(WrapperTest, IntersectShiftedInPlaceMatchesOracle) {
  std::mt19937_64 rng(13);
  for (KernelLevel level : SupportedLevels()) {
    ScopedLevel scoped(level);
    for (size_t ns : {8u, 100u, 2000u}) {  // 2000: gallop side of 16x
      std::vector<uint64_t> span = RandomSortedUnique64(rng, ns, 4 * ns);
      std::vector<uint64_t> cand = RandomSortedUnique64(rng, 50, 4 * ns);
      for (uint64_t shift : {0ull, 1ull, 3ull}) {
        std::vector<uint64_t> expected;
        for (uint64_t c : cand) {
          if (std::binary_search(span.begin(), span.end(), c + shift)) {
            expected.push_back(c);
          }
        }
        std::vector<uint64_t> acc = cand;
        std::vector<uint64_t> scratch;
        kernels::IntersectShiftedInPlace(&acc, span, shift, &scratch);
        EXPECT_EQ(acc, expected)
            << KernelLevelName(level) << " ns=" << ns << " shift=" << shift;
      }
    }
  }
}

TEST(WrapperTest, BitmapHelpersRoundTrip) {
  // The bitmap helpers are scalar at every level, so one level covers them.
  std::mt19937_64 rng(17);
  const size_t kNumRows = 700;  // not a multiple of 64: partial last word
  std::vector<uint32_t> rows;
  std::uniform_int_distribution<uint32_t> dist(0, kNumRows - 1);
  for (int i = 0; i < 300; ++i) rows.push_back(dist(rng));  // dups ok
  std::vector<uint64_t> bits;
  kernels::BitmapClear(&bits, kNumRows);
  kernels::BitmapSetBatch(&bits, rows);
  for (uint32_t r : rows) EXPECT_TRUE(kernels::BitmapTest(bits, r));
  // Emit = sorted distinct rows.
  std::vector<uint32_t> sorted = rows;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<uint32_t> emitted;
  kernels::BitmapEmitInto(bits, &emitted);
  EXPECT_EQ(emitted, sorted);

  // Emit vs a bit-loop oracle across word counts and densities, including
  // all-zero and all-ones words and long zero runs; SetBatch of the
  // emitted rows must rebuild the same words.
  const size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 40};
  for (size_t nw : kWordCounts) {
    for (int density = 0; density < 4; ++density) {
      std::vector<uint64_t> words(nw);
      for (size_t i = 0; i < nw; ++i) {
        switch (density) {
          case 0: words[i] = 0; break;
          case 1: words[i] = ~0ull; break;
          case 2:  // sparse: a few bits, zero runs between
            words[i] = (i % 3 == 0) ? (1ull << (i % 64)) : 0;
            break;
          default: words[i] = rng();
        }
      }
      std::vector<uint32_t> expected;
      for (size_t i = 0; i < nw; ++i) {
        for (int b = 0; b < 64; ++b) {
          if ((words[i] >> b) & 1) {
            expected.push_back(static_cast<uint32_t>(i * 64 + b));
          }
        }
      }
      std::vector<uint32_t> got(3, 0xABABABABu);  // stale contents replaced
      kernels::BitmapEmitInto(words, &got);
      EXPECT_EQ(got, expected) << "nw=" << nw << " d=" << density;
      std::vector<uint64_t> rebuilt;
      kernels::BitmapClear(&rebuilt, nw * 64);
      kernels::BitmapSetBatch(&rebuilt, got);
      EXPECT_EQ(rebuilt, words) << "nw=" << nw << " d=" << density;
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Dispatch plumbing.

TEST(DispatchTest, ParseKernelLevel) {
  KernelLevel level;
  EXPECT_TRUE(ParseKernelLevel("scalar", &level));
  EXPECT_EQ(level, KernelLevel::kScalar);
  EXPECT_TRUE(ParseKernelLevel("avx2", &level));
  EXPECT_EQ(level, KernelLevel::kAvx2);
  EXPECT_FALSE(ParseKernelLevel("", &level));
  EXPECT_FALSE(ParseKernelLevel("sse", &level));  // no SSE level
  EXPECT_FALSE(ParseKernelLevel("avx512", &level));
  EXPECT_FALSE(ParseKernelLevel("SCALAR", &level));  // case-sensitive
  EXPECT_FALSE(ParseKernelLevel("scalar ", &level));
}

TEST(DispatchTest, LevelNamesRoundTrip) {
  for (KernelLevel level : {KernelLevel::kScalar, KernelLevel::kAvx2}) {
    KernelLevel parsed;
    ASSERT_TRUE(ParseKernelLevel(KernelLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
}

TEST(DispatchTest, ScalarAlwaysSupportedAndForceable) {
  EXPECT_TRUE(KernelLevelSupported(KernelLevel::kScalar));
  KernelLevel prev = ActiveKernelLevel();
  ForceKernelLevel(KernelLevel::kScalar);
  EXPECT_EQ(ActiveKernelLevel(), KernelLevel::kScalar);
  EXPECT_EQ(&ActiveKernelOps(), &KernelOpsFor(KernelLevel::kScalar));
  ForceKernelLevel(prev);
  EXPECT_EQ(ActiveKernelLevel(), prev);
}

// ---------------------------------------------------------------------------
// 4. End-to-end: 200 discovery instances bit-identical across levels.

constexpr int kEtsPerSeed = 10;

struct Workbench {
  explicit Workbench(uint64_t seed)
      : db(MakeScaledRetailerDatabase(30, 30, 12, 12, 120, 120, 50, seed)),
        graph(db),
        exec(db, graph) {}

  Database db;
  SchemaGraph graph;
  Executor exec;
};

std::vector<ExampleTable> RandomEts(Workbench& wb, uint64_t seed) {
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

/// Everything a discovery run outputs that a kernel bug could perturb.
struct InstanceOutcome {
  std::vector<std::string> sqls;
  std::vector<double> scores;
  size_t num_candidates = 0;
  int64_t verifications = 0;

  bool operator==(const InstanceOutcome&) const = default;
};

std::vector<InstanceOutcome> RunAllInstances() {
  std::vector<InstanceOutcome> outcomes;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Workbench wb(seed);
    for (const ExampleTable& et : RandomEts(wb, seed + 1000)) {
      DiscoveryResult result = DiscoverQueries(wb.db, et, {});
      InstanceOutcome outcome;
      for (const auto& q : result.queries) {
        outcome.sqls.push_back(q.sql);
        outcome.scores.push_back(q.score);
      }
      outcome.num_candidates = result.num_candidates;
      outcome.verifications = result.counters.verifications;
      outcomes.push_back(std::move(outcome));
    }
  }
  return outcomes;
}

TEST(KernelEndToEndTest, DiscoveryBitIdenticalAcrossLevels) {
  std::vector<InstanceOutcome> reference;
  {
    ScopedLevel scoped(KernelLevel::kScalar);
    reference = RunAllInstances();
  }
  ASSERT_EQ(reference.size(), 200u);

  for (KernelLevel level : SupportedLevels()) {
    ScopedLevel scoped(level);
    std::vector<InstanceOutcome> got = RunAllInstances();
    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].sqls, reference[i].sqls)
          << KernelLevelName(level) << " inst " << i;
      EXPECT_EQ(got[i].scores, reference[i].scores)
          << KernelLevelName(level) << " inst " << i;
      EXPECT_EQ(got[i].num_candidates, reference[i].num_candidates)
          << KernelLevelName(level) << " inst " << i;
      EXPECT_EQ(got[i].verifications, reference[i].verifications)
          << KernelLevelName(level) << " verification-count drift on "
          << "instance " << i;
    }
  }
}

}  // namespace
}  // namespace qbe
