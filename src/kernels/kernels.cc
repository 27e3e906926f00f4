#include "kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "kernels/kernel_impl.h"
#include "util/check.h"

namespace qbe {
namespace {

constexpr KernelOps kScalarOps = {
    kernel_impl::scalar::IntersectU32,
    kernel_impl::scalar::IntersectShiftedU64,
};

#ifdef QBE_KERNELS_X86
constexpr KernelOps kAvx2Ops = {
    kernel_impl::avx2::IntersectU32,
    kernel_impl::avx2::IntersectShiftedU64,
};
#endif  // QBE_KERNELS_X86

/// Widest level this CPU can run, probed once (CPUID via the compiler's
/// cpu_supports runtime).
KernelLevel DetectWidestLevel() {
#ifdef QBE_KERNELS_X86
  if (__builtin_cpu_supports("avx2")) return KernelLevel::kAvx2;
#endif
  return KernelLevel::kScalar;
}

KernelLevel WidestSupported() {
  static const KernelLevel widest = DetectWidestLevel();
  return widest;
}

/// Startup resolution: widest supported unless QBE_KERNEL narrows it.
/// Unknown values and levels this CPU lacks degrade gracefully (stderr
/// note, never a crash) — the scalar fallback acceptance criterion.
KernelLevel ResolveStartupLevel() {
  const KernelLevel widest = WidestSupported();
  const char* env = std::getenv("QBE_KERNEL");
  if (env == nullptr || *env == '\0') return widest;
  KernelLevel requested;
  if (!ParseKernelLevel(env, &requested)) {
    std::fprintf(stderr,
                 "qbe: unknown QBE_KERNEL=\"%s\" (want scalar|avx2); "
                 "using %s\n",
                 env, KernelLevelName(widest));
    return widest;
  }
  if (!KernelLevelSupported(requested)) {
    std::fprintf(stderr,
                 "qbe: QBE_KERNEL=%s not supported by this CPU; using %s\n",
                 KernelLevelName(requested), KernelLevelName(widest));
    return widest;
  }
  return requested;
}

std::atomic<int>& ActiveLevelSlot() {
  static std::atomic<int> slot{static_cast<int>(ResolveStartupLevel())};
  return slot;
}

}  // namespace

const char* KernelLevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar: return "scalar";
    case KernelLevel::kAvx2: return "avx2";
  }
  return "unknown";
}

bool KernelLevelSupported(KernelLevel level) {
  return static_cast<int>(level) <= static_cast<int>(WidestSupported());
}

bool ParseKernelLevel(const char* value, KernelLevel* level) {
  if (value == nullptr) return false;
  if (std::strcmp(value, "scalar") == 0) {
    *level = KernelLevel::kScalar;
  } else if (std::strcmp(value, "avx2") == 0) {
    *level = KernelLevel::kAvx2;
  } else {
    return false;
  }
  return true;
}

KernelLevel ActiveKernelLevel() {
  return static_cast<KernelLevel>(
      ActiveLevelSlot().load(std::memory_order_relaxed));
}

void ForceKernelLevel(KernelLevel level) {
  QBE_CHECK_MSG(KernelLevelSupported(level),
                "ForceKernelLevel: level not supported on this CPU");
  ActiveLevelSlot().store(static_cast<int>(level),
                          std::memory_order_relaxed);
}

const KernelOps& KernelOpsFor(KernelLevel level) {
  QBE_CHECK_MSG(KernelLevelSupported(level),
                "KernelOpsFor: level not supported on this CPU");
  switch (level) {
    case KernelLevel::kScalar: return kScalarOps;
#ifdef QBE_KERNELS_X86
    case KernelLevel::kAvx2: return kAvx2Ops;
#else
    case KernelLevel::kAvx2: break;
#endif
  }
  return kScalarOps;
}

const KernelOps& ActiveKernelOps() {
  return KernelOpsFor(ActiveKernelLevel());
}

namespace kernels {

namespace {

/// Skew threshold shared by every adaptive path: gallop when the larger
/// side is ≥16x the smaller — the shape semijoin reductions and selective
/// predicate seeds hit constantly. tests/kernels_test.cc probes both sides
/// of this boundary at every level.
constexpr size_t kGallopSkew = 16;

/// Shared body of both IntersectSortedInto overloads. Sorted non-negative
/// ints order identically to their uint32 bit patterns, so `int` lists run
/// the same u32 kernel (the identity cast when T is uint32_t).
template <typename T>
void IntersectSortedImpl(std::span<const T> a, std::span<const T> b,
                         std::vector<T>* out) {
  static_assert(sizeof(T) == sizeof(uint32_t));
  out->clear();
  const std::span<const T> small = a.size() <= b.size() ? a : b;
  const std::span<const T> large = a.size() <= b.size() ? b : a;
  if (small.empty()) return;
  if (large.size() / kGallopSkew >= small.size()) {
    // Binary-probe the large side with a shrinking search window.
    const T* lo = large.data();
    const T* end = large.data() + large.size();
    for (T v : small) {
      lo = std::lower_bound(lo, end, v);
      if (lo == end) break;
      if (*lo == v) out->push_back(v);
    }
    return;
  }
  out->resize(small.size() + kIntersectPad32);
  const size_t n = ActiveKernelOps().intersect_u32(
      reinterpret_cast<const uint32_t*>(small.data()), small.size(),
      reinterpret_cast<const uint32_t*>(large.data()), large.size(),
      reinterpret_cast<uint32_t*>(out->data()));
  out->resize(n);
}

}  // namespace

void IntersectSortedInto(std::span<const uint32_t> a,
                         std::span<const uint32_t> b,
                         std::vector<uint32_t>* out) {
  IntersectSortedImpl(a, b, out);
}

void IntersectSortedInPlace(std::vector<uint32_t>* a,
                            std::span<const uint32_t> b,
                            std::vector<uint32_t>* scratch) {
  IntersectSortedInto(*a, b, scratch);
  std::swap(*a, *scratch);
}

void IntersectSortedInto(std::span<const int> a, std::span<const int> b,
                         std::vector<int>* out) {
  IntersectSortedImpl(a, b, out);
}

void IntersectSortedInPlace(std::vector<int>* a, std::span<const int> b,
                            std::vector<int>* scratch) {
  IntersectSortedInto(*a, b, scratch);
  std::swap(*a, *scratch);
}

void IntersectShiftedInPlace(std::vector<uint64_t>* cand,
                             std::span<const uint64_t> span, uint64_t shift,
                             std::vector<uint64_t>* scratch) {
  scratch->clear();
  if (!cand->empty()) {
    if (span.size() / kGallopSkew >= cand->size()) {
      // Gallop from the candidate side with an advancing lower bound.
      const uint64_t* lo = span.data();
      const uint64_t* end = span.data() + span.size();
      for (uint64_t c : *cand) {
        const uint64_t want = c + shift;
        lo = std::lower_bound(lo, end, want);
        if (lo == end) break;
        if (*lo == want) scratch->push_back(c);
      }
    } else {
      scratch->resize(cand->size() + kIntersectPad64);
      const size_t n = ActiveKernelOps().intersect_shifted_u64(
          cand->data(), cand->size(), span.data(), span.size(), shift,
          scratch->data());
      scratch->resize(n);
    }
  }
  std::swap(*cand, *scratch);
}

void BitmapSetBatch(std::vector<uint64_t>* bits,
                    std::span<const uint32_t> rows) {
  uint64_t* words = bits->data();
  for (uint32_t row : rows) {
    words[row >> 6] |= uint64_t{1} << (row & 63);
  }
}

void BitmapEmitInto(const std::vector<uint64_t>& bits,
                    std::vector<uint32_t>* out) {
  size_t total = 0;
  for (uint64_t word : bits) total += std::popcount(word);
  out->resize(total);
  uint32_t* dst = out->data();
  for (size_t w = 0; w < bits.size(); ++w) {
    uint64_t word = bits[w];
    while (word != 0) {
      *dst++ = static_cast<uint32_t>(w * 64 + std::countr_zero(word));
      word &= word - 1;  // clear lowest set bit
    }
  }
}

}  // namespace kernels

}  // namespace qbe
