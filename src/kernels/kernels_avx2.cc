// AVX2 kernels: 8×u32 / 4×u64 shuffle-compare blocks with cross-lane
// compaction via permutevar8x32 lookup tables. Compiled with -mavx2 (see
// src/CMakeLists.txt); reached strictly after the CPUID dispatch check,
// and only the kernel_impl entry points are exported — no inline helpers
// that could leak AVX2 code into other TUs through comdat folding.

#include "kernels/kernel_impl.h"

#ifdef QBE_KERNELS_X86

#include <immintrin.h>

namespace qbe::kernel_impl::avx2 {
namespace {

/// kCompact8.idx[m] is a permutevar8x32 control compacting the 32-bit
/// lanes whose bit is set in the 8-bit mask m to the front (trailing lanes
/// read lane 0; their stores land past the logical result and are
/// overwritten or trimmed — the kIntersectPad32 slack contract).
struct Compact8Table {
  alignas(32) int idx[256][8];
};

constexpr Compact8Table MakeCompact8() {
  Compact8Table t{};
  for (int m = 0; m < 256; ++m) {
    int out = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if ((m >> lane) & 1) t.idx[m][out++] = lane;
    }
    for (; out < 8; ++out) t.idx[m][out] = 0;
  }
  return t;
}

constexpr Compact8Table kCompact8 = MakeCompact8();

/// kCompact4x64.idx[m] compacts 64-bit lanes (as 32-bit index pairs) whose
/// bit is set in the 4-bit movemask_pd mask m.
struct Compact4x64Table {
  alignas(32) int idx[16][8];
};

constexpr Compact4x64Table MakeCompact4x64() {
  Compact4x64Table t{};
  for (int m = 0; m < 16; ++m) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((m >> lane) & 1) {
        t.idx[m][out * 2] = lane * 2;
        t.idx[m][out * 2 + 1] = lane * 2 + 1;
        ++out;
      }
    }
    for (; out < 4; ++out) {
      t.idx[m][out * 2] = 0;
      t.idx[m][out * 2 + 1] = 1;
    }
  }
  return t;
}

constexpr Compact4x64Table kCompact4x64 = MakeCompact4x64();

}  // namespace

size_t IntersectU32(const uint32_t* a, size_t na, const uint32_t* b,
                    size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, n = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    // Compare va against every rotation of vb: sorted-unique inputs make
    // each common value match exactly once. Rotations come from one
    // half-swap plus in-lane alignr's — rotate-by-r of [L,H] is
    // alignr(swap,vb,4r) for r<4 and alignr(vb,swap,4(r-4)) above — which
    // is far cheaper than seven lane-crossing vpermd's on cores that split
    // cross-lane shuffles into multiple µops.
    const __m256i swap = _mm256_permute2x128_si256(vb, vb, 0x01);
    __m256i cmp = _mm256_cmpeq_epi32(va, vb);
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi32(va, _mm256_alignr_epi8(swap, vb, 4)));
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi32(va, _mm256_alignr_epi8(swap, vb, 8)));
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi32(va, _mm256_alignr_epi8(swap, vb, 12)));
    cmp = _mm256_or_si256(cmp, _mm256_cmpeq_epi32(va, swap));
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi32(va, _mm256_alignr_epi8(vb, swap, 4)));
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi32(va, _mm256_alignr_epi8(vb, swap, 8)));
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi32(va, _mm256_alignr_epi8(vb, swap, 12)));
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(cmp));
    if (mask != 0) {  // skip table load + compress + store on empty blocks
      const __m256i perm = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kCompact8.idx[mask]));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + n),
                          _mm256_permutevar8x32_epi32(va, perm));
      n += static_cast<size_t>(__builtin_popcount(
          static_cast<unsigned>(mask)));
    }
    // Branchless advance: the <= comparisons are data-dependent coin flips
    // on dense inputs, and a mispredict per block would cost more than the
    // whole compare network.
    const uint32_t amax = a[i + 7], bmax = b[j + 7];
    i += static_cast<size_t>(amax <= bmax) * 8;
    j += static_cast<size_t>(bmax <= amax) * 8;
  }
  while (i < na && j < nb) {
    const uint32_t va = a[i], vb = b[j];
    if (va < vb) {
      ++i;
    } else if (va > vb) {
      ++j;
    } else {
      out[n++] = va;
      ++i;
      ++j;
    }
  }
  return n;
}

size_t IntersectShiftedU64(const uint64_t* cand, size_t nc,
                           const uint64_t* span, size_t ns, uint64_t shift,
                           uint64_t* out) {
  size_t i = 0, j = 0, n = 0;
  const __m256i vshift = _mm256_set1_epi64x(static_cast<long long>(shift));
  while (i + 4 <= nc && j + 4 <= ns) {
    const __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cand + i));
    const __m256i want = _mm256_add_epi64(vc, vshift);
    const __m256i vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(span + j));
    // The three rotations of [s0..s3] via one half-swap + two in-lane
    // alignr's (same trick as IntersectU32; vpermq is multi-µop on some
    // cores).
    const __m256i swap = _mm256_permute2x128_si256(vs, vs, 0x01);
    __m256i cmp = _mm256_cmpeq_epi64(want, vs);
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi64(want, _mm256_alignr_epi8(swap, vs, 8)));
    cmp = _mm256_or_si256(cmp, _mm256_cmpeq_epi64(want, swap));
    cmp = _mm256_or_si256(
        cmp, _mm256_cmpeq_epi64(want, _mm256_alignr_epi8(vs, swap, 8)));
    const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(cmp));
    if (mask != 0) {
      const __m256i perm = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kCompact4x64.idx[mask]));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + n),
          _mm256_permutevar8x32_epi32(vc, perm));
      n += static_cast<size_t>(__builtin_popcount(
          static_cast<unsigned>(mask)));
    }
    const uint64_t cmax = cand[i + 3] + shift, smax = span[j + 3];
    i += static_cast<size_t>(cmax <= smax) * 4;
    j += static_cast<size_t>(smax <= cmax) * 4;
  }
  while (i < nc && j < ns) {
    const uint64_t want = cand[i] + shift;
    if (want < span[j]) {
      ++i;
    } else if (want > span[j]) {
      ++j;
    } else {
      out[n++] = cand[i];
      ++i;
      ++j;
    }
  }
  return n;
}

}  // namespace qbe::kernel_impl::avx2

#endif  // QBE_KERNELS_X86
