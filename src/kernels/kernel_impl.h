#ifndef QBE_KERNELS_KERNEL_IMPL_H_
#define QBE_KERNELS_KERNEL_IMPL_H_

#include <cstddef>
#include <cstdint>

/// Internal: raw per-level kernel entry points, linked into the dispatch
/// table by kernels.cc. Each level lives in its own translation unit so the
/// AVX2 TU can be compiled with -mavx2 without leaking wide instructions
/// into code that runs before dispatch — the only symbols in that TU are
/// these entry points, reached strictly after the CPUID check.
///
/// QBE_KERNELS_X86 gates the AVX2 level: on other architectures only the
/// scalar entries exist and dispatch resolves to them.

#if defined(__x86_64__) || defined(__i386__)
#define QBE_KERNELS_X86 1
#endif

namespace qbe::kernel_impl {

namespace scalar {
size_t IntersectU32(const uint32_t* a, size_t na, const uint32_t* b,
                    size_t nb, uint32_t* out);
size_t IntersectShiftedU64(const uint64_t* cand, size_t nc,
                           const uint64_t* span, size_t ns, uint64_t shift,
                           uint64_t* out);
}  // namespace scalar

#ifdef QBE_KERNELS_X86
namespace avx2 {
size_t IntersectU32(const uint32_t* a, size_t na, const uint32_t* b,
                    size_t nb, uint32_t* out);
size_t IntersectShiftedU64(const uint64_t* cand, size_t nc,
                           const uint64_t* span, size_t ns, uint64_t shift,
                           uint64_t* out);
}  // namespace avx2
#endif  // QBE_KERNELS_X86

}  // namespace qbe::kernel_impl

#endif  // QBE_KERNELS_KERNEL_IMPL_H_
