#ifndef QBE_UTIL_INTERSECT_H_
#define QBE_UTIL_INTERSECT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/kernels.h"

namespace qbe {

/// Intersection of two sorted, deduplicated uint32 row sets into `*out`
/// (cleared first; capacity is reused). Dispatches to the SIMD kernel
/// layer (DESIGN.md §14): dense merges run the runtime-selected AVX2 or
/// scalar kernel; when one side is ≥16x smaller it gallops —
/// binary-probes the larger side with a shrinking search window — which is
/// the shape semijoin reductions and selective-predicate seeds hit
/// constantly (a handful of candidate rows against a large reduced set).
/// Inputs are spans so both owned vectors and mmap'd snapshot sections
/// (SpanOrVec) feed the same kernel.
inline void IntersectSortedInto(std::span<const uint32_t> a,
                                std::span<const uint32_t> b,
                                std::vector<uint32_t>* out) {
  kernels::IntersectSortedInto(a, b, out);
}

/// In-place variant: *a ∩= b, using *scratch as the output buffer (both
/// vectors keep their capacity — no steady-state allocation).
inline void IntersectSortedInPlace(std::vector<uint32_t>* a,
                                   std::span<const uint32_t> b,
                                   std::vector<uint32_t>* scratch) {
  kernels::IntersectSortedInPlace(a, b, scratch);
}

}  // namespace qbe

#endif  // QBE_UTIL_INTERSECT_H_
