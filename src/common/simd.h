// simd: the shared vector-kernel shim for the peel hot path.
//
// Four width-agnostic kernels back PeelState's blocked detection index, the
// heap rebuild and the merge's bulk scan, each implemented once per dispatch
// target (scalar, SSE2, NEON, AVX2) behind a compile-time switch:
//
//  * FixedOrderSum    — reduction over a span of doubles in the CANONICAL
//                       LANE-THEN-TREE ORDER (below), used for block-sum
//                       refresh and SuffixWeight tails.
//  * SuffixScanBlock  — tail-to-head inclusive suffix scan in the canonical
//                       4-lane Hillis-Steele order, the pre-pass feeding the
//                       hull rebuild's scalar monotone stack.
//  * IotaU32          — ascending uint32 fill, the vectorized leaf pass of
//                       the heap's Floyd heapify.
//  * FirstKeyAbove    — index of the first (delta, id) pair that sorts
//                       after a key, the incremental merge's scan for the
//                       next slot whose incumbent the queue head peels
//                       before, and the deletion splice walk's. A compare
//                       never rounds, so every target returns the scalar
//                       index.
//
// Bit-identity contract. Floating-point addition is not associative, so a
// vectorized reduction only reproduces the scalar result if BOTH commit to
// one fixed association order. The canonical orders are defined in terms of
// a FIXED logical lane count (8 for the sum, 4 for the scan) independent of
// the physical vector width; every target — including the scalar fallback,
// which is always built and is the tie-exactness reference for the
// differential suites — evaluates the identical expression tree, so Detect
// is bit-identical across scalar/SSE2/NEON/AVX2 builds. The dispatch-target
// tests iterate CompiledSimdTargets() and assert exactly that.
//
//  Canonical sum order (kSumLanes = 16): sixteen logical accumulators
//  stride the span head-to-tail, acc[j] += p[16*g + j]; the tail remainder
//  r = n%16 adds p[n - r + j] into acc[j] for j < r; the final value is the
//  fixed tree (((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))) +
//  (((a8+a9)+(a10+a11)) + ((a12+a13)+(a14+a15))) — see detail::
//  FixedOrderTree, the single definition every target calls. AVX2 holds the
//  lanes in four ymm registers, SSE2/NEON in eight 2-lane registers, scalar
//  in sixteen locals — the same tree either way. Sixteen lanes (not eight)
//  so the widest target is bound by load throughput rather than by the
//  4-5 cycle FP-add dependency of fewer, longer accumulator chains.
//
//  Canonical scan order (kScanLanes = 4): groups of four are anchored at
//  the TAIL and processed tail-to-head with a running carry C (the suffix
//  sum beyond the group). Within a group [d0..d3] the two Hillis-Steele
//  steps give s3 = d3, s2 = d2+d3, s1 = (d1+d2)+d3, s0 = (d0+d1)+(d2+d3),
//  and the stored values are s_i + C; the next carry is s0 + C. The head
//  remainder (n % 4 elements) is sequential: out[i] = p[i] + out[i+1].
//
// Dispatch policy. The active target is chosen at compile time by the
// SPADE_SIMD CMake option (auto / avx2 / sse2 / off): AVX2 kernels live in
// their own translation unit (src/common/simd_avx2.cc) which is the ONLY TU
// built with -mavx2, so the rest of the build stays portable; SSE2 and NEON
// are baseline ISA on x86-64 / AArch64 and live in simd.cc directly. Tests
// and benches can also pin a target at runtime through the kernel table
// (CompiledSimdTargets) or the override seam (SetSimdTargetForTesting) —
// the override is a single predictable branch per out-of-line kernel call,
// invisible next to the O(block) work behind it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace spade::simd {

/// Logical lane counts of the canonical orders (NOT the physical vector
/// width — every target emulates exactly these).
inline constexpr std::size_t kSumLanes = 16;
inline constexpr std::size_t kScanLanes = 4;

namespace detail {
/// The canonical reduction tree over the sixteen lane accumulators. Every
/// dispatch target spills its registers into acc[] and finishes here, so
/// the association order has exactly one definition.
inline double FixedOrderTree(const double acc[kSumLanes]) {
  return (((acc[0] + acc[1]) + (acc[2] + acc[3])) +
          ((acc[4] + acc[5]) + (acc[6] + acc[7]))) +
         (((acc[8] + acc[9]) + (acc[10] + acc[11])) +
          ((acc[12] + acc[13]) + (acc[14] + acc[15])));
}

/// FirstKeyAbove's slot test, shared by every target's scalar tail: the
/// heap's key order (peel/indexed_heap.h's HeapKeyLess) with (w, v) on the
/// left.
inline bool KeyAbove(double delta, std::uint32_t id, double w,
                     std::uint32_t v) {
  return delta > w || (delta == w && id > v);
}
}  // namespace detail

/// Best-effort cache-line prefetch for read (locality hint 3). A no-op on
/// compilers without the builtin.
#if defined(__GNUC__) || defined(__clang__)
#define SPADE_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#define SPADE_PREFETCH_WRITE(addr) __builtin_prefetch((addr), 1, 3)
#else
#define SPADE_PREFETCH(addr) ((void)0)
#define SPADE_PREFETCH_WRITE(addr) ((void)0)
#endif

/// Sum of `p[0..n)` in the canonical lane-then-tree order, dispatched to
/// the active target.
double FixedOrderSum(const double* p, std::size_t n);

/// Inclusive tail-to-head suffix scan in the canonical 4-lane order:
/// out[i] = p[i] + out[i+1] association as defined above. `out` may not
/// alias `p`. Returns out[0] (the span total in scan order — which may
/// differ from FixedOrderSum by ulps; callers must not mix the two as if
/// bit-equal).
double SuffixScanBlock(const double* p, std::size_t n, double* out);

/// out[i] = start + i for i in [0, n).
void IotaU32(std::uint32_t* out, std::size_t n, std::uint32_t start);

/// Smallest i in [0, n) whose (delta[i], seq[i]) sorts after (w, v) in the
/// heap's key order — delta[i] > w, or delta[i] == w and seq[i] > v — or n
/// when there is none. Equal deltas compare by ==, so +0.0 ties -0.0.
std::size_t FirstKeyAbove(const double* delta, const std::uint32_t* seq,
                          std::size_t n, double w, std::uint32_t v);

/// One dispatch target's kernel set, for tests and benches that sweep
/// scalar vs vector explicitly.
struct SimdTarget {
  const char* name;  // "scalar", "sse2", "neon", "avx2"
  double (*fixed_order_sum)(const double*, std::size_t);
  double (*suffix_scan_block)(const double*, std::size_t, double*);
  void (*iota_u32)(std::uint32_t*, std::size_t, std::uint32_t);
  std::size_t (*first_key_above)(const double*, const std::uint32_t*,
                                 std::size_t, double, std::uint32_t);
};

/// Every target compiled into this binary, scalar first. The active
/// dispatch target is always present.
std::span<const SimdTarget> CompiledSimdTargets();

/// Name of the target the plain kernel entry points dispatch to
/// (compile-time choice, or the testing override).
const char* ActiveSimdTarget();

/// Test/bench seam: routes the dispatched entry points through `target`
/// (one of CompiledSimdTargets(), or nullptr to restore the compile-time
/// choice). Not thread-safe; only for single-threaded harness setup.
void SetSimdTargetForTesting(const SimdTarget* target);

/// Rounds `n` up to a multiple of the canonical sum lane count — handy for
/// sizing scratch buffers so vector loops never need a masked tail.
inline constexpr std::size_t RoundUpLanes(std::size_t n) {
  return (n + kSumLanes - 1) / kSumLanes * kSumLanes;
}

}  // namespace spade::simd
