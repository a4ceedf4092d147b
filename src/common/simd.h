// simd: the vector-kernel shim for the merge's bulk scan.
//
// One kernel, with a scalar body and an SSE2 body:
//
//  * FirstKeyAbove — index of the first (delta, id) pair that sorts after a
//                    key, the incremental merge's scan for the next slot
//                    whose incumbent the queue head peels before, and the
//                    deletion splice walk's. A compare never rounds, so
//                    every target returns the scalar index.
//
// Target policy (DESIGN.md §8.2). The target is fixed at compile time: SSE2
// where the compiler targets it (baseline on x86-64), scalar elsewhere. No
// translation unit needs an architecture flag, so the binary runs on any
// CPU of its architecture. Tests and benches can pin a target through the
// kernel table (CompiledSimdTargets) or the override seam
// (SetSimdTargetForTesting).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace spade::simd {

namespace detail {
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

/// Smallest i in [0, n) whose (delta[i], seq[i]) sorts after (w, v) in the
/// heap's key order — delta[i] > w, or delta[i] == w and seq[i] > v — or n
/// when there is none. Equal deltas compare by ==, so +0.0 ties -0.0.
std::size_t FirstKeyAbove(const double* delta, const std::uint32_t* seq,
                          std::size_t n, double w, std::uint32_t v);

/// One dispatch target's kernel, for tests and benches that sweep scalar
/// vs vector explicitly.
struct SimdTarget {
  const char* name;  // "scalar", "sse2"
  std::size_t (*first_key_above)(const double*, const std::uint32_t*,
                                 std::size_t, double, std::uint32_t);
};

/// Every compiled target, scalar first and the dispatched target last.
std::span<const SimdTarget> CompiledSimdTargets();

/// Name of the target FirstKeyAbove dispatches to (the last compiled one,
/// or the testing override).
const char* ActiveSimdTarget();

/// Test/bench seam: routes FirstKeyAbove through `target` (one of
/// CompiledSimdTargets(), or nullptr to restore the last one). Not
/// thread-safe; only for single-threaded harness setup.
void SetSimdTargetForTesting(const SimdTarget* target);

}  // namespace spade::simd
