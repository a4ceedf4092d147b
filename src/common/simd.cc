// Kernel bodies and dispatch for the simd shim. SSE2 is baseline ISA on
// x86-64, so its kernel needs no flag of its own and the build picks it at
// compile time; every other architecture runs the scalar body.
//
// FirstKeyAbove needs no association order: each vector step only skips a
// group that no slot of it can stop, and decides a group that can slot by
// slot in lane order, so every target returns the scalar index.

#include "common/simd.h"

#include <bit>
#include <climits>
#include <iterator>

#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#define SPADE_BUILD_SSE2 1
#include <emmintrin.h>
#endif

namespace spade::simd {
namespace detail {

// ------------------------------------------------------------- scalar ----
// The reference target: always built, always first in the target table.
// SimdKernelTest holds every other target to its index.

std::size_t FirstKeyAboveScalar(const double* delta, const std::uint32_t* seq,
                                std::size_t n, double w, std::uint32_t v) {
  for (std::size_t i = 0; i < n; ++i) {
    if (KeyAbove(delta[i], seq[i], w, v)) return i;
  }
  return n;
}

// --------------------------------------------------------------- sse2 ----
#if defined(SPADE_BUILD_SSE2)

std::size_t FirstKeyAboveSse2(const double* delta, const std::uint32_t* seq,
                              std::size_t n, double w, std::uint32_t v) {
  const __m128d wv = _mm_set1_pd(w);
  // SSE2 compares ids signed: flipping both sign bits orders them unsigned.
  const __m128i flip = _mm_set1_epi32(INT_MIN);
  const __m128i vv = _mm_xor_si128(_mm_set1_epi32(static_cast<int>(v)), flip);
  // Hit bits of the two slots at i: a delta above w, or one tied with it
  // beside a larger id.
  const auto key_mask = [&](std::size_t i) {
    const __m128d d = _mm_loadu_pd(delta + i);
    const int above = _mm_movemask_pd(_mm_cmpgt_pd(d, wv));
    const int tied = _mm_movemask_pd(_mm_cmpeq_pd(d, wv));
    const __m128i ids = _mm_xor_si128(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(seq + i)), flip);
    const int larger =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(ids, vv))) & 3;
    return static_cast<unsigned>(above | (tied & larger));
  };
  std::size_t i = 0;
  // Eight slots per step: one folded >= test skips a group whose deltas all
  // stay below w; a group that reaches it is decided two slots at a time.
  for (; i + 8 <= n; i += 8) {
    const __m128d c0 = _mm_cmpge_pd(_mm_loadu_pd(delta + i), wv);
    const __m128d c1 = _mm_cmpge_pd(_mm_loadu_pd(delta + i + 2), wv);
    const __m128d c2 = _mm_cmpge_pd(_mm_loadu_pd(delta + i + 4), wv);
    const __m128d c3 = _mm_cmpge_pd(_mm_loadu_pd(delta + i + 6), wv);
    if (!_mm_movemask_pd(_mm_or_pd(_mm_or_pd(c0, c1), _mm_or_pd(c2, c3)))) {
      continue;
    }
    for (std::size_t j = i; j < i + 8; j += 2) {
      if (const unsigned m = key_mask(j)) return j + std::countr_zero(m);
    }
  }
  for (; i + 2 <= n; i += 2) {
    if (const unsigned m = key_mask(i)) return i + std::countr_zero(m);
  }
  if (i < n && KeyAbove(delta[i], seq[i], w, v)) return i;
  return n;
}

#endif  // SPADE_BUILD_SSE2

}  // namespace detail

namespace {

// Every compiled target, scalar first and the dispatched one last.
constexpr SimdTarget kTargets[] = {
    {"scalar", &detail::FirstKeyAboveScalar},
#if defined(SPADE_BUILD_SSE2)
    {"sse2", &detail::FirstKeyAboveSse2},
#endif
};

constexpr const SimdTarget* kDispatched = std::end(kTargets) - 1;

constinit const SimdTarget* g_active = kDispatched;

}  // namespace

std::span<const SimdTarget> CompiledSimdTargets() { return kTargets; }

const char* ActiveSimdTarget() { return g_active->name; }

void SetSimdTargetForTesting(const SimdTarget* target) {
  g_active = target != nullptr ? target : kDispatched;
}

std::size_t FirstKeyAbove(const double* delta, const std::uint32_t* seq,
                          std::size_t n, double w, std::uint32_t v) {
  return g_active->first_key_above(delta, seq, n, w, v);
}

}  // namespace spade::simd
