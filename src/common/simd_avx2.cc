// AVX2 kernels for the simd shim. This is the ONLY translation unit built
// with -mavx2 (CMake adds the flag per-source when the SPADE_SIMD option
// resolves to avx2), so the rest of the library stays runnable on any
// x86-64. The canonical association orders are defined in simd.h; the
// shuffles below shift explicit zeros into the vacated lanes, which is why
// the scalar reference carries matching `+ 0.0` terms.

#include <immintrin.h>

#include <bit>
#include <climits>
#include <cstddef>
#include <cstdint>

#include "common/simd.h"

namespace spade::simd::detail {

double FixedOrderSumAvx2(const double* p, std::size_t n) {
  // Lanes 0..15 in four ymm registers — four independent add chains, so the
  // loop is bound by the two loads per cycle rather than the FP-add
  // latency; spill and finish exactly as the canonical order prescribes.
  __m256d a[kSumLanes / 4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                              _mm256_setzero_pd(), _mm256_setzero_pd()};
  const std::size_t ng = n - n % kSumLanes;
  for (std::size_t i = 0; i < ng; i += kSumLanes) {
    for (std::size_t r = 0; r < kSumLanes / 4; ++r) {
      a[r] = _mm256_add_pd(a[r], _mm256_loadu_pd(p + i + 4 * r));
    }
  }
  double acc[kSumLanes];
  for (std::size_t r = 0; r < kSumLanes / 4; ++r) {
    _mm256_storeu_pd(acc + 4 * r, a[r]);
  }
  for (std::size_t j = 0; j + ng < n; ++j) acc[j] += p[ng + j];
  return FixedOrderTree(acc);
}

double SuffixScanBlockAvx2(const double* p, std::size_t n, double* out) {
  double carry = 0.0;
  const std::size_t rem = n % kScanLanes;
  std::size_t i = n;
  while (i > rem) {
    i -= kScanLanes;
    const __m256d d = _mm256_loadu_pd(p + i);  // [d0 d1 d2 d3]
    // Shift-left-by-2 lanes (zero fill): [d2 d3 0 0].
    const __m256d d_sl2 = _mm256_permute2f128_pd(d, d, 0x81);
    // Shift-left-by-1 lane: [d1 d2 d3 0].
    const __m256d d_sl1 = _mm256_shuffle_pd(d, d_sl2, 0x5);
    const __m256d a = _mm256_add_pd(d, d_sl1);
    const __m256d a_sl2 = _mm256_permute2f128_pd(a, a, 0x81);
    const __m256d s = _mm256_add_pd(a, a_sl2);
    const __m256d r = _mm256_add_pd(s, _mm256_set1_pd(carry));
    _mm256_storeu_pd(out + i, r);
    carry = _mm256_cvtsd_f64(r);
  }
  while (i-- > 0) {
    carry = p[i] + carry;
    out[i] = carry;
  }
  return n > 0 ? out[0] : 0.0;
}

void IotaU32Avx2(std::uint32_t* out, std::size_t n, std::uint32_t start) {
  __m256i v = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(start)),
                               _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0));
  const __m256i step = _mm256_set1_epi32(8);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
    v = _mm256_add_epi32(v, step);
  }
  for (; i < n; ++i) out[i] = start + static_cast<std::uint32_t>(i);
}

std::size_t FirstKeyAboveAvx2(const double* delta, const std::uint32_t* seq,
                              std::size_t n, double w, std::uint32_t v) {
  const __m256d wv = _mm256_set1_pd(w);
  // AVX2 compares ids signed: flipping both sign bits orders them unsigned.
  const __m128i flip = _mm_set1_epi32(INT_MIN);
  const __m128i vv = _mm_xor_si128(_mm_set1_epi32(static_cast<int>(v)), flip);
  // Hit bits of the four slots at i: a delta above w, or one tied with it
  // beside a larger id.
  const auto key_mask = [&](std::size_t i) {
    const __m256d d = _mm256_loadu_pd(delta + i);
    const int above = _mm256_movemask_pd(_mm256_cmp_pd(d, wv, _CMP_GT_OQ));
    const int tied = _mm256_movemask_pd(_mm256_cmp_pd(d, wv, _CMP_EQ_OQ));
    const __m128i ids = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(seq + i)), flip);
    const int larger =
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(ids, vv)));
    return static_cast<unsigned>(above | (tied & larger));
  };
  std::size_t i = 0;
  // Sixteen slots per step: one folded >= test skips a group whose deltas
  // all stay below w; a group that reaches it is decided four at a time.
  for (; i + 16 <= n; i += 16) {
    const __m256d c0 =
        _mm256_cmp_pd(_mm256_loadu_pd(delta + i), wv, _CMP_GE_OQ);
    const __m256d c1 =
        _mm256_cmp_pd(_mm256_loadu_pd(delta + i + 4), wv, _CMP_GE_OQ);
    const __m256d c2 =
        _mm256_cmp_pd(_mm256_loadu_pd(delta + i + 8), wv, _CMP_GE_OQ);
    const __m256d c3 =
        _mm256_cmp_pd(_mm256_loadu_pd(delta + i + 12), wv, _CMP_GE_OQ);
    if (!_mm256_movemask_pd(
            _mm256_or_pd(_mm256_or_pd(c0, c1), _mm256_or_pd(c2, c3)))) {
      continue;
    }
    for (std::size_t j = i; j < i + 16; j += 4) {
      if (const unsigned m = key_mask(j)) return j + std::countr_zero(m);
    }
  }
  for (; i + 4 <= n; i += 4) {
    if (const unsigned m = key_mask(i)) return i + std::countr_zero(m);
  }
  for (; i < n; ++i) {
    if (KeyAbove(delta[i], seq[i], w, v)) return i;
  }
  return n;
}

}  // namespace spade::simd::detail
