// Portable kernel implementations and the compile-time dispatch for the
// simd shim. This TU is built with the project's ordinary flags: SSE2 is
// baseline ISA on x86-64 and NEON on AArch64, so their kernels live here;
// AVX2 needs -mavx2 and lives in its own TU (simd_avx2.cc) that the build
// only compiles when the SPADE_SIMD option enables it.
//
// Every kernel follows the canonical association orders defined in simd.h
// to the letter — including the `+ 0.0` lane adds the vector shuffles
// introduce at the group tail, which the scalar fallback mirrors so even
// signed zeros come out bit-identical across targets.
//
// FirstKeyAbove needs no order: each vector step only skips a group that no
// slot of it can stop, and decides a group that can slot by slot in lane
// order, so every target returns the scalar index.

#include "common/simd.h"

#include <bit>
#include <climits>

#if !defined(SPADE_SIMD_FORCE_SCALAR)
#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#define SPADE_SIMD_BUILD_SSE2 1
#include <emmintrin.h>
#endif
#if defined(__aarch64__) || defined(_M_ARM64)
#define SPADE_SIMD_BUILD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !SPADE_SIMD_FORCE_SCALAR

namespace spade::simd {
namespace detail {

// ------------------------------------------------------------- scalar ----
// The reference target: always built, always first in the target table.
// The differential and tie-exactness suites hold every other target to
// bit-identical outputs against these.

double FixedOrderSumScalar(const double* p, std::size_t n) {
  double acc[kSumLanes] = {};
  const std::size_t ng = n - n % kSumLanes;
  for (std::size_t i = 0; i < ng; i += kSumLanes) {
    for (std::size_t j = 0; j < kSumLanes; ++j) acc[j] += p[i + j];
  }
  for (std::size_t j = 0; j + ng < n; ++j) acc[j] += p[ng + j];
  return FixedOrderTree(acc);
}

double SuffixScanBlockScalar(const double* p, std::size_t n, double* out) {
  double carry = 0.0;
  const std::size_t rem = n % kScanLanes;
  std::size_t i = n;
  while (i > rem) {
    i -= kScanLanes;
    const double d0 = p[i + 0], d1 = p[i + 1], d2 = p[i + 2], d3 = p[i + 3];
    // Two Hillis-Steele steps; the `+ 0.0` terms are the zeros the vector
    // targets shift in, kept so signed zeros match bit-for-bit.
    const double a0 = d0 + d1, a1 = d1 + d2, a2 = d2 + d3, a3 = d3 + 0.0;
    const double s0 = a0 + a2, s1 = a1 + a3, s2 = a2 + 0.0, s3 = a3 + 0.0;
    out[i + 0] = s0 + carry;
    out[i + 1] = s1 + carry;
    out[i + 2] = s2 + carry;
    out[i + 3] = s3 + carry;
    carry = out[i + 0];
  }
  while (i-- > 0) {
    carry = p[i] + carry;
    out[i] = carry;
  }
  return n > 0 ? out[0] : 0.0;
}

void IotaU32Scalar(std::uint32_t* out, std::size_t n, std::uint32_t start) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = start + static_cast<std::uint32_t>(i);
  }
}

std::size_t FirstKeyAboveScalar(const double* delta, const std::uint32_t* seq,
                                std::size_t n, double w, std::uint32_t v) {
  for (std::size_t i = 0; i < n; ++i) {
    if (KeyAbove(delta[i], seq[i], w, v)) return i;
  }
  return n;
}

// --------------------------------------------------------------- sse2 ----
#if defined(SPADE_SIMD_BUILD_SSE2)

double FixedOrderSumSse2(const double* p, std::size_t n) {
  // Lanes 0..15 live in eight 2-lane registers; the in-loop adds and the
  // final tree are evaluated in exactly the canonical order after the
  // lanes are spilled.
  __m128d a[kSumLanes / 2] = {
      _mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd(),
      _mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd()};
  const std::size_t ng = n - n % kSumLanes;
  for (std::size_t i = 0; i < ng; i += kSumLanes) {
    for (std::size_t r = 0; r < kSumLanes / 2; ++r) {
      a[r] = _mm_add_pd(a[r], _mm_loadu_pd(p + i + 2 * r));
    }
  }
  double acc[kSumLanes];
  for (std::size_t r = 0; r < kSumLanes / 2; ++r) {
    _mm_storeu_pd(acc + 2 * r, a[r]);
  }
  for (std::size_t j = 0; j + ng < n; ++j) acc[j] += p[ng + j];
  return FixedOrderTree(acc);
}

double SuffixScanBlockSse2(const double* p, std::size_t n, double* out) {
  const __m128d zero = _mm_setzero_pd();
  double carry = 0.0;
  const std::size_t rem = n % kScanLanes;
  std::size_t i = n;
  while (i > rem) {
    i -= kScanLanes;
    const __m128d d_lo = _mm_loadu_pd(p + i);      // [d0 d1]
    const __m128d d_hi = _mm_loadu_pd(p + i + 2);  // [d2 d3]
    // Logical 4-lane shift-left-by-1: lane j takes d_{j+1}, zero shifts in.
    const __m128d sl1_lo = _mm_shuffle_pd(d_lo, d_hi, 0x1);  // [d1 d2]
    const __m128d sl1_hi = _mm_shuffle_pd(d_hi, zero, 0x1);  // [d3 0]
    const __m128d a_lo = _mm_add_pd(d_lo, sl1_lo);
    const __m128d a_hi = _mm_add_pd(d_hi, sl1_hi);
    // Shift-left-by-2: the high half slides under the low half.
    const __m128d s_lo = _mm_add_pd(a_lo, a_hi);
    const __m128d s_hi = _mm_add_pd(a_hi, zero);
    const __m128d c = _mm_set1_pd(carry);
    const __m128d r_lo = _mm_add_pd(s_lo, c);
    const __m128d r_hi = _mm_add_pd(s_hi, c);
    _mm_storeu_pd(out + i, r_lo);
    _mm_storeu_pd(out + i + 2, r_hi);
    carry = _mm_cvtsd_f64(r_lo);
  }
  while (i-- > 0) {
    carry = p[i] + carry;
    out[i] = carry;
  }
  return n > 0 ? out[0] : 0.0;
}

void IotaU32Sse2(std::uint32_t* out, std::size_t n, std::uint32_t start) {
  std::size_t i = 0;
  __m128i v = _mm_add_epi32(_mm_set1_epi32(static_cast<int>(start)),
                            _mm_set_epi32(3, 2, 1, 0));
  const __m128i step = _mm_set1_epi32(4);
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), v);
    v = _mm_add_epi32(v, step);
  }
  for (; i < n; ++i) out[i] = start + static_cast<std::uint32_t>(i);
}

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

#endif  // SPADE_SIMD_BUILD_SSE2

// --------------------------------------------------------------- neon ----
#if defined(SPADE_SIMD_BUILD_NEON)

double FixedOrderSumNeon(const double* p, std::size_t n) {
  float64x2_t a[kSumLanes / 2] = {
      vdupq_n_f64(0.0), vdupq_n_f64(0.0), vdupq_n_f64(0.0), vdupq_n_f64(0.0),
      vdupq_n_f64(0.0), vdupq_n_f64(0.0), vdupq_n_f64(0.0), vdupq_n_f64(0.0)};
  const std::size_t ng = n - n % kSumLanes;
  for (std::size_t i = 0; i < ng; i += kSumLanes) {
    for (std::size_t r = 0; r < kSumLanes / 2; ++r) {
      a[r] = vaddq_f64(a[r], vld1q_f64(p + i + 2 * r));
    }
  }
  double acc[kSumLanes];
  for (std::size_t r = 0; r < kSumLanes / 2; ++r) {
    vst1q_f64(acc + 2 * r, a[r]);
  }
  for (std::size_t j = 0; j + ng < n; ++j) acc[j] += p[ng + j];
  return FixedOrderTree(acc);
}

double SuffixScanBlockNeon(const double* p, std::size_t n, double* out) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  double carry = 0.0;
  const std::size_t rem = n % kScanLanes;
  std::size_t i = n;
  while (i > rem) {
    i -= kScanLanes;
    const float64x2_t d_lo = vld1q_f64(p + i);
    const float64x2_t d_hi = vld1q_f64(p + i + 2);
    const float64x2_t sl1_lo = vextq_f64(d_lo, d_hi, 1);  // [d1 d2]
    const float64x2_t sl1_hi = vextq_f64(d_hi, zero, 1);  // [d3 0]
    const float64x2_t a_lo = vaddq_f64(d_lo, sl1_lo);
    const float64x2_t a_hi = vaddq_f64(d_hi, sl1_hi);
    const float64x2_t s_lo = vaddq_f64(a_lo, a_hi);
    const float64x2_t s_hi = vaddq_f64(a_hi, zero);
    const float64x2_t c = vdupq_n_f64(carry);
    const float64x2_t r_lo = vaddq_f64(s_lo, c);
    const float64x2_t r_hi = vaddq_f64(s_hi, c);
    vst1q_f64(out + i, r_lo);
    vst1q_f64(out + i + 2, r_hi);
    carry = vgetq_lane_f64(r_lo, 0);
  }
  while (i-- > 0) {
    carry = p[i] + carry;
    out[i] = carry;
  }
  return n > 0 ? out[0] : 0.0;
}

void IotaU32Neon(std::uint32_t* out, std::size_t n, std::uint32_t start) {
  const std::uint32_t base[4] = {0, 1, 2, 3};
  uint32x4_t v = vaddq_u32(vdupq_n_u32(start), vld1q_u32(base));
  const uint32x4_t step = vdupq_n_u32(4);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_u32(out + i, v);
    v = vaddq_u32(v, step);
  }
  for (; i < n; ++i) out[i] = start + static_cast<std::uint32_t>(i);
}

std::size_t FirstKeyAboveNeon(const double* delta, const std::uint32_t* seq,
                              std::size_t n, double w, std::uint32_t v) {
  const float64x2_t wv = vdupq_n_f64(w);
  const uint32x2_t vv = vdup_n_u32(v);
  // Lane masks of the two slots at i: a delta above w, or one tied with it
  // beside a larger id (the id compare widened to 64-bit lanes).
  const auto key_mask = [&](std::size_t i) {
    const float64x2_t d = vld1q_f64(delta + i);
    const uint64x2_t larger = vreinterpretq_u64_s64(
        vmovl_s32(vreinterpret_s32_u32(vcgt_u32(vld1_u32(seq + i), vv))));
    return vorrq_u64(vcgtq_f64(d, wv), vandq_u64(vceqq_f64(d, wv), larger));
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64x2_t c0 = vcgeq_f64(vld1q_f64(delta + i), wv);
    const uint64x2_t c1 = vcgeq_f64(vld1q_f64(delta + i + 2), wv);
    const uint64x2_t c2 = vcgeq_f64(vld1q_f64(delta + i + 4), wv);
    const uint64x2_t c3 = vcgeq_f64(vld1q_f64(delta + i + 6), wv);
    const uint64x2_t any = vorrq_u64(vorrq_u64(c0, c1), vorrq_u64(c2, c3));
    if ((vgetq_lane_u64(any, 0) | vgetq_lane_u64(any, 1)) == 0) continue;
    for (std::size_t j = i; j < i + 8; j += 2) {
      const uint64x2_t m = key_mask(j);
      if (vgetq_lane_u64(m, 0) != 0) return j;
      if (vgetq_lane_u64(m, 1) != 0) return j + 1;
    }
  }
  for (; i < n; ++i) {
    if (KeyAbove(delta[i], seq[i], w, v)) return i;
  }
  return n;
}

#endif  // SPADE_SIMD_BUILD_NEON

// --------------------------------------------------------------- avx2 ----
#if defined(SPADE_SIMD_HAVE_AVX2)
// Defined in simd_avx2.cc, the only TU built with -mavx2.
double FixedOrderSumAvx2(const double* p, std::size_t n);
double SuffixScanBlockAvx2(const double* p, std::size_t n, double* out);
void IotaU32Avx2(std::uint32_t* out, std::size_t n, std::uint32_t start);
std::size_t FirstKeyAboveAvx2(const double* delta, const std::uint32_t* seq,
                              std::size_t n, double w, std::uint32_t v);
#endif

}  // namespace detail

namespace {

constexpr SimdTarget kTargets[] = {
    {"scalar", &detail::FixedOrderSumScalar, &detail::SuffixScanBlockScalar,
     &detail::IotaU32Scalar, &detail::FirstKeyAboveScalar},
#if defined(SPADE_SIMD_BUILD_SSE2)
    {"sse2", &detail::FixedOrderSumSse2, &detail::SuffixScanBlockSse2,
     &detail::IotaU32Sse2, &detail::FirstKeyAboveSse2},
#endif
#if defined(SPADE_SIMD_BUILD_NEON)
    {"neon", &detail::FixedOrderSumNeon, &detail::SuffixScanBlockNeon,
     &detail::IotaU32Neon, &detail::FirstKeyAboveNeon},
#endif
#if defined(SPADE_SIMD_HAVE_AVX2)
    {"avx2", &detail::FixedOrderSumAvx2, &detail::SuffixScanBlockAvx2,
     &detail::IotaU32Avx2, &detail::FirstKeyAboveAvx2},
#endif
};

/// The compile-time dispatch choice: the last (widest) compiled target.
constexpr const SimdTarget& kActive =
    kTargets[sizeof(kTargets) / sizeof(kTargets[0]) - 1];

const SimdTarget* g_override = nullptr;

}  // namespace

std::span<const SimdTarget> CompiledSimdTargets() { return kTargets; }

const char* ActiveSimdTarget() {
  return g_override != nullptr ? g_override->name : kActive.name;
}

void SetSimdTargetForTesting(const SimdTarget* target) {
  g_override = target;
}

double FixedOrderSum(const double* p, std::size_t n) {
  const SimdTarget* t = g_override;
  return t != nullptr ? t->fixed_order_sum(p, n)
                      : kActive.fixed_order_sum(p, n);
}

double SuffixScanBlock(const double* p, std::size_t n, double* out) {
  const SimdTarget* t = g_override;
  return t != nullptr ? t->suffix_scan_block(p, n, out)
                      : kActive.suffix_scan_block(p, n, out);
}

void IotaU32(std::uint32_t* out, std::size_t n, std::uint32_t start) {
  const SimdTarget* t = g_override;
  if (t != nullptr) {
    t->iota_u32(out, n, start);
  } else {
    kActive.iota_u32(out, n, start);
  }
}

std::size_t FirstKeyAbove(const double* delta, const std::uint32_t* seq,
                          std::size_t n, double w, std::uint32_t v) {
  const SimdTarget* t = g_override;
  return t != nullptr ? t->first_key_above(delta, seq, n, w, v)
                      : kActive.first_key_above(delta, seq, n, w, v);
}

}  // namespace spade::simd
