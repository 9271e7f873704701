// SIMD pack layer of the kernel backends. This header is the ONLY file in
// the repository allowed to contain intrinsics (`immintrin.h`) -- rt_check
// rule C5 enforces that; kernels_avx2.cpp is written entirely against the
// wrappers below.
//
// The AVX2 section is compiled only inside the kernels_avx2.cpp TU (built
// with -mavx2 -ffp-contract=off on x86-64); everywhere else it is empty.
// Choosing between the scalar and AVX2 backends at run time is
// kernels.cpp's job, not this header's.
//
// vpack4d is a 4-wide double pack with the lane-shuffle helpers the
// complex-arithmetic kernels need. It offers no fused multiply-add: the
// reduction specification in kernels.h rounds every product before it is
// added, and the TU never contracts a*b + c on its own.
#pragma once

#include <cstddef>

#if defined(__AVX2__)

#include <immintrin.h>

namespace rt::kernels::avx2 {

/// Mask with the low `n` (0..4) 64-bit lanes enabled, for maskload /
/// maskstore tail handling.
inline __m256i tail_mask4(std::size_t n) {
  alignas(32) static constexpr long long kLanes[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kLanes + (4 - n)));
}

/// 4-wide double pack: one 256-bit AVX2 register.
struct vpack4d {
  __m256d v;
  static constexpr std::size_t width = 4;

  static vpack4d load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static vpack4d load_partial(const double* p, std::size_t n) {
    return {_mm256_maskload_pd(p, tail_mask4(n))};
  }
  static vpack4d broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static vpack4d zero() { return {_mm256_setzero_pd()}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  void store_partial(double* p, std::size_t n) const {
    _mm256_maskstore_pd(p, tail_mask4(n), v);
  }

  friend vpack4d operator+(vpack4d a, vpack4d b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend vpack4d operator-(vpack4d a, vpack4d b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend vpack4d operator*(vpack4d a, vpack4d b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend vpack4d operator/(vpack4d a, vpack4d b) { return {_mm256_div_pd(a.v, b.v)}; }
};

inline vpack4d min(vpack4d a, vpack4d b) { return {_mm256_min_pd(a.v, b.v)}; }
inline vpack4d max(vpack4d a, vpack4d b) { return {_mm256_max_pd(a.v, b.v)}; }

/// Lanewise a != b (full mask on true).
inline vpack4d cmp_neq(vpack4d a, vpack4d b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_NEQ_OQ)};
}

/// Lanewise a == b (full mask on true). IEEE equality: -0 == +0.
inline vpack4d cmp_eq(vpack4d a, vpack4d b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)};
}

/// Packs each lane's sign bit into the low 4 result bits. On a compare
/// mask this reads "which lanes are true": 0x0 = none, 0xF = all.
inline int movemask(vpack4d x) { return _mm256_movemask_pd(x.v); }

/// Lanewise mask ? yes : no.
inline vpack4d select(vpack4d mask, vpack4d yes, vpack4d no) {
  return {_mm256_blendv_pd(no.v, yes.v, mask.v)};
}

/// [x1, x0, x3, x2] -- swaps re/im within each interleaved complex pair.
inline vpack4d swap_pairs(vpack4d x) { return {_mm256_permute_pd(x.v, 0b0101)}; }

/// [x0, x0, x2, x2] -- duplicates the real (even) lane of each pair.
inline vpack4d dup_even(vpack4d x) { return {_mm256_movedup_pd(x.v)}; }

/// [x1, x1, x3, x3] -- duplicates the imaginary (odd) lane of each pair.
inline vpack4d dup_odd(vpack4d x) { return {_mm256_permute_pd(x.v, 0b1111)}; }

/// Exact sign flip (XOR) of every lane: IEEE negation, not 0 - x.
inline vpack4d neg(vpack4d x) {
  const __m256d sign = _mm256_castsi256_pd(_mm256_set1_epi64x(0x8000000000000000LL));
  return {_mm256_xor_pd(x.v, sign)};
}

/// Exact sign flip (XOR) of the even lanes: [-x0, x1, -x2, x3].
inline vpack4d neg_even(vpack4d x) {
  const __m256d sign = _mm256_castsi256_pd(
      _mm256_setr_epi64x(0x8000000000000000LL, 0, 0x8000000000000000LL, 0));
  return {_mm256_xor_pd(x.v, sign)};
}

/// Exact sign flip (XOR) of the odd lanes: [x0, -x1, x2, -x3].
inline vpack4d neg_odd(vpack4d x) {
  const __m256d sign = _mm256_castsi256_pd(
      _mm256_setr_epi64x(0, 0x8000000000000000LL, 0, 0x8000000000000000LL));
  return {_mm256_xor_pd(x.v, sign)};
}

/// [re, im, re, im] -- one complex constant across both pair slots.
inline vpack4d broadcast_pair(double re, double im) {
  return {_mm256_setr_pd(re, im, re, im)};
}

/// Loads 2 doubles and pairwise-duplicates them: [p0, p0, p1, p1] (real
/// taps stretched across interleaved complex lanes).
inline vpack4d load_dup2(const double* p) {
  const __m256d two = _mm256_castpd128_pd256(_mm_loadu_pd(p));
  return {_mm256_permute4x64_pd(two, 0x50)};
}

/// Horizontal sum in the fixed order (l0 + l1) + (l2 + l3).
inline double reduce_add(vpack4d x) {
  alignas(32) double l[4];
  _mm256_store_pd(l, x.v);
  return (l[0] + l[1]) + (l[2] + l[3]);
}

/// Spills the four lanes for custom cross-lane combines (complex
/// reductions recombine re/im lanes themselves).
inline void lanes(vpack4d x, double out[4]) { _mm256_storeu_pd(out, x.v); }

}  // namespace rt::kernels::avx2

#endif  // __AVX2__
