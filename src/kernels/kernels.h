// Public kernel API for the hot-path stages. Every function has a scalar
// body (kernels::scalar::*, plain C++); the ones listed in
// RT_KERNELS_DECLARE_BACKEND also have an AVX2 body (kernels::avx2::*,
// x86-64 only, 4-wide double with masked tails). The unqualified
// kernels::name calls one backend for the whole process, chosen once from
// the host CPU (kernels.cpp): AVX2 where the CPU reports it, else scalar.
//
// The choice never changes a result: both backends give identical bits
// for every kernel, and tests/test_kernels.cpp asserts it with EXPECT_EQ.
//
//   elementwise kernels (lc_step_run, wl_transform, cscale, accum_real,
//   axpy_sub_*, caxpy_real, dfe_residual): each output element runs the
//   same chain of IEEE operations in both backends.
//
//   reductions (dot_real, cdotc, sum_sq_real, sum_norm_cplx,
//   corr_stats_split, dfe_score, fir_dot) follow one numeric
//   specification, the AVX2 lane order:
//    - four lane accumulators run over consecutive doubles, and double i
//      goes to lane i % 4 (for interleaved complex data: re/im of two
//      samples per vector);
//    - each lane computes acc = acc + a*b, a plain multiply then a plain
//      add -- never a fused multiply-add, so both .cpp files are built
//      with -ffp-contract=off;
//    - lanes combine as (l0 + l1) + (l2 + l3) unless the kernel's
//      comment says otherwise;
//    - the tail past the last whole vector is added afterwards, in order.
//   cdotu is sequential and scalar-only.
//
// Intrinsics live in dispatch.h ONLY (rt_check rule C5 bans them
// everywhere else, including the rest of this module).
#pragma once

#include <complex>
#include <cstddef>

namespace rt::kernels {

using Complex = std::complex<double>;

/// Per-pixel LC-cell parameter bank (SoA). `tau_charge`/`tau_relax` are
/// per-pixel (module heterogeneity + yaw timing skew perturb them);
/// `tau_slow`, `tau_memory` and the memory coupling are uniform per tag.
struct LcBankParams {
  const double* tau_charge;
  const double* tau_relax;
  double tau_slow;
  double tau_memory;
  double k_mem;
};

/// One decision-feedback term: weighted pulse template subtracted from the
/// residual (weight = pixel area x complex gain).
struct CTerm {
  const Complex* tmpl;
  Complex w;
};

/// Window sums of a centred correlation: acc = sum conj(ref)*x,
/// wsum = sum x, wenergy = sum |x|^2.
struct CorrStats {
  Complex acc;
  Complex wsum;
  double wenergy;
};

// The kernels with a body in both backends; see kernels_scalar.cpp for
// the semantics (the scalar bodies are the specification).
#define RT_KERNELS_DECLARE_BACKEND                                                              \
  /* -- elementwise -- */                                                                       \
  void lc_step_run(std::size_t n, std::size_t t_steps, double dt, const double* drive,          \
                   double* c, double* s, double* c_out, const LcBankParams& p);                 \
  void wl_transform(std::size_t n, const Complex* src, Complex* dst, Complex a, Complex b,      \
                    Complex c);                                                                 \
  void cscale(std::size_t n, Complex* x, const Complex* g);                                     \
  void accum_real(std::size_t n, const double* x, double* y);                                   \
  void axpy_sub_real(std::size_t n, double a, const double* x, double* y);                      \
  void axpy_sub_cplx(std::size_t n, Complex a, const Complex* x, Complex* y);                   \
  void caxpy_real(std::size_t n, Complex a, const double* x, Complex* y);                       \
  void dfe_residual(std::size_t n, const Complex* src, Complex* dst, const CTerm* terms,        \
                    std::size_t n_terms);                                                       \
  /* -- reductions (lane order, see above) -- */                                                \
  double dot_real(std::size_t n, const double* a, const double* b);                             \
  Complex cdotc(std::size_t n, const Complex* a, const Complex* b);                             \
  double sum_sq_real(std::size_t n, const double* x);                                           \
  double sum_norm_cplx(std::size_t n, const Complex* x);                                        \
  CorrStats corr_stats_split(std::size_t n, const double* ref_re, const double* ref_im,         \
                             const double* x_re, const double* x_im);                           \
  double dfe_score(std::size_t n, const Complex* residual, const CTerm* terms,                  \
                   std::size_t n_terms);                                                        \
  Complex fir_dot(std::size_t nt, const double* taps_rev, const Complex* xw);

namespace scalar {
RT_KERNELS_DECLARE_BACKEND
// Scalar only: no AVX2 body is faster on the sizes the pipeline calls
// these with.
void lc_step(std::size_t n, double dt, const double* drive, double* c, double* s,
             const LcBankParams& p);
void split_complex(std::size_t n, const Complex* x, double* re, double* im);
double phase_score_max(std::size_t k, const double* rot_re, const double* rot_im, double c_re,
                       double c_im);
Complex cdotu(std::size_t n, const Complex* a, const Complex* b);
}  // namespace scalar

#if defined(__x86_64__)
namespace avx2 {
RT_KERNELS_DECLARE_BACKEND
}  // namespace avx2
#endif

#undef RT_KERNELS_DECLARE_BACKEND

namespace detail {

/// One backend's entry points, for the kernels that have two bodies.
struct Backend {
  const char* name;
  decltype(&scalar::lc_step_run) lc_step_run;
  decltype(&scalar::wl_transform) wl_transform;
  decltype(&scalar::cscale) cscale;
  decltype(&scalar::accum_real) accum_real;
  decltype(&scalar::axpy_sub_real) axpy_sub_real;
  decltype(&scalar::axpy_sub_cplx) axpy_sub_cplx;
  decltype(&scalar::caxpy_real) caxpy_real;
  decltype(&scalar::dfe_residual) dfe_residual;
  decltype(&scalar::dot_real) dot_real;
  decltype(&scalar::cdotc) cdotc;
  decltype(&scalar::sum_sq_real) sum_sq_real;
  decltype(&scalar::sum_norm_cplx) sum_norm_cplx;
  decltype(&scalar::corr_stats_split) corr_stats_split;
  decltype(&scalar::dfe_score) dfe_score;
  decltype(&scalar::fir_dot) fir_dot;
};

/// Probes the host CPU: the AVX2 table where it reports AVX2, else the
/// scalar one (kernels.cpp).
const Backend& select_backend();

/// The process-wide backend, chosen on the first kernel call.
inline const Backend& backend() {
  static const Backend& chosen = select_backend();
  return chosen;
}

}  // namespace detail

/// "avx2" or "scalar": the backend this process dispatches to.
inline const char* backend_name() { return detail::backend().name; }

inline void lc_step_run(std::size_t n, std::size_t t_steps, double dt, const double* drive,
                        double* c, double* s, double* c_out, const LcBankParams& p) {
  detail::backend().lc_step_run(n, t_steps, dt, drive, c, s, c_out, p);
}
inline void wl_transform(std::size_t n, const Complex* src, Complex* dst, Complex a, Complex b,
                         Complex c) {
  detail::backend().wl_transform(n, src, dst, a, b, c);
}
inline void cscale(std::size_t n, Complex* x, const Complex* g) {
  detail::backend().cscale(n, x, g);
}
inline void accum_real(std::size_t n, const double* x, double* y) {
  detail::backend().accum_real(n, x, y);
}
inline void axpy_sub_real(std::size_t n, double a, const double* x, double* y) {
  detail::backend().axpy_sub_real(n, a, x, y);
}
inline void axpy_sub_cplx(std::size_t n, Complex a, const Complex* x, Complex* y) {
  detail::backend().axpy_sub_cplx(n, a, x, y);
}
inline void caxpy_real(std::size_t n, Complex a, const double* x, Complex* y) {
  detail::backend().caxpy_real(n, a, x, y);
}
inline void dfe_residual(std::size_t n, const Complex* src, Complex* dst, const CTerm* terms,
                         std::size_t n_terms) {
  detail::backend().dfe_residual(n, src, dst, terms, n_terms);
}
inline double dot_real(std::size_t n, const double* a, const double* b) {
  return detail::backend().dot_real(n, a, b);
}
inline Complex cdotc(std::size_t n, const Complex* a, const Complex* b) {
  return detail::backend().cdotc(n, a, b);
}
inline double sum_sq_real(std::size_t n, const double* x) {
  return detail::backend().sum_sq_real(n, x);
}
inline double sum_norm_cplx(std::size_t n, const Complex* x) {
  return detail::backend().sum_norm_cplx(n, x);
}
inline CorrStats corr_stats_split(std::size_t n, const double* ref_re, const double* ref_im,
                                  const double* x_re, const double* x_im) {
  return detail::backend().corr_stats_split(n, ref_re, ref_im, x_re, x_im);
}
inline double dfe_score(std::size_t n, const Complex* residual, const CTerm* terms,
                        std::size_t n_terms) {
  return detail::backend().dfe_score(n, residual, terms, n_terms);
}
inline Complex fir_dot(std::size_t nt, const double* taps_rev, const Complex* xw) {
  return detail::backend().fir_dot(nt, taps_rev, xw);
}

using scalar::lc_step;
using scalar::split_complex;
using scalar::phase_score_max;
using scalar::cdotu;

}  // namespace rt::kernels
