// Unit tests for the src/kernels layer: scalar-backend semantics against
// naive references (reductions written in the lane order kernels.h
// specifies), tail coverage around the 4-wide AVX2 vector width (n = 0, 1,
// W-1, W, W+1, ...), and the cross-backend contract: on an x86-64 host
// with AVX2, every kernel gives the same bits on both backends.
#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <random>
#include <vector>

namespace {

using rt::kernels::Complex;
using rt::kernels::CorrStats;
using rt::kernels::CTerm;
using rt::kernels::LcBankParams;

// Every size a 4-wide kernel with masked tails can get wrong: empty,
// sub-width, one-off-the-width on both sides, and multi-vector spans.
const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33};

std::vector<double> random_reals(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

std::vector<Complex> random_cplx(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<Complex> v(n);
  for (auto& x : v) x = Complex{dist(rng), dist(rng)};
  return v;
}

const double* as_doubles(const std::vector<Complex>& v) {
  return reinterpret_cast<const double*>(v.data());
}

// The reduction lane order of kernels.h, written naively: for each double
// i below n4 (the whole 4-double vectors), step(lane, i) updates lane i % 4.
template <typename Step>
std::array<double, 4> lanes(std::size_t n4, Step step) {
  std::array<double, 4> l{};
  for (std::size_t i = 0; i < n4; ++i) step(l[i % 4], i);
  return l;
}

double combine(const std::array<double, 4>& l) { return (l[0] + l[1]) + (l[2] + l[3]); }

// --- scalar backend vs naive references (all tail sizes) -------------------

TEST(ScalarKernelsTest, DotFamilyMatchesNaiveLoops) {
  std::mt19937_64 rng(101);
  for (const std::size_t n : kSizes) {
    const auto a = random_reals(rng, n);
    const auto b = random_reals(rng, n);
    const auto ca = random_cplx(rng, n);
    const auto cb = random_cplx(rng, n);
    const std::size_t n4 = n & ~std::size_t{3};
    double dot = combine(lanes(n4, [&](double& l, std::size_t i) { l += a[i] * b[i]; }));
    double sq = combine(lanes(n4, [&](double& l, std::size_t i) { l += a[i] * a[i]; }));
    for (std::size_t i = n4; i < n; ++i) {
      dot += a[i] * b[i];
      sq += a[i] * a[i];
    }

    // Two complex samples per vector; double i pairs with double i ^ 1 of
    // the same sample for the imaginary part.
    const double* x = as_doubles(ca);
    const double* y = as_doubles(cb);
    const std::size_t n2 = n & ~std::size_t{1};
    const auto rr = lanes(2 * n2, [&](double& l, std::size_t i) { l += x[i] * y[i]; });
    const auto ri = lanes(2 * n2, [&](double& l, std::size_t i) { l += x[i] * y[i ^ 1]; });
    Complex dc{combine(rr), (ri[0] - ri[1]) + (ri[2] - ri[3])};
    for (std::size_t i = n2; i < n; ++i) dc += std::conj(ca[i]) * cb[i];

    const std::size_t m4 = (2 * n) & ~std::size_t{3};
    double nc = combine(lanes(m4, [&](double& l, std::size_t i) { l += x[i] * x[i]; }));
    for (std::size_t i = m4; i < 2 * n; ++i) nc += x[i] * x[i];

    Complex du{};  // cdotu is sequential
    for (std::size_t i = 0; i < n; ++i) du += ca[i] * cb[i];

    EXPECT_EQ(rt::kernels::scalar::dot_real(n, a.data(), b.data()), dot);
    EXPECT_EQ(rt::kernels::scalar::sum_sq_real(n, a.data()), sq);
    EXPECT_EQ(rt::kernels::scalar::cdotc(n, ca.data(), cb.data()), dc);
    EXPECT_EQ(rt::kernels::scalar::cdotu(n, ca.data(), cb.data()), du);
    EXPECT_EQ(rt::kernels::scalar::sum_norm_cplx(n, ca.data()), nc);
  }
}

TEST(ScalarKernelsTest, CorrStatsSplitMatchesNaiveLoops) {
  std::mt19937_64 rng(102);
  for (const std::size_t n : kSizes) {
    const auto rr = random_reals(rng, n);
    const auto ri = random_reals(rng, n);
    const auto xr = random_reals(rng, n);
    const auto xi = random_reals(rng, n);
    const std::size_t n4 = n & ~std::size_t{3};
    const double acc_re = combine(lanes(n4, [&](double& l, std::size_t i) {
      l = l + rr[i] * xr[i] + ri[i] * xi[i];
    }));
    const double acc_im = combine(lanes(n4, [&](double& l, std::size_t i) {
      l = l + rr[i] * xi[i] - ri[i] * xr[i];
    }));
    const double wsum_re = combine(lanes(n4, [&](double& l, std::size_t i) { l += xr[i]; }));
    const double wsum_im = combine(lanes(n4, [&](double& l, std::size_t i) { l += xi[i]; }));
    const double wenergy = combine(lanes(n4, [&](double& l, std::size_t i) {
      l = l + xr[i] * xr[i] + xi[i] * xi[i];
    }));
    CorrStats want{Complex{acc_re, acc_im}, Complex{wsum_re, wsum_im}, wenergy};
    for (std::size_t i = n4; i < n; ++i) {
      want.acc += Complex{rr[i] * xr[i] + ri[i] * xi[i], rr[i] * xi[i] - ri[i] * xr[i]};
      want.wsum += Complex{xr[i], xi[i]};
      want.wenergy += xr[i] * xr[i] + xi[i] * xi[i];
    }
    const CorrStats got =
        rt::kernels::scalar::corr_stats_split(n, rr.data(), ri.data(), xr.data(), xi.data());
    EXPECT_EQ(got.acc, want.acc);
    EXPECT_EQ(got.wsum, want.wsum);
    EXPECT_EQ(got.wenergy, want.wenergy);
  }
}

TEST(ScalarKernelsTest, WlTransformSupportsInPlaceAliasing) {
  std::mt19937_64 rng(103);
  const Complex a{0.8, -0.1};
  const Complex b{0.05, 0.2};
  const Complex c{-0.3, 0.4};
  for (const std::size_t n : kSizes) {
    const auto src = random_cplx(rng, n);
    std::vector<Complex> out(n);
    rt::kernels::scalar::wl_transform(n, src.data(), out.data(), a, b, c);
    auto in_place = src;
    rt::kernels::scalar::wl_transform(n, in_place.data(), in_place.data(), a, b, c);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], a * src[i] + b * std::conj(src[i]) + c);
      EXPECT_EQ(in_place[i], out[i]);
    }
  }
}

// The FIR interior sum_k taps[k] * xw[nt-1-k], taken as xw[k] times
// taps[nt-1-k] (= taps_rev[k]) with the window ascending: two samples per
// vector, so re = l0 + l2 and im = l1 + l3.
TEST(ScalarKernelsTest, FirDotWalksTapsAscendingOverReversedWindow) {
  std::mt19937_64 rng(104);
  for (const std::size_t nt : kSizes) {
    if (nt == 0) continue;  // a FIR always has >= 1 tap
    const auto taps = random_reals(rng, nt);
    std::vector<double> taps_rev(taps.rbegin(), taps.rend());
    const auto xw = random_cplx(rng, nt);
    const double* x = as_doubles(xw);
    const std::size_t n2 = nt & ~std::size_t{1};
    const auto l = lanes(2 * n2, [&](double& acc, std::size_t i) {
      acc += x[i] * taps[nt - 1 - i / 2];
    });
    Complex want{l[0] + l[2], l[1] + l[3]};
    for (std::size_t k = n2; k < nt; ++k) want += xw[k] * taps[nt - 1 - k];
    EXPECT_EQ(rt::kernels::scalar::fir_dot(nt, taps_rev.data(), xw.data()), want);
  }
}

TEST(ScalarKernelsTest, DfeScoreMatchesResidualPlusNorm) {
  std::mt19937_64 rng(105);
  for (const std::size_t n_terms : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                    std::size_t{31}, std::size_t{32}, std::size_t{33}}) {
    for (const std::size_t n : {std::size_t{24}, std::size_t{25}}) {
      const auto residual = random_cplx(rng, n);
      std::vector<std::vector<Complex>> tmpls;
      std::vector<CTerm> terms;
      tmpls.reserve(n_terms);
      terms.reserve(n_terms);
      std::uniform_real_distribution<double> dist(-1.0, 1.0);
      for (std::size_t t = 0; t < n_terms; ++t) {
        tmpls.push_back(random_cplx(rng, n));
        terms.push_back({tmpls.back().data(), Complex{dist(rng), dist(rng)}});
      }
      std::vector<Complex> out(n);
      rt::kernels::scalar::dfe_residual(n, residual.data(), out.data(), terms.data(), n_terms);
      std::vector<Complex> e(n);
      for (std::size_t k = 0; k < n; ++k) {
        e[k] = residual[k];
        for (std::size_t t = 0; t < n_terms; ++t) e[k] -= terms[t].w * terms[t].tmpl[k];
        EXPECT_EQ(out[k], e[k]);
      }
      // Two samples per vector: lanes e0.re^2, e0.im^2, e1.re^2, e1.im^2.
      const double* ed = as_doubles(e);
      const std::size_t n2 = n & ~std::size_t{1};
      double want = combine(lanes(2 * n2, [&](double& l, std::size_t i) { l += ed[i] * ed[i]; }));
      if (n2 != n) want += std::norm(e[n2]);
      EXPECT_EQ(rt::kernels::scalar::dfe_score(n, residual.data(), terms.data(), n_terms), want);
    }
  }
}

TEST(ScalarKernelsTest, PhaseScoreMaxFindsTheArgmaxValue) {
  std::mt19937_64 rng(106);
  for (const std::size_t k : kSizes) {
    if (k == 0) continue;  // the bank always has >= 1 hypothesis
    const auto re = random_reals(rng, k);
    const auto im = random_reals(rng, k);
    const double cr = 0.7;
    const double ci = -0.4;
    double want = re[0] * cr - im[0] * ci;
    for (std::size_t i = 1; i < k; ++i) want = std::max(want, re[i] * cr - im[i] * ci);
    EXPECT_EQ(rt::kernels::scalar::phase_score_max(k, re.data(), im.data(), cr, ci), want);
  }
}

TEST(ScalarKernelsTest, LcStepLeavesStateUntouchedForNonPositiveDt) {
  std::mt19937_64 rng(107);
  const std::size_t n = 5;
  std::vector<double> tau_c(n, 2e-3);
  std::vector<double> tau_r(n, 3e-3);
  const LcBankParams p{tau_c.data(), tau_r.data(), 50e-3, 10e-3, 0.5};
  const auto drive = random_reals(rng, n);
  auto c = random_reals(rng, n);
  auto s = random_reals(rng, n);
  const auto c0 = c;
  const auto s0 = s;
  rt::kernels::scalar::lc_step(n, 0.0, drive.data(), c.data(), s.data(), p);
  EXPECT_EQ(c, c0);
  EXPECT_EQ(s, s0);
  rt::kernels::scalar::lc_step(n, -1e-6, drive.data(), c.data(), s.data(), p);
  EXPECT_EQ(c, c0);
  EXPECT_EQ(s, s0);
}

TEST(ScalarKernelsTest, LcStepRunMatchesRepeatedLcStepCalls) {
  std::mt19937_64 rng(109);
  std::uniform_real_distribution<double> tau(1e-3, 5e-3);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const std::size_t n : kSizes) {
    std::vector<double> tau_c(n);
    std::vector<double> tau_r(n);
    std::vector<double> drive(n);
    std::vector<double> c0(n);
    std::vector<double> s0(n);
    for (std::size_t i = 0; i < n; ++i) {
      tau_c[i] = tau(rng);
      tau_r[i] = tau(rng);
      drive[i] = (i % 3 == 0) ? 1.0 : 0.0;
      c0[i] = unit(rng);
      s0[i] = unit(rng);
    }
    const LcBankParams p{tau_c.data(), tau_r.data(), 50e-3, 10e-3, 0.35};
    const std::size_t t_steps = 4;
    const double dt = 25e-6;  // multiple substeps + a partial tail per sample

    // Reference: one lc_step per sample, snapshotting c after each.
    auto rc = c0;
    auto rs = s0;
    std::vector<double> ref_rows;
    for (std::size_t t = 0; t < t_steps; ++t) {
      rt::kernels::scalar::lc_step(n, dt, drive.data(), rc.data(), rs.data(), p);
      ref_rows.insert(ref_rows.end(), rc.begin(), rc.end());
    }

    auto c = c0;
    auto s = s0;
    std::vector<double> rows(t_steps * n, -1.0);
    rt::kernels::scalar::lc_step_run(n, t_steps, dt, drive.data(), c.data(), s.data(),
                                     rows.data(), p);
    EXPECT_EQ(rows, ref_rows);
    EXPECT_EQ(c, rc);
    EXPECT_EQ(s, rs);

    // Non-positive dt: state untouched, rows echo the current state.
    rt::kernels::scalar::lc_step_run(n, t_steps, 0.0, drive.data(), c.data(), s.data(),
                                     rows.data(), p);
    EXPECT_EQ(c, rc);
    EXPECT_EQ(s, rs);
    std::vector<double> echo;
    for (std::size_t t = 0; t < t_steps; ++t) echo.insert(echo.end(), c.begin(), c.end());
    EXPECT_EQ(rows, echo);
  }
}

// --- dispatch and the cross-backend contract ---------------------------------

bool host_has_avx2() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

TEST(KernelDispatchTest, BackendIsAvx2ExactlyWhenTheHostReportsAvx2) {
  EXPECT_STREQ(rt::kernels::backend_name(), host_has_avx2() ? "avx2" : "scalar");
}

#if defined(__x86_64__)

// Every x86-64 build compiles the AVX2 backend; these tests run it
// wherever the CPU can.
class Avx2KernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!host_has_avx2()) GTEST_SKIP() << "host CPU does not report AVX2";
  }
};

TEST_F(Avx2KernelsTest, ElementwiseKernelsAreBitIdentical) {
  std::mt19937_64 rng(201);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (const std::size_t n : kSizes) {
    const auto x = random_cplx(rng, n);
    const auto g = random_cplx(rng, n);
    const auto xr = random_reals(rng, n);
    const Complex a{dist(rng), dist(rng)};
    const Complex b{dist(rng), dist(rng)};
    const Complex c{dist(rng), dist(rng)};

    std::vector<Complex> s_out(n);
    std::vector<Complex> v_out(n);
    rt::kernels::scalar::wl_transform(n, x.data(), s_out.data(), a, b, c);
    rt::kernels::avx2::wl_transform(n, x.data(), v_out.data(), a, b, c);
    EXPECT_EQ(s_out, v_out);

    auto s_x = x;
    auto v_x = x;
    rt::kernels::scalar::cscale(n, s_x.data(), g.data());
    rt::kernels::avx2::cscale(n, v_x.data(), g.data());
    EXPECT_EQ(s_x, v_x);

    auto s_acc = random_reals(rng, n);
    auto v_acc = s_acc;
    rt::kernels::scalar::accum_real(n, xr.data(), s_acc.data());
    rt::kernels::avx2::accum_real(n, xr.data(), v_acc.data());
    EXPECT_EQ(s_acc, v_acc);

    auto s_ax = random_reals(rng, n);
    auto v_ax = s_ax;
    rt::kernels::scalar::axpy_sub_real(n, a.real(), xr.data(), s_ax.data());
    rt::kernels::avx2::axpy_sub_real(n, a.real(), xr.data(), v_ax.data());
    EXPECT_EQ(s_ax, v_ax);

    auto s_cax = random_cplx(rng, n);
    auto v_cax = s_cax;
    rt::kernels::scalar::axpy_sub_cplx(n, a, x.data(), s_cax.data());
    rt::kernels::avx2::axpy_sub_cplx(n, a, x.data(), v_cax.data());
    EXPECT_EQ(s_cax, v_cax);

    auto s_cr = random_cplx(rng, n);
    auto v_cr = s_cr;
    rt::kernels::scalar::caxpy_real(n, a, xr.data(), s_cr.data());
    rt::kernels::avx2::caxpy_real(n, a, xr.data(), v_cr.data());
    EXPECT_EQ(s_cr, v_cr);
  }
}

TEST_F(Avx2KernelsTest, LcStepRunIsBitIdenticalAcrossBackends) {
  std::mt19937_64 rng(203);
  std::uniform_real_distribution<double> tau(1e-3, 5e-3);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // Drive patterns exercising every specialization in the AVX2 backend:
  // all released, all driven, and mixed groups.
  const auto drive_for = [](std::size_t i, int pattern) {
    switch (pattern) {
      case 0: return 0.0;
      case 1: return 1.0;
      default: return (i % 3 == 0) ? 1.0 : 0.0;
    }
  };
  for (const std::size_t n : kSizes) {
    for (int pattern = 0; pattern < 3; ++pattern) {
      std::vector<double> tau_c(n);
      std::vector<double> tau_r(n);
      std::vector<double> drive(n);
      std::vector<double> c0(n);
      std::vector<double> s0(n);
      for (std::size_t i = 0; i < n; ++i) {
        tau_c[i] = tau(rng);
        tau_r[i] = tau(rng);
        drive[i] = drive_for(i, pattern);
        c0[i] = unit(rng);
        s0[i] = unit(rng);
      }
      const LcBankParams p{tau_c.data(), tau_r.data(), 50e-3, 10e-3, 0.35};
      const std::size_t t_steps = 5;
      auto sc = c0;
      auto ss = s0;
      auto vc = c0;
      auto vs = s0;
      std::vector<double> s_rows(t_steps * n, -1.0);
      std::vector<double> v_rows(t_steps * n, -2.0);
      rt::kernels::scalar::lc_step_run(n, t_steps, 25e-6, drive.data(), sc.data(), ss.data(),
                                       s_rows.data(), p);
      rt::kernels::avx2::lc_step_run(n, t_steps, 25e-6, drive.data(), vc.data(), vs.data(),
                                     v_rows.data(), p);
      EXPECT_EQ(s_rows, v_rows);
      EXPECT_EQ(sc, vc);
      EXPECT_EQ(ss, vs);
    }
  }
}

TEST_F(Avx2KernelsTest, LcStepRunFixedPointSkipIsExact) {
  // A fully released bank at (c, s) = (0, 0) must stay exactly at zero --
  // the AVX2 backend fills these rows without stepping, and the result
  // has to match the scalar spec bit-for-bit (positive zeros).
  std::mt19937_64 rng(204);
  std::uniform_real_distribution<double> tau(1e-3, 5e-3);
  const std::size_t n = 9;  // full groups + a masked tail
  std::vector<double> tau_c(n);
  std::vector<double> tau_r(n);
  for (std::size_t i = 0; i < n; ++i) {
    tau_c[i] = tau(rng);
    tau_r[i] = tau(rng);
  }
  const LcBankParams p{tau_c.data(), tau_r.data(), 50e-3, 10e-3, 0.35};
  const std::vector<double> drive(n, 0.0);
  const std::size_t t_steps = 3;
  std::vector<double> sc(n, 0.0);
  std::vector<double> ss(n, 0.0);
  std::vector<double> vc(n, 0.0);
  std::vector<double> vs(n, 0.0);
  std::vector<double> s_rows(t_steps * n, -1.0);
  std::vector<double> v_rows(t_steps * n, -2.0);
  rt::kernels::scalar::lc_step_run(n, t_steps, 25e-6, drive.data(), sc.data(), ss.data(),
                                   s_rows.data(), p);
  rt::kernels::avx2::lc_step_run(n, t_steps, 25e-6, drive.data(), vc.data(), vs.data(),
                                 v_rows.data(), p);
  EXPECT_EQ(s_rows, v_rows);
  EXPECT_EQ(sc, vc);
  EXPECT_EQ(ss, vs);
  for (const double r : v_rows) {
    EXPECT_EQ(r, 0.0);
    EXPECT_FALSE(std::signbit(r));
  }
}

TEST_F(Avx2KernelsTest, DfeResidualIsBitIdenticalIncludingManyTerms) {
  std::mt19937_64 rng(203);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (const std::size_t n_terms : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                    std::size_t{31}, std::size_t{32}, std::size_t{33}}) {
    for (const std::size_t n : kSizes) {
      const auto src = random_cplx(rng, n);
      std::vector<std::vector<Complex>> tmpls;
      std::vector<CTerm> terms;
      tmpls.reserve(n_terms);
      terms.reserve(n_terms);
      for (std::size_t t = 0; t < n_terms; ++t) {
        tmpls.push_back(random_cplx(rng, n));
        terms.push_back({tmpls.back().data(), Complex{dist(rng), dist(rng)}});
      }
      std::vector<Complex> s_out(n);
      std::vector<Complex> v_out(n);
      rt::kernels::scalar::dfe_residual(n, src.data(), s_out.data(), terms.data(), n_terms);
      rt::kernels::avx2::dfe_residual(n, src.data(), v_out.data(), terms.data(), n_terms);
      EXPECT_EQ(s_out, v_out) << "n=" << n << " terms=" << n_terms;
    }
  }
}

TEST_F(Avx2KernelsTest, ReductionsAreBitIdentical) {
  std::mt19937_64 rng(204);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (const std::size_t n : kSizes) {
    const auto a = random_reals(rng, n);
    const auto b = random_reals(rng, n);
    const auto ca = random_cplx(rng, n);
    const auto cb = random_cplx(rng, n);
    EXPECT_EQ(rt::kernels::scalar::dot_real(n, a.data(), b.data()),
              rt::kernels::avx2::dot_real(n, a.data(), b.data()));
    EXPECT_EQ(rt::kernels::scalar::sum_sq_real(n, a.data()),
              rt::kernels::avx2::sum_sq_real(n, a.data()));
    EXPECT_EQ(rt::kernels::scalar::cdotc(n, ca.data(), cb.data()),
              rt::kernels::avx2::cdotc(n, ca.data(), cb.data()));
    EXPECT_EQ(rt::kernels::scalar::sum_norm_cplx(n, ca.data()),
              rt::kernels::avx2::sum_norm_cplx(n, ca.data()));

    const auto rr = random_reals(rng, n);
    const auto ri = random_reals(rng, n);
    const CorrStats s_st =
        rt::kernels::scalar::corr_stats_split(n, rr.data(), ri.data(), a.data(), b.data());
    const CorrStats v_st =
        rt::kernels::avx2::corr_stats_split(n, rr.data(), ri.data(), a.data(), b.data());
    EXPECT_EQ(s_st.acc, v_st.acc);
    EXPECT_EQ(s_st.wsum, v_st.wsum);
    EXPECT_EQ(s_st.wenergy, v_st.wenergy);

    EXPECT_EQ(rt::kernels::scalar::fir_dot(n, a.data(), ca.data()),
              rt::kernels::avx2::fir_dot(n, a.data(), ca.data()));

    // 33 terms takes the AVX2 body's fallback past its stack cap.
    for (const std::size_t n_terms : {std::size_t{0}, std::size_t{5}, std::size_t{33}}) {
      std::vector<std::vector<Complex>> tmpls;
      std::vector<CTerm> terms;
      tmpls.reserve(n_terms);
      terms.reserve(n_terms);
      for (std::size_t t = 0; t < n_terms; ++t) {
        tmpls.push_back(random_cplx(rng, n));
        terms.push_back({tmpls.back().data(), Complex{dist(rng), dist(rng)}});
      }
      EXPECT_EQ(rt::kernels::scalar::dfe_score(n, ca.data(), terms.data(), n_terms),
                rt::kernels::avx2::dfe_score(n, ca.data(), terms.data(), n_terms))
          << "n=" << n << " terms=" << n_terms;
    }
  }
}

#endif  // __x86_64__

}  // namespace
