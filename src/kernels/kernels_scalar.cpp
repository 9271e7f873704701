// rt-lint: no-preconditions (leaf math kernels: size-0 is valid, pointers
// are pre-validated by the owning stages, and a branch per call would sit
// on the hottest loops in the repo)
// Scalar backend, and the specification the AVX2 backend
// (kernels_avx2.cpp) must match bit for bit. Elementwise kernels are the
// sequential loops they replaced in the pipeline (see the per-kernel
// notes). Reductions are written out in the lane order kernels.h
// specifies, so each one names its four lane accumulators. Built with
// -ffp-contract=off (src/kernels/CMakeLists.txt): a contracted a*b + c
// would round once where the specification rounds twice.
#include <algorithm>
#include <cmath>
#include <complex>

#include "kernels/kernels.h"

namespace rt::kernels::scalar {

namespace {

// Mirrors lcm/lc_cell.cpp: 10 us substeps keep RK4 error negligible
// against tau >= 0.1 ms.
constexpr double kMaxSubstep = 10e-6;

const double* as_doubles(const Complex* p) { return reinterpret_cast<const double*>(p); }

// The four lane accumulators of a reduction: lane j takes double j of
// every 4-double vector, and sum() combines them in the fixed order.
struct Lanes {
  double l[4] = {};
  void add(double t0, double t1, double t2, double t3) {
    l[0] += t0;
    l[1] += t1;
    l[2] += t2;
    l[3] += t3;
  }
  double sum() const { return (l[0] + l[1]) + (l[2] + l[3]); }
};

}  // namespace

// Replaces lcm::LcCell::step applied pixel-by-pixel: same coupled (c, s)
// RK4 with the same substep schedule, driven/released switch per pixel.
void lc_step(std::size_t n, double dt, const double* drive, double* c, double* s,
             const LcBankParams& p) {
  if (dt <= 0.0) return;
  for (std::size_t i = 0; i < n; ++i) {
    const bool driven = drive[i] != 0.0;
    const double tau_charge = p.tau_charge[i];
    const double tau_relax = p.tau_relax[i];
    double ci = c[i];
    double si = s[i];
    const auto fc = [&](double cc, double ss) {
      if (driven) {
        const double tau = tau_charge * (1.0 + p.k_mem * (1.0 - ss));
        return (1.0 - cc) / tau;
      }
      return -cc * (1.0 - cc) / tau_relax - cc / p.tau_slow;
    };
    const auto fs = [&](double cc, double ss) { return (cc - ss) / p.tau_memory; };
    double remaining = dt;
    while (remaining > 0.0) {
      const double h = std::min(remaining, kMaxSubstep);
      const double k1c = fc(ci, si);
      const double k1s = fs(ci, si);
      const double k2c = fc(ci + 0.5 * h * k1c, si + 0.5 * h * k1s);
      const double k2s = fs(ci + 0.5 * h * k1c, si + 0.5 * h * k1s);
      const double k3c = fc(ci + 0.5 * h * k2c, si + 0.5 * h * k2s);
      const double k3s = fs(ci + 0.5 * h * k2c, si + 0.5 * h * k2s);
      const double k4c = fc(ci + h * k3c, si + h * k3s);
      const double k4s = fs(ci + h * k3c, si + h * k3s);
      ci += h / 6.0 * (k1c + 2.0 * k2c + 2.0 * k3c + k4c);
      si += h / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s);
      ci = std::clamp(ci, 0.0, 1.0);
      si = std::clamp(si, 0.0, 1.0);
      remaining -= h;
    }
    c[i] = ci;
    s[i] = si;
  }
}

// Segment form of lc_step for lcm::TagArray::synthesize_into: advances
// every pixel through t_steps consecutive samples of length dt under one
// CONSTANT drive pattern, writing the post-step alignment of sample t to
// c_out[t * n + i]. This body IS t_steps back-to-back lc_step calls plus
// one contiguous row store per sample, so it is bit-identical to the
// per-sample form by construction. The sample loop stays OUTSIDE the
// pixel loop on purpose: successive pixels are independent dependency
// chains the out-of-order core overlaps, whereas a per-pixel sample loop
// would serialize the whole segment behind one chain of divisions.
void lc_step_run(std::size_t n, std::size_t t_steps, double dt, const double* drive, double* c,
                 double* s, double* c_out, const LcBankParams& p) {
  if (dt <= 0.0) {
    // t_steps no-op lc_step calls: state untouched, every row echoes it.
    for (std::size_t t = 0; t < t_steps; ++t)
      for (std::size_t i = 0; i < n; ++i) c_out[t * n + i] = c[i];
    return;
  }
  for (std::size_t t = 0; t < t_steps; ++t) {
    lc_step(n, dt, drive, c, s, p);
    double* row = c_out + t * n;
    for (std::size_t i = 0; i < n; ++i) row[i] = c[i];
  }
}

// Replaces the widely-linear fit/correction loops in phy/preamble.cpp:
// dst[i] = a*x + b*conj(x) + c. src and dst may alias (in-place correct).
void wl_transform(std::size_t n, const Complex* src, Complex* dst, Complex a, Complex b,
                  Complex c) {
  for (std::size_t i = 0; i < n; ++i) {
    const Complex x = src[i];
    dst[i] = a * x + b * std::conj(x) + c;
  }
}

// Replaces the per-sample channel gain application in sim/channel.cpp:
// x[i] *= g[i].
void cscale(std::size_t n, Complex* x, const Complex* g) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= g[i];
}

// Replaces the training design accumulation in phy/training.cpp
// (column-major form): y[i] += x[i].
void accum_real(std::size_t n, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

// Replaces the MGS projection update in linalg/least_squares.h:
// y[i] -= a * x[i].
void axpy_sub_real(std::size_t n, double a, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= a * x[i];
}

void axpy_sub_cplx(std::size_t n, Complex a, const Complex* x, Complex* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= a * x[i];
}

// Replaces the pulse reconstruction in phy/training.cpp:
// y[i] += a * x[i] with real basis samples x and complex coefficient a.
void caxpy_real(std::size_t n, Complex a, const double* x, Complex* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void split_complex(std::size_t n, const Complex* x, double* re, double* im) {
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
}

// Replaces the decision-feedback propagation in phy/equalizer.cpp:
// dst[k] = src[k] - sum_t w_t * tmpl_t[k], term-by-term in order.
void dfe_residual(std::size_t n, const Complex* src, Complex* dst, const CTerm* terms,
                  std::size_t n_terms) {
  for (std::size_t k = 0; k < n; ++k) {
    Complex e = src[k];
    for (std::size_t t = 0; t < n_terms; ++t) e -= terms[t].w * terms[t].tmpl[k];
    dst[k] = e;
  }
}

// Replaces stream::PhaseBank::score: max_k Re(rotor_k * c) over the
// split-plane rotor bank.
double phase_score_max(std::size_t k, const double* rot_re, const double* rot_im, double c_re,
                       double c_im) {
  double best = rot_re[0] * c_re - rot_im[0] * c_im;
  for (std::size_t i = 1; i < k; ++i) {
    const double v = rot_re[i] * c_re - rot_im[i] * c_im;
    if (v > best) best = v;
  }
  return best;
}

// Replaces linalg::dot<double>.
double dot_real(std::size_t n, const double* a, const double* b) {
  const std::size_t n4 = n & ~std::size_t{3};
  Lanes acc;
  for (std::size_t i = 0; i < n4; i += 4)
    acc.add(a[i] * b[i], a[i + 1] * b[i + 1], a[i + 2] * b[i + 2], a[i + 3] * b[i + 3]);
  double s = acc.sum();
  for (std::size_t i = n4; i < n; ++i) s += a[i] * b[i];
  return s;
}

// Replaces linalg::dot<Complex>: sum conj(a[i]) * b[i], two samples per
// vector. `rr` gathers ar*br, ai*bi, ar*br, ai*bi and `ri` gathers ar*bi,
// ai*br, ar*bi, ai*br, so the imaginary part combines its lanes as
// (l0 - l1) + (l2 - l3).
Complex cdotc(std::size_t n, const Complex* a, const Complex* b) {
  const std::size_t n2 = n & ~std::size_t{1};
  Lanes rr;
  Lanes ri;
  for (std::size_t i = 0; i < 2 * n2; i += 4) {
    const double* x = as_doubles(a) + i;
    const double* y = as_doubles(b) + i;
    rr.add(x[0] * y[0], x[1] * y[1], x[2] * y[2], x[3] * y[3]);
    ri.add(x[0] * y[1], x[1] * y[0], x[2] * y[3], x[3] * y[2]);
  }
  double re = rr.sum();
  double im = (ri.l[0] - ri.l[1]) + (ri.l[2] - ri.l[3]);
  for (std::size_t i = n2; i < n; ++i) {
    const Complex t = std::conj(a[i]) * b[i];
    re += t.real();
    im += t.imag();
  }
  return Complex{re, im};
}

// Plain (unconjugated) complex dot, for the row-contiguous accumulation
// in linalg::residual_norm. Sequential: it has no AVX2 body to match.
Complex cdotu(std::size_t n, const Complex* a, const Complex* b) {
  Complex s{};
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

// Replaces the ridge column-norm accumulation in phy/training.cpp and
// linalg::norm<double> (caller takes the sqrt).
double sum_sq_real(std::size_t n, const double* x) { return dot_real(n, x, x); }

// Replaces the rest-slot metric in phy/equalizer.cpp and
// linalg::norm<Complex> (caller takes the sqrt): the sum of squares of
// the 2n interleaved doubles.
double sum_norm_cplx(std::size_t n, const Complex* x) {
  return sum_sq_real(2 * n, as_doubles(x));
}

// Centred-correlation window sums over split re/im planes (the streaming
// receiver's scan and sync). Lane j takes the samples i = j mod 4, each
// through the op chain the AVX2 body runs on its vectors. The loop over
// lanes lets the compiler pair them in SSE2 registers; twenty named
// accumulators would spill.
CorrStats corr_stats_split(std::size_t n, const double* ref_re, const double* ref_im,
                           const double* x_re, const double* x_im) {
  const std::size_t n4 = n & ~std::size_t{3};
  Lanes re;
  Lanes im;
  Lanes wr;
  Lanes wi;
  Lanes we;
  for (std::size_t i = 0; i < n4; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      const double rr = ref_re[i + j];
      const double ri = ref_im[i + j];
      const double xr = x_re[i + j];
      const double xi = x_im[i + j];
      re.l[j] = re.l[j] + rr * xr + ri * xi;
      im.l[j] = im.l[j] + rr * xi - ri * xr;
      wr.l[j] += xr;
      wi.l[j] += xi;
      we.l[j] = we.l[j] + xr * xr + xi * xi;
    }
  }
  CorrStats st{Complex{re.sum(), im.sum()}, Complex{wr.sum(), wi.sum()}, we.sum()};
  for (std::size_t i = n4; i < n; ++i) {
    const double xr = x_re[i];
    const double xi = x_im[i];
    st.acc += Complex{ref_re[i] * xr + ref_im[i] * xi, ref_re[i] * xi - ref_im[i] * xr};
    st.wsum += Complex{xr, xi};
    st.wenergy += xr * xr + xi * xi;
  }
  return st;
}

// Replaces the fused candidate-scoring loop in phy/equalizer.cpp:
// sum_k |residual[k] - sum_t w_t * tmpl_t[k]|^2, two samples per vector
// (lanes: e0.re^2, e0.im^2, e1.re^2, e1.im^2 for errors e0, e1).
double dfe_score(std::size_t n, const Complex* residual, const CTerm* terms,
                 std::size_t n_terms) {
  const auto error = [&](std::size_t k) {
    Complex e = residual[k];
    for (std::size_t t = 0; t < n_terms; ++t) e -= terms[t].w * terms[t].tmpl[k];
    return e;
  };
  const std::size_t n2 = n & ~std::size_t{1};
  Lanes acc;
  for (std::size_t k = 0; k < n2; k += 2) {
    const Complex e0 = error(k);
    const Complex e1 = error(k + 1);
    acc.add(e0.real() * e0.real(), e0.imag() * e0.imag(), e1.real() * e1.real(),
            e1.imag() * e1.imag());
  }
  double score = acc.sum();
  if (n2 != n) score += std::norm(error(n2));
  return score;
}

// Replaces the interior (no edge clipping) tap loop of sig::FirFilter:
// sum_k xw[k] * taps_rev[k], the reversed-tap copy making both operands
// ascending. Two samples per vector (lanes: x0.re*t0, x0.im*t0, x1.re*t1,
// x1.im*t1), so re = l0 + l2 and im = l1 + l3.
Complex fir_dot(std::size_t nt, const double* taps_rev, const Complex* xw) {
  const std::size_t n2 = nt & ~std::size_t{1};
  Lanes acc;
  for (std::size_t k = 0; k < n2; k += 2) {
    const double* x = as_doubles(xw) + 2 * k;
    acc.add(x[0] * taps_rev[k], x[1] * taps_rev[k], x[2] * taps_rev[k + 1],
            x[3] * taps_rev[k + 1]);
  }
  double re = acc.l[0] + acc.l[2];
  double im = acc.l[1] + acc.l[3];
  for (std::size_t k = n2; k < nt; ++k) {
    re += xw[k].real() * taps_rev[k];
    im += xw[k].imag() * taps_rev[k];
  }
  return Complex{re, im};
}

}  // namespace rt::kernels::scalar
