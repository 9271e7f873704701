// rt-lint: no-preconditions (leaf math kernels: same contract as
// kernels_scalar.cpp, which is the specification for these bodies)
// AVX2 backend. Compiled on every x86-64 build with per-file flags
// -mavx2 -ffp-contract=off (src/kernels/CMakeLists.txt); kernels.cpp calls
// it only on hosts whose CPU reports AVX2.
//
// Written entirely against the pack wrappers in dispatch.h -- no
// intrinsics here (rt_check C5 allows them in dispatch.h only).
//
// Every body gives the same bits as its kernels_scalar.cpp twin:
//  - elementwise kernels use only the plain lane operators (+,-,*,/),
//    XOR sign flips and lane selects, so each output element runs the
//    scalar op chain;
//  - reductions ARE the lane order kernels.h specifies: one vector
//    accumulator is the four lanes, updated as acc + a*b (no FMA), then
//    combined in the documented order with the tail added after.
#include <algorithm>
#include <cmath>
#include <complex>

#include "kernels/dispatch.h"
#include "kernels/kernels.h"

#if !defined(__AVX2__)
#error "kernels_avx2.cpp must be compiled with -mavx2 (see src/kernels/CMakeLists.txt)"
#endif

namespace rt::kernels::avx2 {

namespace {

constexpr double kMaxSubstep = 10e-6;  // mirrors kernels_scalar.cpp

constexpr std::size_t kMaxDfeTerms = 32;  // stack cap for hoisted weights

inline const double* as_doubles(const Complex* p) {
  return reinterpret_cast<const double*>(p);
}
inline double* as_doubles(Complex* p) { return reinterpret_cast<double*>(p); }

// One 4-pixel group's segment state for lc_step_run: the drive mask and
// taus are segment constants, the (c, s) registers carry across samples.
struct LcGroup {
  vpack4d mask_d, tc, tr, ci, si;
  int mm = 0;
  std::size_t i = 0;   // first pixel index
  std::size_t m = 0;   // live lanes (tail groups < width)
};

}  // namespace

// Segment form of lc_step (kernels_scalar.cpp holds the contract). Three
// structural speedups on top of the vector math, all bit-exact:
//  - the drive mask is constant over the segment, so each 4-pixel group
//    commits to a specialized ODE body once: all-released and all-driven
//    groups evaluate only their own branch (lc_step's blend computes
//    both every substep), and only mixed groups pay for the select;
//  - a fully released group sitting exactly at (c, s) = (0, 0) is at a
//    fixed point of the discrete update (every derivative term is a
//    signed zero, and ci + (+/-0) then the clamp land back on +0), so
//    its rows fill with zeros without stepping. This is the idle state
//    between reset and a packet's first firing;
//  - groups advance through the segment in PAIRS: one group's RK4 is a
//    serial chain of divisions the core cannot overlap with itself, so
//    interleaving two independent groups roughly doubles the exposed
//    ILP. Lanes never mix across groups, so results are unchanged.
void lc_step_run(std::size_t n, std::size_t t_steps, double dt, const double* drive, double* c,
                 double* s, double* c_out, const LcBankParams& p) {
  if (dt <= 0.0) {
    for (std::size_t t = 0; t < t_steps; ++t)
      for (std::size_t i = 0; i < n; ++i) c_out[t * n + i] = c[i];
    return;
  }
  const vpack4d one = vpack4d::broadcast(1.0);
  const vpack4d zero = vpack4d::zero();
  const vpack4d k_mem = vpack4d::broadcast(p.k_mem);
  const vpack4d tau_slow = vpack4d::broadcast(p.tau_slow);
  const vpack4d tau_memory = vpack4d::broadcast(p.tau_memory);
  const vpack4d two = vpack4d::broadcast(2.0);

  // Masked tail lanes load 0.0 (a released pixel at rest); their
  // (finite, inf or NaN) garbage results never cross lanes and the
  // masked stores below discard them.
  const auto load_group = [&](std::size_t i) {
    LcGroup g;
    g.i = i;
    g.m = std::min(vpack4d::width, n - i);
    const bool full = g.m == vpack4d::width;
    const auto part = [&](const double* ptr) {
      return full ? vpack4d::load(ptr) : vpack4d::load_partial(ptr, g.m);
    };
    g.mask_d = cmp_neq(part(drive + i), zero);
    g.mm = movemask(g.mask_d);
    g.ci = part(c + i);
    g.si = part(s + i);
    g.tc = part(p.tau_charge + i);
    g.tr = part(p.tau_relax + i);
    return g;
  };
  const auto store_row = [&](const LcGroup& g, std::size_t t, vpack4d v) {
    if (g.m == vpack4d::width) {
      v.store(c_out + t * n + g.i);
    } else {
      v.store_partial(c_out + t * n + g.i, g.m);
    }
  };
  const auto store_state = [&](const LcGroup& g, vpack4d cv, vpack4d sv) {
    if (g.m == vpack4d::width) {
      cv.store(c + g.i);
      sv.store(s + g.i);
    } else {
      cv.store_partial(c + g.i, g.m);
      sv.store_partial(s + g.i, g.m);
    }
  };
  const auto at_rest = [&](const LcGroup& g) {
    return g.mm == 0 && movemask(cmp_eq(g.ci, zero)) == 0xF &&
           movemask(cmp_eq(g.si, zero)) == 0xF;
  };
  const auto fill_zeros = [&](const LcGroup& g) {
    for (std::size_t t = 0; t < t_steps; ++t) store_row(g, t, zero);
    store_state(g, zero, zero);
  };
  const auto fd_for = [&](const LcGroup& g) {
    return [&, tc = g.tc](vpack4d cc, vpack4d ss) {
      const vpack4d tau = tc * (one + k_mem * (one - ss));
      return (one - cc) / tau;
    };
  };
  const auto fr_for = [&](const LcGroup& g) {
    return [&, tr = g.tr](vpack4d cc, vpack4d ss) {
      static_cast<void>(ss);
      return neg(cc) * (one - cc) / tr - cc / tau_slow;
    };
  };
  const auto sel_for = [&](const LcGroup& g) {
    return [&, fd = fd_for(g), fr = fr_for(g), mask = g.mask_d](vpack4d cc, vpack4d ss) {
      return select(mask, fd(cc, ss), fr(cc, ss));
    };
  };
  const auto fs = [&](vpack4d cc, vpack4d ss) { return (cc - ss) / tau_memory; };
  const auto substep = [&](auto& fc, vpack4d& ci, vpack4d& si, vpack4d hh, vpack4d hv,
                           vpack4d hd6) {
    const vpack4d k1c = fc(ci, si);
    const vpack4d k1s = fs(ci, si);
    const vpack4d k2c = fc(ci + hh * k1c, si + hh * k1s);
    const vpack4d k2s = fs(ci + hh * k1c, si + hh * k1s);
    const vpack4d k3c = fc(ci + hh * k2c, si + hh * k2s);
    const vpack4d k3s = fs(ci + hh * k2c, si + hh * k2s);
    const vpack4d k4c = fc(ci + hv * k3c, si + hv * k3s);
    const vpack4d k4s = fs(ci + hv * k3c, si + hv * k3s);
    ci = ci + hd6 * (k1c + two * k2c + two * k3c + k4c);
    si = si + hd6 * (k1s + two * k2s + two * k3s + k4s);
    ci = min(max(ci, zero), one);
    si = min(max(si, zero), one);
  };
  const auto run_one = [&](LcGroup& g, auto fc) {
    for (std::size_t t = 0; t < t_steps; ++t) {
      double remaining = dt;
      while (remaining > 0.0) {
        const double h = std::min(remaining, kMaxSubstep);
        const vpack4d hh = vpack4d::broadcast(0.5 * h);
        const vpack4d hv = vpack4d::broadcast(h);
        const vpack4d hd6 = vpack4d::broadcast(h / 6.0);
        substep(fc, g.ci, g.si, hh, hv, hd6);
        remaining -= h;
      }
      store_row(g, t, g.ci);
    }
    store_state(g, g.ci, g.si);
  };
  const auto run_pair = [&](LcGroup& a, LcGroup& b, auto fca, auto fcb) {
    for (std::size_t t = 0; t < t_steps; ++t) {
      double remaining = dt;
      while (remaining > 0.0) {
        const double h = std::min(remaining, kMaxSubstep);
        const vpack4d hh = vpack4d::broadcast(0.5 * h);
        const vpack4d hv = vpack4d::broadcast(h);
        const vpack4d hd6 = vpack4d::broadcast(h / 6.0);
        substep(fca, a.ci, a.si, hh, hv, hd6);
        substep(fcb, b.ci, b.si, hh, hv, hd6);
        remaining -= h;
      }
      store_row(a, t, a.ci);
      store_row(b, t, b.ci);
    }
    store_state(a, a.ci, a.si);
    store_state(b, b.ci, b.si);
  };
  const auto dispatch_one = [&](LcGroup& g) {
    if (at_rest(g)) {
      fill_zeros(g);
    } else if (g.mm == 0) {
      run_one(g, fr_for(g));
    } else if (g.mm == 0xF) {
      run_one(g, fd_for(g));
    } else {
      run_one(g, sel_for(g));
    }
  };
  std::size_t i = 0;
  for (; i + 2 * vpack4d::width <= n; i += 2 * vpack4d::width) {
    LcGroup a = load_group(i);
    LcGroup b = load_group(i + vpack4d::width);
    const bool rest_a = at_rest(a);
    const bool rest_b = at_rest(b);
    if (rest_a || rest_b) {
      // At most one group steps; the single-group bodies keep their own
      // specialization.
      if (rest_a) fill_zeros(a); else dispatch_one(a);
      if (rest_b) fill_zeros(b); else dispatch_one(b);
      continue;
    }
    if (a.mm == 0 && b.mm == 0) {
      run_pair(a, b, fr_for(a), fr_for(b));
    } else {
      run_pair(a, b, sel_for(a), sel_for(b));
    }
  }
  for (; i < n; i += vpack4d::width) {
    LcGroup g = load_group(i);
    dispatch_one(g);
  }
}

void wl_transform(std::size_t n, const Complex* src, Complex* dst, Complex a, Complex b,
                  Complex c) {
  const std::size_t n2 = n & ~std::size_t{1};
  const vpack4d ar = vpack4d::broadcast(a.real());
  const vpack4d ai = vpack4d::broadcast(a.imag());
  const vpack4d br = vpack4d::broadcast(b.real());
  const vpack4d bi = vpack4d::broadcast(b.imag());
  const vpack4d cv = broadcast_pair(c.real(), c.imag());
  const double* sp = as_doubles(src);
  double* dp = as_doubles(dst);
  for (std::size_t i = 0; i < n2; i += 2) {
    const vpack4d x = vpack4d::load(sp + 2 * i);
    const vpack4d ax = ar * x + neg_even(ai * swap_pairs(x));
    const vpack4d xc = neg_odd(x);  // conj: exact sign flip of im lanes
    const vpack4d bxc = br * xc + neg_even(bi * swap_pairs(xc));
    (ax + bxc + cv).store(dp + 2 * i);
  }
  if (n2 != n) scalar::wl_transform(1, src + n2, dst + n2, a, b, c);
}

void cscale(std::size_t n, Complex* x, const Complex* g) {
  const std::size_t n2 = n & ~std::size_t{1};
  double* xp = as_doubles(x);
  const double* gp = as_doubles(g);
  for (std::size_t i = 0; i < n2; i += 2) {
    const vpack4d xv = vpack4d::load(xp + 2 * i);
    const vpack4d gv = vpack4d::load(gp + 2 * i);
    (dup_even(gv) * xv + neg_even(dup_odd(gv) * swap_pairs(xv))).store(xp + 2 * i);
  }
  if (n2 != n) scalar::cscale(1, x + n2, g + n2);
}

void accum_real(std::size_t n, const double* x, double* y) {
  for (std::size_t i = 0; i < n; i += vpack4d::width) {
    const std::size_t m = std::min(vpack4d::width, n - i);
    if (m == vpack4d::width) {
      (vpack4d::load(y + i) + vpack4d::load(x + i)).store(y + i);
    } else {
      (vpack4d::load_partial(y + i, m) + vpack4d::load_partial(x + i, m))
          .store_partial(y + i, m);
    }
  }
}

void axpy_sub_real(std::size_t n, double a, const double* x, double* y) {
  const vpack4d av = vpack4d::broadcast(a);
  for (std::size_t i = 0; i < n; i += vpack4d::width) {
    const std::size_t m = std::min(vpack4d::width, n - i);
    if (m == vpack4d::width) {
      (vpack4d::load(y + i) - av * vpack4d::load(x + i)).store(y + i);
    } else {
      (vpack4d::load_partial(y + i, m) - av * vpack4d::load_partial(x + i, m))
          .store_partial(y + i, m);
    }
  }
}

void axpy_sub_cplx(std::size_t n, Complex a, const Complex* x, Complex* y) {
  const std::size_t n2 = n & ~std::size_t{1};
  const vpack4d ar = vpack4d::broadcast(a.real());
  const vpack4d ai = vpack4d::broadcast(a.imag());
  const double* xp = as_doubles(x);
  double* yp = as_doubles(y);
  for (std::size_t i = 0; i < n2; i += 2) {
    const vpack4d xv = vpack4d::load(xp + 2 * i);
    const vpack4d p = ar * xv + neg_even(ai * swap_pairs(xv));
    (vpack4d::load(yp + 2 * i) - p).store(yp + 2 * i);
  }
  if (n2 != n) scalar::axpy_sub_cplx(1, a, x + n2, y + n2);
}

void caxpy_real(std::size_t n, Complex a, const double* x, Complex* y) {
  const std::size_t n2 = n & ~std::size_t{1};
  const vpack4d av = broadcast_pair(a.real(), a.imag());
  double* yp = as_doubles(y);
  for (std::size_t i = 0; i < n2; i += 2) {
    (vpack4d::load(yp + 2 * i) + av * load_dup2(x + i)).store(yp + 2 * i);
  }
  if (n2 != n) scalar::caxpy_real(1, a, x + n2, y + n2);
}

void dfe_residual(std::size_t n, const Complex* src, Complex* dst, const CTerm* terms,
                  std::size_t n_terms) {
  if (n_terms > kMaxDfeTerms) {
    scalar::dfe_residual(n, src, dst, terms, n_terms);
    return;
  }
  vpack4d wr[kMaxDfeTerms];
  vpack4d wi[kMaxDfeTerms];
  for (std::size_t t = 0; t < n_terms; ++t) {
    wr[t] = vpack4d::broadcast(terms[t].w.real());
    wi[t] = vpack4d::broadcast(terms[t].w.imag());
  }
  const std::size_t n2 = n & ~std::size_t{1};
  const double* sp = as_doubles(src);
  double* dp = as_doubles(dst);
  for (std::size_t k = 0; k < n2; k += 2) {
    vpack4d e = vpack4d::load(sp + 2 * k);
    for (std::size_t t = 0; t < n_terms; ++t) {
      const vpack4d tm = vpack4d::load(as_doubles(terms[t].tmpl) + 2 * k);
      e = e - (wr[t] * tm + neg_even(wi[t] * swap_pairs(tm)));
    }
    e.store(dp + 2 * k);
  }
  if (n2 != n) {
    // Re-base each template at the tail element before handing off.
    CTerm tail[kMaxDfeTerms];
    for (std::size_t t = 0; t < n_terms; ++t) tail[t] = {terms[t].tmpl + n2, terms[t].w};
    scalar::dfe_residual(1, src + n2, dst + n2, tail, n_terms);
  }
}

double dot_real(std::size_t n, const double* a, const double* b) {
  const std::size_t n4 = n & ~std::size_t{3};
  vpack4d acc = vpack4d::zero();
  for (std::size_t i = 0; i < n4; i += 4) {
    acc = acc + vpack4d::load(a + i) * vpack4d::load(b + i);
  }
  double s = reduce_add(acc);
  for (std::size_t i = n4; i < n; ++i) s += a[i] * b[i];
  return s;
}

Complex cdotc(std::size_t n, const Complex* a, const Complex* b) {
  const std::size_t n2 = n & ~std::size_t{1};
  vpack4d acc_rr = vpack4d::zero();  // lanes ar*br, ai*bi -> re
  vpack4d acc_ri = vpack4d::zero();  // lanes ar*bi, ai*br -> im
  const double* ap = as_doubles(a);
  const double* bp = as_doubles(b);
  for (std::size_t i = 0; i < n2; i += 2) {
    const vpack4d va = vpack4d::load(ap + 2 * i);
    const vpack4d vb = vpack4d::load(bp + 2 * i);
    acc_rr = acc_rr + va * vb;
    acc_ri = acc_ri + va * swap_pairs(vb);
  }
  double lr[4];
  double li[4];
  lanes(acc_rr, lr);
  lanes(acc_ri, li);
  double re = (lr[0] + lr[1]) + (lr[2] + lr[3]);
  double im = (li[0] - li[1]) + (li[2] - li[3]);
  for (std::size_t i = n2; i < n; ++i) {
    const Complex t = std::conj(a[i]) * b[i];
    re += t.real();
    im += t.imag();
  }
  return Complex{re, im};
}

double sum_sq_real(std::size_t n, const double* x) { return avx2::dot_real(n, x, x); }

double sum_norm_cplx(std::size_t n, const Complex* x) {
  // |z|^2 summed over interleaved lanes == sum of squares of 2n doubles.
  return avx2::sum_sq_real(2 * n, as_doubles(x));
}

CorrStats corr_stats_split(std::size_t n, const double* ref_re, const double* ref_im,
                           const double* x_re, const double* x_im) {
  const std::size_t n4 = n & ~std::size_t{3};
  vpack4d a_re = vpack4d::zero();
  vpack4d a_im = vpack4d::zero();
  vpack4d a_wr = vpack4d::zero();
  vpack4d a_wi = vpack4d::zero();
  vpack4d a_e = vpack4d::zero();
  for (std::size_t i = 0; i < n4; i += 4) {
    const vpack4d rr = vpack4d::load(ref_re + i);
    const vpack4d ri = vpack4d::load(ref_im + i);
    const vpack4d xr = vpack4d::load(x_re + i);
    const vpack4d xi = vpack4d::load(x_im + i);
    a_re = a_re + rr * xr + ri * xi;
    a_im = a_im + rr * xi - ri * xr;
    a_wr = a_wr + xr;
    a_wi = a_wi + xi;
    a_e = a_e + xr * xr + xi * xi;
  }
  double re = reduce_add(a_re);
  double im = reduce_add(a_im);
  double wr = reduce_add(a_wr);
  double wi = reduce_add(a_wi);
  double we = reduce_add(a_e);
  for (std::size_t i = n4; i < n; ++i) {
    const double xr = x_re[i];
    const double xi = x_im[i];
    re += ref_re[i] * xr + ref_im[i] * xi;
    im += ref_re[i] * xi - ref_im[i] * xr;
    wr += xr;
    wi += xi;
    we += xr * xr + xi * xi;
  }
  return CorrStats{Complex{re, im}, Complex{wr, wi}, we};
}

double dfe_score(std::size_t n, const Complex* residual, const CTerm* terms,
                 std::size_t n_terms) {
  if (n_terms > kMaxDfeTerms) return scalar::dfe_score(n, residual, terms, n_terms);
  vpack4d wr[kMaxDfeTerms];
  vpack4d wi[kMaxDfeTerms];
  for (std::size_t t = 0; t < n_terms; ++t) {
    wr[t] = vpack4d::broadcast(terms[t].w.real());
    wi[t] = vpack4d::broadcast(terms[t].w.imag());
  }
  const std::size_t n2 = n & ~std::size_t{1};
  const double* rp = as_doubles(residual);
  vpack4d acc = vpack4d::zero();
  for (std::size_t k = 0; k < n2; k += 2) {
    vpack4d e = vpack4d::load(rp + 2 * k);
    for (std::size_t t = 0; t < n_terms; ++t) {
      const vpack4d tm = vpack4d::load(as_doubles(terms[t].tmpl) + 2 * k);
      e = e - (wr[t] * tm + neg_even(wi[t] * swap_pairs(tm)));
    }
    acc = acc + e * e;
  }
  double score = reduce_add(acc);
  if (n2 != n) {
    // Re-base each template at the tail element before handing off.
    CTerm tail[kMaxDfeTerms];
    for (std::size_t t = 0; t < n_terms; ++t) tail[t] = {terms[t].tmpl + n2, terms[t].w};
    score += scalar::dfe_score(1, residual + n2, tail, n_terms);
  }
  return score;
}

Complex fir_dot(std::size_t nt, const double* taps_rev, const Complex* xw) {
  const std::size_t n2 = nt & ~std::size_t{1};
  vpack4d acc = vpack4d::zero();
  const double* xp = as_doubles(xw);
  for (std::size_t k = 0; k < n2; k += 2) {
    acc = acc + vpack4d::load(xp + 2 * k) * load_dup2(taps_rev + k);
  }
  double l[4];
  lanes(acc, l);
  double re = l[0] + l[2];
  double im = l[1] + l[3];
  for (std::size_t k = n2; k < nt; ++k) {
    re += xw[k].real() * taps_rev[k];
    im += xw[k].imag() * taps_rev[k];
  }
  return Complex{re, im};
}

}  // namespace rt::kernels::avx2
