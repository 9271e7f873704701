// Thin-QR (modified Gram-Schmidt) least squares over real or complex scalars.
//
// The receiver solves many small least-squares problems per packet: the
// preamble rotation regression (a, b, c in C), per-symbol regression in the
// DFE, and the online channel-training coefficient solve. QR on the
// augmented system is numerically safer than normal equations for the
// ill-conditioned tail-effect bases, at negligible cost at these sizes.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/matrix.h"

namespace rt::linalg {

namespace detail {

// Kernel-dispatched y[k] -= a * x[k] (the MGS projection update).
inline void axpy_sub(std::size_t n, double a, const double* x, double* y) {
  kernels::axpy_sub_real(n, a, x, y);
}
inline void axpy_sub(std::size_t n, std::complex<double> a, const std::complex<double>* x,
                     std::complex<double>* y) {
  kernels::axpy_sub_cplx(n, a, x, y);
}

}  // namespace detail

/// Scratch for the thin-QR least-squares solve. A workspace held across
/// packets stops allocating once it has seen the largest problem size;
/// every buffer is fully overwritten per solve, so reuse cannot leak state
/// between solves.
///
/// Q is stored column-major (column j at q[j*m .. j*m+m)), so the MGS
/// projections run over contiguous spans.
template <typename T>
struct LsWorkspace {
  std::vector<T> q;     ///< m x n orthonormal columns, column-major
  Matrix<T> r;          ///< n x n upper triangular
  std::vector<T> work;  ///< m x n column-major copy of A (mutated by MGS)
  std::vector<T> y;     ///< n rhs projection Q^H b
  std::vector<T> x;     ///< n solution
  std::size_t m = 0;    ///< rows of the last decomposed A
  std::size_t n = 0;    ///< cols of the last decomposed A
};

namespace detail {

/// MGS with reorthogonalization over the column-major ws.work copy of A
/// (dimensions already in ws.m/ws.n, ws.q/ws.r already sized). Shared by
/// the row-major and column-major QR entry points.
template <typename T>
void mgs_on_workspace(LsWorkspace<T>& ws) {
  const std::size_t m = ws.m;
  const std::size_t n = ws.n;
  for (std::size_t j = 0; j < n; ++j) {
    const std::span<T> v(ws.work.data() + j * m, m);
    const double original_norm = norm<T>(v);
    // Two MGS passes for numerical robustness; both projections accumulate
    // into R (iterative reorthogonalization).
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < j; ++i) {
        const std::span<const T> qi(ws.q.data() + i * m, m);
        const T proj = dot<T>(qi, v);
        ws.r(i, j) += proj;
        detail::axpy_sub(m, proj, qi.data(), v.data());
      }
    }
    const double nv = norm<T>(std::span<const T>(v));
    // Relative rank test: a column (numerically) inside the span of its
    // predecessors makes the system rank deficient.
    RT_ENSURE(nv > 1e-300 && nv > 1e-10 * original_norm, "QR: rank-deficient matrix");
    ws.r(j, j) = T{nv};
    for (std::size_t k = 0; k < m; ++k) ws.q[j * m + k] = v[k] / T{nv};
  }
}

}  // namespace detail

/// Thin QR via modified Gram-Schmidt with reorthogonalization, into a
/// reusable workspace (Q in ws.q, R in ws.r). Requires rows >= cols and
/// full column rank. The only heap traffic is growth of the workspace
/// buffers on first use.
template <typename T>
void qr_decompose_into(const Matrix<T>& a, LsWorkspace<T>& ws) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  RT_ENSURE(m >= n, "QR requires rows >= cols");
  ws.m = m;
  ws.n = n;
  ws.q.resize(m * n);
  ws.r.resize(n, n);
  ws.work.resize(m * n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t k = 0; k < m; ++k) ws.work[j * m + k] = a(k, j);
  detail::mgs_on_workspace(ws);
}

/// qr_decompose_into() for a design matrix that is ALREADY column-major
/// (column j occupies a_cm[j*m .. j*m+m)). Skips the row-major transpose
/// copy; the MGS arithmetic -- and therefore the result -- is bit-identical
/// to the row-major entry point on the same matrix.
template <typename T>
void qr_decompose_cm_into(std::span<const T> a_cm, std::size_t m, std::size_t n,
                          LsWorkspace<T>& ws) {
  RT_ENSURE(m >= n, "QR requires rows >= cols");
  RT_ENSURE(a_cm.size() == m * n, "qr_decompose_cm_into size mismatch");
  ws.m = m;
  ws.n = n;
  ws.q.resize(m * n);
  ws.r.resize(n, n);
  ws.work.assign(a_cm.begin(), a_cm.end());
  detail::mgs_on_workspace(ws);
}

/// Solves min ||A x - b|| for the A last passed to qr_decompose_into.
/// Returns a span over ws.x (valid until the next solve). Reusing the
/// decomposition amortizes QR across multiple right-hand sides.
template <typename T>
[[nodiscard]] std::span<const T> solve_after_qr(std::span<const T> b, LsWorkspace<T>& ws) {
  RT_ENSURE(b.size() == ws.m, "solve_after_qr dimension mismatch");
  const std::size_t m = ws.m;
  const std::size_t n = ws.n;
  ws.y.resize(n);
  for (std::size_t j = 0; j < n; ++j)
    ws.y[j] = dot<T>(std::span<const T>(ws.q.data() + j * m, m), b);
  ws.x.resize(n);
  for (std::size_t ii = 0; ii < n; ++ii) {
    const std::size_t i = n - 1 - ii;
    T s = ws.y[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= ws.r(i, j) * ws.x[j];
    RT_ENSURE(abs_sq(ws.r(i, i)) > 0.0, "solve_after_qr: singular R");
    ws.x[i] = s / ws.r(i, i);
  }
  return ws.x;
}

/// Minimizes ||A x - b||_2 by thin QR, with zero steady-state
/// allocations. Returns a span over ws.x (valid until the next solve).
template <typename T>
[[nodiscard]] std::span<const T> solve_least_squares_into(const Matrix<T>& a,
                                                          std::span<const T> b,
                                                          LsWorkspace<T>& ws) {
  RT_ENSURE(a.rows() == b.size(), "solve_least_squares dimension mismatch");
  qr_decompose_into(a, ws);
  return solve_after_qr(b, ws);
}

/// Residual norm ||A x - b||_2 for a candidate solution. Accumulates row
/// by row without materializing A*x (hot paths call this per packet).
template <typename T>
[[nodiscard]] double residual_norm(const Matrix<T>& a, std::span<const T> x,
                                   std::span<const T> b) {
  RT_ENSURE(a.cols() == x.size(), "residual_norm dimension mismatch");
  RT_ENSURE(a.rows() == b.size(), "residual_norm dimension mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    T ax;
    if constexpr (detail::is_complex<T>::value) {
      ax = kernels::cdotu(row.size(), row.data(), x.data());
    } else {
      ax = kernels::dot_real(row.size(), row.data(), x.data());
    }
    s += abs_sq(ax - b[i]);
  }
  return std::sqrt(s);
}

}  // namespace rt::linalg
