// Unit + property tests for the dense linear algebra substrate.
#include <gtest/gtest.h>

#include <complex>

#include "common/rng.h"
#include "linalg/least_squares.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"

namespace rt::linalg {
namespace {

using Complex = std::complex<double>;

TEST(Matrix, BasicIndexingAndDims) {
  RealMatrix m(2, 3);
  m(0, 0) = 1.0;
  m(1, 2) = 5.0;
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_THROW((void)m(2, 0), PreconditionError);
}

TEST(Matrix, MultiplyKnownResult) {
  RealMatrix a(2, 2, {1, 2, 3, 4});
  RealMatrix b(2, 2, {5, 6, 7, 8});
  const auto c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, IdentityIsMultiplicativeNeutral) {
  Rng rng(5);
  RealMatrix a(4, 4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.gaussian();
  const auto i = RealMatrix::identity(4);
  EXPECT_NEAR((a * i - a).frobenius_norm(), 0.0, 1e-12);
  EXPECT_NEAR((i * a - a).frobenius_norm(), 0.0, 1e-12);
}

TEST(Matrix, AdjointConjugates) {
  ComplexMatrix m(1, 2, {Complex(1, 2), Complex(3, -4)});
  const auto a = m.adjoint();
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a(0, 0), Complex(1, -2));
  EXPECT_EQ(a(1, 0), Complex(3, 4));
}

TEST(Matrix, MatrixVectorProduct) {
  RealMatrix a(2, 3, {1, 0, 2, 0, 1, 3});
  const std::vector<double> v = {1, 2, 3};
  const auto y = a * std::span<const double>(v);
  EXPECT_DOUBLE_EQ(y[0], 7);
  EXPECT_DOUBLE_EQ(y[1], 11);
}

/// The workspace's column-major Q as an m x n matrix.
template <typename T>
Matrix<T> q_matrix(const LsWorkspace<T>& ws) {
  Matrix<T> q(ws.m, ws.n);
  for (std::size_t c = 0; c < ws.n; ++c)
    for (std::size_t r = 0; r < ws.m; ++r) q(r, c) = ws.q[c * ws.m + r];
  return q;
}

TEST(Qr, ReconstructsMatrix) {
  Rng rng(11);
  RealMatrix a(8, 4);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) a(r, c) = rng.gaussian();
  LsWorkspace<double> ws;
  ASSERT_TRUE(qr_decompose_into(a, ws));
  const auto q = q_matrix(ws);
  EXPECT_NEAR((q * ws.r - a).frobenius_norm(), 0.0, 1e-10);
  // Q columns orthonormal.
  const auto qtq = q.adjoint() * q;
  EXPECT_NEAR((qtq - RealMatrix::identity(4)).frobenius_norm(), 0.0, 1e-10);
}

TEST(Qr, ComplexReconstruction) {
  Rng rng(13);
  ComplexMatrix a(6, 3);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) a(r, c) = Complex(rng.gaussian(), rng.gaussian());
  LsWorkspace<Complex> ws;
  ASSERT_TRUE(qr_decompose_into(a, ws));
  const auto q = q_matrix(ws);
  EXPECT_NEAR((q * ws.r - a).frobenius_norm(), 0.0, 1e-10);
  const auto qhq = q.adjoint() * q;
  EXPECT_NEAR((qhq - ComplexMatrix::identity(3)).frobenius_norm(), 0.0, 1e-10);
}

TEST(Qr, RankDeficientReportsRankLoss) {
  RealMatrix a(3, 2, {1, 2, 2, 4, 3, 6});  // second column = 2 * first
  LsWorkspace<double> ws;
  EXPECT_FALSE(qr_decompose_into(a, ws));
  const std::vector<double> b = {1, 2, 3};
  EXPECT_TRUE(solve_least_squares_into(a, std::span<const double>(b), ws).empty());
}

TEST(LeastSquares, ExactSystemRecovered) {
  RealMatrix a(3, 3, {2, 0, 0, 0, 3, 0, 0, 0, 4});
  const std::vector<double> b = {2, 6, 12};
  LsWorkspace<double> ws;
  const auto x = solve_least_squares_into(a, std::span<const double>(b), ws);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(LeastSquares, OverdeterminedMinimizesResidual) {
  // Fit y = 2x + 1 with noise-free data plus one outlier direction check:
  // the LS solution of consistent data is exact.
  RealMatrix a(5, 2);
  std::vector<double> b(5);
  for (std::size_t i = 0; i < 5; ++i) {
    const double x = static_cast<double>(i);
    a(i, 0) = x;
    a(i, 1) = 1.0;
    b[i] = 2.0 * x + 1.0;
  }
  LsWorkspace<double> ws;
  const auto sol = solve_least_squares_into(a, std::span<const double>(b), ws);
  EXPECT_NEAR(sol[0], 2.0, 1e-10);
  EXPECT_NEAR(sol[1], 1.0, 1e-10);
  EXPECT_NEAR(residual_norm(a, sol, std::span<const double>(b)), 0.0, 1e-10);
}

TEST(LeastSquares, ComplexRegressionRecoversRotation) {
  // Model the preamble regression: Y = a X + b conj(X) + c.
  Rng rng(17);
  const Complex a_true = std::polar(1.3, 0.7);
  const Complex b_true(0.05, -0.02);
  const Complex c_true(0.4, 0.1);
  const std::size_t n = 64;
  ComplexMatrix design(n, 3);
  std::vector<Complex> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Complex x(rng.gaussian(), rng.gaussian());
    design(i, 0) = x;
    design(i, 1) = std::conj(x);
    design(i, 2) = Complex(1, 0);
    y[i] = a_true * x + b_true * std::conj(x) + c_true;
  }
  LsWorkspace<Complex> ws;
  const auto sol = solve_least_squares_into(design, std::span<const Complex>(y), ws);
  EXPECT_NEAR(std::abs(sol[0] - a_true), 0.0, 1e-10);
  EXPECT_NEAR(std::abs(sol[1] - b_true), 0.0, 1e-10);
  EXPECT_NEAR(std::abs(sol[2] - c_true), 0.0, 1e-10);
}

TEST(Svd, DiagonalMatrix) {
  RealMatrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = 2.0;
  a(2, 2) = 1.0;
  const auto s = svd(a);
  ASSERT_EQ(s.sigma.size(), 3u);
  EXPECT_NEAR(s.sigma[0], 3.0, 1e-10);
  EXPECT_NEAR(s.sigma[1], 2.0, 1e-10);
  EXPECT_NEAR(s.sigma[2], 1.0, 1e-10);
}

TEST(Svd, ReconstructsRandomMatrix) {
  Rng rng(23);
  RealMatrix a(20, 6);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) a(r, c) = rng.gaussian();
  const auto s = svd(a);
  // Rebuild A = U diag(sigma) V^T.
  RealMatrix us = s.u;
  for (std::size_t c = 0; c < s.sigma.size(); ++c)
    for (std::size_t r = 0; r < us.rows(); ++r) us(r, c) *= s.sigma[c];
  const auto rebuilt = us * s.v.transpose();
  EXPECT_NEAR((rebuilt - a).frobenius_norm() / a.frobenius_norm(), 0.0, 1e-9);
  // U, V orthonormal.
  EXPECT_NEAR((s.u.adjoint() * s.u - RealMatrix::identity(6)).frobenius_norm(), 0.0, 1e-9);
  EXPECT_NEAR((s.v.adjoint() * s.v - RealMatrix::identity(6)).frobenius_norm(), 0.0, 1e-9);
}

TEST(Svd, SingularValuesSortedDescending) {
  Rng rng(29);
  RealMatrix a(15, 5);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) a(r, c) = rng.gaussian();
  const auto s = svd(a);
  for (std::size_t i = 1; i < s.sigma.size(); ++i) EXPECT_LE(s.sigma[i], s.sigma[i - 1] + 1e-12);
}

TEST(Svd, TruncatedBasisCapturesLowRankStructure) {
  // Build a rank-2 matrix plus tiny noise; the top-2 basis must capture
  // almost all the energy (this is exactly the offline-training use case).
  Rng rng(31);
  std::vector<double> u1(40);
  std::vector<double> u2(40);
  for (auto& v : u1) v = rng.gaussian();
  for (auto& v : u2) v = rng.gaussian();
  RealMatrix e(40, 10);
  for (std::size_t c = 0; c < 10; ++c) {
    const double a1 = rng.gaussian();
    const double a2 = rng.gaussian();
    for (std::size_t r = 0; r < 40; ++r)
      e(r, c) = a1 * u1[r] + a2 * u2[r] + 1e-8 * rng.gaussian();
  }
  const auto s = svd(e);
  EXPECT_GT(s.sigma[1], 1e-4);
  EXPECT_LT(s.sigma[2], 1e-5);
  const auto basis = truncated_basis(s, 2);
  EXPECT_EQ(basis.cols(), 2u);
  // Projecting any column of E onto the basis reproduces it.
  std::vector<double> col(40);
  for (std::size_t r = 0; r < 40; ++r) col[r] = e(r, 3);
  const auto coeffs = basis.adjoint() * std::span<const double>(col);
  const auto approx = basis * std::span<const double>(coeffs);
  double err = 0.0;
  for (std::size_t r = 0; r < 40; ++r) err += (approx[r] - col[r]) * (approx[r] - col[r]);
  EXPECT_LT(std::sqrt(err), 1e-6);
}

}  // namespace
}  // namespace rt::linalg
