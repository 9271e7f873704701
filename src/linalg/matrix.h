// Dense row-major matrix over real or complex scalars.
//
// RetroTurbo needs only small/medium dense problems: the offline-training
// matrix E is (2^V * m) x n with n ~ tens of orientations, and the online
// training solves ~2*S*L unknowns. A simple, well-tested dense type keeps
// the whole system dependency-free.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "kernels/kernels.h"

namespace rt::linalg {

namespace detail {

template <typename T>
struct is_complex : std::false_type {};
template <typename T>
struct is_complex<std::complex<T>> : std::true_type {};

}  // namespace detail

/// Complex conjugate that is the identity for real scalars.
template <typename T>
[[nodiscard]] constexpr T conj_if_complex(const T& v) {
  if constexpr (detail::is_complex<T>::value) {
    return std::conj(v);
  } else {
    return v;
  }
}

/// |v|^2 valid for both real and complex scalars.
template <typename T>
[[nodiscard]] constexpr double abs_sq(const T& v) {
  if constexpr (detail::is_complex<T>::value) {
    return std::norm(v);
  } else {
    return static_cast<double>(v) * static_cast<double>(v);
  }
}

template <typename T>
class Matrix {
  static_assert(std::is_same_v<T, double> || std::is_same_v<T, std::complex<double>>,
                "Matrix supports double and std::complex<double>");

 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from row-major initializer data; `data.size()` must be rows*cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<T> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    RT_ENSURE(data_.size() == rows_ * cols_, "matrix data size mismatch");
  }

  /// Reshapes to rows x cols and zero-fills. Reuses the existing heap
  /// buffer whenever capacity allows, so workspace-held matrices stop
  /// allocating once they have seen their largest problem size.
  void resize(std::size_t rows, std::size_t cols, T fill = T{}) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  [[nodiscard]] static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t r, std::size_t c) {
    RT_ENSURE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const {
    RT_ENSURE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<T> row(std::size_t r) {
    RT_ENSURE(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t r) const {
    RT_ENSURE(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] Matrix transpose() const {
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
    return out;
  }

  /// Conjugate transpose (plain transpose for real scalars).
  [[nodiscard]] Matrix adjoint() const {
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) out(c, r) = conj_if_complex((*this)(r, c));
    return out;
  }

  [[nodiscard]] Matrix operator*(const Matrix& rhs) const {
    RT_ENSURE(cols_ == rhs.rows_, "matrix multiply dimension mismatch");
    Matrix out(rows_, rhs.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t k = 0; k < cols_; ++k) {
        const T a = (*this)(r, k);
        if (a == T{}) continue;
        for (std::size_t c = 0; c < rhs.cols_; ++c) out(r, c) += a * rhs(k, c);
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<T> operator*(std::span<const T> v) const {
    RT_ENSURE(cols_ == v.size(), "matrix-vector dimension mismatch");
    std::vector<T> out(rows_, T{});
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) out[r] += (*this)(r, c) * v[c];
    return out;
  }

  [[nodiscard]] Matrix operator+(const Matrix& rhs) const {
    RT_ENSURE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "matrix add dimension mismatch");
    Matrix out = *this;
    for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
    return out;
  }

  [[nodiscard]] Matrix operator-(const Matrix& rhs) const {
    RT_ENSURE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "matrix subtract dimension mismatch");
    Matrix out = *this;
    for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
    return out;
  }

  [[nodiscard]] Matrix operator*(T scalar) const {
    Matrix out = *this;
    for (auto& v : out.data_) v *= scalar;
    return out;
  }

  [[nodiscard]] double frobenius_norm() const {
    double s = 0.0;
    for (const auto& v : data_) s += abs_sq(v);
    return std::sqrt(s);
  }

  [[nodiscard]] std::span<const T> data() const { return data_; }
  [[nodiscard]] std::span<T> data() { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using RealMatrix = Matrix<double>;
using ComplexMatrix = Matrix<std::complex<double>>;

/// Inner product <a, b> = sum conj(a_i) * b_i. Dispatches to the kernel
/// layer (src/kernels), which sums in its four-lane order on every
/// backend.
template <typename T>
[[nodiscard]] T dot(std::span<const T> a, std::span<const T> b) {
  RT_ENSURE(a.size() == b.size(), "dot dimension mismatch");
  if constexpr (detail::is_complex<T>::value) {
    return kernels::cdotc(a.size(), a.data(), b.data());
  } else {
    return kernels::dot_real(a.size(), a.data(), b.data());
  }
}

/// Euclidean norm of a vector (kernel-dispatched, see dot()).
template <typename T>
[[nodiscard]] double norm(std::span<const T> v) {
  if constexpr (detail::is_complex<T>::value) {
    return std::sqrt(kernels::sum_norm_cplx(v.size(), v.data()));
  } else {
    return std::sqrt(kernels::sum_sq_real(v.size(), v.data()));
  }
}

}  // namespace rt::linalg
