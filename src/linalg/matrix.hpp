#pragma once

/// \file matrix.hpp
/// Minimal dense complex matrices over any supported scalar, sized for
/// the Jacobians of Newton's method (tens of rows).

#include <span>
#include <stdexcept>
#include <vector>

#include "cplx/complex.hpp"

namespace polyeval::linalg {

template <prec::RealScalar T>
class Matrix {
  using C = cplx::Complex<T>;

 public:
  Matrix() = default;
  Matrix(unsigned rows, unsigned cols) : rows_(rows), cols_(cols), data_(std::size_t{rows} * cols) {}

  /// Wrap row-major data (e.g. an EvalResult Jacobian).
  static Matrix from_row_major(unsigned rows, unsigned cols, std::span<const C> data) {
    Matrix m(rows, cols);
    if (data.size() != m.data_.size())
      throw std::invalid_argument("Matrix: data size mismatch");
    std::copy(data.begin(), data.end(), m.data_.begin());
    return m;
  }

  [[nodiscard]] unsigned rows() const noexcept { return rows_; }
  [[nodiscard]] unsigned cols() const noexcept { return cols_; }

  [[nodiscard]] C& operator()(unsigned r, unsigned c) noexcept {
    return data_[std::size_t{r} * cols_ + c];
  }
  [[nodiscard]] const C& operator()(unsigned r, unsigned c) const noexcept {
    return data_[std::size_t{r} * cols_ + c];
  }

  [[nodiscard]] std::span<const C> data() const noexcept { return data_; }

  /// y = A x.
  [[nodiscard]] std::vector<C> multiply(std::span<const C> x) const {
    if (x.size() != cols_) throw std::invalid_argument("Matrix::multiply: size mismatch");
    std::vector<C> y(rows_);
    for (unsigned r = 0; r < rows_; ++r) {
      C sum{};
      for (unsigned c = 0; c < cols_; ++c) sum += (*this)(r, c) * x[c];
      y[r] = sum;
    }
    return y;
  }

 private:
  unsigned rows_ = 0, cols_ = 0;
  std::vector<C> data_;
};

/// Infinity norm of a complex vector, as the scalar type; NaN when any
/// component's norm is NaN (a residual that is NaN anywhere must never
/// read as small).
template <prec::RealScalar T>
[[nodiscard]] T max_norm(std::span<const cplx::Complex<T>> v) noexcept {
  T worst(0.0);
  for (const auto& z : v) {
    const T m = cplx::norm1(z);
    if (!(m == m)) return m;
    if (m > worst) worst = m;
  }
  return worst;
}

/// Infinity norm as a hardware double (for step control / reporting).
template <prec::RealScalar T>
[[nodiscard]] double max_norm_d(std::span<const cplx::Complex<T>> v) noexcept {
  return prec::ScalarTraits<T>::to_double(max_norm(v));
}

}  // namespace polyeval::linalg
