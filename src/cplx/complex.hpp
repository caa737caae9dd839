#pragma once

/// \file complex.hpp
/// Complex numbers over an arbitrary real scalar (double, DoubleDouble,
/// QuadDouble).  std::complex only guarantees behaviour for the three
/// built-in floating types, so the multiprecision pipeline uses this type.
///
/// Multiplication is the textbook 4M+2A form -- the operation the paper's
/// cost model counts ("complex double multiplications").

#include <cmath>
#include <iosfwd>
#include <sstream>

#include "prec/random.hpp"
#include "prec/scalar_traits.hpp"

namespace polyeval::cplx {

using prec::RealScalar;
using prec::ScalarTraits;

template <RealScalar T>
class Complex {
 public:
  constexpr Complex() noexcept = default;
  constexpr Complex(T re) noexcept : re_(re) {}  // NOLINT(google-explicit-constructor)
  constexpr Complex(T re, T im) noexcept : re_(re), im_(im) {}

  [[nodiscard]] constexpr const T& re() const noexcept { return re_; }
  [[nodiscard]] constexpr const T& im() const noexcept { return im_; }

  /// Truncate both parts to hardware doubles.
  [[nodiscard]] Complex<double> to_double() const noexcept {
    return {ScalarTraits<T>::to_double(re_), ScalarTraits<T>::to_double(im_)};
  }

  /// Widen a double-precision complex into this scalar type.
  [[nodiscard]] static Complex from_double(const Complex<double>& z) noexcept {
    return {ScalarTraits<T>::from_double(z.re()), ScalarTraits<T>::from_double(z.im())};
  }

  Complex& operator+=(const Complex& b) noexcept { return *this = *this + b; }
  Complex& operator-=(const Complex& b) noexcept { return *this = *this - b; }
  Complex& operator*=(const Complex& b) noexcept { return *this = *this * b; }
  Complex& operator/=(const Complex& b) noexcept { return *this = *this / b; }

  friend Complex operator-(const Complex& a) noexcept { return {-a.re_, -a.im_}; }
  friend Complex operator+(const Complex& a, const Complex& b) noexcept {
    return {a.re_ + b.re_, a.im_ + b.im_};
  }
  friend Complex operator-(const Complex& a, const Complex& b) noexcept {
    return {a.re_ - b.re_, a.im_ - b.im_};
  }
  friend Complex operator*(const Complex& a, const Complex& b) noexcept {
    return {a.re_ * b.re_ - a.im_ * b.im_, a.re_ * b.im_ + a.im_ * b.re_};
  }

  /// Smith's algorithm: scales by the dominant component to avoid
  /// overflow/underflow of the naive quotient.
  friend Complex operator/(const Complex& a, const Complex& b) noexcept {
    if (ScalarTraits<T>::abs(b.re_) >= ScalarTraits<T>::abs(b.im_)) {
      const T r = b.im_ / b.re_;
      const T den = b.re_ + r * b.im_;
      return {(a.re_ + a.im_ * r) / den, (a.im_ - a.re_ * r) / den};
    }
    const T r = b.re_ / b.im_;
    const T den = b.im_ + r * b.re_;
    return {(a.re_ * r + a.im_) / den, (a.im_ * r - a.re_) / den};
  }

  friend Complex operator*(const Complex& a, const T& s) noexcept {
    return {a.re_ * s, a.im_ * s};
  }
  friend Complex operator*(const T& s, const Complex& a) noexcept { return a * s; }

  friend bool operator==(const Complex& a, const Complex& b) noexcept {
    return a.re_ == b.re_ && a.im_ == b.im_;
  }

 private:
  T re_{};
  T im_{};
};

/// |z|^2 = re^2 + im^2 (no square root; preferred for comparisons).
template <RealScalar T>
[[nodiscard]] T norm_sqr(const Complex<T>& z) noexcept {
  return z.re() * z.re() + z.im() * z.im();
}

/// Euclidean modulus.
template <RealScalar T>
[[nodiscard]] T abs(const Complex<T>& z) noexcept {
  return ScalarTraits<T>::sqrt(norm_sqr(z));
}

/// 1-norm |re| + |im|: a cheap magnitude for pivot selection.
template <RealScalar T>
[[nodiscard]] T norm1(const Complex<T>& z) noexcept {
  return ScalarTraits<T>::abs(z.re()) + ScalarTraits<T>::abs(z.im());
}

template <RealScalar T>
[[nodiscard]] Complex<T> conj(const Complex<T>& z) noexcept {
  return {z.re(), -z.im()};
}

/// Maximum componentwise distance, as a hardware double (test helper);
/// NaN when either component distance is NaN.
template <RealScalar T>
[[nodiscard]] double max_abs_diff(const Complex<T>& a, const Complex<T>& b) noexcept {
  const double dr = ScalarTraits<T>::to_double(ScalarTraits<T>::abs(a.re() - b.re()));
  const double di = ScalarTraits<T>::to_double(ScalarTraits<T>::abs(a.im() - b.im()));
  return dr > di || std::isnan(dr) ? dr : di;
}

template <RealScalar T>
std::ostream& operator<<(std::ostream& os, const Complex<T>& z) {
  std::ostringstream tmp;
  tmp << "(" << z.re() << (z.im() < T(0.0) ? " - " : " + ")
      << ScalarTraits<T>::abs(z.im()) << "*i)";
  return os << tmp.str();
}

/// Random complex numbers with both parts uniform in [-1, 1].
template <RealScalar T>
class UniformComplex {
 public:
  explicit UniformComplex(std::uint64_t seed) : real_(seed), imag_(seed ^ 0x9e3779b97f4a7c15ull) {}
  Complex<T> operator()() { return {real_(), imag_()}; }

 private:
  prec::UniformScalar<T> real_;
  prec::UniformScalar<T> imag_;
};

}  // namespace polyeval::cplx
