#pragma once

/// \file monomial.hpp
/// Sparse monomials c * x_{i1}^{a1} ... x_{ik}^{ak} with a sorted support
/// of distinct variables, every exponent >= 1.  This is the (C, A) tuple
/// representation of the paper's problem statement (equation (1)).

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "cplx/complex.hpp"

namespace polyeval::poly {

/// One variable-power factor x_{var}^{exp} of a monomial; exp >= 1.
struct VarPower {
  unsigned var = 0;
  unsigned exp = 1;
  friend bool operator==(const VarPower&, const VarPower&) = default;
};

/// A coefficient together with its support.  Coefficients are stored in
/// hardware doubles (systems are *given* in double precision; extended
/// precision enters through the evaluation point), matching the paper's
/// path-tracking setting.
class Monomial {
 public:
  Monomial(cplx::Complex<double> coefficient, std::vector<VarPower> factors);

  [[nodiscard]] const cplx::Complex<double>& coefficient() const noexcept {
    return coefficient_;
  }
  [[nodiscard]] const std::vector<VarPower>& factors() const noexcept { return factors_; }

  /// Number of distinct variables (the paper's k).
  [[nodiscard]] unsigned support_size() const noexcept {
    return static_cast<unsigned>(factors_.size());
  }
  /// Largest exponent of any variable (bounded by the paper's d).
  [[nodiscard]] unsigned max_exponent() const noexcept;
  /// Sum of all exponents; the constructor rejects sums past UINT_MAX.
  [[nodiscard]] unsigned total_degree() const noexcept;
  /// Smallest dimension n for which this monomial is well formed.
  [[nodiscard]] unsigned min_dimension() const noexcept;

  /// True if x_{var} appears in the support.
  [[nodiscard]] bool contains(unsigned var) const noexcept;
  /// Exponent of x_{var}, 0 if absent.
  [[nodiscard]] unsigned exponent_of(unsigned var) const noexcept;

  /// Naive evaluation by repeated multiplication -- the independent test
  /// oracle against the common-factor / Speelpenning pipeline.
  template <prec::RealScalar T>
  [[nodiscard]] cplx::Complex<T> evaluate(std::span<const cplx::Complex<T>> x) const {
    auto value = cplx::Complex<T>::from_double(coefficient_);
    for (const auto& f : factors_) {
      for (unsigned e = 0; e < f.exp; ++e) value *= x[f.var];
    }
    return value;
  }

  /// Naive partial derivative with respect to x_{var} (0 if absent).
  /// The exponent factor is folded in the working precision, so extended
  /// precisions keep their full accuracy in Jacobian entries.
  template <prec::RealScalar T>
  [[nodiscard]] cplx::Complex<T> evaluate_derivative(std::span<const cplx::Complex<T>> x,
                                                     unsigned var) const {
    const unsigned a = exponent_of(var);
    if (a == 0) return {};
    auto value = cplx::Complex<T>::from_double(coefficient_) *
                 prec::ScalarTraits<T>::from_double(static_cast<double>(a));
    for (const auto& f : factors_) {
      const unsigned e = f.var == var ? f.exp - 1 : f.exp;
      for (unsigned i = 0; i < e; ++i) value *= x[f.var];
    }
    return value;
  }

  friend bool operator==(const Monomial&, const Monomial&) = default;

 private:
  cplx::Complex<double> coefficient_;
  std::vector<VarPower> factors_;
};

}  // namespace polyeval::poly
