#pragma once

/// \file eval_result.hpp
/// Container for the output of one system evaluation: the n values
/// f(x) and the n x n Jacobian matrix Jf(x), row-major.

#include <cmath>
#include <vector>

#include "cplx/complex.hpp"

namespace polyeval::poly {

template <prec::RealScalar T>
struct EvalResult {
  std::vector<cplx::Complex<T>> values;    ///< f_p(x), p = 0..n-1
  std::vector<cplx::Complex<T>> jacobian;  ///< J[p*n + v] = df_p/dx_v

  explicit EvalResult(unsigned n = 0) { resize(n); }

  void resize(unsigned n) {
    values.assign(n, {});
    jacobian.assign(static_cast<std::size_t>(n) * n, {});
  }

  [[nodiscard]] unsigned dimension() const noexcept {
    return static_cast<unsigned>(values.size());
  }

  [[nodiscard]] const cplx::Complex<T>& jac(unsigned p, unsigned v) const {
    return jacobian[static_cast<std::size_t>(p) * dimension() + v];
  }
};

/// Largest componentwise discrepancy between two results (test helper);
/// NaN when any entry's distance is NaN.
template <prec::RealScalar T>
[[nodiscard]] double max_abs_diff(const EvalResult<T>& a, const EvalResult<T>& b) {
  double worst = 0.0;
  const auto fold = [&](double d) {
    if (d > worst || std::isnan(d)) worst = d;  // a NaN worst stays NaN
  };
  for (std::size_t i = 0; i < a.values.size(); ++i)
    fold(cplx::max_abs_diff(a.values[i], b.values[i]));
  for (std::size_t i = 0; i < a.jacobian.size(); ++i)
    fold(cplx::max_abs_diff(a.jacobian[i], b.jacobian[i]));
  return worst;
}

}  // namespace polyeval::poly
