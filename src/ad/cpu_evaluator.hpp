#pragma once

/// \file cpu_evaluator.hpp
/// Sequential reference evaluator: the "1 CPU core" baseline of the
/// paper's tables.  Uses exactly the same three-stage algorithm as the
/// GPU pipeline (powers table -> common factors -> Speelpenning products
/// with coefficient folding -> summation), so results agree bit-for-bit
/// in the same precision, while multiplication counts follow the paper's
/// closed forms.
///
/// Unlike the GPU pipeline it accepts non-uniform systems (per-monomial
/// support sizes may differ), which the homotopy substrate needs.

#include <algorithm>
#include <span>
#include <vector>

#include "ad/op_count.hpp"
#include "ad/speelpenning.hpp"
#include "poly/eval_result.hpp"
#include "poly/system.hpp"

namespace polyeval::ad {

template <prec::RealScalar S>
class CpuEvaluator {
  using C = cplx::Complex<S>;

 public:
  explicit CpuEvaluator(const poly::PolynomialSystem& system) : n_(system.dimension()) {
    for (unsigned p = 0; p < n_; ++p) {
      for (const auto& mono : system.polynomial(p).monomials()) {
        PackedMonomial pm;
        pm.poly = p;
        pm.coeff = C::from_double(mono.coefficient());
        for (const auto& f : mono.factors()) {
          pm.vars.push_back(f.var);
          pm.exps.push_back(f.exp);
          // exponent factor folded in the working precision (exact for
          // double, full-accuracy for dd/qd)
          pm.deriv_coeffs.push_back(
              C::from_double(mono.coefficient()) *
              prec::ScalarTraits<S>::from_double(static_cast<double>(f.exp)));
          max_exp_ = std::max(max_exp_, f.exp);
          max_k_ = std::max<std::size_t>(max_k_, pm.vars.size());
        }
        monomials_.push_back(std::move(pm));
      }
    }
  }

  [[nodiscard]] unsigned dimension() const noexcept { return n_; }

  /// Evaluate values and Jacobian at x; out is resized to dimension().
  void evaluate(std::span<const C> x, poly::EvalResult<S>& out) const {
    out.resize(n_);
    last_ops_ = {};
    fill_powers(x);

    gathered_.resize(max_k_);
    derivs_.resize(max_k_);

    for (const auto& pm : monomials_) {
      const std::size_t k = pm.vars.size();
      if (k == 0) {  // constant monomial: contributes only to the value
        out.values[pm.poly] += pm.coeff;
        ++last_ops_.complex_add;
        continue;
      }

      // Stage one, part two: the common factor prod x_{ij}^{a_ij - 1}.
      const C cf = common_factor(pm);

      // Stage two: Speelpenning product derivatives.
      for (std::size_t j = 0; j < k; ++j) gathered_[j] = x[pm.vars[j]];
      const auto v = std::span<const C>(gathered_.data(), k);
      const auto g = std::span<C>(derivs_.data(), k);
      last_ops_.complex_mul += speelpenning_gradient(v, g);

      // Monomial derivatives: common factor times Speelpenning derivatives.
      if (k == 1) {
        derivs_[0] = cf;  // dP/dv = 1: the derivative is the factor itself
      } else {
        for (std::size_t j = 0; j < k; ++j) {
          derivs_[j] = derivs_[j] * cf;
          ++last_ops_.complex_mul;
        }
      }
      // Monomial value from its last derivative.
      const C value = derivs_[k - 1] * gathered_[k - 1];
      ++last_ops_.complex_mul;

      // Stage three (fused on CPU): coefficient products and summation,
      // skipping the structural zeros a GPU thread would add.
      out.values[pm.poly] += value * pm.coeff;
      ++last_ops_.complex_mul;
      ++last_ops_.complex_add;
      for (std::size_t j = 0; j < k; ++j) {
        out.jacobian[static_cast<std::size_t>(pm.poly) * n_ + pm.vars[j]] +=
            derivs_[j] * pm.deriv_coeffs[j];
        ++last_ops_.complex_mul;
        ++last_ops_.complex_add;
      }
    }
  }

  [[nodiscard]] poly::EvalResult<S> evaluate(std::span<const C> x) const {
    poly::EvalResult<S> out(n_);
    evaluate(x, out);
    return out;
  }

  /// Values only, no derivative work: f_p(x) into values[p] -- used by
  /// perfbench's quad-double endpoint check and the evaluator tests.
  /// Every value repeats the full evaluate()'s arithmetic operation for
  /// operation (powers table, common factor, the forward prefix
  /// v_0..v_{k-2} that evaluate() holds in derivs[k-1], then * cf,
  /// * v_{k-1}, * coefficient, summed in monomial order), so results
  /// are BITWISE equal to evaluate().values.
  void evaluate_values(std::span<const C> x, std::span<C> values) const {
    if (values.size() < n_)
      throw std::invalid_argument("CpuEvaluator: values span too small");
    std::fill_n(values.begin(), n_, C{});
    last_ops_ = {};
    fill_powers(x);

    for (const auto& pm : monomials_) {
      const std::size_t k = pm.vars.size();
      if (k == 0) {
        values[pm.poly] += pm.coeff;
        ++last_ops_.complex_add;
        continue;
      }

      const C cf = common_factor(pm);

      // evaluate()'s value: ((v_0..v_{k-2}) * cf) * v_{k-1}; k == 1
      // degenerates to cf * v_0 (the derivative IS the factor).
      C p = cf;
      if (k >= 2) {
        p = x[pm.vars[0]];
        for (std::size_t j = 2; j < k; ++j) {
          p = p * x[pm.vars[j - 1]];
          ++last_ops_.complex_mul;
        }
        p = p * cf;
        ++last_ops_.complex_mul;
      }
      const C value = p * x[pm.vars[k - 1]];
      ++last_ops_.complex_mul;

      values[pm.poly] += value * pm.coeff;
      ++last_ops_.complex_mul;
      ++last_ops_.complex_add;
    }
  }

  /// Operation tallies of the most recent evaluate() call.
  [[nodiscard]] const OpCounts& last_op_counts() const noexcept { return last_ops_; }

 private:
  struct PackedMonomial {
    unsigned poly = 0;
    C coeff;
    std::vector<unsigned> vars;
    std::vector<unsigned> exps;
    std::vector<C> deriv_coeffs;
  };

  /// Stage one, part one: tabulate powers 0..d-1 of every variable
  /// (row 0 = ones, row 1 = the variable, as in the shared-memory
  /// Powers array of the first kernel).  The ONE copy shared by
  /// evaluate() and evaluate_values(), so the values-only path's
  /// bitwise contract holds by construction.
  void fill_powers(std::span<const C> x) const {
    const unsigned d = std::max(max_exp_, 1u);
    powers_.assign(static_cast<std::size_t>(d) * n_, C(S(1.0)));
    if (d >= 2) {
      for (unsigned v = 0; v < n_; ++v) powers_[n_ + v] = x[v];
      for (unsigned e = 2; e < d; ++e) {
        for (unsigned v = 0; v < n_; ++v) {
          powers_[static_cast<std::size_t>(e) * n_ + v] =
              powers_[static_cast<std::size_t>(e - 1) * n_ + v] * x[v];
          ++last_ops_.complex_mul;
        }
      }
    }
  }

  /// The common factor prod x_{ij}^{a_ij - 1} from the powers table --
  /// the matching shared copy of stage one, part two.
  [[nodiscard]] C common_factor(const PackedMonomial& pm) const {
    const std::size_t k = pm.vars.size();
    C cf = powers_[static_cast<std::size_t>(pm.exps[0] - 1) * n_ + pm.vars[0]];
    for (std::size_t j = 1; j < k; ++j) {
      cf = cf * powers_[static_cast<std::size_t>(pm.exps[j] - 1) * n_ + pm.vars[j]];
      ++last_ops_.complex_mul;
    }
    return cf;
  }

  unsigned n_;
  unsigned max_exp_ = 1;
  std::size_t max_k_ = 1;
  std::vector<PackedMonomial> monomials_;
  mutable std::vector<C> powers_;
  mutable std::vector<C> gathered_;
  mutable std::vector<C> derivs_;
  mutable OpCounts last_ops_;
};

}  // namespace polyeval::ad
