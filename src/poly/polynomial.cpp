#include "poly/polynomial.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace polyeval::poly {

Monomial::Monomial(cplx::Complex<double> coefficient, std::vector<VarPower> factors)
    : coefficient_(coefficient), factors_(std::move(factors)) {
  std::sort(factors_.begin(), factors_.end(),
            [](const VarPower& a, const VarPower& b) { return a.var < b.var; });
  std::uint64_t degree = 0;  // 64 bits: the unsigned sum could wrap
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    if (factors_[i].exp == 0)
      throw std::invalid_argument("Monomial: exponent must be >= 1");
    if (i > 0 && factors_[i].var == factors_[i - 1].var)
      throw std::invalid_argument("Monomial: duplicate variable in support");
    degree += factors_[i].exp;
    if (degree > std::numeric_limits<unsigned>::max())
      throw std::invalid_argument("Monomial: total degree exceeds UINT_MAX");
  }
}

unsigned Monomial::max_exponent() const noexcept {
  unsigned m = 0;
  for (const auto& f : factors_) m = std::max(m, f.exp);
  return m;
}

unsigned Monomial::total_degree() const noexcept {
  unsigned t = 0;
  for (const auto& f : factors_) t += f.exp;
  return t;
}

unsigned Monomial::min_dimension() const noexcept {
  return factors_.empty() ? 0 : factors_.back().var + 1;
}

bool Monomial::contains(unsigned var) const noexcept { return exponent_of(var) != 0; }

unsigned Monomial::exponent_of(unsigned var) const noexcept {
  for (const auto& f : factors_) {
    if (f.var == var) return f.exp;
    if (f.var > var) break;
  }
  return 0;
}

Polynomial::Polynomial(unsigned num_vars, std::vector<Monomial> monomials)
    : num_vars_(num_vars), monomials_(std::move(monomials)) {
  for (const auto& mono : monomials_) {
    if (mono.min_dimension() > num_vars_)
      throw std::invalid_argument("Polynomial: monomial variable out of range");
  }
}

unsigned Polynomial::degree() const noexcept {
  unsigned d = 0;
  for (const auto& mono : monomials_) d = std::max(d, mono.total_degree());
  return d;
}

PolynomialBuilder& PolynomialBuilder::add_term(cplx::Complex<double> c,
                                               const std::vector<unsigned>& exps) {
  if (exps.size() != num_vars_)
    throw std::invalid_argument("PolynomialBuilder: exponent vector has wrong length");
  auto [it, inserted] = terms_.try_emplace(exps, c);
  if (!inserted) it->second += c;
  return *this;
}

PolynomialBuilder& PolynomialBuilder::add_constant(cplx::Complex<double> c) {
  return add_term(c, std::vector<unsigned>(num_vars_, 0));
}

Polynomial PolynomialBuilder::build() const {
  std::vector<Monomial> monos;
  monos.reserve(terms_.size());
  for (const auto& [exps, coeff] : terms_) {
    if (coeff == cplx::Complex<double>{}) continue;  // exact cancellation
    std::vector<VarPower> factors;
    for (unsigned v = 0; v < num_vars_; ++v) {
      if (exps[v] > 0) factors.push_back({v, exps[v]});
    }
    monos.emplace_back(coeff, std::move(factors));
  }
  return {num_vars_, std::move(monos)};
}

}  // namespace polyeval::poly
