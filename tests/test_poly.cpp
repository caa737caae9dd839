// Polynomial representation: monomial validation, naive evaluation,
// derivatives, the builder's merging, and uniform-structure detection.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "poly/eval_result.hpp"
#include "poly/polynomial.hpp"
#include "poly/system.hpp"

namespace {

using namespace polyeval;
using cplx::Complex;
using poly::Monomial;
using poly::Polynomial;
using poly::PolynomialBuilder;
using poly::PolynomialSystem;
using poly::VarPower;

using Cd = Complex<double>;

TEST(Monomial, SortsFactorsByVariable) {
  const Monomial m(Cd{2.0, 0.0}, {{3, 1}, {0, 2}, {1, 5}});
  ASSERT_EQ(m.support_size(), 3u);
  EXPECT_EQ(m.factors()[0], (VarPower{0, 2}));
  EXPECT_EQ(m.factors()[1], (VarPower{1, 5}));
  EXPECT_EQ(m.factors()[2], (VarPower{3, 1}));
}

TEST(Monomial, RejectsZeroExponent) {
  EXPECT_THROW(Monomial(Cd{1.0, 0.0}, {{0, 0}}), std::invalid_argument);
}

TEST(Monomial, RejectsDuplicateVariable) {
  EXPECT_THROW(Monomial(Cd{1.0, 0.0}, {{2, 1}, {2, 3}}), std::invalid_argument);
}

TEST(Monomial, RejectsTotalDegreePastUintMax) {
  // The exponents are unsigned, so their sum must not wrap into range.
  EXPECT_THROW(Monomial(Cd{1.0, 0.0}, {{0, 4294967295u}, {1, 2}}),
               std::invalid_argument);
  EXPECT_THROW(Monomial(Cd{1.0, 0.0}, {{0, 2147483648u}, {1, 2147483648u}}),
               std::invalid_argument);
  const Monomial at_max(Cd{1.0, 0.0}, {{0, 4294967294u}, {1, 1}});
  EXPECT_EQ(at_max.total_degree(), 4294967295u);
}

TEST(Monomial, DegreeQueries) {
  const Monomial m(Cd{1.0, 0.0}, {{0, 3}, {2, 7}, {5, 1}});
  EXPECT_EQ(m.max_exponent(), 7u);
  EXPECT_EQ(m.total_degree(), 11u);
  EXPECT_EQ(m.min_dimension(), 6u);
  EXPECT_TRUE(m.contains(2));
  EXPECT_FALSE(m.contains(1));
  EXPECT_EQ(m.exponent_of(0), 3u);
  EXPECT_EQ(m.exponent_of(4), 0u);
}

TEST(Monomial, EvaluatesKnownValue) {
  // 2 * x0^2 * x1 at (3, 5) = 2*9*5 = 90
  const Monomial m(Cd{2.0, 0.0}, {{0, 2}, {1, 1}});
  const std::vector<Cd> x = {{3.0, 0.0}, {5.0, 0.0}};
  const Cd v = m.evaluate<double>(x);
  EXPECT_DOUBLE_EQ(v.re(), 90.0);
  EXPECT_DOUBLE_EQ(v.im(), 0.0);
}

TEST(Monomial, EvaluatesComplexPoint) {
  // x0^2 at i = -1
  const Monomial m(Cd{1.0, 0.0}, {{0, 2}}) ;
  const std::vector<Cd> x = {{0.0, 1.0}};
  const Cd v = m.evaluate<double>(x);
  EXPECT_DOUBLE_EQ(v.re(), -1.0);
  EXPECT_NEAR(v.im(), 0.0, 1e-15);
}

TEST(Monomial, DerivativeKnownValue) {
  // d/dx0 (2 x0^3 x1^2) = 6 x0^2 x1^2; at (2, 3): 6*4*9 = 216
  const Monomial m(Cd{2.0, 0.0}, {{0, 3}, {1, 2}});
  const std::vector<Cd> x = {{2.0, 0.0}, {3.0, 0.0}};
  EXPECT_DOUBLE_EQ(m.evaluate_derivative<double>(x, 0).re(), 216.0);
  // d/dx1 = 4 x0^3 x1: 4*8*3 = 96
  EXPECT_DOUBLE_EQ(m.evaluate_derivative<double>(x, 1).re(), 96.0);
  // absent variable -> zero
  EXPECT_EQ(m.evaluate_derivative<double>(x, 5).re(), 0.0);
}

TEST(Monomial, ConstantMonomialHasEmptySupport) {
  const Monomial c(Cd{4.0, 0.0}, {});
  EXPECT_EQ(c.support_size(), 0u);
  EXPECT_EQ(c.total_degree(), 0u);
  const std::vector<Cd> x = {{9.0, 0.0}};
  EXPECT_DOUBLE_EQ(c.evaluate<double>(x).re(), 4.0);
}

TEST(Polynomial, DegreeIsMaxTotalDegree) {
  const Polynomial p(3, {Monomial(Cd{1.0, 0.0}, {{0, 2}, {1, 3}}),
                         Monomial(Cd{1.0, 0.0}, {{2, 4}})});
  EXPECT_EQ(p.degree(), 5u);
  EXPECT_EQ(p.num_monomials(), 2u);
}

TEST(Polynomial, RejectsOutOfRangeVariable) {
  EXPECT_THROW(Polynomial(2, {Monomial(Cd{1.0, 0.0}, {{5, 1}})}),
               std::invalid_argument);
}

TEST(Polynomial, EvaluatesSum) {
  // x0^2 + 2 x1 at (3, 4) = 9 + 8 = 17
  const Polynomial p(2, {Monomial(Cd{1.0, 0.0}, {{0, 2}}),
                         Monomial(Cd{2.0, 0.0}, {{1, 1}})});
  const std::vector<Cd> x = {{3.0, 0.0}, {4.0, 0.0}};
  EXPECT_DOUBLE_EQ(p.evaluate<double>(x).re(), 17.0);
  EXPECT_DOUBLE_EQ(p.evaluate_derivative<double>(x, 0).re(), 6.0);
  EXPECT_DOUBLE_EQ(p.evaluate_derivative<double>(x, 1).re(), 2.0);
}

TEST(PolynomialBuilder, MergesDuplicateSupports) {
  PolynomialBuilder b(2);
  b.add_term({1.0, 0.0}, {1, 1});
  b.add_term({2.5, 0.0}, {1, 1});
  b.add_term({1.0, 0.0}, {0, 2});
  const Polynomial p = b.build();
  EXPECT_EQ(p.num_monomials(), 2u);
  const std::vector<Cd> x = {{1.0, 0.0}, {1.0, 0.0}};
  EXPECT_DOUBLE_EQ(p.evaluate<double>(x).re(), 4.5);
}

TEST(PolynomialBuilder, DropsExactCancellation) {
  PolynomialBuilder b(1);
  b.add_term({1.0, 0.0}, {2});
  b.add_term({-1.0, 0.0}, {2});
  b.add_constant({3.0, 0.0});
  const Polynomial p = b.build();
  EXPECT_EQ(p.num_monomials(), 1u);  // only the constant survives
}

TEST(PolynomialBuilder, RejectsWrongArity) {
  PolynomialBuilder b(2);
  EXPECT_THROW(b.add_term({1.0, 0.0}, {1, 2, 3}), std::invalid_argument);
}

TEST(PolynomialSystem, RequiresSquare) {
  const Polynomial p(2, {Monomial(Cd{1.0, 0.0}, {{0, 1}})});
  EXPECT_THROW(PolynomialSystem({p}), std::invalid_argument);  // 1 poly, 2 vars
  EXPECT_THROW(PolynomialSystem({}), std::invalid_argument);
}

TEST(PolynomialSystem, UniformStructureDetected) {
  // 2 polynomials, 2 monomials each, every monomial 2 variables, max exp 3
  const auto mono = [](double c, unsigned v0, unsigned e0, unsigned v1, unsigned e1) {
    return Monomial(Cd{c, 0.0}, {{v0, e0}, {v1, e1}});
  };
  const Polynomial p0(2, {mono(1.0, 0, 1, 1, 2), mono(2.0, 0, 3, 1, 1)});
  const Polynomial p1(2, {mono(3.0, 0, 2, 1, 2), mono(4.0, 0, 1, 1, 1)});
  const PolynomialSystem sys({p0, p1});
  const auto s = sys.uniform_structure();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->n, 2u);
  EXPECT_EQ(s->m, 2u);
  EXPECT_EQ(s->k, 2u);
  EXPECT_EQ(s->d, 3u);
  EXPECT_EQ(s->total_monomials(), 4u);
}

TEST(PolynomialSystem, NonUniformRejected) {
  const Polynomial p0(2, {Monomial(Cd{1.0, 0.0}, {{0, 1}, {1, 1}})});
  const Polynomial p1(2, {Monomial(Cd{1.0, 0.0}, {{0, 1}})});  // k differs
  const PolynomialSystem sys({p0, p1});
  EXPECT_FALSE(sys.uniform_structure().has_value());
}

TEST(PolynomialSystem, DegreesVector) {
  const Polynomial p0(2, {Monomial(Cd{1.0, 0.0}, {{0, 2}, {1, 1}})});
  const Polynomial p1(2, {Monomial(Cd{1.0, 0.0}, {{1, 4}})});
  const PolynomialSystem sys({p0, p1});
  EXPECT_EQ(sys.degrees(), (std::vector<unsigned>{3, 4}));
}

TEST(PolynomialSystem, NaiveEvaluationFillsJacobian) {
  // f0 = x0 x1, f1 = x0^2 - x1  (built with builder for the constant-free case)
  PolynomialBuilder b0(2), b1(2);
  b0.add_term({1.0, 0.0}, {1, 1});
  b1.add_term({1.0, 0.0}, {2, 0});
  b1.add_term({-1.0, 0.0}, {0, 1});
  const PolynomialSystem sys({b0.build(), b1.build()});
  const std::vector<Cd> x = {{2.0, 0.0}, {3.0, 0.0}};
  std::vector<Cd> values(2);
  std::vector<Cd> jac(4);
  sys.evaluate_naive<double>(x, values, jac);
  EXPECT_DOUBLE_EQ(values[0].re(), 6.0);
  EXPECT_DOUBLE_EQ(values[1].re(), 1.0);
  EXPECT_DOUBLE_EQ(jac[0].re(), 3.0);   // df0/dx0 = x1
  EXPECT_DOUBLE_EQ(jac[1].re(), 2.0);   // df0/dx1 = x0
  EXPECT_DOUBLE_EQ(jac[2].re(), 4.0);   // df1/dx0 = 2 x0
  EXPECT_DOUBLE_EQ(jac[3].re(), -1.0);  // df1/dx1 = -1
}

TEST(EvalResult, MaxAbsDiffSeesNaN) {
  // One NaN entry, anywhere, makes the whole distance NaN: a larger
  // finite entry after it must not fold it away.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  poly::EvalResult<double> a(2), b(2);
  EXPECT_EQ(poly::max_abs_diff(a, b), 0.0);
  b.values[0] = Cd{nan, 0.0};
  EXPECT_TRUE(std::isnan(poly::max_abs_diff(a, b)));
  b.jacobian[3] = Cd{5.0, 0.0};
  EXPECT_TRUE(std::isnan(poly::max_abs_diff(a, b)));
  b.values[0] = Cd{};
  EXPECT_EQ(poly::max_abs_diff(a, b), 5.0);
  b.jacobian[1] = Cd{0.0, nan};
  EXPECT_TRUE(std::isnan(poly::max_abs_diff(a, b)));
}

}  // namespace
