// Text I/O: parsing, formatting, round trips (including the classic
// families), and error reporting with positions.

#include <gtest/gtest.h>

#include "poly/eval_result.hpp"
#include "poly/families.hpp"
#include "poly/io.hpp"
#include "poly/random_system.hpp"

namespace {

using namespace polyeval;
using Cd = cplx::Complex<double>;

TEST(PolyIo, ParsesSimplePolynomial) {
  const auto p = poly::parse_polynomial("2*x0^2*x1 + 3*x2 - x0", 3);
  ASSERT_EQ(p.num_monomials(), 3u);
  const std::vector<Cd> x = {{2.0, 0.0}, {3.0, 0.0}, {5.0, 0.0}};
  // 2*4*3 + 15 - 2 = 37
  EXPECT_DOUBLE_EQ(p.evaluate<double>(x).re(), 37.0);
}

TEST(PolyIo, ParsesComplexCoefficients) {
  const auto p = poly::parse_polynomial("(1.5,-2)*x0 + (0,1)", 1);
  const std::vector<Cd> x = {{1.0, 0.0}};
  const auto v = p.evaluate<double>(x);
  EXPECT_DOUBLE_EQ(v.re(), 1.5);
  EXPECT_DOUBLE_EQ(v.im(), -1.0);
}

TEST(PolyIo, ParsesConstantsAndBareVariables) {
  const auto p = poly::parse_polynomial("x1 + 5", 2);
  const std::vector<Cd> x = {{9.0, 0.0}, {4.0, 0.0}};
  EXPECT_DOUBLE_EQ(p.evaluate<double>(x).re(), 9.0);
}

TEST(PolyIo, WhitespaceAndScientificNotation) {
  const auto p = poly::parse_polynomial("  1.5e2 * x0 ^ 2\n - 2.5e-1 ", 1);
  const std::vector<Cd> x = {{2.0, 0.0}};
  EXPECT_DOUBLE_EQ(p.evaluate<double>(x).re(), 600.0 - 0.25);
}

TEST(PolyIo, LeadingSign) {
  const auto p = poly::parse_polynomial("-x0 + 1", 1);
  const std::vector<Cd> x = {{3.0, 0.0}};
  EXPECT_DOUBLE_EQ(p.evaluate<double>(x).re(), -2.0);
}

TEST(PolyIo, ParsesSystem) {
  const auto sys = poly::parse_system("x0^2 + x1^2 - 5;\nx0*x1 - 2;");
  EXPECT_EQ(sys.dimension(), 2u);
  const std::vector<Cd> x = {{1.0, 0.0}, {2.0, 0.0}};
  std::vector<Cd> values(2), jac(4);
  sys.evaluate_naive<double>(x, values, jac);
  EXPECT_NEAR(values[0].re(), 0.0, 1e-15);
  EXPECT_NEAR(values[1].re(), 0.0, 1e-15);
}

TEST(PolyIo, FormatRoundTripsRandomSystems) {
  poly::SystemSpec spec;
  spec.dimension = 6;
  spec.monomials_per_polynomial = 5;
  spec.variables_per_monomial = 3;
  spec.max_exponent = 4;
  const auto sys = poly::make_random_system(spec);
  const auto text = poly::format(sys);
  const auto parsed = poly::parse_system(text);
  ASSERT_EQ(parsed.dimension(), sys.dimension());

  // identical evaluation at a random point
  const auto x = poly::make_random_point<double>(6, 5);
  poly::EvalResult<double> a(6), b(6);
  sys.evaluate_naive<double>(x, a.values, a.jacobian);
  parsed.evaluate_naive<double>(x, b.values, b.jacobian);
  EXPECT_LT(poly::max_abs_diff(a, b), 1e-13);
}

TEST(PolyIo, FormatRoundTripsFamilies) {
  for (const auto& sys : {poly::cyclic(4), poly::katsura(3), poly::noon(3)}) {
    const auto parsed = poly::parse_system(poly::format(sys));
    ASSERT_EQ(parsed.dimension(), sys.dimension());
    const auto x = poly::make_random_point<double>(sys.dimension(), 7);
    poly::EvalResult<double> a(sys.dimension()), b(sys.dimension());
    sys.evaluate_naive<double>(x, a.values, a.jacobian);
    parsed.evaluate_naive<double>(x, b.values, b.jacobian);
    EXPECT_LT(poly::max_abs_diff(a, b), 1e-12);
  }
}

TEST(PolyIo, FormatsNegativeRealCoefficientsReadably) {
  poly::PolynomialBuilder b(2);
  b.add_term({1.0, 0.0}, {1, 1});
  b.add_term({-2.0, 0.0}, {2, 0});
  const auto text = poly::format(b.build());
  EXPECT_EQ(text.find("+ -"), std::string::npos) << text;
  EXPECT_NE(text.find(" - "), std::string::npos) << text;
}

TEST(PolyIo, ErrorsCarryOffsets) {
  try {
    (void)poly::parse_polynomial("x0 + @", 1);
    FAIL() << "expected ParseError";
  } catch (const poly::ParseError& e) {
    EXPECT_GE(e.offset(), 5u);
  }
}

TEST(PolyIo, RejectsBadInputs) {
  EXPECT_THROW((void)poly::parse_polynomial("", 1), poly::ParseError);
  EXPECT_THROW((void)poly::parse_polynomial("x5", 2), poly::ParseError);  // var range
  // digit strings past 2^32 must not wrap back into range
  EXPECT_THROW((void)poly::parse_polynomial("x4294967296", 2), poly::ParseError);
  EXPECT_THROW((void)poly::parse_polynomial("2*x1^4294967297", 2), poly::ParseError);
  EXPECT_THROW((void)poly::parse_polynomial("x0^0", 1), poly::ParseError);  // exp 0
  EXPECT_THROW((void)poly::parse_polynomial("x0^", 1), poly::ParseError);
  EXPECT_THROW((void)poly::parse_polynomial("2*", 1), poly::ParseError);
  EXPECT_THROW((void)poly::parse_polynomial("(1,2", 1), poly::ParseError);
  EXPECT_THROW((void)poly::parse_polynomial("x0 x1", 2), poly::ParseError);  // no '*'
  EXPECT_THROW((void)poly::parse_system(""), poly::ParseError);
  EXPECT_THROW((void)poly::parse_system("x0 - 1; x0"), poly::ParseError);  // no final ';'
  EXPECT_THROW((void)poly::parse_system("x0*x0 - 1;"), std::invalid_argument);  // dup var
  // total degree 2^32 + 1 must not wrap to 1
  EXPECT_THROW((void)poly::parse_system("x0^4294967295*x1^2 + 1; x1 - 1;"),
               std::invalid_argument);
  EXPECT_NO_THROW((void)poly::parse_system("x0^4294967294*x1 + 1; x1 - 1;"));
}

TEST(PolyIo, SystemDimensionIsPolynomialCount) {
  // two polynomials -> dimension 2, so x2 is out of range
  EXPECT_THROW((void)poly::parse_system("x0 - 1; x2 - 1;"), poly::ParseError);
}

TEST(PolyIo, UniformStructureSurvivesRoundTrip) {
  poly::SystemSpec spec;
  spec.dimension = 8;
  spec.monomials_per_polynomial = 4;
  spec.variables_per_monomial = 3;
  spec.max_exponent = 2;
  const auto sys = poly::make_random_system(spec);
  const auto parsed = poly::parse_system(poly::format(sys));
  EXPECT_EQ(parsed.uniform_structure(), sys.uniform_structure());
}

}  // namespace
