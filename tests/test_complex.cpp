// Complex arithmetic over all three scalar types: field identities,
// norms, Smith division robustness, and the multiprecision ladder.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <sstream>

#include "cplx/complex.hpp"

namespace {

using namespace polyeval;
using cplx::Complex;
using prec::DoubleDouble;
using prec::QuadDouble;
using prec::ScalarTraits;

template <class T>
class ComplexTypedTest : public ::testing::Test {};

using ScalarTypes = ::testing::Types<double, DoubleDouble, QuadDouble>;
TYPED_TEST_SUITE(ComplexTypedTest, ScalarTypes);

template <class T>
double tolerance() {
  return 64.0 * ScalarTraits<T>::epsilon;
}

TYPED_TEST(ComplexTypedTest, MultiplicationDefinition) {
  using C = Complex<TypeParam>;
  // (a+bi)(c+di) = (ac-bd) + (ad+bc)i, exact on small integers.
  const C z = C(TypeParam(2.0), TypeParam(3.0)) * C(TypeParam(5.0), TypeParam(-1.0));
  EXPECT_EQ(ScalarTraits<TypeParam>::to_double(z.re()), 13.0);
  EXPECT_EQ(ScalarTraits<TypeParam>::to_double(z.im()), 13.0);
}

TYPED_TEST(ComplexTypedTest, IUnitSquaresToMinusOne) {
  using C = Complex<TypeParam>;
  const C i(TypeParam(0.0), TypeParam(1.0));
  const C sq = i * i;
  EXPECT_EQ(ScalarTraits<TypeParam>::to_double(sq.re()), -1.0);
  EXPECT_EQ(ScalarTraits<TypeParam>::to_double(sq.im()), 0.0);
}

TYPED_TEST(ComplexTypedTest, DivisionRoundTrip) {
  using C = Complex<TypeParam>;
  cplx::UniformComplex<TypeParam> gen(31);
  for (int i = 0; i < 500; ++i) {
    const C a = gen();
    C b = gen();
    if (ScalarTraits<TypeParam>::to_double(cplx::norm_sqr(b)) < 1e-3)
      b += C(TypeParam(1.0), TypeParam(0.0));
    const C q = a / b;
    EXPECT_LT(cplx::max_abs_diff(q * b, a), tolerance<TypeParam>());
  }
}

TYPED_TEST(ComplexTypedTest, SmithDivisionHandlesDominantImaginary) {
  using C = Complex<TypeParam>;
  // denominator with |im| >> |re| exercises the second Smith branch
  const C a(TypeParam(1.0), TypeParam(2.0));
  const C b(TypeParam(1e-8), TypeParam(1e8));
  const C q = a / b;
  EXPECT_LT(cplx::max_abs_diff(q * b, a), 1e-12);
}

TYPED_TEST(ComplexTypedTest, ConjugateProperties) {
  using C = Complex<TypeParam>;
  cplx::UniformComplex<TypeParam> gen(32);
  for (int i = 0; i < 200; ++i) {
    const C z = gen();
    const C zz = z * cplx::conj(z);
    // z * conj(z) is real and equals |z|^2
    EXPECT_LT(ScalarTraits<TypeParam>::to_double(ScalarTraits<TypeParam>::abs(zz.im())),
              tolerance<TypeParam>());
    EXPECT_LT(ScalarTraits<TypeParam>::to_double(
                  ScalarTraits<TypeParam>::abs(zz.re() - cplx::norm_sqr(z))),
              tolerance<TypeParam>());
  }
}

TYPED_TEST(ComplexTypedTest, AbsOfUnitVectors) {
  using C = Complex<TypeParam>;
  const C z(TypeParam(3.0), TypeParam(4.0));
  EXPECT_NEAR(ScalarTraits<TypeParam>::to_double(cplx::abs(z)), 5.0, 1e-14);
}

TYPED_TEST(ComplexTypedTest, Norm1VsNormSqr) {
  using C = Complex<TypeParam>;
  const C z(TypeParam(-3.0), TypeParam(4.0));
  EXPECT_EQ(ScalarTraits<TypeParam>::to_double(cplx::norm1(z)), 7.0);
  EXPECT_EQ(ScalarTraits<TypeParam>::to_double(cplx::norm_sqr(z)), 25.0);
}

TYPED_TEST(ComplexTypedTest, DistributivityWithinPrecision) {
  using C = Complex<TypeParam>;
  cplx::UniformComplex<TypeParam> gen(33);
  for (int i = 0; i < 200; ++i) {
    const C a = gen(), b = gen(), c = gen();
    EXPECT_LT(cplx::max_abs_diff(a * (b + c), a * b + a * c), tolerance<TypeParam>());
  }
}

TYPED_TEST(ComplexTypedTest, WidenNarrowRoundTrip) {
  using C = Complex<TypeParam>;
  const Complex<double> zd(0.123456789, -0.987654321);
  const C z = C::from_double(zd);
  EXPECT_EQ(z.to_double(), zd);
}

TEST(Complex, DoubleDoubleResolvesTinyImaginary) {
  // double-double complex separates (1, 2^-80) from (1, 0); double cannot
  // even represent the perturbation after a multiply chain.
  using Cdd = Complex<DoubleDouble>;
  Cdd z(DoubleDouble(1.0), DoubleDouble(0x1p-80));
  Cdd w = z * z;  // im = 2 * 2^-80
  EXPECT_EQ(w.im().to_double(), 0x1p-79);
}

TEST(Complex, StreamOutput) {
  std::ostringstream os;
  os << Complex<double>(1.5, -2.5);
  EXPECT_EQ(os.str(), "(1.5 - 2.5*i)");
  std::ostringstream os2;
  os2 << Complex<double>(1.5, 2.5);
  EXPECT_EQ(os2.str(), "(1.5 + 2.5*i)");
}

TYPED_TEST(ComplexTypedTest, MaxAbsDiffSeesNaN) {
  // A NaN-versus-finite mismatch in either component is a NaN distance,
  // never 0, so a `max_abs_diff(...) == 0` parity check cannot pass it.
  using T = TypeParam;
  const T nan = ScalarTraits<T>::from_double(std::numeric_limits<double>::quiet_NaN());
  const Complex<T> one(T(1.0), T(0.0));
  EXPECT_TRUE(std::isnan(cplx::max_abs_diff(Complex<T>(nan, T(0.0)), one)));
  EXPECT_TRUE(std::isnan(cplx::max_abs_diff(one, Complex<T>(nan, T(0.0)))));
  EXPECT_TRUE(std::isnan(cplx::max_abs_diff(Complex<T>(T(1.0), nan), one)));
  // Finite distances are unchanged: the larger component wins.
  EXPECT_EQ(cplx::max_abs_diff(Complex<T>(T(1.0), T(-2.0)), Complex<T>(T(1.5), T(1.0))),
            3.0);
  EXPECT_EQ(cplx::max_abs_diff(one, one), 0.0);
}

TEST(Complex, ScalarMultiply) {
  const Complex<double> z(2.0, -3.0);
  EXPECT_EQ(z * 2.0, Complex<double>(4.0, -6.0));
  EXPECT_EQ(2.0 * z, Complex<double>(4.0, -6.0));
}

}  // namespace
