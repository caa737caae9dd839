// Error-free transforms: the identities s + err == a (op) b must hold
// EXACTLY, which we can verify in exact rational arithmetic for values
// where the double grid makes the checks representable.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "prec/eft.hpp"

namespace {

using namespace polyeval::prec;

TEST(Eft, TwoSumRecoversExactError) {
  double err = 0.0;
  const double s = two_sum(1.0, 0x1p-60, err);
  EXPECT_EQ(s, 1.0);        // 1 + tiny rounds to 1
  EXPECT_EQ(err, 0x1p-60);  // and the tiny part is the exact error
}

TEST(Eft, TwoSumIsExactForRepresentableSums) {
  double err = 0.0;
  const double s = two_sum(0.5, 0.25, err);
  EXPECT_EQ(s, 0.75);
  EXPECT_EQ(err, 0.0);
}

TEST(Eft, QuickTwoSumMatchesTwoSumWhenOrdered) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int i = 0; i < 1000; ++i) {
    const double a = dist(rng);
    const double b = dist(rng) * 0x1p-30;  // |b| << |a|
    double e1 = 0.0, e2 = 0.0;
    const double s1 = two_sum(a, b, e1);
    const double s2 = quick_two_sum(a, b, e2);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(e1, e2);
  }
}

TEST(Eft, TwoDiffMatchesTwoSumOfNegation) {
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> dist(-1e10, 1e10);
  for (int i = 0; i < 1000; ++i) {
    const double a = dist(rng), b = dist(rng);
    double e1 = 0.0, e2 = 0.0;
    const double d = two_diff(a, b, e1);
    const double s = two_sum(a, -b, e2);
    EXPECT_EQ(d, s);
    EXPECT_EQ(e1, e2);
  }
}

TEST(Eft, TwoProdCapturesRoundingError) {
  // (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60: the last term is the error.
  const double a = 1.0 + 0x1p-30;
  double err = 0.0;
  const double p = two_prod(a, a, err);
  EXPECT_EQ(p, 1.0 + 0x1p-29);
  EXPECT_EQ(err, 0x1p-60);
}

TEST(Eft, BuildDoesNotContractMultiplyAdd) {
  // (1 + 2^-30)^2 rounds to 1 + 2^-29, so a*b + c below is 0 when the
  // product rounds on its own and 2^-60 when a*b + c is contracted into
  // one FMA.  The volatile reads keep the compiler from folding it.
  volatile double va = 1.0 + 0x1p-30;
  volatile double vc = -(1.0 + 0x1p-29);
  const double a = va, b = va, c = vc;
  EXPECT_EQ(a * b + c, 0.0) << "the build contracts FP expressions (-ffp-contract)";
}

TEST(Eft, TwoProdExactForSmallIntegers) {
  double err = 1.0;
  const double p = two_prod(3.0, 7.0, err);
  EXPECT_EQ(p, 21.0);
  EXPECT_EQ(err, 0.0);
}

TEST(Eft, TwoSqrMatchesTwoProd) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> dist(-1e5, 1e5);
  for (int i = 0; i < 1000; ++i) {
    const double a = dist(rng);
    double e1 = 0.0, e2 = 0.0;
    const double p1 = two_sqr(a, e1);
    const double p2 = two_prod(a, a, e2);
    EXPECT_EQ(p1, p2);
    EXPECT_EQ(e1, e2);
  }
}

// Property: reconstructing a*b from (p, err) in long double (64-bit
// significand) agrees with the long-double product for inputs whose
// product error fits.
TEST(Eft, TwoProdReconstructsInLongDouble) {
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int i = 0; i < 1000; ++i) {
    const double a = dist(rng), b = dist(rng);
    double err = 0.0;
    const double p = two_prod(a, b, err);
    const long double exact = static_cast<long double>(a) * static_cast<long double>(b);
    // p + err == a*b exactly in real arithmetic; in 80-bit arithmetic the
    // comparison is exact when the error term is representable.
    EXPECT_EQ(static_cast<long double>(p) + static_cast<long double>(err), exact);
  }
}

TEST(Eft, ThreeSumPreservesTotal) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int i = 0; i < 500; ++i) {
    double a = dist(rng), b = dist(rng) * 0x1p-20, c = dist(rng) * 0x1p-40;
    const long double total = static_cast<long double>(a) + b + c;
    three_sum(a, b, c);
    const long double after = static_cast<long double>(a) + b + c;
    // three_sum redistributes the same total; comparing in 80-bit
    // arithmetic leaves only long-double rounding (~1e-19 at |a| ~ 1).
    EXPECT_NEAR(static_cast<double>(after - total), 0.0, 1e-18);
    // leading term must carry (almost) the whole sum
    EXPECT_NEAR(static_cast<double>(total), a, std::abs(a) * 1e-15 + 1e-18);
  }
}

}  // namespace
