#pragma once

/// \file eft.hpp
/// Error-free transforms: the building blocks of double-double and
/// quad-double arithmetic (Dekker 1971, Knuth, Hida-Li-Bailey QD-2.3.9).
///
/// Every function returns the leading (rounded) part of an exact operation
/// and stores the exact rounding error in \p err, so that
/// `result + err == a (op) b` holds exactly in real arithmetic.
///
/// These routines are only correct under strict IEEE-754 double semantics:
/// no fast-math, and no FP contraction, which would fuse a product into
/// a following sum that must round on its own.  Where that holds:
///   * the library build passes -ffp-contract=off (CMakeLists.txt), for
///     itself and everything linking it;
///   * perfbench's build compiles src/ with its own flags and relies on
///     the baseline x86-64 target, which has no FMA instruction to
///     contract into;
///   * simt::Phase's FMA entries, the one place compiled for an FMA
///     target whatever the flags, turn contraction off themselves.
/// std::fma below is an exact operation, not a contraction: libm's and
/// the hardware instruction's results are both correctly rounded.

#include <cmath>

namespace polyeval::prec {

/// Sum of two doubles known to satisfy |a| >= |b| (or a == 0).
/// One addition cheaper than two_sum.
inline double quick_two_sum(double a, double b, double& err) noexcept {
  const double s = a + b;
  err = b - (s - a);
  return s;
}

/// Difference a - b with |a| >= |b|.
inline double quick_two_diff(double a, double b, double& err) noexcept {
  const double s = a - b;
  err = (a - s) - b;
  return s;
}

/// Sum of two arbitrary doubles; err is the exact rounding error (Knuth).
inline double two_sum(double a, double b, double& err) noexcept {
  const double s = a + b;
  const double bb = s - a;
  err = (a - (s - bb)) + (b - bb);
  return s;
}

/// Difference of two arbitrary doubles with exact error.
inline double two_diff(double a, double b, double& err) noexcept {
  const double s = a - b;
  const double bb = s - a;
  err = (a - (s - bb)) - (b + bb);
  return s;
}

/// Product with exact error, using fused multiply-add.
inline double two_prod(double a, double b, double& err) noexcept {
  const double p = a * b;
  err = std::fma(a, b, -p);
  return p;
}

/// Square with exact error.
inline double two_sqr(double a, double& err) noexcept {
  const double p = a * a;
  err = std::fma(a, a, -p);
  return p;
}

/// Three-term sum used by quad-double accumulation:
/// on return (a, b, c) hold the leading sum and two error terms of a+b+c.
inline void three_sum(double& a, double& b, double& c) noexcept {
  double t1, t2, t3;
  t1 = two_sum(a, b, t2);
  a = two_sum(c, t1, t3);
  b = two_sum(t2, t3, c);
}

/// Variant of three_sum that folds the two trailing errors into b.
inline void three_sum2(double& a, double& b, double c) noexcept {
  double t1, t2, t3;
  t1 = two_sum(a, b, t2);
  a = two_sum(c, t1, t3);
  b = t2 + t3;
}

}  // namespace polyeval::prec
