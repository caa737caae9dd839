#pragma once

/// \file scalar_traits.hpp
/// Compile-time description of the real scalar types the evaluation
/// pipeline is instantiated with: double, DoubleDouble and QuadDouble.

#include <cmath>
#include <string_view>

#include "prec/double_double.hpp"
#include "prec/quad_double.hpp"

namespace polyeval::prec {

template <class T>
struct ScalarTraits;

template <>
struct ScalarTraits<double> {
  using type = double;
  static constexpr std::string_view name = "double";
  /// Unit roundoff 2^-53.
  static constexpr double epsilon = 0x1p-53;
  /// Number of reliable decimal digits.
  static constexpr int decimal_digits = 16;
  /// Software-arithmetic cost factor relative to hardware double
  /// (double = 1; the paper reports ~8 for double-double, see section 1).
  static constexpr double cost_factor = 1.0;
  /// Whether the type's inline arithmetic calls std::fma, so that phases
  /// over it gain from simt::Phase's FMA entries.
  static constexpr bool inline_fma = false;
  static double from_double(double d) noexcept { return d; }
  static double to_double(double d) noexcept { return d; }
  static double abs(double d) noexcept { return std::fabs(d); }
  static double sqrt(double d) noexcept { return std::sqrt(d); }
};

template <>
struct ScalarTraits<DoubleDouble> {
  using type = DoubleDouble;
  static constexpr std::string_view name = "double-double";
  /// 2^-105: half an ulp of the 106-bit effective significand.
  static constexpr double epsilon = 0x1p-105;
  static constexpr int decimal_digits = 31;
  static constexpr double cost_factor = 8.0;
  /// Every product is a prec::two_prod, one std::fma each.
  static constexpr bool inline_fma = true;
  static DoubleDouble from_double(double d) noexcept { return {d}; }
  static double to_double(const DoubleDouble& d) noexcept { return d.to_double(); }
  static DoubleDouble abs(const DoubleDouble& d) noexcept { return prec::abs(d); }
  static DoubleDouble sqrt(const DoubleDouble& d) noexcept { return prec::sqrt(d); }
};

template <>
struct ScalarTraits<QuadDouble> {
  using type = QuadDouble;
  static constexpr std::string_view name = "quad-double";
  /// 2^-209.
  static constexpr double epsilon = 0x1p-209;
  static constexpr int decimal_digits = 62;
  /// QD reports quad-double multiplication at roughly an order of
  /// magnitude over double-double.
  static constexpr double cost_factor = 60.0;
  /// Its + and * are out of line (quad_double.cpp), so a phase's FMA
  /// entries would still call the baseline build of them.
  static constexpr bool inline_fma = false;
  static QuadDouble from_double(double d) noexcept { return {d}; }
  static double to_double(const QuadDouble& d) noexcept { return d.to_double(); }
  static QuadDouble abs(const QuadDouble& d) noexcept { return prec::abs(d); }
  static QuadDouble sqrt(const QuadDouble& d) noexcept { return prec::sqrt(d); }
};

/// Concept satisfied by the three supported real scalar types.
template <class T>
concept RealScalar = requires {
  typename ScalarTraits<T>::type;
};

}  // namespace polyeval::prec
