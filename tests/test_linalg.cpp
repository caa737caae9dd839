// Dense complex LU with partial pivoting over all three precisions:
// known systems, random round trips, pivoting necessity, singularity
// detection, and the residual ladder that motivates multiprecision.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cplx/complex.hpp"
#include "linalg/lu.hpp"
#include "poly/random_system.hpp"

namespace {

using namespace polyeval;
using linalg::Matrix;
using prec::DoubleDouble;
using prec::QuadDouble;

template <class T>
using C = cplx::Complex<T>;

TEST(Matrix, MultiplyKnown) {
  Matrix<double> a(2, 2);
  a(0, 0) = {1.0, 0.0};
  a(0, 1) = {2.0, 0.0};
  a(1, 0) = {3.0, 0.0};
  a(1, 1) = {4.0, 0.0};
  const std::vector<C<double>> x = {{1.0, 0.0}, {1.0, 0.0}};
  const auto y = a.multiply(x);
  EXPECT_DOUBLE_EQ(y[0].re(), 3.0);
  EXPECT_DOUBLE_EQ(y[1].re(), 7.0);
}

TEST(Matrix, FromRowMajorValidatesSize) {
  std::vector<C<double>> data(3);
  EXPECT_THROW((void)Matrix<double>::from_row_major(2, 2, data), std::invalid_argument);
}

TEST(Lu, SolvesKnownRealSystem) {
  // [2 1; 1 3] x = [3; 5] -> x = (4/5, 7/5)
  Matrix<double> a(2, 2);
  a(0, 0) = {2.0, 0.0};
  a(0, 1) = {1.0, 0.0};
  a(1, 0) = {1.0, 0.0};
  a(1, 1) = {3.0, 0.0};
  const std::vector<C<double>> b = {{3.0, 0.0}, {5.0, 0.0}};
  const auto x = linalg::lu_solve(a, std::span<const C<double>>(b));
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0].re(), 0.8, 1e-14);
  EXPECT_NEAR((*x)[1].re(), 1.4, 1e-14);
}

TEST(Lu, SolvesComplexSystem) {
  // i * x = 1  ->  x = -i
  Matrix<double> a(1, 1);
  a(0, 0) = {0.0, 1.0};
  const std::vector<C<double>> b = {{1.0, 0.0}};
  const auto x = linalg::lu_solve(a, std::span<const C<double>>(b));
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0].re(), 0.0, 1e-15);
  EXPECT_NEAR((*x)[0].im(), -1.0, 1e-15);
}

TEST(Lu, RequiresPivoting) {
  // zero top-left pivot: fails without row exchange
  Matrix<double> a(2, 2);
  a(0, 0) = {0.0, 0.0};
  a(0, 1) = {1.0, 0.0};
  a(1, 0) = {1.0, 0.0};
  a(1, 1) = {1.0, 0.0};
  const std::vector<C<double>> b = {{2.0, 0.0}, {3.0, 0.0}};
  const auto x = linalg::lu_solve(a, std::span<const C<double>>(b));
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0].re(), 1.0, 1e-14);
  EXPECT_NEAR((*x)[1].re(), 2.0, 1e-14);
}

TEST(Lu, DetectsSingular) {
  Matrix<double> a(2, 2);
  a(0, 0) = {1.0, 0.0};
  a(0, 1) = {2.0, 0.0};
  a(1, 0) = {2.0, 0.0};
  a(1, 1) = {4.0, 0.0};  // rank 1
  const std::vector<C<double>> b = {{1.0, 0.0}, {1.0, 0.0}};
  EXPECT_FALSE(linalg::lu_solve(a, std::span<const C<double>>(b)).has_value());
}

template <class T>
void random_round_trip(unsigned n, double tol, std::uint64_t seed) {
  cplx::UniformComplex<T> gen(seed);
  Matrix<T> a(n, n);
  std::vector<C<T>> x_true(n);
  for (unsigned r = 0; r < n; ++r) {
    x_true[r] = gen();
    for (unsigned c = 0; c < n; ++c) a(r, c) = gen();
  }
  const auto b = a.multiply(x_true);
  const auto x = linalg::lu_solve(a, std::span<const C<T>>(b));
  ASSERT_TRUE(x.has_value());
  double worst = 0.0;
  for (unsigned i = 0; i < n; ++i)
    worst = std::max(worst, cplx::max_abs_diff((*x)[i], x_true[i]));
  EXPECT_LT(worst, tol);
}

template <class T>
void arena_matches_lu_solve(unsigned n, std::uint64_t seed) {
  // LuArena repeats LuFactorization's arithmetic on pre-allocated slots;
  // the solutions must agree BITWISE with the allocating lu_solve.
  cplx::UniformComplex<T> gen(seed);
  const std::size_t batch = 5;
  std::vector<C<T>> a(batch * n * n), b(batch * n), x(batch * n);
  std::vector<unsigned char> singular(batch);
  for (auto& z : a) z = gen();
  for (auto& z : b) z = gen();

  linalg::LuArena<T> arena(n, batch);
  linalg::lu_solve_batch(arena, batch, std::span<const C<T>>(a),
                         std::span<const C<T>>(b), std::span<C<T>>(x),
                         std::span<unsigned char>(singular));

  for (std::size_t i = 0; i < batch; ++i) {
    EXPECT_EQ(singular[i], 0u) << "system " << i;
    const auto mat = Matrix<T>::from_row_major(
        n, n, std::span<const C<T>>(a).subspan(i * n * n, std::size_t{n} * n));
    const auto want =
        linalg::lu_solve(mat, std::span<const C<T>>(b).subspan(i * n, n));
    ASSERT_TRUE(want.has_value()) << "system " << i;
    for (unsigned v = 0; v < n; ++v)
      EXPECT_EQ(cplx::max_abs_diff((*want)[v], x[i * n + v]), 0.0)
          << "system " << i << ", row " << v;
  }
}

TEST(LuArena, BitwiseMatchesLuSolveDouble) { arena_matches_lu_solve<double>(9, 301); }
TEST(LuArena, BitwiseMatchesLuSolveDoubleDouble) {
  arena_matches_lu_solve<DoubleDouble>(6, 302);
}
TEST(LuArena, BitwiseMatchesLuSolveQuadDouble) {
  arena_matches_lu_solve<QuadDouble>(4, 303);
}

TEST(LuArena, FlagsSingularSystemsAndLeavesOthersAlone) {
  // A batch mixing a rank-1 system with healthy ones: only the singular
  // slot is flagged, and its x slice is left untouched.
  const unsigned n = 2;
  cplx::UniformComplex<double> gen(304);
  std::vector<C<double>> a(3 * n * n), b(3 * n);
  std::vector<C<double>> x(3 * n, C<double>{-7.0, -7.0});
  std::vector<unsigned char> singular(3);
  for (auto& z : a) z = gen();
  for (auto& z : b) z = gen();
  a[1 * n * n + 0] = {1.0, 0.0};
  a[1 * n * n + 1] = {2.0, 0.0};
  a[1 * n * n + 2] = {2.0, 0.0};
  a[1 * n * n + 3] = {4.0, 0.0};  // rank 1

  linalg::LuArena<double> arena(n, 3);
  linalg::lu_solve_batch(arena, 3, std::span<const C<double>>(a),
                         std::span<const C<double>>(b), std::span<C<double>>(x),
                         std::span<unsigned char>(singular));
  EXPECT_EQ(singular[0], 0u);
  EXPECT_EQ(singular[1], 1u);
  EXPECT_EQ(singular[2], 0u);
  EXPECT_EQ(x[n].re(), -7.0);  // singular slice untouched
  EXPECT_EQ(x[n].im(), -7.0);
}

TEST(LuArena, ValidatesSlotAndSizes) {
  linalg::LuArena<double> arena(2, 1);
  std::vector<C<double>> a(4), b(2), x(2);
  EXPECT_THROW((void)arena.solve(1, a, b, x), std::invalid_argument);  // bad slot
  EXPECT_THROW((void)arena.solve(0, std::span<const C<double>>(a).subspan(0, 3), b, x),
               std::invalid_argument);
}

TEST(Lu, RandomRoundTripDouble) { random_round_trip<double>(20, 1e-10, 101); }
TEST(Lu, RandomRoundTripDoubleDouble) {
  random_round_trip<DoubleDouble>(12, 1e-26, 102);
}
TEST(Lu, RandomRoundTripQuadDouble) { random_round_trip<QuadDouble>(6, 1e-55, 103); }

TEST(Lu, FactorizationReusableForMultipleRhs) {
  cplx::UniformComplex<double> gen(104);
  Matrix<double> a(8, 8);
  for (unsigned r = 0; r < 8; ++r)
    for (unsigned c = 0; c < 8; ++c) a(r, c) = gen();
  const Matrix<double> a_copy = a;
  auto f = linalg::LuFactorization<double>::factor(std::move(a));
  ASSERT_TRUE(f.has_value());
  for (int rhs = 0; rhs < 3; ++rhs) {
    std::vector<C<double>> b(8);
    for (auto& z : b) z = gen();
    const auto x = f->solve(b);
    const auto back = a_copy.multiply(x);
    for (unsigned i = 0; i < 8; ++i)
      EXPECT_LT(cplx::max_abs_diff(back[i], b[i]), 1e-10);
  }
}

TEST(Lu, ResidualLadderAcrossPrecisions) {
  // Identical ill-conditioned system; the solve residual drops by ~16
  // orders from double to double-double: the numeric core of quality up.
  const unsigned n = 10;
  const auto build = [&](auto tag) {
    using T = decltype(tag);
    Matrix<T> a(n, n);
    for (unsigned r = 0; r < n; ++r)
      for (unsigned c = 0; c < n; ++c)
        a(r, c) = C<T>(T(1.0) / T(static_cast<double>(r + c + 1)));  // Hilbert
    return a;
  };
  const std::vector<C<double>> ones_d(n, C<double>(1.0));

  // double
  Matrix<double> ad = build(double{});
  const auto xd = linalg::lu_solve(ad, std::span<const C<double>>(ones_d));
  ASSERT_TRUE(xd.has_value());
  // solution error vs dd solution is what matters; compute dd version
  Matrix<DoubleDouble> add = build(DoubleDouble{});
  std::vector<C<DoubleDouble>> ones_dd(n, C<DoubleDouble>(DoubleDouble(1.0)));
  const auto xdd = linalg::lu_solve(add, std::span<const C<DoubleDouble>>(ones_dd));
  ASSERT_TRUE(xdd.has_value());

  // Hilbert 10x10 has condition ~1e13: double keeps ~3 digits, dd ~19.
  double disagreement = 0.0;
  for (unsigned i = 0; i < n; ++i) {
    const auto dd_as_d = (*xdd)[i].to_double();
    disagreement = std::max(disagreement, cplx::max_abs_diff((*xd)[i], dd_as_d));
  }
  EXPECT_GT(disagreement, 1e-8);  // double visibly corrupted
  // dd self-consistency: residual in dd arithmetic is tiny relative to
  // the ~1e4-magnitude solution entries.
  std::vector<C<DoubleDouble>> back = add.multiply(*xdd);
  double res_dd = 0.0;
  for (unsigned i = 0; i < n; ++i)
    res_dd = std::max(res_dd, cplx::max_abs_diff(back[i], ones_dd[i]));
  EXPECT_LT(res_dd, 1e-18);
}

TEST(MaxNorm, ComplexVectors) {
  const std::vector<C<double>> v = {{1.0, -2.0}, {0.5, 0.5}, {-3.0, 0.0}};
  EXPECT_DOUBLE_EQ(linalg::max_norm_d<double>(v), 3.0);
}

TEST(MaxNorm, NaNComponentMakesTheNormNaN) {
  // A NaN component must never read as a small norm: neither when it
  // follows a finite one nor when every component is NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<C<double>> mixed = {{1e-3, 0.0}, {nan, 0.0}, {2e-3, 0.0}};
  EXPECT_TRUE(std::isnan(linalg::max_norm_d<double>(mixed)));
  const std::vector<C<double>> all_nan = {{nan, nan}, {0.0, nan}};
  EXPECT_TRUE(std::isnan(linalg::max_norm_d<double>(all_nan)));
  const std::vector<C<DoubleDouble>> dd = {C<DoubleDouble>(DoubleDouble(1e-3)),
                                           C<DoubleDouble>(DoubleDouble(nan))};
  EXPECT_TRUE(std::isnan(linalg::max_norm_d<DoubleDouble>(dd)));
  const std::vector<C<QuadDouble>> qd = {C<QuadDouble>(QuadDouble(nan)),
                                         C<QuadDouble>(QuadDouble(5.0))};
  EXPECT_TRUE(std::isnan(linalg::max_norm_d<QuadDouble>(qd)));
}

}  // namespace
