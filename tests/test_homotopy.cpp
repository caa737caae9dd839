// Homotopy continuation: start systems, the gamma trick, adaptive path
// tracking, and the all-paths CPU solver on systems with known root
// counts, in both geometries -- projective on systems the uniform-only
// device routes reject.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "homotopy/solver.hpp"
#include "poly/families.hpp"
#include "poly/io.hpp"
#include "poly/random_system.hpp"

namespace {

using namespace polyeval;

template <class T>
using C = cplx::Complex<T>;

solve::Options affine_options() {
  solve::Options opt;
  opt.tracking.geometry = solve::Geometry::kAffine;
  return opt;
}

TEST(StartSystem, DegreesAndBezout) {
  // degrees (1, 2, 3) -> 6 paths
  const auto target = poly::cyclic(3);
  const homotopy::TotalDegreeStart start(target);
  EXPECT_EQ(start.degrees(), (std::vector<unsigned>{1, 2, 3}));
  EXPECT_EQ(start.num_paths(), 6u);
}

TEST(StartSystem, RootsSolveStartSystem) {
  const auto target = poly::cyclic(3);
  const homotopy::TotalDegreeStart start(target);
  for (std::uint64_t p = 0; p < start.num_paths(); ++p) {
    const auto root = start.start_root(p);
    std::vector<C<double>> values(3), jac(9);
    start.system().evaluate_naive<double>(root, values, jac);
    for (const auto& v : values) {
      EXPECT_NEAR(v.re(), 0.0, 1e-12);
      EXPECT_NEAR(v.im(), 0.0, 1e-12);
    }
  }
}

TEST(StartSystem, RootsAreDistinct) {
  const auto target = poly::cyclic(3);
  const homotopy::TotalDegreeStart start(target);
  std::set<std::pair<long, long>> seen;
  for (std::uint64_t p = 0; p < start.num_paths(); ++p) {
    const auto root = start.start_root(p);
    long key1 = 0, key2 = 0;
    for (const auto& z : root) {
      key1 = key1 * 1000003 + std::lround(z.re() * 1e6);
      key2 = key2 * 1000003 + std::lround(z.im() * 1e6);
    }
    EXPECT_TRUE(seen.insert({key1, key2}).second) << "path " << p;
  }
  EXPECT_THROW((void)start.start_root(start.num_paths()), std::out_of_range);
}

TEST(Gamma, DeterministicUnitModulus) {
  const auto g1 = homotopy::random_gamma(7);
  const auto g2 = homotopy::random_gamma(7);
  EXPECT_EQ(g1, g2);
  EXPECT_NEAR(cplx::norm_sqr(g1), 1.0, 1e-12);
  EXPECT_NE(homotopy::random_gamma(8), g1);
}

TEST(Homotopy, EndpointsMatchFAndG) {
  const auto f_sys = poly::noon(3);
  const homotopy::TotalDegreeStart start(f_sys);
  ad::CpuEvaluator<double> f(f_sys);
  ad::CpuEvaluator<double> g(start.system());
  const auto gamma = homotopy::random_gamma(3);
  homotopy::Homotopy<double, ad::CpuEvaluator<double>, ad::CpuEvaluator<double>> h(
      f, g, gamma);

  const auto x = poly::make_random_point<double>(3, 17);
  poly::EvalResult<double> at_t(3), want(3);

  h.set_t(0.0);  // h = gamma * g
  h.evaluate(std::span<const C<double>>(x), at_t);
  g.evaluate(std::span<const C<double>>(x), want);
  const auto gamma_c = C<double>(gamma.re(), gamma.im());
  for (unsigned i = 0; i < 3; ++i)
    EXPECT_LT(cplx::max_abs_diff(at_t.values[i], gamma_c * want.values[i]), 1e-13);

  h.set_t(1.0);  // h = f
  h.evaluate(std::span<const C<double>>(x), at_t);
  f.evaluate(std::span<const C<double>>(x), want);
  EXPECT_LT(poly::max_abs_diff(at_t, want), 1e-13);
}

TEST(Homotopy, DtIsTargetMinusGammaStart) {
  const auto f_sys = poly::noon(3);
  const homotopy::TotalDegreeStart start(f_sys);
  ad::CpuEvaluator<double> f(f_sys);
  ad::CpuEvaluator<double> g(start.system());
  const auto gamma = homotopy::random_gamma(4);
  homotopy::Homotopy<double, ad::CpuEvaluator<double>, ad::CpuEvaluator<double>> h(
      f, g, gamma);

  const auto x = poly::make_random_point<double>(3, 19);
  poly::EvalResult<double> scratch(3), fv(3), gv(3);
  h.set_t(0.37);
  h.evaluate(std::span<const C<double>>(x), scratch);
  const auto dt = h.dt_from_last();
  f.evaluate(std::span<const C<double>>(x), fv);
  g.evaluate(std::span<const C<double>>(x), gv);
  const auto gamma_c = C<double>(gamma.re(), gamma.im());
  for (unsigned i = 0; i < 3; ++i)
    EXPECT_LT(cplx::max_abs_diff(dt[i], fv.values[i] - gamma_c * gv.values[i]), 1e-13);
}

TEST(Tracker, TracksSingleQuadraticPath) {
  // f(x) = x^2 - 4: start system x^2 - 1, paths from 1 and -1 to 2, -2.
  poly::PolynomialBuilder b(1);
  b.add_term({1.0, 0.0}, {2});
  b.add_constant({-4.0, 0.0});
  const poly::PolynomialSystem f_sys({b.build()});
  const homotopy::TotalDegreeStart start(f_sys);
  ASSERT_EQ(start.num_paths(), 2u);

  ad::CpuEvaluator<double> f(f_sys);
  ad::CpuEvaluator<double> g(start.system());
  homotopy::Homotopy<double, ad::CpuEvaluator<double>, ad::CpuEvaluator<double>> h(
      f, g, homotopy::random_gamma(5));
  homotopy::PathTracker<double, ad::CpuEvaluator<double>, ad::CpuEvaluator<double>>
      tracker(h);

  std::set<int> endpoints;
  for (std::uint64_t p = 0; p < 2; ++p) {
    const auto root = start.start_root(p);
    std::vector<C<double>> x0 = {C<double>(root[0].re(), root[0].im())};
    const auto r = tracker.track(std::span<const C<double>>(x0));
    ASSERT_TRUE(r.success) << "path " << p;
    EXPECT_LT(r.final_residual, 1e-12);
    EXPECT_NEAR(std::abs(r.solution[0].re()), 2.0, 1e-8);
    EXPECT_NEAR(r.solution[0].im(), 0.0, 1e-8);
    endpoints.insert(r.solution[0].re() > 0 ? 1 : -1);
  }
  EXPECT_EQ(endpoints.size(), 2u);  // both roots found
}

TEST(Solver, FindsAllRootsOfDecoupledQuadrics) {
  // f = (x^2 - 1, y^2 - 4): four roots (+-1, +-2).
  poly::PolynomialBuilder b0(2), b1(2);
  b0.add_term({1.0, 0.0}, {2, 0});
  b0.add_constant({-1.0, 0.0});
  b1.add_term({1.0, 0.0}, {0, 2});
  b1.add_constant({-4.0, 0.0});
  const poly::PolynomialSystem sys({b0.build(), b1.build()});

  const auto summary = homotopy::solve_total_degree<double>(sys, affine_options());
  EXPECT_EQ(summary.attempted, 4u);
  EXPECT_EQ(summary.successes, 4u);
  const auto roots = summary.distinct_solutions();
  ASSERT_EQ(roots.size(), 4u);
  for (const auto& r : roots) {
    EXPECT_NEAR(std::abs(r[0].re()), 1.0, 1e-8);
    EXPECT_NEAR(std::abs(r[1].re()), 2.0, 1e-8);
  }
}

TEST(Solver, SolvesCyclic3Completely) {
  const auto sys = poly::cyclic(3);
  const auto summary = homotopy::solve_total_degree<double>(sys, affine_options());
  EXPECT_EQ(summary.attempted, 6u);
  EXPECT_EQ(summary.successes, 6u);
  // cyclic-3 has 6 isolated solutions (all regular)
  EXPECT_EQ(summary.distinct_solutions(1e-6).size(), 6u);
  // verify each claimed solution against the naive evaluator
  for (const auto& p : summary.paths) {
    std::vector<C<double>> values(3), jac(9);
    sys.evaluate_naive<double>(p.solution, values, jac);
    for (const auto& v : values)
      EXPECT_LT(std::abs(v.re()) + std::abs(v.im()), 1e-9);
  }
}

TEST(Solver, WorkerPoolMatchesSequential) {
  const auto sys = poly::cyclic(3);
  auto seq = affine_options();
  seq.sharding.shards = 1;
  auto par = affine_options();
  par.sharding.shards = 4;
  const auto a = homotopy::solve_total_degree<double>(sys, seq);
  const auto b = homotopy::solve_total_degree<double>(sys, par);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    ASSERT_EQ(a.paths[i].success, b.paths[i].success);
    for (std::size_t j = 0; j < a.paths[i].solution.size(); ++j)
      EXPECT_LT(cplx::max_abs_diff(a.paths[i].solution[j], b.paths[i].solution[j]),
                1e-12);
  }
}

TEST(Solver, MaxPathsLimitsWork) {
  const auto sys = poly::cyclic(3);
  auto opts = affine_options();
  opts.sharding.max_paths = 2;
  const auto summary = homotopy::solve_total_degree<double>(sys, opts);
  EXPECT_EQ(summary.attempted, 2u);
  EXPECT_EQ(summary.paths.size(), 2u);
}

TEST(Solver, DoubleDoubleEndgamePolish) {
  // Track in double-double end to end: residuals land near dd epsilon.
  poly::PolynomialBuilder b(1);
  b.add_term({1.0, 0.0}, {2});
  b.add_constant({-2.0, 0.0});
  const poly::PolynomialSystem sys({b.build()});
  auto opts = affine_options();
  opts.tracking.track.end_tolerance = 1e-25;
  const auto summary = homotopy::solve_total_degree<prec::DoubleDouble>(sys, opts);
  EXPECT_EQ(summary.successes, 2u);
  for (const auto& p : summary.paths) {
    EXPECT_LT(p.final_residual, 1e-25);
    EXPECT_NEAR(std::fabs(p.solution[0].re().to_double()), std::sqrt(2.0), 1e-14);
  }
}

TEST(Solver, ZeroShardsThrows) {
  auto opts = affine_options();
  opts.sharding.shards = 0;
  EXPECT_THROW((void)homotopy::solve_total_degree<double>(poly::cyclic(3), opts),
               std::invalid_argument);
  opts.tracking.geometry = solve::Geometry::kProjective;
  EXPECT_THROW((void)homotopy::solve_total_degree<double>(poly::cyclic(3), opts),
               std::invalid_argument);
}

TEST(Solver, DistinctSolutionsNeverMergesNaN) {
  // A NaN endpoint is not within any tolerance of anything: it stays
  // its own entry instead of folding into the first solution seen.
  homotopy::SolveSummary<double> summary;
  summary.paths.resize(2);
  for (auto& p : summary.paths) p.success = true;
  summary.paths[0].solution = {C<double>(1.0, 0.0), C<double>(2.0, 0.0)};
  summary.paths[1].solution = {C<double>(std::numeric_limits<double>::quiet_NaN(), 0.0),
                               C<double>(2.0, 0.0)};
  EXPECT_EQ(summary.distinct_solutions().size(), 2u);
  summary.paths[1].solution[0] = C<double>(1.0 + 1e-9, 0.0);
  EXPECT_EQ(summary.distinct_solutions().size(), 1u);
}

/// Projective CPU solve of `sys` in double: every converged endpoint
/// dehomogenizes to a root of `sys` (naive residual check); returns the
/// summary for the caller's classification counts.
homotopy::SolveSummary<double> solve_projective(const poly::PolynomialSystem& sys,
                                                unsigned max_steps = 10000) {
  solve::Options opts;
  opts.tracking.track.max_steps = max_steps;
  auto summary = homotopy::solve_total_degree<double>(sys, opts);
  const unsigned n = sys.dimension();
  for (const auto& p : summary.paths) {
    EXPECT_EQ(p.solution.size(), n + 1u);  // patched projective point
    if (p.status != homotopy::PathStatus::kConverged) continue;
    const auto x = homotopy::dehomogenize<double>(std::span<const C<double>>(p.solution));
    std::vector<C<double>> values(n), jac(std::size_t{n} * n);
    sys.evaluate_naive<double>(std::span<const C<double>>(x), values, jac);
    for (const auto& v : values) EXPECT_LT(std::abs(v.re()) + std::abs(v.im()), 1e-11);
  }
  return summary;
}

TEST(Solver, ProjectiveCyclic3) {
  const auto summary = solve_projective(poly::cyclic(3));
  EXPECT_EQ(summary.attempted, 6u);
  EXPECT_EQ(summary.successes, 6u);
  EXPECT_EQ(summary.at_infinity, 0u);
  EXPECT_EQ(summary.distinct_solutions(1e-6).size(), 6u);
}

TEST(Solver, ProjectiveNoonClassifiesRootsAtInfinity) {
  // noon(2) has 5 finite roots of its Bezout 9; the projective tracker
  // classifies the other 4 paths at infinity instead of stalling.
  const auto summary = solve_projective(poly::noon(2), 5000);
  EXPECT_EQ(summary.attempted, 9u);
  EXPECT_EQ(summary.successes, 5u);
  EXPECT_EQ(summary.at_infinity, 4u);
}

TEST(Solver, ProjectiveQuartic) {
  const auto summary = solve_projective(poly::parse_system("x0^4 - 16;"));
  EXPECT_EQ(summary.attempted, 4u);
  EXPECT_EQ(summary.successes, 4u);
  EXPECT_EQ(summary.distinct_solutions(1e-6).size(), 4u);
}

}  // namespace
