// Newton's method over the evaluators: quadratic convergence on known
// roots, GPU/CPU interchangeability, the quality-up refinement ladder
// (double -> double-double -> quad-double), and failure reporting --
// including a NaN residual, which must never read as converged.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ad/cpu_evaluator.hpp"
#include "core/gpu_evaluator.hpp"
#include "newton/batch.hpp"
#include "newton/newton.hpp"
#include "poly/families.hpp"
#include "poly/random_system.hpp"

namespace {

using namespace polyeval;
using prec::DoubleDouble;
using prec::QuadDouble;

template <class T>
using C = cplx::Complex<T>;

// f(x, y) = (x^2 + y^2 - 5, x y - 2): four REGULAR roots
// (1,2), (2,1), (-1,-2), (-2,-1) -- the circle crosses the hyperbola
// transversally, so Newton converges quadratically.
poly::PolynomialSystem circle_hyperbola() {
  poly::PolynomialBuilder b0(2), b1(2);
  b0.add_term({1.0, 0.0}, {2, 0});
  b0.add_term({1.0, 0.0}, {0, 2});
  b0.add_constant({-5.0, 0.0});
  b1.add_term({1.0, 0.0}, {1, 1});
  b1.add_constant({-2.0, 0.0});
  return poly::PolynomialSystem({b0.build(), b1.build()});
}

TEST(Newton, ConvergesToKnownRoot) {
  const auto sys = circle_hyperbola();
  ad::CpuEvaluator<double> eval(sys);
  const std::vector<C<double>> x0 = {{1.2, 0.1}, {1.9, -0.1}};
  const auto r = newton::refine<double>(eval, std::span<const C<double>>(x0));
  ASSERT_TRUE(r.converged);
  EXPECT_LT(r.final_residual, 1e-12);
  EXPECT_NEAR(r.solution[0].re(), 1.0, 1e-8);
  EXPECT_NEAR(r.solution[0].im(), 0.0, 1e-8);
  EXPECT_NEAR(r.solution[1].re(), 2.0, 1e-8);
}

TEST(Newton, QuadraticConvergenceObserved) {
  const auto sys = circle_hyperbola();
  ad::CpuEvaluator<double> eval(sys);
  const std::vector<C<double>> x0 = {{1.05, 0.0}, {1.95, 0.0}};
  newton::NewtonOptions opts;
  opts.residual_tolerance = 1e-14;
  const auto r = newton::refine<double>(eval, std::span<const C<double>>(x0), opts);
  ASSERT_TRUE(r.converged);
  // residual roughly squares each step until the noise floor
  ASSERT_GE(r.residual_history.size(), 3u);
  for (std::size_t i = 1; i + 1 < r.residual_history.size(); ++i) {
    const double prev = r.residual_history[i - 1];
    const double cur = r.residual_history[i];
    if (prev < 1e-1 && cur > 1e-15) {
      EXPECT_LT(cur, prev * prev * 50.0) << "step " << i;
    }
  }
}

TEST(Newton, GpuEvaluatorPlugsIn) {
  // a uniform random system: refine a perturbed point back to the same
  // solution with CPU and GPU evaluators, identical results.
  poly::SystemSpec spec;
  spec.dimension = 8;
  spec.monomials_per_polynomial = 8;
  spec.variables_per_monomial = 4;
  spec.max_exponent = 2;
  const auto sys = poly::make_random_system(spec);

  const auto x0 = poly::make_random_point<double>(8, 5);
  newton::NewtonOptions opts;
  opts.max_iterations = 6;
  opts.residual_tolerance = 0.0;  // run all 6, compare trajectories

  ad::CpuEvaluator<double> cpu(sys);
  const auto rc = newton::refine<double>(cpu, std::span<const C<double>>(x0), opts);

  simt::Device device;
  core::GpuEvaluator<double> gpu(device, sys);
  const auto rg = newton::refine<double>(gpu, std::span<const C<double>>(x0), opts);

  ASSERT_EQ(rc.solution.size(), rg.solution.size());
  for (std::size_t i = 0; i < rc.solution.size(); ++i)
    EXPECT_LT(cplx::max_abs_diff(rc.solution[i], rg.solution[i]), 1e-12);
}

TEST(Newton, QualityUpLadder) {
  // Refine in double (stalls near 1e-15), widen, refine in dd
  // (~1e-30), widen, refine in qd (~1e-60): the paper's reason to buy
  // GPU cycles for software arithmetic.  The root must be irrational so
  // every precision leaves a nonzero residual: use
  // f = (x^2 + y^2 - 3, x y - 1), whose positive real root is the
  // golden ratio pair (phi, 1/phi).
  poly::PolynomialBuilder b0(2), b1(2);
  b0.add_term({1.0, 0.0}, {2, 0});
  b0.add_term({1.0, 0.0}, {0, 2});
  b0.add_constant({-3.0, 0.0});
  b1.add_term({1.0, 0.0}, {1, 1});
  b1.add_constant({-1.0, 0.0});
  const poly::PolynomialSystem sys({b0.build(), b1.build()});

  ad::CpuEvaluator<double> eval_d(sys);
  const std::vector<C<double>> x0 = {{1.6, 0.05}, {0.63, -0.05}};
  newton::NewtonOptions opts;
  opts.residual_tolerance = 0.0;
  opts.max_iterations = 12;
  const auto rd = newton::refine<double>(eval_d, std::span<const C<double>>(x0), opts);
  EXPECT_LT(rd.final_residual, 1e-14);

  ad::CpuEvaluator<DoubleDouble> eval_dd(sys);
  const auto x_dd = newton::widen_point<DoubleDouble, double>(rd.solution);
  newton::NewtonOptions opts_dd;
  opts_dd.residual_tolerance = 0.0;
  opts_dd.max_iterations = 4;
  const auto rdd =
      newton::refine<DoubleDouble>(eval_dd, std::span<const C<DoubleDouble>>(x_dd), opts_dd);
  EXPECT_LT(rdd.final_residual, 1e-28);

  ad::CpuEvaluator<QuadDouble> eval_qd(sys);
  std::vector<C<QuadDouble>> x_qd;
  for (const auto& z : rdd.solution)
    x_qd.emplace_back(QuadDouble(z.re()), QuadDouble(z.im()));
  newton::NewtonOptions opts_qd;
  opts_qd.residual_tolerance = 0.0;
  opts_qd.max_iterations = 4;
  const auto rqd =
      newton::refine<QuadDouble>(eval_qd, std::span<const C<QuadDouble>>(x_qd), opts_qd);
  EXPECT_LT(rqd.final_residual, 1e-55);

  // the dd rung actually gained precision over double; dd vs qd are both
  // at their respective noise floors (a lucky dd evaluation can land
  // arbitrarily close to zero, so no strict ordering between them).
  EXPECT_LT(rdd.final_residual, rd.final_residual);
}

TEST(Newton, ReportsSingularJacobian) {
  // f = (x^2, y^2) has a singular Jacobian at the double root (0,0);
  // starting exactly on the axis x=y makes J singular immediately...
  // actually J = diag(2x, 2y) is singular only at 0; start there.
  poly::PolynomialBuilder b0(2), b1(2);
  b0.add_term({1.0, 0.0}, {2, 0});
  b1.add_term({1.0, 0.0}, {0, 2});
  const poly::PolynomialSystem sys({b0.build(), b1.build()});
  ad::CpuEvaluator<double> eval(sys);
  const std::vector<C<double>> x0 = {{0.0, 0.0}, {1.0, 0.0}};
  const auto r = newton::refine<double>(eval, std::span<const C<double>>(x0));
  EXPECT_TRUE(r.singular);
  EXPECT_FALSE(r.converged);
}

/// A 2-variable "system" whose values are NaN everywhere, with an
/// identity Jacobian (so every LU solve succeeds).
struct NaNEvaluator {
  [[nodiscard]] unsigned dimension() const { return 2; }
  void evaluate(std::span<const C<double>>, poly::EvalResult<double>& out) const {
    out.resize(2);
    for (auto& v : out.values) v = C<double>(std::numeric_limits<double>::quiet_NaN());
    out.jacobian[0] = out.jacobian[3] = C<double>(1.0);
  }
};

TEST(Newton, NaNResidualIsNotConverged) {
  // The residual norm used to skip NaN components, so a NaN point read
  // as converged with residual 0 after 0 iterations.
  NaNEvaluator eval;
  const std::vector<C<double>> x0 = {{1.0, 0.0}, {2.0, 0.0}};
  newton::NewtonOptions opts;
  opts.max_iterations = 3;
  const auto r = newton::refine<double>(eval, std::span<const C<double>>(x0), opts);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(std::isnan(r.final_residual));
  EXPECT_EQ(r.iterations, opts.max_iterations);

  // The lockstep tracker's per-evaluation Newton step agrees.
  newton::SolveState state;
  std::vector<C<double>> x = x0, delta(2);
  linalg::LuArena<double> arena(2, 1);
  poly::EvalResult<double> out(2);
  newton::Verdict verdict = newton::Verdict::kContinue;
  // Bounded, so a step that ignored its cap fails instead of hanging.
  for (unsigned e = 0; e <= opts.max_iterations && verdict == newton::Verdict::kContinue;
       ++e) {
    eval.evaluate(std::span<const C<double>>(x), out);
    verdict = newton::step<double>(state, opts, std::span<C<double>>(x),
                                   std::span<const C<double>>(out.values),
                                   std::span<const C<double>>(out.jacobian), arena,
                                   std::span<C<double>>(delta));
  }
  EXPECT_EQ(verdict, newton::Verdict::kFailed);
  EXPECT_TRUE(std::isnan(state.final_residual));
  EXPECT_TRUE(std::isnan(state.initial_residual));
  EXPECT_EQ(state.iterations, opts.max_iterations);
}

TEST(Newton, UpdateToleranceStopsEarly) {
  const auto sys = circle_hyperbola();
  ad::CpuEvaluator<double> eval(sys);
  const std::vector<C<double>> x0 = {{1.001, 0.0}, {1.999, 0.0}};
  newton::NewtonOptions opts;
  opts.residual_tolerance = 1e-300;  // unreachable
  opts.update_tolerance = 1e-10;
  opts.max_iterations = 50;
  const auto r = newton::refine<double>(eval, std::span<const C<double>>(x0), opts);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 10u);
}

TEST(Newton, ZeroIterationsReportsInitialResidual) {
  const auto sys = circle_hyperbola();
  ad::CpuEvaluator<double> eval(sys);
  const std::vector<C<double>> x0 = {{1.0, 0.0}, {2.0, 0.0}};  // exact root
  const auto r = newton::refine<double>(eval, std::span<const C<double>>(x0));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_LT(r.final_residual, 1e-14);
}

TEST(Newton, NoonRootRefinement) {
  // noon(3) admits a root near the symmetric solution of
  // 2 s^3 - 1.1 s + 1 = 0 (real negative branch s ~ -1.02); polish it.
  const auto sys = poly::noon(3);
  ad::CpuEvaluator<double> eval(sys);
  // crude bisection seed for 2s^3 - 1.1 s + 1
  double s = -1.0;
  for (int i = 0; i < 30; ++i) {
    const double f = 2 * s * s * s - 1.1 * s + 1.0;
    s -= f / (6 * s * s - 1.1);
  }
  const std::vector<C<double>> x0(3, C<double>(s + 0.01));
  const auto r = newton::refine<double>(eval, std::span<const C<double>>(x0));
  ASSERT_TRUE(r.converged);
  for (const auto& z : r.solution) EXPECT_NEAR(z.re(), s, 1e-6);
}

}  // namespace
