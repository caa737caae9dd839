// Path-tracker control flow: step adaptation, failure modes (min-step
// exhaustion, step caps), and option plumbing -- the paths not covered
// by the happy-path solver tests.

#include <gtest/gtest.h>

#include "homotopy/solver.hpp"
#include "poly/families.hpp"
#include "poly/io.hpp"

namespace {

using namespace polyeval;
using Cd = cplx::Complex<double>;
using Eval = ad::CpuEvaluator<double>;

struct Fixture {
  poly::PolynomialSystem target;
  homotopy::TotalDegreeStart start;
  Eval f, g;
  homotopy::Homotopy<double, Eval, Eval> h;

  explicit Fixture(const poly::PolynomialSystem& sys, std::uint64_t gamma_seed = 5)
      : target(sys),
        start(target),
        f(target),
        g(start.system()),
        h(f, g, homotopy::random_gamma(gamma_seed)) {}
};

std::vector<Cd> widen(const std::vector<Cd>& v) { return v; }

TEST(TrackerPaths, MaxStepsCapsWork) {
  Fixture fx(poly::parse_system("x0^2 - 4;"));
  homotopy::TrackOptions opts;
  opts.max_steps = 3;
  opts.initial_step = 1e-4;  // far too small to reach t = 1 in 3 steps
  homotopy::PathTracker<double, Eval, Eval> tracker(fx.h, opts);
  const auto root = fx.start.start_root(0);
  const auto r = tracker.track(std::span<const Cd>(widen(root)));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.status, homotopy::PathStatus::kStalled);
  EXPECT_FALSE(r.classified());
  EXPECT_LT(r.t_reached, 1.0);
  EXPECT_LE(r.steps + r.rejections, 3u);
}

TEST(TrackerPaths, StepGrowthReducesStepCount) {
  Fixture fx(poly::parse_system("x0^2 - 4;"));
  homotopy::TrackOptions fast;
  fast.initial_step = 0.01;
  fast.step_growth = 2.0;
  fast.growth_after = 1;
  fast.max_step = 0.5;
  homotopy::TrackOptions slow = fast;
  slow.step_growth = 1.0;  // never grows: ~100 fixed steps

  homotopy::PathTracker<double, Eval, Eval> t_fast(fx.h, fast);
  homotopy::PathTracker<double, Eval, Eval> t_slow(fx.h, slow);
  const auto root = fx.start.start_root(0);
  const auto r_fast = t_fast.track(std::span<const Cd>(widen(root)));
  const auto r_slow = t_slow.track(std::span<const Cd>(widen(root)));
  ASSERT_TRUE(r_fast.success);
  ASSERT_TRUE(r_slow.success);
  EXPECT_LT(r_fast.steps, r_slow.steps / 2);
  EXPECT_GE(r_slow.steps, 90u);
}

TEST(TrackerPaths, TightCorrectorToleranceStillConverges) {
  Fixture fx(poly::parse_system("x0^2 - 4;"));
  homotopy::TrackOptions opts;
  opts.corrector_tolerance = 1e-13;
  opts.corrector_iterations = 8;
  homotopy::PathTracker<double, Eval, Eval> tracker(fx.h, opts);
  const auto root = fx.start.start_root(1);
  const auto r = tracker.track(std::span<const Cd>(widen(root)));
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.status, homotopy::PathStatus::kConverged);
  EXPECT_TRUE(r.classified());
  EXPECT_LT(r.final_residual, 1e-12);
}

TEST(TrackerPaths, RejectionsAreCounted) {
  // A very loose corrector budget with a huge initial step forces
  // rejections before the halving finds a workable step.
  Fixture fx(poly::parse_system("x0^4 - 16;"), 11);
  homotopy::TrackOptions opts;
  opts.initial_step = 0.9;
  opts.max_step = 0.9;
  opts.corrector_iterations = 2;
  opts.corrector_tolerance = 1e-11;
  homotopy::PathTracker<double, Eval, Eval> tracker(fx.h, opts);
  unsigned total_rejections = 0;
  for (std::uint64_t p = 0; p < fx.start.num_paths(); ++p) {
    const auto root = fx.start.start_root(p);
    const auto r = tracker.track(std::span<const Cd>(widen(root)));
    total_rejections += r.rejections;
    if (r.success) {
      EXPECT_NEAR(std::abs(r.solution[0].re()) + std::abs(r.solution[0].im()), 2.0,
                  1e-6);
    }
  }
  EXPECT_GT(total_rejections, 0u);
}

TEST(TrackerPaths, DivergedPolishKeepsTrackedPoint) {
  // An endgame forced to fail (one Newton step against an impossible
  // tolerance) must NOT replace the tracked point with the diverged
  // iterate: the result equals a no-polish run bit for bit, and the
  // reported residual is the tracked point's residual at t = 1.  The
  // root is irrational, so no double iterate ever reaches residual 0.
  Fixture fx(poly::parse_system("x0^2 - 2;"));
  homotopy::TrackOptions no_polish;
  no_polish.end_iterations = 0;
  no_polish.end_tolerance = 0.0;  // unreachable: polish can never converge
  homotopy::TrackOptions bad_polish = no_polish;
  bad_polish.end_iterations = 1;  // one step that moves the point, then fails

  const auto root = fx.start.start_root(0);
  homotopy::PathTracker<double, Eval, Eval> t_none(fx.h, no_polish);
  homotopy::PathTracker<double, Eval, Eval> t_bad(fx.h, bad_polish);
  const auto r_none = t_none.track(std::span<const Cd>(widen(root)));
  const auto r_bad = t_bad.track(std::span<const Cd>(widen(root)));

  EXPECT_FALSE(r_none.success);
  EXPECT_FALSE(r_bad.success);
  // Reached t = 1 but failed the residual test: diverged, not stalled.
  EXPECT_EQ(r_none.status, homotopy::PathStatus::kDiverged);
  EXPECT_EQ(r_bad.status, homotopy::PathStatus::kDiverged);
  ASSERT_EQ(r_none.solution.size(), r_bad.solution.size());
  for (std::size_t i = 0; i < r_none.solution.size(); ++i)
    EXPECT_EQ(cplx::max_abs_diff(r_none.solution[i], r_bad.solution[i]), 0.0)
        << "coordinate " << i;
  EXPECT_EQ(r_none.final_residual, r_bad.final_residual);
  EXPECT_GT(r_bad.final_residual, 0.0);
  // The kept point is still an (unpolished) root of x^2 = 2.
  EXPECT_NEAR(std::abs(r_bad.solution[0].re()) + std::abs(r_bad.solution[0].im()),
              std::sqrt(2.0), 1e-6);
}

TEST(TrackerPaths, MidTrackExitReportsResidual) {
  // A path dying before t = 1 (max_steps exhaustion) reports the
  // residual of where it stopped instead of the former 0.0 placeholder.
  Fixture fx(poly::parse_system("x0^2 - 4;"));
  homotopy::TrackOptions opts;
  opts.max_steps = 3;
  opts.initial_step = 1e-4;
  homotopy::PathTracker<double, Eval, Eval> tracker(fx.h, opts);
  const auto root = fx.start.start_root(0);
  const auto r = tracker.track(std::span<const Cd>(widen(root)));
  ASSERT_FALSE(r.success);
  EXPECT_EQ(r.status, homotopy::PathStatus::kStalled);
  ASSERT_LT(r.t_reached, 1.0);
  EXPECT_GT(r.final_residual, 0.0);
  EXPECT_LT(r.final_residual, 1.0);  // the corrector kept it on the path
}

TEST(TrackerPaths, QuarticRootsAllFound) {
  // x^4 = 16: roots 2, -2, 2i, -2i; all four paths land on distinct ones.
  const auto sys = poly::parse_system("x0^4 - 16;");
  solve::Options opts;
  opts.tracking.geometry = solve::Geometry::kAffine;
  const auto summary = homotopy::solve_total_degree<double>(sys, opts);
  EXPECT_EQ(summary.attempted, 4u);
  EXPECT_EQ(summary.successes, 4u);
  EXPECT_EQ(summary.distinct_solutions(1e-6).size(), 4u);
}

TEST(TrackerPaths, NoonSystemSolves) {
  // noon(2): f_i = x_i x_j^2 - 1.1 x_i + 1, Bezout 9.
  const auto sys = poly::noon(2);
  solve::Options opts;
  opts.tracking.geometry = solve::Geometry::kAffine;
  opts.tracking.track.max_steps = 5000;
  const auto summary = homotopy::solve_total_degree<double>(sys, opts);
  EXPECT_EQ(summary.attempted, 9u);
  EXPECT_GE(summary.successes, 5u);  // noon(2) has fewer finite roots than 9
  // every success really solves the system
  for (const auto& p : summary.paths) {
    if (!p.success) continue;
    std::vector<Cd> values(2), jac(4);
    sys.evaluate_naive<double>(p.solution, values, jac);
    for (const auto& v : values)
      EXPECT_LT(std::abs(v.re()) + std::abs(v.im()), 1e-9);
  }
}

}  // namespace
