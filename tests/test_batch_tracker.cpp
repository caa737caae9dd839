// Lockstep batched tracking: per-path results must be BITWISE identical
// to the scalar PathTracker -- the CPU solver over the same start roots,
// gamma and patch -- across precisions (double/dd/qd), shard counts
// 1/2/4, both geometries, and through mid-run retirement (paths failing
// and finishing at different rounds while the survivors' batches
// compact around them).

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "homotopy/sharded_solver.hpp"
#include "poly/random_system.hpp"

namespace {

using namespace polyeval;
using Cd = cplx::Complex<double>;

poly::PolynomialSystem uniform_target(unsigned dim = 3, std::uint64_t seed = 99) {
  poly::SystemSpec spec;
  spec.dimension = dim;
  spec.monomials_per_polynomial = 3;
  spec.variables_per_monomial = 2;
  spec.max_exponent = 2;
  spec.seed = seed;
  return poly::make_random_system(spec);
}

solve::Options base_options(unsigned shards) {
  solve::Options opt;
  opt.sharding.shards = shards;
  opt.sharding.workers_per_shard = 1;
  opt.sharding.max_paths = 6;
  opt.tracking.track.max_steps = 4000;
  return opt;
}

template <prec::RealScalar S>
void expect_paths_bitwise(const homotopy::SolveSummary<S>& want,
                          const homotopy::SolveSummary<S>& got, const char* label) {
  ASSERT_EQ(want.paths.size(), got.paths.size()) << label;
  EXPECT_EQ(want.successes, got.successes) << label;
  for (std::size_t p = 0; p < want.paths.size(); ++p) {
    const auto& a = want.paths[p];
    const auto& b = got.paths[p];
    EXPECT_EQ(a.success, b.success) << label << ", path " << p;
    EXPECT_EQ(a.steps, b.steps) << label << ", path " << p;
    EXPECT_EQ(a.rejections, b.rejections) << label << ", path " << p;
    EXPECT_EQ(a.endgame_failures, b.endgame_failures) << label << ", path " << p;
    EXPECT_EQ(a.final_residual, b.final_residual) << label << ", path " << p;
    EXPECT_EQ(a.t_reached, b.t_reached) << label << ", path " << p;
    ASSERT_EQ(a.solution.size(), b.solution.size()) << label << ", path " << p;
    for (std::size_t i = 0; i < a.solution.size(); ++i)
      EXPECT_EQ(cplx::max_abs_diff(a.solution[i], b.solution[i]), 0.0)
          << label << ", path " << p << ", coordinate " << i;
  }
}

/// Lockstep vs the scalar CPU solver in one geometry.  Projective
/// lockstep runs through the solve service, affine lockstep through the
/// dedicated loop; both must reproduce the scalar tracker.
template <prec::RealScalar S>
void run_mode_parity(std::initializer_list<unsigned> shard_counts,
                     solve::Geometry geometry) {
  const auto sys = uniform_target();
  auto opt = base_options(1);
  opt.tracking.geometry = geometry;
  const auto want = homotopy::solve_total_degree<S>(sys, opt);
  ASSERT_EQ(want.attempted, 6u);
  EXPECT_GE(want.successes, 1u);

  const char* name = geometry == solve::Geometry::kAffine ? "affine" : "projective";
  for (const unsigned shards : shard_counts) {
    opt.sharding.shards = shards;
    const auto got = homotopy::solve_total_degree_sharded<S>(sys, opt);
    expect_paths_bitwise(want, got,
                         (std::string(name) + " lockstep, " +
                          std::to_string(shards) + " shard(s)")
                             .c_str());
  }
}

TEST(BatchTracker, LockstepMatchesPerPathAcrossShardCounts) {
  run_mode_parity<double>({1u, 2u, 4u}, solve::Geometry::kProjective);
  run_mode_parity<double>({1u, 2u}, solve::Geometry::kAffine);
}

TEST(BatchTracker, LockstepMatchesPerPathDoubleDouble) {
  run_mode_parity<prec::DoubleDouble>({1u, 2u}, solve::Geometry::kProjective);
  run_mode_parity<prec::DoubleDouble>({1u, 2u}, solve::Geometry::kAffine);
}

TEST(BatchTracker, LockstepMatchesPerPathQuadDouble) {
  run_mode_parity<prec::QuadDouble>({1u, 2u}, solve::Geometry::kProjective);
  run_mode_parity<prec::QuadDouble>({1u, 2u}, solve::Geometry::kAffine);
}

TEST(BatchTracker, SmallLockstepBatchChunksLiveSet) {
  // lockstep_batch smaller than the live set forces every round to walk
  // multiple device batches; chunking must not move a bit either.
  const auto sys = uniform_target();
  auto opt = base_options(1);
  const auto want = homotopy::solve_total_degree<double>(sys, opt);
  opt.sharding.lockstep_batch = 2;  // 6 paths -> 3 chunks per stage
  const auto got = homotopy::solve_total_degree_sharded<double>(sys, opt);
  expect_paths_bitwise(want, got, "lockstep_batch 2");
}

TEST(BatchTracker, MidRunRetirementCompactsAroundSurvivors) {
  // A batch mixing healthy start roots with garbage points: the garbage
  // paths reject until their steps underflow and retire mid-run, the
  // healthy paths keep tracking in the compacted batch, and every
  // result still matches the scalar tracker bitwise.
  const auto sys = uniform_target();
  const homotopy::TotalDegreeStart start(sys);
  const auto gamma = homotopy::random_gamma(42);

  std::vector<std::vector<Cd>> roots;
  for (const std::uint64_t p : {0ull, 1ull, 2ull, 3ull}) {
    const auto rd = start.start_root(p);
    std::vector<Cd> r;
    for (const auto& z : rd) r.push_back(z);
    roots.push_back(std::move(r));
  }
  // Garbage roots: far from any start root, so the first correctors
  // fail and the step halves to extinction.
  roots.insert(roots.begin() + 1,
               std::vector<Cd>(sys.dimension(), Cd(100.0, 100.0)));
  roots.push_back(std::vector<Cd>(sys.dimension(), Cd(-250.0, 75.0)));

  homotopy::TrackOptions topt;
  topt.max_steps = 4000;

  // Scalar baseline, path by path, over the same evaluator types.
  simt::Device device;
  core::FusedGpuEvaluator<double> f(device, sys, 1);
  ad::CpuEvaluator<double> g(start.system());
  homotopy::Homotopy<double, core::FusedGpuEvaluator<double>, ad::CpuEvaluator<double>>
      h(f, g, gamma);
  homotopy::PathTracker<double, core::FusedGpuEvaluator<double>,
                        ad::CpuEvaluator<double>>
      scalar(h, topt);

  // Lockstep batch over one shared device.
  simt::Device batch_device;
  core::FusedGpuEvaluator<double> fb(batch_device, sys, 4);
  ad::CpuEvaluator<double> gb(start.system());
  homotopy::BatchPathTracker<double, core::FusedGpuEvaluator<double>> tracker(
      batch_device, fb, gb, gamma, topt, roots.size());

  tracker.start(roots, 0, roots.size());
  ASSERT_EQ(tracker.live_paths(), roots.size());
  // The garbage paths must retire while others are still live: some
  // round shrinks the active set to a non-empty proper subset.
  bool shrank_mid_run = false;
  std::size_t live = tracker.live_paths();
  for (std::size_t now = tracker.round(); now > 0; now = tracker.round()) {
    if (now < live) shrank_mid_run = true;
    live = now;
  }
  EXPECT_TRUE(shrank_mid_run);
  EXPECT_GT(tracker.rounds(), 1u);

  unsigned successes = 0, failures = 0;
  for (std::size_t p = 0; p < roots.size(); ++p) {
    const auto want = scalar.track(std::span<const Cd>(roots[p]));
    const auto got = tracker.result(p);
    EXPECT_EQ(want.success, got.success) << "path " << p;
    EXPECT_EQ(want.steps, got.steps) << "path " << p;
    EXPECT_EQ(want.rejections, got.rejections) << "path " << p;
    EXPECT_EQ(want.final_residual, got.final_residual) << "path " << p;
    EXPECT_EQ(want.t_reached, got.t_reached) << "path " << p;
    ASSERT_EQ(want.solution.size(), got.solution.size());
    for (std::size_t i = 0; i < want.solution.size(); ++i)
      EXPECT_EQ(cplx::max_abs_diff(want.solution[i], got.solution[i]), 0.0)
          << "path " << p << ", coordinate " << i;
    (got.success ? successes : failures)++;
  }
  // The mix really exercised both retirement kinds.
  EXPECT_GE(successes, 1u);
  EXPECT_GE(failures, 2u);
}

TEST(BatchTracker, RestartReusesWarmState) {
  // start() on a warm tracker must reproduce the first run exactly
  // (state fully reset, buffers reused).
  const auto sys = uniform_target();
  const homotopy::TotalDegreeStart start(sys);
  const auto gamma = homotopy::random_gamma(7);

  std::vector<std::vector<Cd>> roots;
  for (std::uint64_t p = 0; p < 3; ++p) {
    const auto rd = start.start_root(p);
    std::vector<Cd> r;
    for (const auto& z : rd) r.push_back(z);
    roots.push_back(std::move(r));
  }

  simt::Device device;
  core::FusedGpuEvaluator<double> f(device, sys, 3);
  ad::CpuEvaluator<double> g(start.system());
  homotopy::TrackOptions topt;
  topt.max_steps = 4000;
  homotopy::BatchPathTracker<double, core::FusedGpuEvaluator<double>> tracker(
      device, f, g, gamma, topt, roots.size());

  tracker.start(roots, 0, roots.size());
  tracker.run();
  std::vector<homotopy::TrackResult<double>> first;
  for (std::size_t p = 0; p < roots.size(); ++p) first.push_back(tracker.result(p));

  tracker.start(roots, 0, roots.size());
  tracker.run();
  for (std::size_t p = 0; p < roots.size(); ++p) {
    const auto again = tracker.result(p);
    EXPECT_EQ(first[p].steps, again.steps) << "path " << p;
    EXPECT_EQ(first[p].final_residual, again.final_residual) << "path " << p;
    for (std::size_t i = 0; i < again.solution.size(); ++i)
      EXPECT_EQ(cplx::max_abs_diff(first[p].solution[i], again.solution[i]), 0.0)
          << "path " << p << ", coordinate " << i;
  }
}

}  // namespace
