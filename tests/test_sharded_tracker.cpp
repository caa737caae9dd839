// Tracker batches routed through device shards: path results must be
// bitwise reproducible across shard counts (every shard owns identical
// evaluators, and paths are independent jobs), land in deterministic
// path order, and agree with the CPU manager/worker solver on what the
// roots actually are.

#include <gtest/gtest.h>

#include "homotopy/sharded_solver.hpp"
#include "poly/random_system.hpp"

namespace {

using namespace polyeval;
using Cd = cplx::Complex<double>;

poly::PolynomialSystem uniform_target() {
  poly::SystemSpec spec;
  spec.dimension = 3;
  spec.monomials_per_polynomial = 3;
  spec.variables_per_monomial = 2;
  spec.max_exponent = 2;
  spec.seed = 99;
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

TEST(ShardedTracker, BitwiseReproducibleAcrossShardCounts) {
  const auto sys = uniform_target();
  const auto want = homotopy::solve_total_degree_sharded<double>(sys, base_options(1));
  ASSERT_EQ(want.attempted, 6u);

  for (const unsigned shards : {2u, 4u}) {
    const auto got = homotopy::solve_total_degree_sharded<double>(sys, base_options(shards));
    ASSERT_EQ(got.paths.size(), want.paths.size()) << shards << " shards";
    EXPECT_EQ(got.successes, want.successes) << shards << " shards";
    for (std::size_t p = 0; p < want.paths.size(); ++p) {
      const auto& a = want.paths[p];
      const auto& b = got.paths[p];
      EXPECT_EQ(a.success, b.success) << "path " << p;
      EXPECT_EQ(a.steps, b.steps) << "path " << p;
      EXPECT_EQ(a.rejections, b.rejections) << "path " << p;
      EXPECT_EQ(a.endgame_failures, b.endgame_failures) << "path " << p;
      ASSERT_EQ(a.solution.size(), b.solution.size()) << "path " << p;
      for (std::size_t i = 0; i < a.solution.size(); ++i)
        EXPECT_EQ(cplx::max_abs_diff(a.solution[i], b.solution[i]), 0.0)
            << "path " << p << ", coordinate " << i;
    }
  }
}

TEST(ShardedTracker, EndpointsSolveTheTarget) {
  // Projective geometry (the default): converged endpoints are patched
  // projective points whose affine chart solves the target.
  const auto sys = uniform_target();
  const auto summary = homotopy::solve_total_degree_sharded<double>(sys, base_options(2));
  EXPECT_GE(summary.successes, 1u);
  for (const auto& p : summary.paths) {
    if (!p.success) continue;
    ASSERT_EQ(p.solution.size(), 4u);  // n + 1 patch coordinates
    const auto x = homotopy::dehomogenize<double>(std::span<const Cd>(p.solution));
    std::vector<Cd> values(3), jac(9);
    sys.evaluate_naive<double>(std::span<const Cd>(x), values, jac);
    for (const auto& v : values)
      EXPECT_LT(std::abs(v.re()) + std::abs(v.im()), 1e-7);
  }
}

TEST(ShardedTracker, EveryPathClassifiedInProjectiveMode) {
  // The tentpole contract: no path of this workload stalls -- every
  // endpoint is classified converged or at infinity.
  const auto sys = uniform_target();
  const auto summary = homotopy::solve_total_degree_sharded<double>(sys, base_options(2));
  EXPECT_EQ(summary.classified(), summary.attempted);
  for (const auto& p : summary.paths)
    EXPECT_TRUE(p.classified()) << "status " << static_cast<int>(p.status);
}

TEST(ShardedTracker, AffineEscapeHatchStillStalls) {
  // The affine geometry stays behind the enum with its historical
  // behavior: solutions are affine points and divergent paths stall.
  const auto sys = uniform_target();
  auto opt = base_options(2);
  opt.tracking.geometry = solve::Geometry::kAffine;
  const auto summary = homotopy::solve_total_degree_sharded<double>(sys, opt);
  EXPECT_GE(summary.successes, 1u);
  EXPECT_EQ(summary.at_infinity, 0u);
  for (const auto& p : summary.paths) {
    ASSERT_EQ(p.solution.size(), 3u);
    if (!p.success) {
      EXPECT_TRUE(p.status == homotopy::PathStatus::kStalled ||
                  p.status == homotopy::PathStatus::kDiverged);
    }
  }
}

TEST(ShardedTracker, ZeroShardsThrowsOnEveryRoute) {
  // Options are validated once at entry, so both routes reject a bad
  // shard count the same way instead of dividing by it.
  const auto sys = uniform_target();
  auto opt = base_options(0);
  EXPECT_THROW((void)homotopy::solve_total_degree_sharded<double>(sys, opt),
               std::invalid_argument)
      << "projective (service)";
  opt.tracking.geometry = solve::Geometry::kAffine;
  EXPECT_THROW((void)homotopy::solve_total_degree_sharded<double>(sys, opt),
               std::invalid_argument)
      << "affine (lockstep loop)";
}

TEST(ShardedTracker, ExplicitStartRootsLandInOrder) {
  // track_paths_sharded with hand-picked start roots: result i must
  // correspond to root i (deterministic merge), independent of shards.
  const auto sys = uniform_target();
  const homotopy::TotalDegreeStart start(sys);
  const auto gamma = homotopy::random_gamma(42);

  std::vector<std::vector<Cd>> roots;
  for (const std::uint64_t p : {0ull, 3ull, 1ull}) {  // deliberately shuffled
    const auto rd = start.start_root(p);
    std::vector<Cd> r;
    for (const auto& z : rd) r.push_back(z);
    roots.push_back(std::move(r));
  }

  auto opt = base_options(2);
  const auto a = homotopy::track_paths_sharded<double>(sys, start.system(), roots,
                                                       gamma, opt);
  opt.sharding.shards = 1;
  const auto b = homotopy::track_paths_sharded<double>(sys, start.system(), roots,
                                                       gamma, opt);
  ASSERT_EQ(a.paths.size(), 3u);
  ASSERT_EQ(b.paths.size(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(a.paths[p].success, b.paths[p].success);
    for (std::size_t i = 0; i < a.paths[p].solution.size(); ++i)
      EXPECT_EQ(cplx::max_abs_diff(a.paths[p].solution[i], b.paths[p].solution[i]), 0.0);
  }
}

TEST(ShardedTracker, EmptyBatchIsANoOp) {
  const auto sys = uniform_target();
  const homotopy::TotalDegreeStart start(sys);
  const std::vector<std::vector<Cd>> none;
  const auto summary = homotopy::track_paths_sharded<double>(
      sys, start.system(), none, homotopy::random_gamma(1), base_options(2));
  EXPECT_EQ(summary.attempted, 0u);
  EXPECT_EQ(summary.successes, 0u);
}

}  // namespace
