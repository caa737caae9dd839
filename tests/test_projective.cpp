// Projective tracking and the Cauchy endgame: homogenization and patch
// algebra against naive oracles, at-infinity classification (where the
// affine tracker stalls), winding-number measurement on singular
// endpoints, bitwise lockstep-vs-scalar parity for projective mode
// across shard counts, the shared step-control arithmetic, and
// newton::step -- the lockstep tracker's per-evaluation Newton
// iteration -- against newton::refine, path by path.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <string>

#include "core/fused_evaluator.hpp"
#include "homotopy/sharded_solver.hpp"
#include "poly/random_system.hpp"

namespace {

using namespace polyeval;
using Cd = cplx::Complex<double>;
using CpuProjective = homotopy::ProjectiveHomotopy<double, ad::CpuEvaluator<double>>;

poly::PolynomialSystem uniform_target(unsigned dim = 3, std::uint64_t seed = 99) {
  poly::SystemSpec spec;
  spec.dimension = dim;
  spec.monomials_per_polynomial = 3;
  spec.variables_per_monomial = 2;
  spec.max_exponent = 2;
  spec.seed = seed;
  return poly::make_random_system(spec);
}

/// (x0 - 1)^k as a builder system (non-uniform: exercised on the CPU).
poly::PolynomialSystem binomial_power(unsigned k) {
  poly::PolynomialBuilder b(1);
  double coeff = 1.0, sign = 1.0;
  for (unsigned j = 0; j <= k; ++j) {
    // binomial coefficients of (x - 1)^k, highest power first
    b.add_term({sign * coeff, 0.0}, {k - j});
    coeff = coeff * static_cast<double>(k - j) / static_cast<double>(j + 1);
    sign = -sign;
  }
  return poly::PolynomialSystem({b.build()});
}

std::vector<Cd> widen(const std::vector<cplx::Complex<double>>& v) { return v; }

// -- homogenization algebra ---------------------------------------------

TEST(Homogenize, PolynomialBecomesHomogeneousAndRestricts) {
  const auto sys = uniform_target();
  const auto degrees = sys.degrees();
  for (unsigned i = 0; i < sys.dimension(); ++i) {
    const auto hom = homotopy::homogenize_polynomial(sys.polynomial(i), degrees[i]);
    EXPECT_EQ(hom.num_vars(), sys.dimension() + 1);
    for (const auto& mono : hom.monomials())
      EXPECT_EQ(mono.total_degree(), degrees[i]) << "polynomial " << i;

    // Restriction to the affine chart z_n = 1 recovers the original.
    const auto x = poly::make_random_point<double>(sys.dimension(), 7);
    std::vector<Cd> z(x.begin(), x.end());
    z.push_back(Cd(1.0));
    const auto want = sys.polynomial(i).evaluate(std::span<const Cd>(x));
    const auto got = hom.evaluate(std::span<const Cd>(z));
    EXPECT_LT(cplx::max_abs_diff(want, got), 1e-12);
  }
}

TEST(Homogenize, EulerIdentityHolds) {
  // z . grad F = d * F for every homogenized row, at a random point.
  const auto sys = uniform_target();
  const auto degrees = sys.degrees();
  const auto z = poly::make_random_point<double>(sys.dimension() + 1, 11);
  for (unsigned i = 0; i < sys.dimension(); ++i) {
    const auto hom = homotopy::homogenize_polynomial(sys.polynomial(i), degrees[i]);
    Cd dot{};
    for (unsigned j = 0; j <= sys.dimension(); ++j)
      dot += z[j] * hom.evaluate_derivative(std::span<const Cd>(z), j);
    const auto scaled =
        hom.evaluate(std::span<const Cd>(z)) * static_cast<double>(degrees[i]);
    EXPECT_LT(cplx::max_abs_diff(dot, scaled), 1e-10) << "row " << i;
  }
}

TEST(Homogenize, RandomPatchDeterministicUnitModulus) {
  const auto a = homotopy::random_patch(5, 13);
  const auto b = homotopy::random_patch(5, 13);
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_NEAR(cplx::norm_sqr(a[i]), 1.0, 1e-12);
  }
  EXPECT_NE(homotopy::random_patch(5, 14)[0], a[0]);
}

TEST(Homogenize, PatchPolynomialIsAffineHyperplane) {
  const auto c = homotopy::random_patch(4, 3);
  const auto patch = homotopy::patch_polynomial(std::span<const Cd>(c));
  const auto z = poly::make_random_point<double>(4, 17);
  Cd want{-1.0, 0.0};
  for (unsigned j = 0; j < 4; ++j) want += c[j] * z[j];
  EXPECT_LT(cplx::max_abs_diff(patch.evaluate(std::span<const Cd>(z)), want), 1e-13);
}

TEST(Homogenize, EmbedLandsOnPatchAndRoundtrips) {
  const auto c = homotopy::random_patch(4, 5);
  std::vector<Cd> patch(c.begin(), c.end());
  const auto x = poly::make_random_point<double>(3, 23);
  const auto z = homotopy::embed_in_patch<double>(std::span<const Cd>(x),
                                                  std::span<const Cd>(patch));
  ASSERT_EQ(z.size(), 4u);
  Cd dot{};
  for (unsigned j = 0; j < 4; ++j) dot += patch[j] * z[j];
  EXPECT_LT(cplx::max_abs_diff(dot, Cd(1.0)), 1e-12);
  const auto back = homotopy::dehomogenize<double>(std::span<const Cd>(z));
  for (unsigned i = 0; i < 3; ++i)
    EXPECT_LT(cplx::max_abs_diff(back[i], x[i]), 1e-12) << "coordinate " << i;
}

// -- the projective homotopy against the naive homogenized oracle --------

TEST(ProjectiveHomotopy, MatchesNaiveHomogenizedBlend) {
  // H rows must equal the gamma blend of the naive homogenized start
  // and target systems, row-scaled by 1 / ||z||_inf^{d_i} (the lift's
  // scale-invariance convention, m frozen per evaluation).
  const auto sys = uniform_target();
  const unsigned n = sys.dimension();
  const homotopy::TotalDegreeStart start(sys);
  const auto gamma = homotopy::random_gamma(3);
  const auto patch = homotopy::random_patch(n + 1, 5);
  const auto degrees = sys.degrees();

  ad::CpuEvaluator<double> f(sys);
  CpuProjective h(f, sys, start.system(), gamma, std::span<const Cd>(patch));
  ASSERT_EQ(h.dimension(), n + 1);

  const auto fhat_sys = homotopy::homogenize(sys, std::span<const Cd>(patch));
  const auto ghat_sys =
      homotopy::homogenize(start.system(), std::span<const Cd>(patch));

  const auto z = poly::make_random_point<double>(n + 1, 31);
  const double t = 0.41;
  h.set_t(t);
  poly::EvalResult<double> got(n + 1);
  h.evaluate(std::span<const Cd>(z), got);

  std::vector<Cd> fv(n + 1), gv(n + 1), fj((n + 1) * (n + 1)), gj((n + 1) * (n + 1));
  fhat_sys.evaluate_naive<double>(std::span<const Cd>(z), fv, fj);
  ghat_sys.evaluate_naive<double>(std::span<const Cd>(z), gv, gj);

  double m = 0.0;
  for (unsigned j = 0; j <= n; ++j) m = std::max(m, cplx::norm1(z[j]));
  const Cd gamma_c(gamma.re(), gamma.im());
  const Cd a = gamma_c * Cd(1.0 - t);
  for (unsigned i = 0; i < n; ++i) {
    const double scale = 1.0 / std::pow(m, static_cast<double>(degrees[i]));
    const Cd want = (a * gv[i] + Cd(t) * fv[i]) * scale;
    EXPECT_LT(cplx::max_abs_diff(got.values[i], want), 1e-10) << "row " << i;
    for (unsigned j = 0; j <= n; ++j) {
      const Cd wj = (a * gj[i * (n + 1) + j] + Cd(t) * fj[i * (n + 1) + j]) * scale;
      EXPECT_LT(cplx::max_abs_diff(got.jac(i, j), wj), 1e-9)
          << "row " << i << ", column " << j;
    }
  }
  // Patch row: c . z - 1, Jacobian = c, independent of t.
  Cd want_patch{-1.0, 0.0};
  for (unsigned j = 0; j <= n; ++j) want_patch += patch[j] * z[j];
  EXPECT_LT(cplx::max_abs_diff(got.values[n], want_patch), 1e-12);
  for (unsigned j = 0; j <= n; ++j)
    EXPECT_LT(cplx::max_abs_diff(got.jac(n, j), Cd(patch[j].re(), patch[j].im())),
              1e-13);
}

// -- classification -----------------------------------------------------

TEST(Projective, ParallelLinesClassifyAtInfinityWhereAffineStalls) {
  // Two parallel lines have no finite intersection: the single
  // total-degree path runs to infinity.  Projective tracking classifies
  // it (the homogenized lines meet at z_2 = 0); the affine escape hatch
  // stalls as before.
  poly::PolynomialBuilder l1(2), l2(2);
  l1.add_term({1.0, 0.0}, {1, 0}).add_term({1.0, 0.0}, {0, 1}).add_constant({-1.0, 0.0});
  l2.add_term({1.0, 0.0}, {1, 0}).add_term({1.0, 0.0}, {0, 1}).add_constant({-2.0, 0.0});
  const poly::PolynomialSystem lines({l1.build(), l2.build()});
  const homotopy::TotalDegreeStart start(lines);
  ASSERT_EQ(start.num_paths(), 1u);
  const auto gamma = homotopy::random_gamma(20120102);
  const auto root = widen(start.start_root(0));

  homotopy::TrackOptions topt;
  topt.max_steps = 3000;

  // Projective: classified at infinity.
  const auto patch = homotopy::random_patch(3, 20120717);
  std::vector<Cd> patch_s(patch.begin(), patch.end());
  ad::CpuEvaluator<double> f(lines);
  CpuProjective h(f, lines, start.system(), gamma, std::span<const Cd>(patch));
  homotopy::PathTracker<double, CpuProjective> tracker(h, topt);
  const auto z0 = homotopy::embed_in_patch<double>(std::span<const Cd>(root),
                                                   std::span<const Cd>(patch_s));
  const auto r = tracker.track(std::span<const Cd>(z0));
  EXPECT_EQ(r.status, homotopy::PathStatus::kAtInfinity);
  EXPECT_TRUE(r.classified());
  EXPECT_FALSE(r.success);
  // The endpoint's homogeneous coordinate has collapsed.
  EXPECT_LT(h.infinity_ratio(std::span<const Cd>(r.solution)), 1e-4);

  // Affine: the same path stalls (or diverges), never classified.
  ad::CpuEvaluator<double> fa(lines), ga(start.system());
  homotopy::Homotopy<double, ad::CpuEvaluator<double>, ad::CpuEvaluator<double>> ha(
      fa, ga, gamma);
  homotopy::PathTracker<double, ad::CpuEvaluator<double>, ad::CpuEvaluator<double>>
      affine(ha, topt);
  const auto ra = affine.track(std::span<const Cd>(root));
  EXPECT_FALSE(ra.classified());
  EXPECT_TRUE(ra.status == homotopy::PathStatus::kStalled ||
              ra.status == homotopy::PathStatus::kDiverged);
}

TEST(Projective, TripleRootWindingNumberMeasured) {
  // (x - 1)^3 against the start system x^3 - 1: near t = 1 one branch
  // approaches the triple root with winding 1 and the other two as a
  // winding-2 cycle -- the Cauchy endgame must measure w = 2 on those
  // and still land every endpoint on x = 1.
  const auto sys = binomial_power(3);
  const homotopy::TotalDegreeStart start(sys);
  ASSERT_EQ(start.num_paths(), 3u);
  const auto gamma = homotopy::random_gamma(20120102);
  const auto patch = homotopy::random_patch(2, 20120717);
  std::vector<Cd> patch_s(patch.begin(), patch.end());

  ad::CpuEvaluator<double> f(sys);
  CpuProjective h(f, sys, start.system(), gamma, std::span<const Cd>(patch));
  homotopy::TrackOptions topt;
  topt.max_steps = 3000;
  homotopy::PathTracker<double, CpuProjective> tracker(h, topt);

  unsigned wound = 0;
  for (std::uint64_t p = 0; p < 3; ++p) {
    const auto root = widen(start.start_root(p));
    const auto z0 = homotopy::embed_in_patch<double>(std::span<const Cd>(root),
                                                     std::span<const Cd>(patch_s));
    const auto r = tracker.track(std::span<const Cd>(z0));
    EXPECT_EQ(r.status, homotopy::PathStatus::kConverged) << "path " << p;
    const auto x = homotopy::dehomogenize<double>(std::span<const Cd>(r.solution));
    EXPECT_LT(cplx::max_abs_diff(x[0], Cd(1.0)), 1e-4) << "path " << p;
    if (r.winding > 0) {
      EXPECT_EQ(r.winding, 2u) << "path " << p;
      ++wound;
    }
  }
  EXPECT_GE(wound, 1u);  // the endgame really ran and measured the cycle
}

TEST(Projective, StatusEnumAndSuccessAgree) {
  const auto sys = uniform_target();
  solve::Options opt;
  opt.sharding.shards = 1;
  opt.sharding.max_paths = 6;
  opt.tracking.track.max_steps = 4000;
  const auto summary = homotopy::solve_total_degree_sharded<double>(sys, opt);
  EXPECT_EQ(summary.attempted, 6u);
  EXPECT_EQ(summary.classified(), 6u);  // this workload fully classifies
  for (const auto& p : summary.paths) {
    EXPECT_EQ(p.success, p.status == homotopy::PathStatus::kConverged);
    if (p.status == homotopy::PathStatus::kAtInfinity) EXPECT_FALSE(p.success);
  }
}

// -- lockstep-vs-scalar parity in projective mode ------------------------

template <prec::RealScalar S>
void expect_paths_bitwise(const homotopy::SolveSummary<S>& want,
                          const homotopy::SolveSummary<S>& got, const char* label) {
  ASSERT_EQ(want.paths.size(), got.paths.size()) << label;
  EXPECT_EQ(want.successes, got.successes) << label;
  EXPECT_EQ(want.at_infinity, got.at_infinity) << label;
  for (std::size_t p = 0; p < want.paths.size(); ++p) {
    const auto& a = want.paths[p];
    const auto& b = got.paths[p];
    EXPECT_EQ(a.status, b.status) << label << ", path " << p;
    EXPECT_EQ(a.winding, b.winding) << label << ", path " << p;
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

template <prec::RealScalar S>
void run_projective_parity(std::initializer_list<unsigned> shard_counts) {
  const auto sys = uniform_target();
  solve::Options opt;
  opt.sharding.shards = 1;
  opt.sharding.workers_per_shard = 1;
  opt.sharding.max_paths = 6;
  opt.tracking.track.max_steps = 4000;
  const auto want = homotopy::solve_total_degree<S>(sys, opt);  // scalar tracker
  ASSERT_EQ(want.attempted, 6u);
  EXPECT_GE(want.classified(), 5u);

  for (const unsigned shards : shard_counts) {
    opt.sharding.shards = shards;
    const auto got = homotopy::solve_total_degree_sharded<S>(sys, opt);
    expect_paths_bitwise(want, got,
                         (std::string("projective lockstep, ") +
                          std::to_string(shards) + " shard(s)")
                             .c_str());
  }
}

TEST(ProjectiveParity, LockstepMatchesScalarAcrossShardCounts) {
  run_projective_parity<double>({1u, 2u, 4u});
}

TEST(ProjectiveParity, LockstepMatchesScalarDoubleDouble) {
  run_projective_parity<prec::DoubleDouble>({1u, 2u});
}

// -- the tenant-routed batched homotopy ----------------------------------

using FusedProjective =
    homotopy::BatchedProjectiveHomotopy<double, core::FusedGpuEvaluator<double>>;

void expect_same_bits(std::span<const Cd> want, std::span<const Cd> got,
                      const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].re(), got[i].re()) << what << ", entry " << i;
    EXPECT_EQ(want[i].im(), got[i].im()) << what << ", entry " << i;
  }
}

TEST(RoutedProjectiveHomotopy, InterleavedTenantsMatchSingleSystemBitwise) {
  // Two tenants of one structure, each with its own gamma and patch,
  // their slots interleaved (and permuted) in one call: every routed
  // output must equal its own system's single-system homotopy bit for
  // bit.  Capacity 4 under 6 points: the evaluation walks two chunks
  // (the second at first = 4).
  const std::array<poly::PolynomialSystem, 2> sys = {uniform_target(3, 99),
                                                     uniform_target(3, 123)};
  const auto st = core::pack_system(sys[0]).structure;
  ASSERT_EQ(st, core::pack_system(sys[1]).structure);
  const unsigned n = st.n;
  const unsigned np1 = n + 1;
  const std::size_t nn1 = std::size_t{np1} * np1;
  constexpr unsigned kCap = 4;
  constexpr std::size_t kPoints = 6;

  const homotopy::TotalDegreeStart start0(sys[0]), start1(sys[1]);
  const std::array<const homotopy::TotalDegreeStart*, 2> starts = {&start0, &start1};
  const std::array<Cd, 2> gammas = {homotopy::random_gamma(1), homotopy::random_gamma(2)};
  const std::array<std::vector<Cd>, 2> patches = {homotopy::random_patch(np1, 2),
                                                  homotopy::random_patch(np1, 3)};

  simt::Device device;
  core::FusedGpuEvaluator<double> f0(device, sys[0], kCap), f1(device, sys[1], kCap);
  FusedProjective h0(f0, sys[0], starts[0]->system(), gammas[0],
                     std::span<const Cd>(patches[0]));
  FusedProjective h1(f1, sys[1], starts[1]->system(), gammas[1],
                     std::span<const Cd>(patches[1]));
  const std::array<FusedProjective*, 2> single = {&h0, &h1};

  // Three tenant slots, two installed: tenant 2 stays absent.
  core::FusedGpuEvaluator<double> routed(device, st, /*max_tenants=*/3, kCap);
  FusedProjective hr(routed, /*slot_capacity=*/8);
  EXPECT_EQ(hr.dimension(), np1);
  EXPECT_EQ(hr.max_batch(), kCap);
  for (unsigned t = 0; t < 2; ++t)
    hr.set_tenant(t, sys[t], starts[t]->system(), gammas[t],
                  std::span<const Cd>(patches[t]));

  // Point i rides slot ids[i]; slot s belongs to tenant slot_tenant[s].
  const std::vector<std::size_t> ids = {4, 0, 3, 2, 5, 1};
  const std::array<unsigned, 6> slot_tenant = {0, 1, 1, 0, 1, 0};
  for (std::size_t s = 0; s < slot_tenant.size(); ++s) hr.assign_slot(s, slot_tenant[s]);
  std::vector<std::vector<Cd>> points;
  std::vector<Cd> ts;
  for (std::size_t i = 0; i < kPoints; ++i) {
    const unsigned t = slot_tenant[ids[i]];
    const auto x = poly::make_random_point<double>(n, 40 + i);
    points.push_back(homotopy::embed_in_patch<double>(
        std::span<const Cd>(x), std::span<const Cd>(patches[t])));
    ts.push_back(Cd(0.15 * static_cast<double>(i + 1), 0.02 * static_cast<double>(i)));
  }

  std::vector<Cd> values(kCap * np1), jacs(kCap * nn1), rhs(np1);
  std::vector<Cd> want_v(np1), want_j(nn1), want_rhs(np1);
  EXPECT_THROW(hr.evaluate_range(points, std::span<const Cd>(ts), 0, kCap,
                                 std::span<Cd>(values), std::span<Cd>(jacs)),
               std::logic_error)
      << "evaluate without bind_slots";
  hr.bind_slots(std::span<const std::size_t>(ids));

  for (std::size_t first = 0; first < kPoints; first += kCap) {
    const std::size_t count = std::min<std::size_t>(kCap, kPoints - first);
    hr.evaluate_range(points, std::span<const Cd>(ts), first, count,
                      std::span<Cd>(values), std::span<Cd>(jacs));
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t p = first + i;
      FusedProjective& h = *single[slot_tenant[ids[p]]];
      h.evaluate_range(points, std::span<const Cd>(ts), p, 1, std::span<Cd>(want_v),
                       std::span<Cd>(want_j));
      h.rhs_from_last(0, std::span<Cd>(want_rhs));
      hr.rhs_from_last(i, std::span<Cd>(rhs));
      const std::string at = "point " + std::to_string(p);
      expect_same_bits(want_v, std::span<const Cd>(values).subspan(i * np1, np1),
                       at + " values");
      expect_same_bits(want_j, std::span<const Cd>(jacs).subspan(i * nn1, nn1),
                       at + " Jacobian");
      expect_same_bits(want_rhs, rhs, at + " rhs_from_last");
    }
  }

  // The slot hooks use the slot's own tenant patch.
  for (std::size_t p = 0; p < kPoints; ++p) {
    const unsigned t = slot_tenant[ids[p]];
    auto want_z = points[p], got_z = points[p];
    single[t]->renormalize(std::span<Cd>(want_z));
    hr.renormalize(ids[p], std::span<Cd>(got_z));
    expect_same_bits(want_z, got_z, "renormalize point " + std::to_string(p));
    EXPECT_EQ(single[t]->infinity_ratio(std::span<const Cd>(points[p])),
              hr.infinity_ratio(ids[p], std::span<const Cd>(points[p])))
        << "point " << p;
  }

  // Error paths.
  EXPECT_THROW(hr.assign_slot(6, 2), std::invalid_argument) << "absent tenant";
  EXPECT_THROW(hr.assign_slot(8, 0), std::invalid_argument) << "slot out of range";
  const std::vector<std::size_t> unassigned = {7};
  hr.bind_slots(std::span<const std::size_t>(unassigned));
  EXPECT_THROW(hr.evaluate_range(points, std::span<const Cd>(ts), 0, 1,
                                 std::span<Cd>(values), std::span<Cd>(jacs)),
               std::logic_error)
      << "unassigned slot";
}

// -- the shared step-control arithmetic ----------------------------------

TEST(StepControl, StreakResetsOnRejection) {
  homotopy::TrackOptions o;
  o.initial_step = 0.1;
  o.growth_after = 2;
  o.step_growth = 2.0;
  o.max_step = 10.0;
  o.step_shrink = 0.5;
  auto st = homotopy::detail::initial_step_state(o);
  EXPECT_EQ(st.step, 0.1);

  homotopy::detail::accept_step(st, 0.1, o);
  EXPECT_EQ(st.streak, 1u);
  EXPECT_EQ(st.step, 0.1);  // growth needs growth_after consecutive accepts
  homotopy::detail::reject_step(st, o);
  EXPECT_EQ(st.streak, 0u) << "a rejection must reset the growth streak";
  EXPECT_EQ(st.step, 0.05);
  EXPECT_EQ(st.rejections, 1u);
  // One accept after the rejection must NOT grow the step...
  homotopy::detail::accept_step(st, 0.2, o);
  EXPECT_EQ(st.step, 0.05);
  // ...but the second consecutive one does.
  homotopy::detail::accept_step(st, 0.3, o);
  EXPECT_EQ(st.step, 0.1);
  EXPECT_EQ(st.streak, 0u);
  EXPECT_EQ(st.steps, 3u);
}

TEST(StepControl, StepNeverOvershootsTEnd) {
  homotopy::detail::StepState st;
  // Adversarial sweep: for any (t, step) the clamped target never
  // exceeds 1, and a full-width step lands exactly on 1.
  for (const double t : {0.0, 0.1, 0.3, 0.49999999, 0.5, 0.7, 0.875,
                         0.9999999999999999, 1.0 - 1e-12}) {
    for (const double step : {1e-8, 1e-3, 0.05, 0.2, 0.5, 1.0}) {
      st.t = t;
      st.step = step;
      const double dt = homotopy::detail::clamped_dt(st);
      EXPECT_LE(dt, step);
      const double target = homotopy::detail::step_target(st, dt);
      EXPECT_LE(target, 1.0) << "t " << t << ", step " << step;
      if (step >= 1.0 - t)
        EXPECT_EQ(target, 1.0) << "t " << t << ", step " << step;
    }
  }
}

TEST(StepControl, EndgameArmsAtStallThenOnceMoreAtUnderflow) {
  homotopy::TrackOptions o;
  o.endgame.trigger_t = 0.9;
  o.endgame.trigger_step = 1e-3;
  o.min_step = 1e-8;
  auto st = homotopy::detail::initial_step_state(o);
  st.t = 0.95;
  st.step = 2e-3;
  EXPECT_FALSE(homotopy::detail::endgame_triggered(st, o));
  st.step = 5e-4;  // the stall signature
  EXPECT_TRUE(homotopy::detail::endgame_triggered(st, o));
  st.t = 0.5;  // too far from t = 1
  EXPECT_FALSE(homotopy::detail::endgame_triggered(st, o));
  st.t = 0.95;
  homotopy::detail::endgame_failed(st);
  for (const double step : {5e-4, 2.4e-4, 1e-6, 1e-8})
    EXPECT_FALSE(homotopy::detail::endgame_triggered(st, o))
        << "after a failed attempt only step underflow re-arms (step " << step
        << ")";
  st.step = 5e-9;  // below min_step: the last chance
  EXPECT_TRUE(homotopy::detail::endgame_triggered(st, o));
  homotopy::detail::endgame_failed(st);
  EXPECT_FALSE(homotopy::detail::endgame_triggered(st, o))
      << "a path gets at most two attempts";
  o.endgame.enabled = false;
  EXPECT_FALSE(homotopy::detail::endgame_triggered(
      homotopy::detail::initial_step_state(o), o));
}

TEST(StepControl, EndgameNeverClosesOnNaN) {
  // A loop whose last sample went NaN has not returned to its start:
  // the closure test must not read the NaN distance as within tolerance.
  homotopy::EndgameOptions o;
  o.samples_per_loop = 1;
  o.max_windings = 2;
  homotopy::CauchyEndgame<double> eg;
  eg.reserve(2, o);
  const std::array<Cd, 2> z0 = {Cd(1.0, 0.0), Cd(0.5, 0.5)};
  std::array<Cd, 2> bad = z0;
  bad[1] = Cd(std::numeric_limits<double>::quiet_NaN(), 0.5);
  eg.begin(1e-3, std::span<const Cd>(z0));
  EXPECT_EQ(eg.absorb(std::span<const Cd>(bad), o),
            homotopy::CauchyEndgame<double>::Step::kContinue);
  EXPECT_EQ(eg.absorb(std::span<const Cd>(bad), o),
            homotopy::CauchyEndgame<double>::Step::kExhausted);
  EXPECT_EQ(eg.winding(), 0u);
  eg.begin(1e-3, std::span<const Cd>(z0));  // a finite return still closes
  EXPECT_EQ(eg.absorb(std::span<const Cd>(z0), o),
            homotopy::CauchyEndgame<double>::Step::kClosed);
  EXPECT_EQ(eg.winding(), 1u);
}

TEST(StepControl, EndgameClosesOnAnEarlierLoopEnd) {
  // A start point off the periodic orbit: the loop ends alternate a, b,
  // a, ... and never return to z0.  The third loop closes on the first
  // loop's end, measuring winding 2, and the mean runs over loops 2-3.
  homotopy::EndgameOptions o;
  o.samples_per_loop = 1;
  o.closure_tolerance = 1e-6;
  homotopy::CauchyEndgame<double> eg;
  eg.reserve(1, o);
  const std::array<Cd, 1> z0 = {Cd(0.0, 0.0)};
  const std::array<Cd, 1> a = {Cd(1.0, 1e-3)};
  const std::array<Cd, 1> b = {Cd(-0.5, 2.0)};
  std::array<Cd, 1> a_again = a;
  a_again[0] = Cd(1.0 + 5e-7, 1e-3);
  eg.begin(1e-3, std::span<const Cd>(z0));
  using Step = homotopy::CauchyEndgame<double>::Step;
  EXPECT_EQ(eg.absorb(std::span<const Cd>(a), o), Step::kContinue);
  EXPECT_EQ(eg.absorb(std::span<const Cd>(b), o), Step::kContinue);
  EXPECT_EQ(eg.absorb(std::span<const Cd>(a_again), o), Step::kClosed);
  EXPECT_EQ(eg.winding(), 2u);
  std::array<Cd, 1> end{};
  eg.endpoint(std::span<Cd>(end));
  EXPECT_EQ(end[0].re(), ((a[0].re() + b[0].re() + a_again[0].re()) - a[0].re()) * 0.5);
  EXPECT_EQ(end[0].im(), ((a[0].im() + b[0].im() + a_again[0].im()) - a[0].im()) * 0.5);
  // A return to the start point still takes precedence and keeps the
  // whole-attempt mean.
  eg.begin(1e-3, std::span<const Cd>(z0));
  EXPECT_EQ(eg.absorb(std::span<const Cd>(a), o), Step::kContinue);
  EXPECT_EQ(eg.absorb(std::span<const Cd>(z0), o), Step::kClosed);
  EXPECT_EQ(eg.winding(), 2u);
  eg.endpoint(std::span<Cd>(end));
  EXPECT_EQ(end[0].re(), (a[0].re() + z0[0].re()) * 0.5);
}

TEST(StepControl, ZeroSamplesPerLoopRejectedAtConstruction) {
  // samples_per_loop = 0 would divide by zero in the endgame's sample
  // parameter; both trackers must reject it up front.
  const auto sys = uniform_target();
  const homotopy::TotalDegreeStart start(sys);
  const auto gamma = homotopy::random_gamma(1);
  const auto patch = homotopy::random_patch(4, 2);
  ad::CpuEvaluator<double> f(sys);
  CpuProjective h(f, sys, start.system(), gamma, std::span<const Cd>(patch));
  homotopy::TrackOptions bad;
  bad.endgame.samples_per_loop = 0;
  EXPECT_THROW((homotopy::PathTracker<double, CpuProjective>(h, bad)),
               std::invalid_argument);
  bad.endgame.enabled = false;  // disabled endgame never samples: allowed
  EXPECT_NO_THROW((homotopy::PathTracker<double, CpuProjective>(h, bad)));

  simt::Device device;
  core::FusedGpuEvaluator<double> fd(device, sys, 2);
  homotopy::BatchedProjectiveHomotopy<double, core::FusedGpuEvaluator<double>> hb(
      fd, sys, start.system(), gamma, std::span<const Cd>(patch));
  bad.endgame.enabled = true;
  EXPECT_THROW(
      (homotopy::BatchPathTracker<
          double,
          homotopy::BatchedProjectiveHomotopy<double, core::FusedGpuEvaluator<double>>>(
          device, hb, bad, 2)),
      std::invalid_argument);
}

// -- newton::step against newton::refine ---------------------------------

/// Kernel launches in the device log, split into full (values and
/// Jacobian) and values-only fused launches.
struct LaunchCounts {
  unsigned full = 0, values = 0;
};

LaunchCounts count_launches(const simt::Device& device) {
  LaunchCounts c;
  for (const auto& k : device.log().kernels) {
    if (k.kernel == "fused_eval") ++c.full;
    if (k.kernel == "fused_values") ++c.values;
  }
  return c;
}

template <class T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// newton::step against newton::refine path by path, driven the way the
/// lockstep tracker drives it: each round one full launch of the
/// batched homotopy over every path whose solve is still running, then
/// one step per path under its own options.  The paths cover each
/// per-path outcome -- converged at entry, converging, singular,
/// unconverged at its cap -- under two option classes (caps 2 and 6,
/// tolerances 1e-9 and 1e-8); each must match newton::refine under its
/// own options bit for bit, evaluation for evaluation.
template <prec::RealScalar S>
void expect_step_matches_refine() {
  using C = cplx::Complex<S>;
  using Fused = core::FusedGpuEvaluator<S>;
  const auto sys = uniform_target();
  const unsigned n = sys.dimension();
  const homotopy::TotalDegreeStart start(sys);
  const auto gamma = homotopy::random_gamma(3);
  simt::Device device;
  Fused f(device, sys, 6);
  Fused f1(device, sys, 1);
  ad::CpuEvaluator<S> g(start.system());
  homotopy::BatchedHomotopy<S, Fused> hb(f, g, gamma);
  homotopy::Homotopy<S, Fused, ad::CpuEvaluator<S>> hs(f1, g, gamma);

  const auto root = [&](std::uint64_t p, cplx::Complex<double> scale) {
    std::vector<C> r;
    for (const auto& z : start.start_root(p)) r.push_back(C::from_double(z * scale));
    return r;
  };
  std::vector<std::vector<C>> entry = {
      root(0, {1.0, 0.0}),    // A: converged at entry (t = 0: a zero of gamma g)
      root(1, {1.01, 0.02}),  // B: converges
      root(2, {1.0, 0.0}),    // A: singular once x0 = 0 zeroes Jacobian column 0
      root(3, {40.0, 10.0}),  // A: reaches cap 2 unconverged
      root(3, {40.0, 10.0}),  // B: the same point, reaches cap 6 unconverged
      root(1, {1.3, 0.2}),    // B: converges after more updates than A allows
  };
  entry[2][0] = C{};
  const std::vector<C> ts = {C{}, C{}, C{}, C(S(0.25)), C(S(0.25)), C{}};
  const std::vector<unsigned> class_of = {0, 1, 0, 0, 1, 1};
  std::array<newton::NewtonOptions, 2> classes;
  classes[0].max_iterations = 2;
  classes[0].residual_tolerance = 1e-9;
  classes[1].max_iterations = 6;
  classes[1].residual_tolerance = 1e-8;
  const std::size_t count = entry.size();

  auto x = entry;
  std::vector<newton::SolveState> state(count);
  std::vector<newton::Verdict> verdict(count, newton::Verdict::kContinue);
  std::vector<unsigned> evaluations(count, 0);
  std::vector<std::size_t> running(count);
  for (std::size_t i = 0; i < count; ++i) running[i] = i;
  linalg::LuArena<S> arena(n, 1);
  std::vector<C> values(count * n), jacobians(count * n * n), delta(n);
  std::vector<std::vector<C>> staged(count);
  std::vector<C> staged_t(count);
  unsigned rounds = 0;
  device.clear_log();
  while (!running.empty()) {
    ++rounds;
    for (std::size_t j = 0; j < running.size(); ++j) {
      staged[j] = x[running[j]];
      staged_t[j] = ts[running[j]];
    }
    hb.evaluate_range(staged, std::span<const C>(staged_t), 0, running.size(),
                      std::span<C>(values), std::span<C>(jacobians));
    std::size_t keep = 0;
    for (std::size_t j = 0; j < running.size(); ++j) {
      const std::size_t i = running[j];
      ++evaluations[i];
      verdict[i] = newton::step<S>(state[i], classes[class_of[i]], std::span<C>(x[i]),
                                   std::span<const C>(values).subspan(j * n, n),
                                   std::span<const C>(jacobians).subspan(j * n * n, n * n),
                                   arena, std::span<C>(delta));
      if (verdict[i] == newton::Verdict::kContinue) running[keep++] = i;
    }
    running.resize(keep);
  }
  const LaunchCounts launches = count_launches(device);

  for (std::size_t i = 0; i < count; ++i) {
    hs.set_t_complex(ts[i]);
    const auto want =
        newton::refine<S>(hs, std::span<const C>(entry[i]), classes[class_of[i]]);
    const auto& got = state[i];
    EXPECT_EQ(verdict[i] == newton::Verdict::kConverged, want.converged) << "path " << i;
    EXPECT_EQ(got.singular, want.singular) << "path " << i;
    EXPECT_EQ(got.iterations, want.iterations) << "path " << i;
    EXPECT_EQ(evaluations[i], want.residual_history.size()) << "path " << i;
    EXPECT_TRUE(same_bits(got.final_residual, want.final_residual)) << "path " << i;
    EXPECT_TRUE(same_bits(got.initial_residual, want.residual_history.front()))
        << "path " << i;
    for (unsigned v = 0; v < n; ++v)
      EXPECT_TRUE(same_bits(x[i][v], want.solution[v])) << "path " << i << " var " << v;
  }

  // The batch really holds the cases, under both caps.
  using newton::Verdict;
  EXPECT_EQ(verdict[0], Verdict::kConverged);
  EXPECT_EQ(state[0].iterations, 0u);
  EXPECT_EQ(verdict[1], Verdict::kConverged);
  EXPECT_GT(state[1].iterations, 0u);
  EXPECT_TRUE(state[2].singular);
  EXPECT_EQ(verdict[2], Verdict::kFailed);
  EXPECT_EQ(verdict[3], Verdict::kFailed);
  EXPECT_FALSE(state[3].singular);
  EXPECT_EQ(state[3].iterations, classes[0].max_iterations);
  EXPECT_EQ(verdict[4], Verdict::kFailed);
  EXPECT_EQ(state[4].iterations, classes[1].max_iterations);
  EXPECT_EQ(verdict[5], Verdict::kConverged);
  EXPECT_GT(state[5].iterations, classes[0].max_iterations);

  // One full launch per round, the cap evaluations included.
  EXPECT_EQ(launches.full, rounds);
  EXPECT_EQ(launches.values, 0u);
  EXPECT_EQ(rounds, *std::max_element(evaluations.begin(), evaluations.end()));
}

TEST(NewtonStep, MatchesScalarRefinePerPathDouble) {
  expect_step_matches_refine<double>();
}

TEST(NewtonStep, MatchesScalarRefinePerPathDoubleDouble) {
  expect_step_matches_refine<prec::DoubleDouble>();
}

}  // namespace
