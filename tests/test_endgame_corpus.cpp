// The Cauchy endgame against a known-multiplicity corpus: systems whose
// roots, multiplicities and paths at infinity are known in closed form.
// Each case runs through the scalar CPU solver (solve_total_degree) and
// through the lockstep BatchPathTracker, which must agree bit for bit;
// then every path is checked against the math -- its status, its
// endpoint against the known root, its winding against the root's
// multiplicity, and the cycle structure at each root (the paths of a
// winding-w cycle arrive w at a time).  The corpus systems are not
// uniform in the paper's (n, m, k, d) sense, so their lockstep runs
// evaluate the target on the CPU; a uniform system with many endgame
// paths covers the device routes (track_paths_sharded at 1 and 2
// shards), pins the endgame's cost and checks that every round gives
// each live path -- tracking, circling or polishing -- one evaluation in
// one launch.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "homotopy/sharded_solver.hpp"
#include "obs/metrics.hpp"
#include "poly/random_system.hpp"

namespace {

using namespace polyeval;
using Cd = cplx::Complex<double>;
using Terms = std::map<std::vector<unsigned>, Cd>;

/// Batched target evaluator over the CPU reference evaluator: the
/// lockstep tracker's device-evaluator interface for systems the fused
/// kernel cannot pack.  Point-by-point, so batching changes no bit.
class CpuBatchTarget {
 public:
  CpuBatchTarget(const poly::PolynomialSystem& system, unsigned capacity)
      : eval_(system), capacity_(capacity) {}

  [[nodiscard]] unsigned dimension() const noexcept { return eval_.dimension(); }
  [[nodiscard]] unsigned batch_capacity() const noexcept { return capacity_; }

  void evaluate_range(const std::vector<std::vector<Cd>>& points, std::size_t first,
                      std::size_t count, std::span<poly::EvalResult<double>> out) {
    for (std::size_t i = 0; i < count; ++i)
      eval_.evaluate(std::span<const Cd>(points[first + i]), out[i]);
  }

 private:
  ad::CpuEvaluator<double> eval_;
  unsigned capacity_;
};

// -- corpus construction --------------------------------------------------

Terms multiply(const Terms& a, const Terms& b) {
  Terms out;
  for (const auto& [ea, ca] : a)
    for (const auto& [eb, cb] : b) {
      std::vector<unsigned> e(ea.size());
      for (std::size_t v = 0; v < e.size(); ++v) e[v] = ea[v] + eb[v];
      out[e] += ca * cb;
    }
  return out;
}

/// The affine linear form sum_v a[v] x_v - c as terms in n variables.
Terms linear(const std::vector<Cd>& a, Cd c) {
  const unsigned n = static_cast<unsigned>(a.size());
  Terms t;
  for (unsigned v = 0; v < n; ++v) {
    std::vector<unsigned> e(n, 0);
    e[v] = 1;
    t[e] = a[v];
  }
  t[std::vector<unsigned>(n, 0)] = Cd(0.0) - c;
  return t;
}

Terms power(const Terms& base, unsigned k) {
  Terms out{{std::vector<unsigned>(base.begin()->first.size(), 0), Cd(1.0)}};
  for (unsigned i = 0; i < k; ++i) out = multiply(out, base);
  return out;
}

poly::Polynomial build(const Terms& terms) {
  poly::PolynomialBuilder b(static_cast<unsigned>(terms.begin()->first.size()));
  for (const auto& [e, c] : terms) b.add_term(c, e);
  return b.build();
}

/// x_v - root in n variables.
Terms shifted(unsigned n, unsigned v, double root) {
  std::vector<Cd> a(n, Cd(0.0));
  a[v] = Cd(1.0);
  return linear(a, Cd(root));
}

struct KnownRoot {
  std::vector<Cd> x;
  unsigned multiplicity = 1;
};

struct Case {
  std::string name;
  poly::PolynomialSystem system;
  std::vector<KnownRoot> roots;
  unsigned at_infinity = 0;  ///< paths that end on the hyperplane at infinity
  bool cycle = false;        ///< a winding >= 2 must be measured
};

Case binomial_power(unsigned k) {
  return {"(x-1)^" + std::to_string(k),
          poly::PolynomialSystem({build(power(shifted(1, 0, 1.0), k))}),
          {{{Cd(1.0)}, k}},
          0,
          true};
}

Case griewank_osborne() {
  // {29/16 x^3 - 2 x y, y - x^2}: a triple root at the origin, and the
  // other three of the six total-degree paths end at infinity.
  const Terms f1{{{3, 0}, Cd(29.0 / 16.0)}, {{1, 1}, Cd(-2.0)}};
  const Terms f2{{{0, 1}, Cd(1.0)}, {{2, 0}, Cd(-1.0)}};
  return {"griewank-osborne",
          poly::PolynomialSystem({build(f1), build(f2)}),
          {{{Cd(0.0), Cd(0.0)}, 3}},
          3,
          true};
}

/// {(a_1 . x - c_1)^k1, (a_2 . x - c_2)^k2} with seeded random complex
/// a_i and c_i = a_i . x*: the one root x*, of multiplicity k1 k2.
Case linear_powers(unsigned k1, unsigned k2) {
  const std::vector<Cd> root = {Cd(0.5, -0.25), Cd(-0.75, 0.5)};
  std::vector<poly::Polynomial> rows;
  const unsigned ks[2] = {k1, k2};
  for (unsigned i = 0; i < 2; ++i) {
    const auto a = homotopy::random_patch(2, 4242 + i);
    const Cd c = a[0] * root[0] + a[1] * root[1];
    rows.push_back(build(power(linear(a, c), ks[i])));
  }
  return {"(a1.x-c1)^" + std::to_string(k1) + ", (a2.x-c2)^" + std::to_string(k2),
          poly::PolynomialSystem(std::move(rows)),
          {{root, k1 * k2}},
          0,
          true};
}

/// {(x_i - 1)^2 : i < n}: one root of multiplicity 2^n.
Case squares(unsigned n) {
  std::vector<poly::Polynomial> rows;
  for (unsigned v = 0; v < n; ++v) rows.push_back(build(power(shifted(n, v, 1.0), 2)));
  return {std::to_string(n) + " squares (x_i-1)^2",
          poly::PolynomialSystem(std::move(rows)),
          {{std::vector<Cd>(n, Cd(1.0)), 1u << n}},
          0,
          false};
}

Case double_and_simple() {
  return {"(x-1)^2 (x+2)",
          poly::PolynomialSystem(
              {build(multiply(power(shifted(1, 0, 1.0), 2), shifted(1, 0, -2.0)))}),
          {{{Cd(1.0)}, 2}, {{Cd(-2.0)}, 1}},
          0,
          false};
}

std::vector<Case> corpus() {
  std::vector<Case> cases;
  for (const unsigned k : {3u, 4u, 5u}) cases.push_back(binomial_power(k));
  cases.push_back(griewank_osborne());
  cases.push_back(linear_powers(2, 2));
  cases.push_back(linear_powers(3, 1));
  cases.push_back(squares(2));
  cases.push_back(squares(3));
  cases.push_back(double_and_simple());
  return cases;
}

solve::Options corpus_options() {
  solve::Options opt;
  opt.sharding.shards = 1;
  opt.tracking.track.max_steps = 4000;
  return opt;
}

// -- the routes -------------------------------------------------------------

using CpuProjective = homotopy::BatchedProjectiveHomotopy<double, CpuBatchTarget>;

/// The lockstep tracker over the CPU batch target, its paths split into
/// `slices` consecutive trackers (as track_lockstep_loop splits shards);
/// `entries` returns the endgame attempts the trackers armed.
homotopy::SolveSummary<double> lockstep(const poly::PolynomialSystem& sys,
                                        const solve::Options& opt, unsigned slices,
                                        std::uint64_t* entries = nullptr) {
  const homotopy::TotalDegreeStart start(sys);
  auto roots = homotopy::total_degree_roots<double>(start, opt.sharding.max_paths);
  const auto patch = homotopy::random_patch(sys.dimension() + 1, opt.tracking.patch_seed);
  homotopy::embed_all_in_patch<double>(roots, patch);
  const auto gamma = homotopy::random_gamma(opt.gamma_seed);

  obs::MetricsRegistry registry;
  const auto metrics = obs::TrackerMetrics::from_registry(registry);
  homotopy::SolveSummary<double> summary;
  summary.attempted = roots.size();
  summary.paths.resize(roots.size());
  simt::Device device;  // launch-log owner only: the target runs on the CPU
  const std::size_t per = (roots.size() + slices - 1) / slices;
  for (std::size_t first = 0; first < roots.size(); first += per) {
    const std::size_t count = std::min(per, roots.size() - first);
    CpuBatchTarget f(sys, static_cast<unsigned>(count));
    CpuProjective h(f, sys, start.system(), gamma, std::span<const Cd>(patch));
    homotopy::BatchPathTracker<double, CpuProjective> tracker(
        device, h, opt.tracking.track, count);
    tracker.set_metrics(&metrics);
    tracker.start(roots, first, count);
    tracker.run();
    for (std::size_t i = 0; i < count; ++i) summary.paths[first + i] = tracker.result(i);
  }
  summary.tally();
  if (entries) *entries = metrics.endgame_entries->value();
  return summary;
}

void expect_bitwise(const homotopy::SolveSummary<double>& want,
                    const homotopy::SolveSummary<double>& got, const std::string& label) {
  ASSERT_EQ(want.paths.size(), got.paths.size()) << label;
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
    for (std::size_t i = 0; i < a.solution.size(); ++i) {
      EXPECT_EQ(a.solution[i].re(), b.solution[i].re()) << label << ", path " << p;
      EXPECT_EQ(a.solution[i].im(), b.solution[i].im()) << label << ", path " << p;
    }
  }
}

double distance(const std::vector<Cd>& a, const std::vector<Cd>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, cplx::max_abs_diff(a[i], b[i]));
  return d;
}

/// The checks against the math: statuses, endpoints, windings and the
/// cycle structure at every root.
void expect_known_answers(const Case& c, const homotopy::SolveSummary<double>& s) {
  unsigned at_infinity = 0;
  bool cycle = false;
  // Per known root: path count, and path count per winding.
  std::vector<unsigned> arrived(c.roots.size(), 0);
  std::vector<std::map<unsigned, unsigned>> by_winding(c.roots.size());
  for (std::size_t p = 0; p < s.paths.size(); ++p) {
    const auto& r = s.paths[p];
    const std::string where = c.name + ", path " + std::to_string(p);
    if (r.status == homotopy::PathStatus::kAtInfinity) {
      ++at_infinity;
      continue;
    }
    ASSERT_EQ(r.status, homotopy::PathStatus::kConverged) << where;
    const auto x = homotopy::dehomogenize<double>(std::span<const Cd>(r.solution));
    std::size_t nearest = 0;
    for (std::size_t k = 1; k < c.roots.size(); ++k)
      if (distance(x, c.roots[k].x) < distance(x, c.roots[nearest].x)) nearest = k;
    const double err = distance(x, c.roots[nearest].x);
    EXPECT_LE(err, r.winding > 0 ? 1e-6 : 1e-4)
        << where << " (winding " << r.winding << ")";
    EXPECT_LE(r.winding, c.roots[nearest].multiplicity) << where;
    ++arrived[nearest];
    ++by_winding[nearest][r.winding];
    cycle = cycle || r.winding >= 2;
  }
  EXPECT_EQ(at_infinity, c.at_infinity) << c.name;
  for (std::size_t k = 0; k < c.roots.size(); ++k) {
    EXPECT_EQ(arrived[k], c.roots[k].multiplicity) << c.name << ", root " << k;
    for (const auto& [w, paths] : by_winding[k]) {
      if (w > 0) {
        EXPECT_EQ(paths % w, 0u) << c.name << ", root " << k << ": " << paths
                                 << " path(s) with winding " << w;
      }
    }
  }
  if (c.cycle) {
    EXPECT_TRUE(cycle) << c.name << ": no winding >= 2 measured";
  }
}

TEST(EndgameCorpus, KnownMultiplicitiesScalarAndLockstep) {
  const auto opt = corpus_options();
  for (const auto& c : corpus()) {
    const auto want = homotopy::solve_total_degree<double>(c.system, opt);
    ASSERT_EQ(want.attempted, homotopy::TotalDegreeStart(c.system).num_paths()) << c.name;
    expect_known_answers(c, want);
    std::uint64_t entries = 0;
    expect_bitwise(want, lockstep(c.system, opt, 1, &entries), c.name + ", lockstep");
    expect_bitwise(want, lockstep(c.system, opt, 2), c.name + ", lockstep in 2 slices");
    EXPECT_LE(entries, 2 * want.attempted) << c.name;
    if (!c.cycle) {
      EXPECT_EQ(entries, 0u) << c.name << ": the endgame armed";
    }
  }
}

// -- the device routes and the cost pin -------------------------------------

poly::PolynomialSystem uniform_6532() {
  poly::SystemSpec spec;
  spec.dimension = 6;
  spec.monomials_per_polynomial = 5;
  spec.variables_per_monomial = 3;
  spec.max_exponent = 2;
  spec.seed = 42;
  return poly::make_random_system(spec);
}

TEST(EndgameCorpus, UniformSystemArmsAtMostTwicePerPath) {
  const auto sys = uniform_6532();
  auto opt = corpus_options();
  opt.sharding.max_paths = 16;
  const auto want = homotopy::solve_total_degree<double>(sys, opt);
  ASSERT_EQ(want.attempted, 16u);
  for (const unsigned shards : {1u, 2u}) {
    opt.sharding.shards = shards;
    expect_bitwise(want, homotopy::solve_total_degree_sharded<double>(sys, opt),
                   "track_paths_sharded, " + std::to_string(shards) + " shard(s)");
  }

  // The cost pin, with the outcome counters of the lockstep tracker.
  const homotopy::TotalDegreeStart start(sys);
  auto roots = homotopy::total_degree_roots<double>(start, 16);
  const auto patch = homotopy::random_patch(7, opt.tracking.patch_seed);
  homotopy::embed_all_in_patch<double>(roots, patch);
  simt::Device device;
  core::FusedGpuEvaluator<double> f(device, sys, 16);
  using Fused = homotopy::BatchedProjectiveHomotopy<double, core::FusedGpuEvaluator<double>>;
  Fused h(f, sys, start.system(), homotopy::random_gamma(opt.gamma_seed),
          std::span<const Cd>(patch));
  homotopy::BatchPathTracker<double, Fused> tracker(device, h, opt.tracking.track, 16);
  obs::MetricsRegistry registry;
  const auto metrics = obs::TrackerMetrics::from_registry(registry);
  tracker.set_metrics(&metrics);
  tracker.start(roots, 0, roots.size());
  tracker.run();
  homotopy::SolveSummary<double> got;
  for (std::size_t p = 0; p < roots.size(); ++p) got.paths.push_back(tracker.result(p));
  expect_bitwise(want, got, "lockstep with metrics");

  const std::uint64_t entries = metrics.endgame_entries->value();
  std::uint64_t outcomes = 0;
  for (const obs::Counter* c : metrics.endgame_attempts) outcomes += c->value();
  EXPECT_GT(entries, 0u) << "the workload must exercise the endgame";
  EXPECT_LE(entries, 2 * roots.size());
  EXPECT_EQ(outcomes, entries) << "every attempt ends closed, lost or exhausted";
  EXPECT_GT(metrics.endgame_samples->value(), 0u);
}

/// The device homotopy behind a lockstep tracker, recording the tracker
/// slots of every launch (bind_slots makes it a SlotAwareEvaluator, so
/// the tracker binds the slots of every chunk it stages).
class RecordingHomotopy {
 public:
  using Fused = homotopy::BatchedProjectiveHomotopy<double, core::FusedGpuEvaluator<double>>;
  using BatchedHomotopyTag = void;

  explicit RecordingHomotopy(Fused& h) : h_(h) {}

  [[nodiscard]] unsigned dimension() const noexcept { return h_.dimension(); }
  [[nodiscard]] std::size_t max_batch() const noexcept { return h_.max_batch(); }
  void bind_slots(std::span<const std::size_t> ids) { bound_ = ids; }

  void evaluate_range(const std::vector<std::vector<Cd>>& points, std::span<const Cd> ts,
                      std::size_t first, std::size_t count, std::span<Cd> values,
                      std::span<Cd> jacobians) {
    launches.emplace_back(bound_.begin() + static_cast<std::ptrdiff_t>(first),
                          bound_.begin() + static_cast<std::ptrdiff_t>(first + count));
    h_.evaluate_range(points, ts, first, count, values, jacobians);
  }
  void rhs_from_last(std::size_t i, std::span<Cd> out) const { h_.rhs_from_last(i, out); }
  void renormalize(std::span<Cd> z) const { h_.renormalize(z); }
  [[nodiscard]] double infinity_ratio(std::span<const Cd> z) const {
    return h_.infinity_ratio(z);
  }

  /// Slot ids of each launch since the last clear.
  std::vector<std::vector<std::size_t>> launches;

 private:
  Fused& h_;
  std::span<const std::size_t> bound_;
};

/// The seeded (6,5,3,2) system's 16 paths through a lockstep tracker on
/// a device of `capacity` points per launch: every round must issue
/// ceil(live / capacity) full launches and no values-only kernel, which
/// together hold each live path exactly once -- whether its evaluation
/// is a predictor, a corrector or circle-sample iteration, a polish or
/// a stall probe.  Endpoints stay bitwise equal to the CPU solver.
void expect_one_evaluation_per_live_path(unsigned capacity) {
  const auto sys = uniform_6532();
  auto opt = corpus_options();
  opt.sharding.max_paths = 16;
  const auto want = homotopy::solve_total_degree<double>(sys, opt);

  const homotopy::TotalDegreeStart start(sys);
  auto roots = homotopy::total_degree_roots<double>(start, 16);
  const auto patch = homotopy::random_patch(7, opt.tracking.patch_seed);
  homotopy::embed_all_in_patch<double>(roots, patch);
  simt::Device device;
  core::FusedGpuEvaluator<double> f(device, sys, capacity);
  RecordingHomotopy::Fused h(f, sys, start.system(), homotopy::random_gamma(opt.gamma_seed),
                             std::span<const Cd>(patch));
  RecordingHomotopy rec(h);
  homotopy::BatchPathTracker<double, RecordingHomotopy> tracker(device, rec,
                                                                opt.tracking.track, 16);
  obs::MetricsRegistry registry;
  const auto metrics = obs::TrackerMetrics::from_registry(registry);
  tracker.set_metrics(&metrics);
  tracker.start(roots, 0, roots.size());

  const std::string where = "capacity " + std::to_string(capacity) + ", round ";
  for (std::size_t live = roots.size(); live > 0;) {
    std::vector<std::size_t> live_ids;
    for (std::size_t p = 0; p < roots.size(); ++p)
      if (!tracker.retired(p)) live_ids.push_back(p);
    ASSERT_EQ(live_ids.size(), tracker.live_paths());
    rec.launches.clear();
    live = tracker.round();
    const std::string round = where + std::to_string(tracker.rounds());
    ASSERT_EQ(rec.launches.size(), (live_ids.size() + capacity - 1) / capacity) << round;
    std::vector<std::size_t> launched;
    for (const auto& launch : rec.launches)
      launched.insert(launched.end(), launch.begin(), launch.end());
    std::sort(launched.begin(), launched.end());
    EXPECT_EQ(launched, live_ids) << round << ": not every live path exactly once";
    ASSERT_EQ(device.log().kernels.size(), rec.launches.size()) << round;
    for (const auto& k : device.log().kernels)
      EXPECT_EQ(k.kernel, "fused_eval") << round;
  }
  // The run crossed every kind of evaluation.
  EXPECT_GT(metrics.steps_accepted->value(), 0u);
  EXPECT_GT(metrics.endgame_samples->value(), 0u);

  homotopy::SolveSummary<double> got;
  for (std::size_t p = 0; p < roots.size(); ++p) got.paths.push_back(tracker.result(p));
  expect_bitwise(want, got, where + "endpoints");
}

TEST(EndgameCorpus, EveryRoundLaunchesEachLivePathOnce) {
  expect_one_evaluation_per_live_path(16);
}

TEST(EndgameCorpus, SmallCapacityRoundsLaunchCeilLiveOverCapacity) {
  expect_one_evaluation_per_live_path(5);
}

}  // namespace
