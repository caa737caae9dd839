// End-to-end path-tracking throughput: tracked paths per second for the
// lockstep batched tracker against the per-path baseline on Table-1
// style total-degree workloads -- the repo's first end-to-end number,
// and the workload the fused one-block-per-point schedule was built
// for.
//
// The two modes are the lockstep route, track_paths_sharded (the solve
// service in projective geometry, the dedicated lockstep loop in
// affine), and the per-path baseline, the scalar PathTracker over a
// capacity-1 FusedGpuEvaluator, timed directly on one device.
//
// Two geometries ride the same harness.  The PROJECTIVE rows (the
// production default) report solved_frac -- the fraction of paths with
// a CLASSIFIED endpoint (converged or at infinity); the projective
// tracker + Cauchy endgame must classify > 90% of the dim-16 double
// workload (gated, and regression-gated against the committed
// baseline).  The AFFINE rows keep the historical escape-hatch
// behavior: random dense total-degree paths mostly stall just short of
// t = 1 (roots at infinity), but every path still runs its full
// predictor-corrector life either way, and the two modes are checked
// BITWISE identical path by path, so the work compared is exactly
// equal.  Projective results are additionally checked bitwise across
// lockstep/per-path modes and shard counts 1/2/4.
//
// Two clocks, as everywhere in this repo (docs/ARCHITECTURE.md):
//
//   * the MODELED DEVICE CLOCK is where the batching argument is
//     deterministic: the per-path tracker feeds the device one-block
//     grids (13 of 14 SMs idle, one launch per corrector stage), the
//     lockstep tracker sends the whole live set per launch.  Each
//     tracker's launch logs are costed with the timing model; the >= 2x
//     gate on the dim-16 workload binds in every mode (the measured
//     ratio is far higher).
//   * the HOST WALL CLOCK end to end, construction included: the
//     lockstep mode keeps every device worker busy inside each launch
//     while the per-path mode leaves them spinning at one block per
//     launch.  The gated pair runs both modes on four host threads (1
//     manager + 3 device workers; one shard for lockstep) -- identical
//     resources, so the ratio isolates what batching buys: per-path
//     single-block launches can occupy only one of the four threads,
//     lockstep fills all of them.  The >= 2x tracked-paths/sec gate
//     binds on full runs on >= 4 cores (the bench_sharding policy),
//     each side timed as the median of 5 solves with the sides
//     alternating; quick mode (one solve each) and small hosts report
//     without gating.  The 2-shard lockstep configuration is reported
//     ungated alongside.
//
// Emits BENCH_tracking.json; `--quick` is the CI smoke configuration.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "benchutil/json.hpp"
#include "benchutil/stamp.hpp"
#include "benchutil/table.hpp"
#include "benchutil/timer.hpp"
#include "homotopy/sharded_solver.hpp"
#include "homotopy/solver.hpp"
#include "poly/random_system.hpp"
#include "simt/timing.hpp"

namespace {

using namespace polyeval;

poly::PolynomialSystem table1_system(unsigned dim) {
  poly::SystemSpec spec;
  spec.dimension = dim;
  spec.monomials_per_polynomial = 22;  // Table 1 structure
  spec.variables_per_monomial = 9;
  spec.max_exponent = 2;
  spec.seed = 42;
  return poly::make_random_system(spec);
}

template <prec::RealScalar S>
bool summaries_bitwise_equal(const homotopy::SolveSummary<S>& a,
                             const homotopy::SolveSummary<S>& b) {
  if (a.paths.size() != b.paths.size() || a.successes != b.successes ||
      a.at_infinity != b.at_infinity)
    return false;
  for (std::size_t p = 0; p < a.paths.size(); ++p) {
    const auto& x = a.paths[p];
    const auto& y = b.paths[p];
    if (x.success != y.success || x.status != y.status || x.winding != y.winding ||
        x.steps != y.steps ||
        x.rejections != y.rejections || x.final_residual != y.final_residual ||
        x.t_reached != y.t_reached || x.solution.size() != y.solution.size())
      return false;
    for (std::size_t i = 0; i < x.solution.size(); ++i)
      if (cplx::max_abs_diff(x.solution[i], y.solution[i]) != 0.0) return false;
  }
  return true;
}

struct ModeRow {
  double wall_us_per_path = 0.0;
  double paths_per_sec = 0.0;
  std::uint64_t successes = 0;
  std::uint64_t at_infinity = 0;
  double solved_frac = 0.0;  ///< classified endpoints / paths
  std::uint64_t steps = 0;
  std::uint64_t rejections = 0;
};

/// Fold a solve of `paths` paths that took `sec` seconds into a row.
template <prec::RealScalar S>
ModeRow fold_row(std::uint64_t paths, double sec, homotopy::SolveSummary<S>&& summary,
                 homotopy::SolveSummary<S>* out) {
  ModeRow row;
  if (summary.attempted != paths)
    std::cout << "WARNING: attempted " << summary.attempted << " of " << paths
              << " paths\n";
  row.wall_us_per_path = sec * 1e6 / static_cast<double>(paths);
  row.paths_per_sec = static_cast<double>(paths) / sec;
  row.successes = summary.successes;
  row.at_infinity = summary.at_infinity;
  row.solved_frac =
      static_cast<double>(summary.classified()) / static_cast<double>(paths);
  for (const auto& p : summary.paths) {
    row.steps += p.steps;
    row.rejections += p.rejections;
  }
  if (out) *out = std::move(summary);
  return row;
}

/// Time `solve` (construction included: this is the number a fresh
/// solve pays) and fold its summary of `paths` paths into a row.
template <prec::RealScalar S, class Solve>
ModeRow time_row(std::uint64_t paths, double min_seconds,
                 homotopy::SolveSummary<S>* out, Solve&& solve) {
  homotopy::SolveSummary<S> summary;
  const double sec =
      benchutil::time_per_call([&] { summary = solve(); }, min_seconds);
  return fold_row(paths, sec, std::move(summary), out);
}

/// Time two solves of `paths` paths as the median of `reps` runs each,
/// the two sides alternating, so that neither one noisy solve nor a
/// drifting host load decides their ratio.
template <prec::RealScalar S, class SolveA, class SolveB>
std::pair<ModeRow, ModeRow> time_pair(std::uint64_t paths, unsigned reps,
                                      homotopy::SolveSummary<S>* out_a,
                                      homotopy::SolveSummary<S>* out_b,
                                      SolveA&& solve_a, SolveB&& solve_b) {
  std::vector<double> sec_a, sec_b;
  homotopy::SolveSummary<S> summary_a, summary_b;
  for (unsigned r = 0; r < reps; ++r) {
    benchutil::Timer ta;
    summary_a = solve_a();
    sec_a.push_back(ta.seconds());
    benchutil::Timer tb;
    summary_b = solve_b();
    sec_b.push_back(tb.seconds());
  }
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {fold_row(paths, median(sec_a), std::move(summary_a), out_a),
          fold_row(paths, median(sec_b), std::move(summary_b), out_b)};
}

/// The lockstep route's options: track_paths_sharded over `shards`
/// devices with `workers_per_shard` pool threads each.
solve::Options lockstep_options(std::uint64_t paths, unsigned shards,
                                unsigned workers_per_shard, unsigned max_steps,
                                solve::Geometry geometry) {
  solve::Options opt;
  opt.sharding.shards = shards;
  opt.sharding.workers_per_shard = workers_per_shard;
  opt.sharding.max_paths = paths;
  opt.tracking.track.max_steps = max_steps;
  opt.tracking.geometry = geometry;
  return opt;
}

/// One end-to-end lockstep timing (lockstep_options).
template <prec::RealScalar S>
ModeRow run_lockstep(const poly::PolynomialSystem& sys, std::uint64_t paths,
                     unsigned shards, unsigned workers_per_shard, double min_seconds,
                     homotopy::SolveSummary<S>* out = nullptr,
                     unsigned max_steps = 3000,
                     solve::Geometry geometry = solve::Geometry::kAffine) {
  const auto opt = lockstep_options(paths, shards, workers_per_shard, max_steps, geometry);
  return time_row<S>(paths, min_seconds, out, [&] {
    return homotopy::solve_total_degree_sharded<S>(sys, opt);
  });
}

/// The PER-PATH tracker: the scalar PathTracker over a capacity-1 fused
/// evaluator on ONE device with 3 pool workers (the calling thread is
/// the manager: 4 host threads, as the gated lockstep row), one path
/// after another.  With `modeled_us` set, each path's launch log is
/// costed with the timing model and summed.
template <prec::RealScalar S>
homotopy::SolveSummary<S> track_perpath(const poly::PolynomialSystem& sys,
                                        std::uint64_t paths, solve::Geometry geometry,
                                        double* modeled_us = nullptr) {
  using C = cplx::Complex<S>;
  using Fused = core::FusedGpuEvaluator<S>;
  const solve::Options defaults;
  const homotopy::TotalDegreeStart start(sys);
  const auto gamma = homotopy::random_gamma(defaults.gamma_seed);
  auto roots = homotopy::total_degree_roots<S>(start, paths);
  homotopy::TrackOptions topt;
  topt.max_steps = 3000;

  simt::Device device(simt::DeviceSpec::tesla_c2050(), 3);
  Fused f(device, sys, 1);
  const simt::GpuCostModel cost;
  homotopy::SolveSummary<S> summary;
  summary.attempted = roots.size();
  const auto track_all = [&](auto& h) {
    homotopy::PathTracker<S, std::remove_reference_t<decltype(h)>> tracker(h, topt);
    for (const auto& root : roots) {
      device.clear_log();
      summary.paths.push_back(tracker.track(std::span<const C>(root)));
      if (modeled_us)
        *modeled_us += simt::estimate_log_us(device.log(), device.spec(), cost);
    }
  };
  if (geometry == solve::Geometry::kProjective) {
    const auto patch =
        homotopy::random_patch(sys.dimension() + 1, defaults.tracking.patch_seed);
    homotopy::embed_all_in_patch<S>(roots, patch);
    homotopy::ProjectiveHomotopy<S, Fused> h(f, sys, start.system(), gamma, patch);
    track_all(h);
  } else {
    ad::CpuEvaluator<S> g(start.system());
    homotopy::Homotopy<S, Fused, ad::CpuEvaluator<S>> h(f, g, gamma);
    track_all(h);
  }
  summary.tally();
  return summary;
}

/// One end-to-end per-path timing (track_perpath).
template <prec::RealScalar S>
ModeRow run_perpath(const poly::PolynomialSystem& sys, std::uint64_t paths,
                    double min_seconds, homotopy::SolveSummary<S>* out = nullptr,
                    solve::Geometry geometry = solve::Geometry::kAffine) {
  return time_row<S>(paths, min_seconds, out, [&] {
    return track_perpath<S>(sys, paths, geometry);
  });
}

/// Modeled device time of the LOCKSTEP tracker: a single-shard direct
/// run, each round's launch log costed with the timing model (round()
/// clears the log on entry, so after it returns the log is exactly that
/// round's launches).
double modeled_lockstep_us(const poly::PolynomialSystem& sys, std::uint64_t paths) {
  const homotopy::TotalDegreeStart start(sys);
  const auto gamma = homotopy::random_gamma(solve::Options{}.gamma_seed);
  const auto roots = homotopy::total_degree_roots<double>(start, paths);

  simt::Device device;
  core::FusedGpuEvaluator<double> f(device, sys, static_cast<unsigned>(paths));
  ad::CpuEvaluator<double> g(start.system());
  homotopy::TrackOptions topt;
  topt.max_steps = 3000;
  homotopy::BatchPathTracker<double, core::FusedGpuEvaluator<double>> tracker(
      device, f, g, gamma, topt, paths);

  const simt::GpuCostModel cost;
  double total = 0.0;
  tracker.start(roots, 0, roots.size());
  for (;;) {
    const std::size_t live = tracker.round();
    total += simt::estimate_log_us(device.log(), device.spec(), cost);
    if (live == 0) break;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const unsigned shards = 2;
  const unsigned host_cores = std::thread::hardware_concurrency();
  const double min_seconds = 0.01;  // one tracking run is itself seconds
  // Solves per side of the gated pair (the smoke run is not gated).
  const unsigned gate_reps = quick ? 1 : 5;

  const std::uint64_t paths16 = quick ? 6 : 16;
  /// The modeled batching win scales with the batch (B blocks fill B of
  /// the 14 SMs); 8 paths is comfortably past the 2x gate while staying
  /// smoke-test sized.
  const std::uint64_t paths_modeled = 8;

  std::cout << "=== Lockstep batched tracking throughput (tracked paths/sec) ===\n"
            << "Table-1 structure, total-degree start; gated pair: 4 host "
               "threads each, reported lockstep rows: "
            << shards << " shards x 2 threads\n"
            << "host cores: " << host_cores << "\n\n";

  benchutil::Table table({"workload", "mode", "wall us/path", "paths/sec",
                          "ok", "inf", "solved", "steps", "rej"});
  benchutil::JsonWriter json;
  json.begin_object();
  json.field("bench", "tracking");
  polyeval::benchutil::emit_stamp(json);
  json.key("workload");
  json.begin_object()
      .field("monomials_per_polynomial", 22u)
      .field("variables_per_monomial", 9u)
      .field("max_exponent", 2u)
      .field("shards", shards)
      .field("workers_per_shard", 1u)
      .field("max_steps", 3000u)
      .field("quick", quick)
      .end_object();
  json.field("host_hardware_concurrency", std::uint64_t{host_cores});
  json.key("rows");
  json.begin_array();

  const auto emit = [&](const char* workload, const char* mode, const ModeRow& r) {
    table.add_row({workload, mode, benchutil::format_fixed(r.wall_us_per_path, 1),
                   benchutil::format_fixed(r.paths_per_sec, 3),
                   std::to_string(r.successes), std::to_string(r.at_infinity),
                   benchutil::format_fixed(r.solved_frac, 3),
                   std::to_string(r.steps), std::to_string(r.rejections)});
    json.begin_object()
        .field("workload", workload)
        .field("mode", mode)
        .field("wall_us_per_path", r.wall_us_per_path)
        .field("paths_per_sec", r.paths_per_sec)
        .field("successes", r.successes)
        .field("at_infinity", r.at_infinity)
        .field("solved_frac", r.solved_frac)
        .field("steps", r.steps)
        .field("rejections", r.rejections)
        .end_object();
  };

  // -- dim 16, double: the gated pair -----------------------------------
  // Four host threads (manager + 3 device workers) for BOTH modes:
  // identical resources, so tracked-paths/sec isolates the launch-level
  // parallelism batching buys.  Each side is the median of gate_reps
  // solves, the sides alternating.
  const auto sys16 = table1_system(16);
  homotopy::SolveSummary<double> lockstep16, perpath16;
  const auto opt16 =
      lockstep_options(paths16, 1, 3, 3000, solve::Geometry::kAffine);
  const auto [row_lock16, row_path16] = time_pair<double>(
      paths16, gate_reps, &lockstep16, &perpath16,
      [&] { return homotopy::solve_total_degree_sharded<double>(sys16, opt16); },
      [&] { return track_perpath<double>(sys16, paths16, solve::Geometry::kAffine); });
  emit("table1_dim16", "lockstep_fused_1x4", row_lock16);
  emit("table1_dim16", "perpath_fused_1x4", row_path16);
  bool bitwise_all = summaries_bitwise_equal(lockstep16, perpath16);

  // The 2-shard lockstep configuration (1 worker each), reported ungated.
  {
    homotopy::SolveSummary<double> lock2;
    emit("table1_dim16", "lockstep_fused_2x2",
         run_lockstep<double>(sys16, paths16, shards, 1, min_seconds, &lock2));
    bitwise_all = bitwise_all && summaries_bitwise_equal(lockstep16, lock2);
  }

  // -- dim 16, double, PROJECTIVE: the solved-paths rows ----------------
  // The projective tracker + Cauchy endgame must CLASSIFY > 90% of the
  // same workload whose affine rows report ~0 successes, and projective
  // lockstep results must be bitwise identical to the scalar (per-path)
  // projective tracker and across shard counts 1/2/4.
  homotopy::SolveSummary<double> proj_lock, proj_path;
  const auto row_proj_lock =
      run_lockstep<double>(sys16, paths16, 1, 3, min_seconds, &proj_lock, 3000,
                           solve::Geometry::kProjective);
  emit("table1_dim16_proj", "lockstep_fused_1x4", row_proj_lock);
  emit("table1_dim16_proj", "perpath_fused_1x4",
       run_perpath<double>(sys16, paths16, min_seconds, &proj_path,
                           solve::Geometry::kProjective));
  bool proj_bitwise = summaries_bitwise_equal(proj_lock, proj_path);
  for (const unsigned proj_shards : {2u, 4u}) {
    homotopy::SolveSummary<double> proj_s;
    emit("table1_dim16_proj",
         proj_shards == 2 ? "lockstep_fused_2shard" : "lockstep_fused_4shard",
         run_lockstep<double>(sys16, paths16, proj_shards, 1, min_seconds, &proj_s,
                              3000, solve::Geometry::kProjective));
    proj_bitwise = proj_bitwise && summaries_bitwise_equal(proj_lock, proj_s);
  }
  const double proj_solved_frac = row_proj_lock.solved_frac;

  // Modeled device clock, single shard: deterministic on any host.
  const double modeled_lock_us = modeled_lockstep_us(sys16, paths_modeled);
  double modeled_path_us = 0.0;
  (void)track_perpath<double>(sys16, paths_modeled, solve::Geometry::kAffine,
                              &modeled_path_us);
  const double modeled_speedup =
      modeled_lock_us > 0.0 ? modeled_path_us / modeled_lock_us : 0.0;

  // -- extended precision: the quality-up rows ---------------------------
  const std::uint64_t paths_dd = 2;
  emit("table1_dim16_dd", "lockstep_fused",
       run_lockstep<prec::DoubleDouble>(sys16, paths_dd, shards, 1, min_seconds));
  if (!quick) {
    emit("table1_dim16_dd", "perpath_fused",
         run_perpath<prec::DoubleDouble>(sys16, paths_dd, min_seconds));
    // qd arithmetic is ~40x double; cap the row's step budget so the
    // full bench stays minutes-free (report-only row either way).
    emit("table1_dim16_qd", "lockstep_fused",
         run_lockstep<prec::QuadDouble>(sys16, 1, shards, 1, min_seconds, nullptr,
                                        300));

    // -- dim 32: the larger Table-1 column -------------------------------
    const auto sys32 = table1_system(32);
    homotopy::SolveSummary<double> lockstep32, perpath32;
    emit("table1_dim32", "lockstep_fused",
         run_lockstep<double>(sys32, 4, shards, 1, min_seconds, &lockstep32));
    emit("table1_dim32", "perpath_fused",
         run_perpath<double>(sys32, 4, min_seconds, &perpath32));
    if (!summaries_bitwise_equal(lockstep32, perpath32)) {
      std::cout << "FAIL: dim-32 lockstep results differ from per-path\n";
      bitwise_all = false;
    }
  }
  json.end_array();

  const double host_speedup = row_lock16.paths_per_sec / row_path16.paths_per_sec;

  // Gates.  Bitwise identity across modes and the modeled batching
  // speedup are deterministic and bind in every mode.  The host
  // tracked-paths/sec gate needs cores to back the shard threads, so --
  // the bench_sharding policy -- it binds on full runs on >= 4 cores
  // and is reported otherwise.
  const double target = 2.0;
  const double solved_target = 0.9;
  const bool host_gate_applicable = !quick && host_cores >= 4;
  const bool host_gate_ok = !host_gate_applicable || host_speedup >= target;
  const bool modeled_gate_ok = modeled_speedup >= target;
  const bool bitwise_ok = bitwise_all;
  const bool solved_gate_ok = proj_solved_frac > solved_target;
  const bool proj_bitwise_ok = proj_bitwise;
  json.field("speedup_target", target);
  json.field("host_speedup_lockstep_vs_perpath", host_speedup);
  json.field("host_gate_applicable", host_gate_applicable);
  json.field("modeled_perpath_us", modeled_path_us);
  json.field("modeled_lockstep_us", modeled_lock_us);
  json.field("modeled_speedup_lockstep_vs_perpath", modeled_speedup);
  json.field("bitwise_identical_across_modes", bitwise_ok);
  json.field("solved_frac_target", solved_target);
  json.field("projective_solved_frac", proj_solved_frac);
  json.field("projective_bitwise_modes_and_shards", proj_bitwise_ok);
  json.field("gates_met", bitwise_ok && host_gate_ok && modeled_gate_ok &&
                              solved_gate_ok && proj_bitwise_ok);
  json.end_object();

  std::cout << table.to_string() << "\n"
            << "host lockstep/per-path tracked-paths/sec: "
            << benchutil::format_speedup(host_speedup) << "\n"
            << "modeled device clock, " << paths_modeled
            << " paths, 1 shard: per-path "
            << benchutil::format_fixed(modeled_path_us, 1) << " us -> lockstep "
            << benchutil::format_fixed(modeled_lock_us, 1) << " us ("
            << benchutil::format_speedup(modeled_speedup) << ")\n";

  const char* out_path = "BENCH_tracking.json";
  if (json.write_file(out_path))
    std::cout << "wrote " << out_path << "\n";
  else
    std::cout << "WARNING: could not write " << out_path << "\n";

  std::cout << "projective solved_frac (dim-16 double): "
            << benchutil::format_fixed(proj_solved_frac, 3) << " (target > "
            << benchutil::format_fixed(solved_target, 2) << ")\n";
  if (!bitwise_ok) std::cout << "FAIL: lockstep results differ from per-path\n";
  if (!solved_gate_ok)
    std::cout << "FAIL: projective solved_frac " << proj_solved_frac
              << " below " << solved_target << "\n";
  if (!proj_bitwise_ok)
    std::cout << "FAIL: projective results differ across modes/shard counts\n";
  if (!modeled_gate_ok)
    std::cout << "FAIL: modeled lockstep speedup " << modeled_speedup << " < "
              << target << "\n";
  if (!host_gate_ok)
    std::cout << "FAIL: host tracked-paths/sec speedup " << host_speedup << " < "
              << target << " with " << host_cores << " cores\n";
  else if (!host_gate_applicable)
    std::cout << "note: host throughput gate waived ("
              << (quick ? "quick mode is a smoke run on shared hardware"
                        : "fewer than 4 cores")
              << "); bitwise and modeled gates still bind\n";

  return (bitwise_ok && host_gate_ok && modeled_gate_ok && solved_gate_ok &&
          proj_bitwise_ok)
             ? 0
             : 1;
}
