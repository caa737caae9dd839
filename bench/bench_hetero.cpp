// Heterogeneity-aware scheduling on a 2x-asymmetric two-device fleet:
// a full-clock Tesla C2050 next to a half-clock derate of the same
// geometry.  The identical-treatment scheduler (kStatic: chunk c ->
// shard c % 2) gives both cards the same work, so the modeled batch
// makespan is bound by the slow card; the throughput-weighted schedule
// (kWeightedStatic) sizes each card's quota by its weight -- measured
// kernel-us once the autotuner has probed both specs, modeled
// clock x cores before -- and the makespan drops toward the balanced
// optimum.
//
// Gates (all deterministic, bind in quick mode too):
//   * modeled-makespan improvement of weighted over identical-treatment
//     >= 1.3x for the compute-dominated scalars (double-double and
//     quad-double; plain double is reported but not gated -- at small
//     chunk sizes its kernels are launch-overhead-bound and no
//     placement can beat the overhead floor);
//   * bitwise parity: every schedule on the mixed fleet, and the solve
//     service driving the same fleet end to end, must reproduce the
//     single-device results bit for bit.  Placement moves timing,
//     never arithmetic.
//
// The per-device utilization leaves (utilization_min/_max) are
// reported for trend-watching, not gated: they move with the integer
// quota split at small chunk counts.
//
// Emits BENCH_hetero.json; `--quick` is the CI smoke configuration.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "benchutil/json.hpp"
#include "benchutil/stamp.hpp"
#include "benchutil/table.hpp"
#include "benchutil/timer.hpp"
#include "core/gpu_evaluator.hpp"
#include "core/sharded_evaluator.hpp"
#include "homotopy/solver.hpp"
#include "poly/random_system.hpp"
#include "service/solve_service.hpp"
#include "simt/timing.hpp"

namespace {

using namespace polyeval;

poly::PolynomialSystem table1_system(unsigned dim) {
  poly::SystemSpec spec;
  spec.dimension = dim;
  spec.monomials_per_polynomial = 22;  // Table 1 structure
  spec.variables_per_monomial = 9;
  spec.max_exponent = 2;
  return poly::make_random_system(spec);
}

/// The fleet under test: one full-clock card, one half-clock derate.
std::vector<simt::DeviceSpec> asym_fleet() {
  const auto fast = simt::DeviceSpec::tesla_c2050();
  return {fast, fast.derated(0.5, "half-clock C2050 (simulated)")};
}

struct ScheduleRow {
  const char* name = "";
  core::ShardSchedule schedule = core::ShardSchedule::kStatic;
  double modeled_makespan_us = 0.0;  ///< slowest device bounds the batch
  double modeled_sum_us = 0.0;
  double utilization_min = 0.0;  ///< device busy / makespan
  double utilization_max = 0.0;
  double wall_us_per_batch = 0.0;
  bool bitwise_identical = true;
};

struct ScalarResult {
  const char* scalar = "";
  std::vector<ScheduleRow> rows;
  double improvement_weighted_vs_static = 0.0;
  double improvement_stealing_vs_static = 0.0;
  bool parity_ok = true;
};

template <prec::RealScalar S>
ScalarResult run_scalar(const char* name, const poly::PolynomialSystem& sys,
                        unsigned dim, unsigned batch, unsigned chunk_points,
                        double min_seconds) {
  ScalarResult result;
  result.scalar = name;

  std::vector<std::vector<cplx::Complex<S>>> points;
  for (unsigned p = 0; p < batch; ++p)
    points.push_back(poly::make_random_point<S>(dim, 100 + p));

  // Single full-clock device: the bitwise reference every schedule and
  // both fleet members must reproduce.
  simt::Device reference_device;
  core::GpuEvaluator<S> reference(reference_device, sys);
  std::vector<poly::EvalResult<S>> want;
  want.reserve(batch);
  for (const auto& x : points)
    want.push_back(reference.evaluate(std::span<const cplx::Complex<S>>(x)));

  // Cost the logs the way the autotuner scores its probes: the scalar
  // cost factor makes double-double/quad-double kernels compute-bound,
  // which is exactly the regime where weighted placement pays.
  simt::GpuCostModel gmodel;
  gmodel.scalar_cost_factor = simt::scalar_cost_factor_for_width(
      static_cast<unsigned>(sizeof(S) / sizeof(double)));
  const ScheduleRow shapes[] = {
      {"static", core::ShardSchedule::kStatic},
      {"weighted_static", core::ShardSchedule::kWeightedStatic},
      {"work_stealing", core::ShardSchedule::kWorkStealing},
  };
  for (const auto& shape : shapes) {
    typename core::ShardedEvaluator<S>::Options opt;
    opt.specs = asym_fleet();
    opt.chunk_points = chunk_points;
    opt.schedule = shape.schedule;
    core::ShardedEvaluator<S> sharded(sys, opt);

    ScheduleRow row = shape;
    std::vector<poly::EvalResult<S>> got;
    sharded.evaluate(points, got);  // warm + correctness snapshot
    for (unsigned p = 0; p < batch; ++p)
      if (poly::max_abs_diff(want[p], got[p]) != 0.0) {
        row.bitwise_identical = false;
        result.parity_ok = false;
        break;
      }

    // A clean measured pass for the modeled numbers: construction-time
    // autotuner probes also launched on these devices, so the warm
    // run's logs are polluted.  Each device's log is costed with its
    // OWN spec -- that is the whole point of the fleet.
    sharded.registry().clear_logs();
    sharded.evaluate(points, got);
    double busy_min = 0.0, busy_max = 0.0;
    for (unsigned d = 0; d < sharded.registry().size(); ++d) {
      const double us = simt::estimate_log_us(sharded.registry().device(d).log(),
                                              sharded.registry().spec(d), gmodel);
      row.modeled_sum_us += us;
      if (d == 0) busy_min = busy_max = us;
      busy_min = std::min(busy_min, us);
      busy_max = std::max(busy_max, us);
    }
    row.modeled_makespan_us = busy_max;
    row.utilization_min = busy_max > 0.0 ? busy_min / busy_max : 0.0;
    row.utilization_max = busy_max > 0.0 ? 1.0 : 0.0;

    const double sec = benchutil::time_per_call(
        [&] { sharded.evaluate(points, got); }, min_seconds);
    row.wall_us_per_batch = sec * 1e6;
    result.rows.push_back(row);
  }

  const double base = result.rows[0].modeled_makespan_us;
  result.improvement_weighted_vs_static =
      base > 0.0 && result.rows[1].modeled_makespan_us > 0.0
          ? base / result.rows[1].modeled_makespan_us
          : 0.0;
  result.improvement_stealing_vs_static =
      base > 0.0 && result.rows[2].modeled_makespan_us > 0.0
          ? base / result.rows[2].modeled_makespan_us
          : 0.0;
  return result;
}

poly::PolynomialSystem request_system(std::uint32_t seed) {
  poly::SystemSpec spec;
  spec.dimension = 3;
  spec.monomials_per_polynomial = 3;
  spec.variables_per_monomial = 2;
  spec.max_exponent = 2;
  spec.seed = seed;
  return poly::make_random_system(spec);
}

bool paths_bitwise_equal(const std::vector<homotopy::TrackResult<double>>& a,
                         const std::vector<homotopy::TrackResult<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    const auto& x = a[p];
    const auto& y = b[p];
    if (x.status != y.status || x.steps != y.steps ||
        x.rejections != y.rejections ||
        x.endgame_failures != y.endgame_failures || x.winding != y.winding ||
        x.final_residual != y.final_residual ||
        x.solution.size() != y.solution.size())
      return false;
    for (std::size_t i = 0; i < x.solution.size(); ++i)
      if (cplx::max_abs_diff(x.solution[i], y.solution[i]) != 0.0) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const unsigned dim = 16;
  const unsigned batch = quick ? 64 : 128;
  const unsigned chunk_points = 4;  // 16 / 32 chunks over the 2-card fleet
  const double min_seconds = quick ? 0.02 : 0.2;
  const double target = 1.3;
  const auto sys = table1_system(dim);
  const auto fleet = asym_fleet();
  const simt::DeviceRegistry fleet_registry(fleet, 1);

  std::cout << "=== Heterogeneous fleet: weighted placement vs identical "
               "treatment ===\n"
            << "Table-1 structure, dim " << dim << ", batch " << batch
            << ", chunks of " << chunk_points << " points, fleet: "
            << fleet[0].name << " + " << fleet[1].name << " (weights ";
  for (unsigned d = 0; d < fleet_registry.size(); ++d)
    std::cout << (d ? " / " : "")
              << benchutil::format_fixed(fleet_registry.throughput_weight(d), 3);
  std::cout << ")\n\n";

  std::vector<ScalarResult> scalars;
  scalars.push_back(run_scalar<double>("double", sys, dim, batch, chunk_points,
                                       min_seconds));
  scalars.push_back(run_scalar<prec::DoubleDouble>(
      "double_double", sys, dim, batch, chunk_points, min_seconds));
  scalars.push_back(run_scalar<prec::QuadDouble>(
      "quad_double", sys, dim, quick ? 48 : 96, chunk_points, min_seconds));

  // -- the service front door on the same fleet: weighted slot fill ----
  // Same-structure requests through a mixed-fleet SolveService must
  // match their standalone solves bitwise, and the per-device busy
  // ledger yields end-to-end utilization.
  const unsigned num_requests = quick ? 2 : 4;
  solve::Options ropt;
  ropt.sharding.max_paths = 6;
  ropt.tracking.track.max_steps = 3000;
  std::vector<poly::PolynomialSystem> systems;
  for (unsigned r = 0; r < num_requests; ++r)
    systems.push_back(request_system(2000 + 13 * r));

  bool service_parity = true;
  service::ServiceStats service_stats;
  {
    service::SolveService<double>::Config config;
    config.specs = asym_fleet();
    service::SolveService<double> svc(std::move(config));
    std::vector<service::SolveTicket<double>> tickets;
    for (const auto& s : systems) tickets.push_back(svc.submit({s, ropt, {}, 0, 0.0}));
    svc.drain();
    service_stats = svc.stats();
    for (unsigned r = 0; r < num_requests; ++r) {
      const auto standalone = homotopy::solve_total_degree<double>(systems[r], ropt);
      if (!tickets[r].done() ||
          !paths_bitwise_equal(tickets[r].report().paths, standalone.paths)) {
        std::cout << "FAIL: service request " << r
                  << " differs from its standalone solve\n";
        service_parity = false;
      }
    }
  }
  double service_util_min = 0.0, service_util_max = 0.0;
  if (!service_stats.device_busy_us.empty() &&
      service_stats.total_modeled_us > 0.0) {
    service_util_min = service_util_max =
        service_stats.device_busy_us[0] / service_stats.total_modeled_us;
    for (const double busy : service_stats.device_busy_us) {
      const double u = busy / service_stats.total_modeled_us;
      service_util_min = std::min(service_util_min, u);
      service_util_max = std::max(service_util_max, u);
    }
  }

  // -- report and gates ------------------------------------------------
  benchutil::Table table({"scalar", "schedule", "modeled makespan us",
                          "modeled sum us", "util min", "improvement",
                          "bitwise"});
  bool parity_all = service_parity;
  for (const auto& s : scalars) {
    parity_all = parity_all && s.parity_ok;
    for (const auto& r : s.rows) {
      const double improvement =
          r.schedule == core::ShardSchedule::kWeightedStatic
              ? s.improvement_weighted_vs_static
          : r.schedule == core::ShardSchedule::kWorkStealing
              ? s.improvement_stealing_vs_static
              : 1.0;
      table.add_row({s.scalar, r.name,
                     benchutil::format_fixed(r.modeled_makespan_us, 1),
                     benchutil::format_fixed(r.modeled_sum_us, 1),
                     benchutil::format_fixed(r.utilization_min, 3),
                     benchutil::format_speedup(improvement),
                     r.bitwise_identical ? "yes" : "NO"});
    }
  }
  std::cout << table.to_string() << "\n";

  // The makespan gate binds on the compute-dominated scalars; plain
  // double at this chunk size is launch-overhead-bound and reported
  // only.
  bool makespan_gate_ok = true;
  for (const auto& s : scalars) {
    if (std::strcmp(s.scalar, "double") == 0) continue;
    if (s.improvement_weighted_vs_static < target) {
      std::cout << "FAIL: " << s.scalar << " weighted improvement "
                << benchutil::format_fixed(s.improvement_weighted_vs_static, 3)
                << " < " << target << "\n";
      makespan_gate_ok = false;
    }
  }
  if (!parity_all)
    std::cout << "FAIL: a schedule or the service diverged from the "
                 "single-device reference\n";

  benchutil::JsonWriter json;
  json.begin_object();
  json.field("bench", "hetero");
  polyeval::benchutil::emit_stamp(json);
  json.key("workload");
  json.begin_object()
      .field("dimension", dim)
      .field("monomials_per_polynomial", 22u)
      .field("variables_per_monomial", 9u)
      .field("max_exponent", 2u)
      .field("batch", batch)
      .field("chunk_points", chunk_points)
      .field("quick", quick)
      .end_object();
  json.key("fleet");
  json.begin_array();
  for (unsigned d = 0; d < fleet_registry.size(); ++d)
    json.begin_object()
        .field("name", fleet_registry.spec(d).name)
        .field("core_clock_mhz", fleet_registry.spec(d).core_clock_mhz)
        .field("multiprocessors", fleet_registry.spec(d).multiprocessors)
        .field("throughput_weight", fleet_registry.throughput_weight(d))
        .end_object();
  json.end_array();
  json.key("scalars");
  json.begin_array();
  for (const auto& s : scalars) {
    json.begin_object();
    json.field("scalar", s.scalar);
    json.key("schedules");
    json.begin_array();
    for (const auto& r : s.rows)
      json.begin_object()
          .field("schedule", r.name)
          .field("modeled_makespan_us", r.modeled_makespan_us)
          .field("modeled_sum_device_us", r.modeled_sum_us)
          .field("utilization_min", r.utilization_min)
          .field("utilization_max", r.utilization_max)
          .field("wall_us_per_batch", r.wall_us_per_batch)
          .field("bitwise_identical", r.bitwise_identical)
          .end_object();
    json.end_array();
    json.field("improvement_weighted_vs_static",
               s.improvement_weighted_vs_static);
    json.field("improvement_stealing_vs_static",
               s.improvement_stealing_vs_static);
    json.field("gated", std::strcmp(s.scalar, "double") != 0);
    json.end_object();
  }
  json.end_array();
  json.key("service");
  json.begin_object()
      .field("requests", num_requests)
      .field("bitwise_parity_vs_standalone", service_parity)
      .field("total_modeled_us", service_stats.total_modeled_us)
      .field("weighted_steals", service_stats.weighted_steals)
      .field("live_steals", service_stats.live_steals)
      .field("utilization_min", service_util_min)
      .field("utilization_max", service_util_max)
      .end_object();
  json.field("improvement_target", target);
  json.field("bitwise_parity_everywhere", parity_all);
  json.field("gates_met", parity_all && makespan_gate_ok);
  json.end_object();

  const char* out_path = "BENCH_hetero.json";
  if (json.write_file(out_path))
    std::cout << "wrote " << out_path << "\n";
  else
    std::cout << "WARNING: could not write " << out_path << "\n";

  return (parity_all && makespan_gate_ok) ? 0 : 1;
}
