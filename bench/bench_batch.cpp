// Extension: batched evaluation.  The kernel-breakdown bench shows the
// fixed floor (3 launches + PCIe) dominates one evaluation; evaluating
// B points per launch divides that floor by B, and fusing the three
// kernels into one launch removes the rest of it.  This harness
//
//   * sweeps the batch size on the Table-1 workload and reports the
//     modeled time per evaluation (the paper-facing story), and
//   * races the three-kernel pipeline against the fused single-launch
//     pipeline at dimension >= 16, measuring HOST WALL-CLOCK of the
//     simulator hot path -- the number the zero-allocation work targets.
//
// Results land in BENCH_batch.json so the perf trajectory is tracked
// across PRs, with the host's CPU steal share over the shootout
// (`host_steal_frac`, from /proc/stat where it is readable).  `--quick`
// runs a reduced configuration (CI smoke).

#include <cstring>
#include <functional>
#include <iostream>
#include <span>

#include "ad/cpu_evaluator.hpp"
#include "benchutil/json.hpp"
#include "benchutil/stamp.hpp"
#include "benchutil/table.hpp"
#include "benchutil/timer.hpp"
#include "core/batch_evaluator.hpp"
#include "core/fused_evaluator.hpp"
#include "poly/random_system.hpp"
#include "simt/timing.hpp"

namespace {

using namespace polyeval;
using Cd = cplx::Complex<double>;

// Seed-repo wall-clock of the three-kernel batch path (batch 16, Table-1
// monomial structure), measured with this harness's loop on the PR-1
// build machine before the zero-allocation/fused work landed.  Kept for
// trajectory context; the in-binary three_kernel rows below are the
// apples-to-apples baseline on the current machine.
constexpr double kSeedUsPerEvalDim16 = 5715.1;
constexpr double kSeedUsPerEvalDim32 = 13697.8;

struct PathResult {
  std::string name;
  double wall_us_per_eval = 0.0;
  double modeled_us_per_eval = 0.0;
  std::uint64_t launches = 0;
};

poly::PolynomialSystem table1_system(unsigned dim) {
  poly::SystemSpec spec;
  spec.dimension = dim;
  spec.monomials_per_polynomial = 22;  // Table 1 structure
  spec.variables_per_monomial = 9;
  spec.max_exponent = 2;
  return poly::make_random_system(spec);
}

std::vector<std::vector<Cd>> random_points(unsigned batch, unsigned dim) {
  std::vector<std::vector<Cd>> points;
  for (unsigned p = 0; p < batch; ++p)
    points.push_back(poly::make_random_point<double>(dim, 100 + p));
  return points;
}

/// A pipeline under test: its row name, one evaluate call over the
/// batch, and the launch log of the last call.
struct Path {
  std::string name;
  std::function<void()> evaluate;
  std::function<const simt::LaunchLog&()> last_log;
};

template <class Evaluator>
Path make_path(std::string name, Evaluator& gpu, const std::vector<std::vector<Cd>>& points,
               std::vector<poly::EvalResult<double>>& results) {
  return {std::move(name), [&gpu, &points, &results] { gpu.evaluate(points, results); },
          [&gpu]() -> const simt::LaunchLog& { return gpu.last_log(); }};
}

/// Host wall per evaluation of every path, each the median of five
/// windows taken round-robin over the paths (one warm-up call each first
/// sizes every persistent buffer): a stretch of host load cannot trip
/// the regression gate on one row by landing on that row's windows.
std::vector<PathResult> measure_paths(const std::vector<Path>& paths, std::size_t points,
                                      double min_seconds) {
  const simt::DeviceSpec dspec;
  const simt::GpuCostModel gmodel;
  std::vector<std::function<void()>> calls;
  for (const auto& path : paths) {
    path.evaluate();
    calls.push_back(path.evaluate);
  }
  const auto sec = benchutil::median_times_per_call(
      std::span<const std::function<void()>>(calls), min_seconds, 5);
  std::vector<PathResult> rows;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto& log = paths[i].last_log();
    rows.push_back({paths[i].name, sec[i] * 1e6 / static_cast<double>(points),
                    simt::estimate_log_us(log, dspec, gmodel) / static_cast<double>(points),
                    log.kernels.size()});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const simt::DeviceSpec dspec;
  const simt::GpuCostModel gmodel;
  const simt::CpuCostModel cmodel;
  const double min_seconds = quick ? 0.02 : 0.5;

  // -- Part 1: the paper-facing batch-size sweep (modeled time) ---------
  const auto sys32 = table1_system(32);
  ad::CpuEvaluator<double> cpu(sys32);
  poly::EvalResult<double> scratch(32);
  const auto x0 = poly::make_random_point<double>(32, 3);
  cpu.evaluate(std::span<const Cd>(x0), scratch);
  const auto& ops = cpu.last_op_counts();
  const double cpu_us = simt::estimate_cpu_us(ops.complex_mul, ops.complex_add, cmodel);

  std::cout << "=== Batched evaluation (launch-floor amortization) ===\n"
            << "Workload: Table 1, 704 monomials; 1 CPU core (modeled): "
            << benchutil::format_fixed(cpu_us, 1) << " us/eval\n\n";

  benchutil::Table sweep({"batch size", "GPU us/batch", "GPU us/eval", "speedup",
                          "fixed share"});
  const std::vector<unsigned> batches =
      quick ? std::vector<unsigned>{1u, 8u} : std::vector<unsigned>{1u, 2u, 4u, 8u, 16u, 32u, 64u};
  for (const unsigned batch : batches) {
    simt::Device device;
    core::BatchGpuEvaluator<double> gpu(device, sys32, batch);
    auto points = random_points(batch, 32);
    std::vector<poly::EvalResult<double>> results;
    gpu.evaluate(points, results);

    const double total_us = simt::estimate_log_us(gpu.last_log(), dspec, gmodel);
    const double per_eval = total_us / batch;
    const double fixed =
        3 * gmodel.launch_overhead_us +
        simt::estimate_transfer_us(gpu.last_log().transfers, gmodel);
    sweep.add_row({std::to_string(batch), benchutil::format_fixed(total_us, 1),
                   benchutil::format_fixed(per_eval, 1),
                   benchutil::format_speedup(cpu_us / per_eval),
                   benchutil::format_fixed(100.0 * fixed / total_us, 1) + "%"});
  }
  std::cout << sweep.to_string() << "\n";

  // -- Part 2: three-kernel vs fused pipelines, host wall-clock ---------
  std::cout << "=== Pipeline shootout (host wall-clock of the simulator) ===\n"
            << "batch 16, Table-1 monomial structure\n\n";

  benchutil::JsonWriter json;
  json.begin_object();
  json.field("bench", "batch");
  polyeval::benchutil::emit_stamp(json);
  json.key("workload");
  json.begin_object()
      .field("monomials_per_polynomial", 22u)
      .field("variables_per_monomial", 9u)
      .field("max_exponent", 2u)
      .field("batch", 16u)
      .field("quick", quick)
      .end_object();
  json.key("seed_wall_us_per_eval");
  json.begin_object()
      .field("dim16", kSeedUsPerEvalDim16)
      .field("dim32", kSeedUsPerEvalDim32)
      .end_object();
  json.key("dimensions");
  json.begin_array();

  const std::vector<unsigned> dims =
      quick ? std::vector<unsigned>{16u} : std::vector<unsigned>{16u, 32u};
  bool all_speedups_ok = true;
  const auto cpu_before = benchutil::read_host_cpu_times();
  for (const unsigned dim : dims) {
    const auto sys = table1_system(dim);
    const unsigned batch = 16;
    const auto points = random_points(batch, dim);

    simt::Device three_device, soa_device, checked_device, fused_device;
    core::BatchGpuEvaluator<double> three(three_device, sys, batch);
    core::BatchGpuEvaluator<double>::Options soa_opt;
    soa_opt.interchange = core::InterchangeLayout::kSoA;
    core::BatchGpuEvaluator<double> three_soa(soa_device, sys, batch, soa_opt);
    core::FusedGpuEvaluator<double>::Options checked_opt;
    checked_opt.detect_races = true;
    core::FusedGpuEvaluator<double> checked(checked_device, sys, batch, checked_opt);
    core::FusedGpuEvaluator<double> fused(fused_device, sys, batch);
    std::vector<poly::EvalResult<double>> results;
    const std::vector<PathResult> rows = measure_paths(
        {make_path("three_kernel", three, points, results),
         make_path("three_kernel_soa", three_soa, points, results),
         make_path("fused_checked", checked, points, results),
         make_path("fused", fused, points, results)},
        points.size(), min_seconds);

    const double base_wall = rows.front().wall_us_per_eval;
    benchutil::Table table({"pipeline", "launches/eval-batch", "wall us/eval",
                            "modeled us/eval", "speedup vs three_kernel"});
    json.begin_object();
    json.field("dimension", dim);
    json.key("pipelines");
    json.begin_array();
    for (const auto& r : rows) {
      table.add_row({r.name, std::to_string(r.launches),
                     benchutil::format_fixed(r.wall_us_per_eval, 1),
                     benchutil::format_fixed(r.modeled_us_per_eval, 1),
                     benchutil::format_speedup(base_wall / r.wall_us_per_eval)});
      json.begin_object()
          .field("name", r.name)
          .field("launches", r.launches)
          .field("wall_us_per_eval", r.wall_us_per_eval)
          .field("modeled_us_per_eval", r.modeled_us_per_eval)
          .field("speedup_vs_three_kernel", base_wall / r.wall_us_per_eval)
          .end_object();
    }
    json.end_array();  // pipelines
    const double fused_wall = rows.back().wall_us_per_eval;
    const double speedup = base_wall / fused_wall;
    all_speedups_ok = all_speedups_ok && speedup >= 2.0;
    json.field("fused_speedup_vs_three_kernel", speedup);
    const double seed_us =
        dim == 16 ? kSeedUsPerEvalDim16 : (dim == 32 ? kSeedUsPerEvalDim32 : 0.0);
    if (seed_us > 0.0) json.field("fused_speedup_vs_seed", seed_us / fused_wall);
    json.end_object();

    std::cout << "dimension " << dim << ":\n" << table.to_string() << "\n";
    if (seed_us > 0.0)
      std::cout << "  (seed three-kernel path on the PR-1 machine: "
                << benchutil::format_fixed(seed_us, 1) << " us/eval -> fused is "
                << benchutil::format_speedup(seed_us / fused_wall) << ")\n\n";
  }
  json.end_array();
  // The steal share of the timed section: a slow run on a host whose
  // hypervisor took the CPUs away reads as a regression to the gate.
  const auto steal =
      benchutil::host_steal_frac(cpu_before, benchutil::read_host_cpu_times());
  if (steal) {
    json.field("host_steal_frac", *steal);
    std::cout << "host CPU stolen during the shootout: "
              << benchutil::format_fixed(100.0 * *steal, 1) << "%\n\n";
  }
  json.field("fused_speedup_target", 2.0);
  json.field("fused_speedup_met", all_speedups_ok);
  json.end_object();

  const char* out_path = "BENCH_batch.json";
  if (json.write_file(out_path))
    std::cout << "wrote " << out_path << "\n\n";
  else
    std::cout << "WARNING: could not write " << out_path << "\n\n";

  std::cout << "The paper evaluates one point per pipeline pass (its Newton\n"
               "corrector is sequential in the iteration); batching is the\n"
               "natural extension for trackers that advance many paths in\n"
               "lockstep, and fusing the three kernels into one launch takes\n"
               "the paper's own powers-fusion argument one level up: the\n"
               "common factors never round-trip through global memory.\n";
  // Quick mode is a CI smoke run on shared hardware; the perf gate only
  // binds on the full run.
  return (quick || all_speedups_ok) ? 0 : 1;
}
