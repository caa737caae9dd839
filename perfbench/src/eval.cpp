// eval_table1_dd: the paper's own operation.  The Table-1 dimension-32
// system (n = 32, m = 22, k = 9, d = 2) and its Jacobian evaluated in
// double-double by core::FusedGpuEvaluator::evaluate_range, one
// fixed-size batch of seeded points per call, in a closed loop of one
// client.  Only core / simt / prec work runs: no tracker, LU or
// scheduler.  The device has 3 host workers: main + 3 = 4 threads.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "ad/cpu_evaluator.hpp"
#include "benchutil/paper_data.hpp"
#include "benchutil/table_repro.hpp"
#include "core/fused_evaluator.hpp"
#include "poly/random_system.hpp"
#include "simt/timing.hpp"
#include "timed.hpp"
#include "tune/autotuner.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pe::poly::PolynomialSystem;
using CD = pe::cplx::Complex<DD>;
using Fused = pe::core::FusedGpuEvaluator<DD>;
using Batch = std::vector<std::vector<CD>>;
using Outputs = std::vector<pe::poly::EvalResult<DD>>;

constexpr unsigned kDim = 32;
constexpr unsigned kBatch = 32;          // points per evaluate_range call
constexpr unsigned kPool = 2;            // distinct batches, reused in turn
constexpr std::size_t kEvalQuota = 8;    // calls every run makes (fixed metrics)
constexpr unsigned kSetupRepeats = 5;
/// Normwise relative error bound of a double-double output against the
/// quad-double reference (about 2000 dd unit roundoffs).
constexpr double kRelErrBound = 1e-28;

struct Inputs {
  PolynomialSystem system;
  std::vector<Batch> pool;
};

Inputs make_inputs(std::uint64_t seed) {
  pe::poly::SystemSpec spec;
  spec.dimension = kDim;
  spec.monomials_per_polynomial = 22;
  spec.variables_per_monomial = 9;
  spec.max_exponent = 2;
  spec.seed = mix_seed(seed, 0xe7a1);
  Inputs in{pe::poly::make_random_system(spec), {}};
  for (unsigned b = 0; b < kPool; ++b) {
    Batch batch;
    for (unsigned i = 0; i < kBatch; ++i)
      batch.push_back(pe::poly::make_random_point<DD>(kDim, mix_seed(seed, 1000 + b * kBatch + i)));
    in.pool.push_back(std::move(batch));
  }
  return in;
}

struct Instance {
  std::unique_ptr<pe::simt::Device> device;
  std::unique_ptr<Fused> eval;
};

Instance build(const Inputs& in, bool cold, SetupCost& cost) {
  auto& tuner = pe::tune::Autotuner::global();
  if (cold) tuner.cache().clear();
  const std::size_t misses0 = tuner.misses();
  const double cpu0 = process_cpu_s();
  Instance inst;
  inst.device = std::make_unique<pe::simt::Device>(pe::simt::DeviceSpec::tesla_c2050(), 3);
  inst.eval = std::make_unique<Fused>(*inst.device, in.system, kBatch);
  Outputs out(kBatch, pe::poly::EvalResult<DD>(kDim));
  inst.eval->evaluate_range(in.pool[0], 0, kBatch, std::span<pe::poly::EvalResult<DD>>(out));
  cost.seconds = process_cpu_s() - cpu0;
  cost.probes = tuner.misses() - misses0;
  inst.device->clear_log();
  return inst;
}

pe::simt::GpuCostModel dd_cost() {
  pe::simt::GpuCostModel cost;
  cost.scalar_cost_factor = pe::simt::scalar_cost_factor_for_width(2);
  return cost;
}

bool same_bits(const Outputs& a, const Outputs& b) {
  for (std::size_t p = 0; p < a.size(); ++p) {
    if (std::memcmp(a[p].values.data(), b[p].values.data(), a[p].values.size() * sizeof(CD)) != 0 ||
        std::memcmp(a[p].jacobian.data(), b[p].jacobian.data(),
                    a[p].jacobian.size() * sizeof(CD)) != 0)
      return false;
  }
  return true;
}

struct Loop {
  std::vector<double> latency_ms;  ///< host wall, per call
  double cpu_s = 0.0;              ///< process CPU time inside the calls
  std::vector<double> modeled_ms;  ///< modeled clock, per quota call
  std::vector<Outputs> first;  ///< each pool batch's first outputs
  std::uint64_t calls[kPool] = {};
  std::uint64_t mismatched = 0;  ///< later calls not bitwise equal to the first
  double quota_rss_mb = 0.0;  ///< peak resident set once the quota ran
  std::uint64_t launches = 0;
};

/// Evaluate pool batches in turn until `seconds` passed and the quota
/// ran.  The device log is cleared between calls, outside the timing.
Loop eval_loop(Instance& inst, const Inputs& in, double seconds, SpanLog* log) {
  TimedEvaluator<DD, Fused> timed(*inst.eval, log);
  const auto cost = dd_cost();
  Loop loop;
  Outputs out(kBatch, pe::poly::EvalResult<DD>(kDim));
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < kEvalQuota || seconds_since(t0) < seconds; ++c) {
    const Batch& batch = in.pool[c % kPool];
    inst.device->clear_log();
    const double cpu = process_cpu_s();
    const auto t = Clock::now();
    timed.evaluate_range(batch, 0, kBatch, std::span<pe::poly::EvalResult<DD>>(out));
    loop.latency_ms.push_back(seconds_since(t) * 1e3);
    loop.cpu_s += process_cpu_s() - cpu;
    if (c < kEvalQuota)
      loop.modeled_ms.push_back(
          pe::simt::estimate_log_us(inst.eval->last_log(), inst.device->spec(), cost) * 1e-3);
    if (c + 1 == kEvalQuota) loop.quota_rss_mb = peak_rss_mb();
    ++loop.calls[c % kPool];
    if (c < kPool)
      loop.first.push_back(out);
    else if (!same_bits(out, loop.first[c % kPool]))
      ++loop.mismatched;
  }
  loop.launches = timed.launches();
  return loop;
}

/// Largest normwise relative error of a point's dd outputs (values and
/// Jacobian) against ad::CpuEvaluator in quad-double at the same point;
/// `batch_ok[b]` tells whether every point of pool batch b is in bound.
double max_rel_err(const Inputs& in, const std::vector<Outputs>& first, std::uint64_t& within,
                   bool (&batch_ok)[kPool]) {
  using CQ = pe::cplx::Complex<QD>;
  const pe::ad::CpuEvaluator<QD> ref(in.system);
  pe::poly::EvalResult<QD> r(kDim);
  double worst = 0.0;
  within = 0;
  for (unsigned b = 0; b < kPool; ++b) {
    batch_ok[b] = true;
    for (unsigned i = 0; i < kBatch; ++i) {
      std::vector<CQ> x;
      for (const auto& z : in.pool[b][i]) x.emplace_back(QD(z.re()), QD(z.im()));
      ref.evaluate(std::span<const CQ>(x), r);
      double num = 0.0, den = 0.0;
      const auto fold = [&](const CD& got, const CQ& want) {
        const auto d = (CQ(QD(got.re()), QD(got.im())) - want).to_double();
        const auto w = want.to_double();
        num = std::max(num, std::hypot(d.re(), d.im()));
        den = std::max(den, std::hypot(w.re(), w.im()));
      };
      const auto& got = first[b][i];
      for (unsigned q = 0; q < kDim; ++q) fold(got.values[q], r.values[q]);
      for (std::size_t q = 0; q < got.jacobian.size(); ++q) fold(got.jacobian[q], r.jacobian[q]);
      const double err = num / den;
      if (err <= kRelErrBound)
        ++within;
      else
        batch_ok[b] = false;
      if (!(err <= worst)) worst = err;
    }
  }
  return worst;
}

/// Single-threaded ad::CpuEvaluator microseconds per point over the pool.
template <class S>
double cpu_us_per_point(const Inputs& in, int repeats) {
  using CS = pe::cplx::Complex<S>;
  const pe::ad::CpuEvaluator<S> cpu(in.system);
  std::vector<std::vector<CS>> points;
  for (const auto& batch : in.pool)
    for (const auto& p : batch) {
      if constexpr (std::is_same_v<S, DD>) {
        points.push_back(p);
      } else {
        std::vector<CS> x;
        for (const auto& z : p) x.push_back(z.to_double());
        points.push_back(std::move(x));
      }
    }
  pe::poly::EvalResult<S> r(kDim);
  std::vector<double> us;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = Clock::now();
    for (const auto& x : points) cpu.evaluate(std::span<const CS>(x), r);
    us.push_back(seconds_since(t0) * 1e6 / static_cast<double>(points.size()));
  }
  return median(us);
}

}  // namespace

SetupCost eval_setup_cost(std::uint64_t seed, bool cold) {
  SetupCost cost;
  (void)build(make_inputs(seed), cold, cost);
  return cost;
}

Result run_eval_workload(const Args& args) {
  Result result;
  const Inputs in = make_inputs(args.seed);
  Digest inputs;
  inputs.add(in.system);
  for (const auto& batch : in.pool)
    for (const auto& p : batch)
      for (const auto& z : p) inputs.add(z);
  result.inputs_digest = inputs.hex();

  std::vector<double> setup_s;
  Instance inst;
  for (unsigned rep = 0; rep < kSetupRepeats; ++rep) {
    inst.eval.reset();  // the evaluator goes before the device it uses
    inst.device.reset();
    SetupCost cost;
    inst = build(in, /*cold=*/true, cost);
    setup_s.push_back(cost.seconds);
  }

  Loop loop;
  try {
    loop = eval_loop(inst, in, args.seconds, nullptr);
  } catch (const std::exception& e) {
    result.fail_check(std::string("evaluate_range threw: ") + e.what());
    return result;
  }

  std::uint64_t within = 0;
  bool batch_ok[kPool];
  const double err = max_rel_err(in, loop.first, within, batch_ok);
  const std::uint64_t checked = std::uint64_t{kPool} * kBatch;
  result.attempted = loop.latency_ms.size();
  result.failed = loop.mismatched;
  for (unsigned b = 0; b < kPool; ++b)
    if (!batch_ok[b]) result.failed += loop.calls[b];
  if (within != checked) result.fail_check("double-double outputs outside the quad-double bound");
  if (loop.mismatched > 0) result.fail_check("repeated evaluations of one batch differ");

  Digest out;
  for (const auto& outputs : loop.first)
    for (const auto& r : outputs) {
      for (const auto& z : r.values) out.add(z);
      for (const auto& z : r.jacobian) out.add(z);
    }
  result.output_digest = out.hex();

  const double calls = static_cast<double>(loop.latency_ms.size());
  const auto tail = tail_latency(loop.modeled_ms);
  const double evals_per_cpu_s = calls * kBatch / loop.cpu_s;
  double modeled_ms = 0.0;
  for (const double ms : loop.modeled_ms) modeled_ms += ms;
  const double solved = static_cast<double>(within) / static_cast<double>(checked);
  result.add("setup_s", median(setup_s), "s");
  result.add("solves_per_cpu_s", calls / loop.cpu_s, "1/cpu_s");
  result.add("latency_p50_ms", median(loop.modeled_ms), "modeled_ms");
  result.add("latency_tail_ms", tail.value, "modeled_ms");
  result.add("paths_per_cpu_s", evals_per_cpu_s, "1/cpu_s");
  result.add("evals_per_cpu_s", evals_per_cpu_s, "1/cpu_s");
  result.add("modeled_makespan_ms", modeled_ms, "modeled_ms");
  result.add("solved_frac", solved, "fraction");
  result.add("peak_rss_mb", loop.quota_rss_mb, "MB");

  result.add_fixed("modeled_makespan_ms", modeled_ms, "modeled_ms");
  result.add_fixed("solved_frac", solved, "fraction");
  result.add_fixed("launches_per_call",
                   static_cast<double>(loop.launches) /
                       static_cast<double>(loop.latency_ms.size()),
                   "count");

  const auto wall_tail = tail_latency(loop.latency_ms);
  char line[400];
  std::snprintf(line, sizeof(line),
                "closed loop: %zu evaluate_range calls of %u points, %.3f process CPU s in "
                "the calls; modeled latency tail = %s",
                loop.latency_ms.size(), kBatch, loop.cpu_s, describe(tail).c_str());
  result.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "host wall (not gated): %.4g evals/s from the median call, latency p50 %.4g ms, "
                "tail %.4g ms (%s)",
                kBatch * 1e3 / median(loop.latency_ms), median(loop.latency_ms), wall_tail.value,
                describe(wall_tail).c_str());
  result.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "check: worst dd-vs-qd normwise relative error %.3g (bound %.0e)", err,
                kRelErrBound);
  result.notes.push_back(line);
  return result;
}

double eval_layers(const Args& args, double budget_s, SpanLog* log, Result* out) {
  const Inputs in = make_inputs(args.seed);
  SetupCost cost;
  Instance inst = build(in, /*cold=*/false, cost);
  const Loop loop = eval_loop(inst, in, budget_s, log);
  const double eval_us = median(loop.latency_ms) * 1e3 / kBatch;
  const double rate = static_cast<double>(loop.latency_ms.size()) * kBatch / loop.cpu_s;
  if (out == nullptr) return rate;
  // The last call's device log: launches, modeled time, PCIe bytes.
  const pe::simt::LaunchLog call_log = inst.eval->last_log();
  const double launches = static_cast<double>(call_log.kernels.size());

  out->attempted += loop.latency_ms.size();
  std::uint64_t within = 0;
  bool batch_ok[kPool];
  const double err = max_rel_err(in, loop.first, within, batch_ok);
  if (within != std::uint64_t{kPool} * kBatch)
    out->fail_check("double-double outputs outside the quad-double bound");

  // Values-only kernel on the same batches.
  TimedEvaluator<DD, Fused> timed(*inst.eval, log);
  std::vector<CD> values(std::size_t{kBatch} * kDim);
  for (int c = 0; c < 16; ++c) {
    inst.device->clear_log();
    timed.evaluate_values_range(in.pool[c % kPool], 0, kBatch, std::span<CD>(values));
  }

  const double cpu_dd_us = cpu_us_per_point<DD>(in, 5);
  const double cpu_d_us = cpu_us_per_point<double>(in, 25);

  out->add("core.eval_us_per_point", median(log->durations_us("core.evaluate_range")) / kBatch,
           "us");
  out->add("core.values_us_per_point",
           median(log->durations_us("core.evaluate_values_range")) / kBatch, "us");
  out->add("core.launches", launches, "count");
  out->add("core.modeled_us_per_launch",
           pe::simt::estimate_log_us(call_log, inst.device->spec(), dd_cost()) / launches, "us");
  out->add("core.h2d_bytes_per_point",
           static_cast<double>(call_log.transfers.bytes_to_device) / kBatch, "bytes");
  out->add("core.d2h_bytes_per_point",
           static_cast<double>(call_log.transfers.bytes_from_device) / kBatch, "bytes");
  out->add("core.max_rel_err", err, "ratio");
  out->add("simt.overhead_ratio", eval_us / cpu_dd_us, "ratio");
  out->add("ad.cpu_evals_per_sec", 1e6 / cpu_dd_us, "1/s");
  out->add("prec.dd_over_double", cpu_dd_us / cpu_d_us, "ratio");
  return rate;
}

void paper_model_layers(Result& out) {
  // Prices the paper's Table-1 rows with the C2050 cost model (the
  // three-kernel pipeline at block size 32); the model is validated
  // against nothing else.
  const auto repro = pe::benchutil::reproduce_table(pe::benchutil::paper_table1());
  double worst = 0.0;
  for (const auto& row : repro.rows)
    worst = std::max(worst, std::abs(row.model_gpu_s - row.paper_gpu_s) / row.paper_gpu_s);
  out.add("simt.model_err_table1", worst, "ratio");
}

}  // namespace perfbench
