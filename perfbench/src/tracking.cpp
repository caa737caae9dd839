// The homotopy and linalg layers, measured from outside.  The service
// hides its trackers, so this pass drives homotopy::BatchPathTracker
// directly over BatchedProjectiveHomotopy + FusedGpuEvaluator on the
// same systems and start points the track_dim16_proj requests use, with
// the homotopy and the evaluator wrapped in forwarding decorators that
// open a span around every call.  Round spans wrap tracker.round(), so
// span self times split a round into tracker control (predictor,
// Newton, step control), homotopy assembly and device evaluation.

#include <algorithm>

#include "core/fused_evaluator.hpp"
#include "homotopy/batch_tracker.hpp"
#include "homotopy/homogenize.hpp"
#include "homotopy/projective.hpp"
#include "homotopy/start_system.hpp"
#include "linalg/lu.hpp"
#include "timed.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using C = pe::cplx::Complex<double>;

/// Forwarding decorator over a batched homotopy: a span around every
/// evaluation, plus a bounded capture of the Jacobians and right-hand
/// sides it returns (replayed through lu_solve_batch afterwards).
template <class Homo>
class TimedHomotopy {
 public:
  using BatchedHomotopyTag = void;

  TimedHomotopy(Homo& inner, SpanLog* log, std::size_t capture_systems)
      : inner_(inner), log_(log), capture_left_(capture_systems) {}

  [[nodiscard]] unsigned dimension() const noexcept { return inner_.dimension(); }
  [[nodiscard]] std::size_t max_batch() const noexcept { return inner_.max_batch(); }

  void evaluate_range(const std::vector<std::vector<C>>& points, std::span<const C> ts,
                      std::size_t first, std::size_t count, std::span<C> values,
                      std::span<C> jacobians) {
    {
      ScopedSpan span(log_, "homotopy.evaluate_range");
      inner_.evaluate_range(points, ts, first, count, values, jacobians);
    }
    const std::size_t take = std::min(count, capture_left_);
    if (take > 0) {
      const std::size_t np1 = dimension();
      captured_jac_.insert(captured_jac_.end(), jacobians.begin(),
                           jacobians.begin() + static_cast<std::ptrdiff_t>(take * np1 * np1));
      captured_rhs_.insert(captured_rhs_.end(), values.begin(),
                           values.begin() + static_cast<std::ptrdiff_t>(take * np1));
      capture_left_ -= take;
    }
  }
  void evaluate_values_range(const std::vector<std::vector<C>>& points,
                             std::span<const C> ts, std::size_t first, std::size_t count,
                             std::span<C> values) {
    ScopedSpan span(log_, "homotopy.evaluate_values_range");
    inner_.evaluate_values_range(points, ts, first, count, values);
  }
  void rhs_from_last(std::size_t i, std::span<C> out) const { inner_.rhs_from_last(i, out); }
  void renormalize(std::span<C> z) const { inner_.renormalize(z); }
  [[nodiscard]] double infinity_ratio(std::span<const C> z) const {
    return inner_.infinity_ratio(z);
  }

  [[nodiscard]] const std::vector<C>& captured_jacobians() const { return captured_jac_; }
  [[nodiscard]] const std::vector<C>& captured_rhs() const { return captured_rhs_; }

 private:
  Homo& inner_;
  SpanLog* log_;
  std::size_t capture_left_;
  std::vector<C> captured_jac_, captured_rhs_;
};

constexpr std::size_t kCaptureSystems = 512;

/// Host LU per system at the captured Jacobians' dimension: the median
/// over repeats of one full lu_solve_batch sweep of every capture.
double replay_lu_us(unsigned np1, const std::vector<C>& jac, const std::vector<C>& rhs) {
  const std::size_t nn = std::size_t{np1} * np1;
  const std::size_t systems = jac.size() / nn;
  if (systems == 0) return 0.0;
  constexpr std::size_t kChunk = 64;
  pe::linalg::LuArena<double> arena(np1, kChunk);
  std::vector<C> x(kChunk * np1);
  std::vector<unsigned char> singular(kChunk);
  std::vector<double> per_system_us;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t c0 = 0; c0 < systems; c0 += kChunk) {
      const std::size_t cc = std::min(kChunk, systems - c0);
      pe::linalg::lu_solve_batch(arena, cc, std::span<const C>(jac).subspan(c0 * nn, cc * nn),
                                 std::span<const C>(rhs).subspan(c0 * np1, cc * np1),
                                 std::span<C>(x), std::span<unsigned char>(singular));
    }
    per_system_us.push_back(seconds_since(t0) * 1e6 / static_cast<double>(systems));
  }
  return median(per_system_us);
}

}  // namespace

double tracking_layers(const Args& args, double budget_s, SpanLog* log, Result* out) {
  using Fused = pe::core::FusedGpuEvaluator<double>;
  using Eval = TimedEvaluator<double, Fused>;
  using Homo = pe::homotopy::BatchedProjectiveHomotopy<double, Eval>;
  const auto opt = request_options(kTrackPaths);
  const auto gamma = pe::homotopy::random_gamma(opt.gamma_seed);

  // Main thread + 3 device workers: the service workload's 4 threads.
  pe::simt::Device device(pe::simt::DeviceSpec::tesla_c2050(), 3);
  std::uint64_t paths = 0, steps = 0, rejections = 0, classified = 0;
  std::uint64_t launches = 0, points = 0;
  std::vector<C> captured_jac, captured_rhs;
  unsigned np1 = 0;
  Digest first_request;
  double wall_s = 0.0, cpu_s = 0.0;
  for (std::uint64_t req = 0; req == 0 || wall_s < budget_s; ++req) {
    device.reset_memory();  // the previous request's evaluator is gone
    const auto sys = track_system(args.seed, req);
    const pe::homotopy::TotalDegreeStart start(sys);
    const auto patch = pe::homotopy::random_patch(sys.dimension() + 1, opt.tracking.patch_seed);
    Fused fused(device, sys, opt.sharding.lockstep_batch);
    Eval eval(fused, log);
    Homo homo(eval, sys, start.system(), gamma, std::span<const C>(patch));
    TimedHomotopy<Homo> timed(homo, log, req == 0 ? kCaptureSystems : 0);
    pe::homotopy::BatchPathTracker<double, TimedHomotopy<Homo>> tracker(
        device, timed, opt.tracking.track, kTrackPaths);
    std::vector<std::vector<C>> roots;
    for (std::uint64_t p = 0; p < kTrackPaths; ++p) {
      const auto affine = start.start_root(p);
      roots.push_back(pe::homotopy::embed_in_patch<double>(std::span<const C>(affine),
                                                           std::span<const C>(patch)));
    }

    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    tracker.start(roots, 0, roots.size());
    for (std::size_t live = 1; live > 0;) {
      ScopedSpan span(log, "homotopy.round");
      live = tracker.round();
    }
    wall_s += seconds_since(t0);
    cpu_s += process_cpu_s() - cpu0;

    for (std::size_t p = 0; p < kTrackPaths; ++p) {
      const auto r = tracker.result(p);
      steps += r.steps;
      rejections += r.rejections;
      if (r.status == pe::homotopy::PathStatus::kConverged ||
          r.status == pe::homotopy::PathStatus::kAtInfinity)
        ++classified;
      if (req == 0) {
        first_request.add(static_cast<std::uint64_t>(r.status));
        first_request.add(std::uint64_t{r.steps});
        first_request.add(std::uint64_t{r.rejections});
        first_request.add(std::uint64_t{r.winding});
        first_request.add(r.final_residual);
        for (const auto& z : r.solution) first_request.add(z);
      }
    }
    paths += kTrackPaths;
    launches += eval.launches();
    points += eval.points();
    if (req == 0) {
      np1 = timed.dimension();
      captured_jac = timed.captured_jacobians();
      captured_rhs = timed.captured_rhs();
    }
  }
  const double rate = static_cast<double>(paths) / cpu_s;
  if (out == nullptr) return rate;

  out->attempted += paths / kTrackPaths;
  const auto round = log->totals("homotopy.round");
  const auto full = log->totals("homotopy.evaluate_range");
  const auto values = log->totals("homotopy.evaluate_values_range");
  out->add("homotopy.round_us", round.total_us / static_cast<double>(round.count), "us");
  out->add("homotopy.rounds", static_cast<double>(round.count), "count");
  out->add("homotopy.self_frac", round.self_us / round.total_us, "fraction");
  out->add("homotopy.assembly_frac", (full.self_us + values.self_us) / round.total_us,
           "fraction");
  out->add("homotopy.accept_ratio",
           static_cast<double>(steps) / static_cast<double>(steps + rejections), "fraction");
  out->add("homotopy.live_points_per_launch",
           static_cast<double>(points) / static_cast<double>(launches), "count");
  out->add("homotopy.paths_per_cpu_s", rate, "1/cpu_s");
  out->add("linalg.lu_us", replay_lu_us(np1, captured_jac, captured_rhs), "us");
  out->add_fixed("direct_first_request_digest",
                 static_cast<double>(first_request.value() >> 11), "digest");
  if (classified == 0) out->fail_check("direct tracker classified no endpoint");
  return rate;
}

}  // namespace perfbench
