#pragma once

/// \file sharded_solver.hpp
/// Path-tracking batches routed through device shards.
///
/// The manager/worker layout of solver.hpp, with the workers promoted
/// from CPU evaluators to per-shard devices: each shard owns a
/// `simt::Device` (with its own pool and pre-warmed scratch) and a
/// `FusedGpuEvaluator` for the target system; the start system stays on
/// the CPU (it is a handful of x_i^d - 1 monomials, not the uniform
/// structure the massively parallel pipeline wants).  Each shard
/// advances its paths in lockstep rounds (BatchPathTracker), and
/// results land indexed by path, so the output order is deterministic.
///
/// Geometry: PROJECTIVE tracking is the default -- start roots are
/// embedded in a random patch hyperplane c . z = 1 (homogenize.hpp),
/// the trackers renormalize into the patch and classify endpoints
/// (converged / at infinity / stalled / diverged) with the Cauchy
/// endgame answering t -> 1 stalls.  The device still evaluates the
/// AFFINE target (the homogeneous rows are lifted on the host,
/// projective.hpp), so the paper's uniform structure requirement is
/// untouched.  The affine geometry remains behind solve::Geometry::kAffine;
/// its paths to infinity stall as before.
///
/// Routes: projective is a one-shot call into the solve service;
/// affine runs `detail::track_lockstep_loop`.  Options are validated
/// once at entry, so both routes reject the same bad options with
/// std::invalid_argument.
///
/// Reproducibility: a path's trajectory depends only on its start root,
/// gamma, the patch and the evaluators, all identical across shards, so
/// solutions are BITWISE reproducible across shard counts and equal to
/// the CPU solver's (solver.hpp), the scalar reference.  Requires a
/// uniform-structure target (pack_system's precondition).

#include <memory>

#include "ad/cpu_evaluator.hpp"
#include "core/fused_evaluator.hpp"
#include "homotopy/batch_tracker.hpp"
#include "homotopy/solver.hpp"
#include "service/solve_service.hpp"
#include "simt/device_registry.hpp"
#include "solve/options.hpp"

namespace polyeval::homotopy {

namespace detail {

/// One shard's affine lockstep state: the device evaluator sized for
/// whole live-set batches, the CPU start evaluator, and the
/// BatchPathTracker over them.
template <prec::RealScalar S>
struct ShardLockstepState {
  core::FusedGpuEvaluator<S> f;
  ad::CpuEvaluator<S> g;
  BatchPathTracker<S, core::FusedGpuEvaluator<S>> tracker;

  ShardLockstepState(simt::Device& device, const poly::PolynomialSystem& target,
                     const poly::PolynomialSystem& start_system,
                     cplx::Complex<double> gamma, const solve::Options& options,
                     unsigned batch_capacity, std::size_t max_paths)
      : f(device, target, batch_capacity,
          {.block_size = options.tuning.block_size,
           .interchange = {},
           .tuning = options.tuning.mode,
           .detect_races = options.tuning.detect_races}),
        g(start_system),
        tracker(device, f, g, gamma, options.tracking.track, max_paths) {}
};

/// The affine lockstep tracking loop: paths are partitioned into
/// contiguous per-shard slices (deterministic; a path's trajectory is
/// independent of its shard, so any partition yields bitwise-identical
/// summaries) and each shard advances its whole slice in lockstep
/// rounds.
template <prec::RealScalar S>
SolveSummary<S> track_lockstep_loop(
    const poly::PolynomialSystem& target, const poly::PolynomialSystem& start_system,
    const std::vector<std::vector<cplx::Complex<S>>>& start_roots,
    cplx::Complex<double> gamma, const solve::Options& options) {
  const std::uint64_t paths = start_roots.size();

  SolveSummary<S> summary;
  summary.attempted = paths;
  summary.paths.resize(paths);
  if (paths == 0) return summary;

  simt::DeviceRegistry registry(options.sharding.shards, simt::DeviceSpec::tesla_c2050(),
                                options.sharding.workers_per_shard);
  const std::size_t per_shard =
      (paths + registry.size() - 1) / registry.size();  // last slice may be short
  const unsigned capacity = static_cast<unsigned>(
      std::min<std::size_t>(options.sharding.lockstep_batch, per_shard));
  // Shards past the last slice (more shards than paths) own nothing;
  // skip their evaluator/tracker construction entirely.
  const std::size_t used = (paths + per_shard - 1) / per_shard;

  std::vector<std::unique_ptr<ShardLockstepState<S>>> shards;
  shards.reserve(used);
  for (std::size_t i = 0; i < used; ++i)
    shards.push_back(std::make_unique<ShardLockstepState<S>>(
        registry.device(static_cast<unsigned>(i)), target, start_system, gamma,
        options, capacity, per_shard));

  const auto track_slice = [&](std::size_t shard) {
    const std::size_t first = shard * per_shard;
    const std::size_t count = std::min(per_shard, paths - first);
    auto& tracker = shards[shard]->tracker;
    tracker.start(start_roots, first, count);
    tracker.run();
    for (std::size_t i = 0; i < count; ++i)
      summary.paths[first + i] = tracker.result(i);
  };

  if (used == 1) {
    track_slice(0);
  } else {
    simt::ThreadPool manager(static_cast<unsigned>(used) - 1);
    // The claimed index IS the shard id (one slice per shard).
    manager.parallel_for_ranges(
        used, 1, [&](unsigned, std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) track_slice(s);
        });
  }

  summary.tally();
  return summary;
}

/// The projective route, a one-shot call into the solve service: one
/// request carrying every path, a service sized so the whole per-shard
/// slice is resident (slots_per_shard), drained to completion.  A
/// path's trajectory depends only on its start root, gamma, patch and
/// evaluators, all of which the service reproduces exactly.
template <prec::RealScalar S>
SolveSummary<S> track_lockstep_via_service(
    const poly::PolynomialSystem& target, const poly::PolynomialSystem& start_system,
    const std::vector<std::vector<cplx::Complex<S>>>& start_roots,
    cplx::Complex<double> gamma, const solve::Options& options) {
  const std::uint64_t paths = start_roots.size();
  if (paths == 0) return {};
  const unsigned shards = options.sharding.shards;
  const std::size_t per_shard = (paths + shards - 1) / shards;
  typename service::SolveService<S>::Config config;
  config.shards = shards;
  config.workers_per_shard = options.sharding.workers_per_shard;
  config.lockstep_batch = static_cast<unsigned>(
      std::min<std::size_t>(options.sharding.lockstep_batch, per_shard));
  config.slots_per_shard = per_shard;
  config.max_tenants = 1;
  config.max_queued = 1;
  config.max_paths_per_request = paths;
  service::SolveService<S> svc(std::move(config));

  service::SolveRequest<S> request{target, options,
                                   typename service::SolveRequest<S>::StartData{
                                       start_system, start_roots, gamma},
                                   /*round_budget=*/0, /*modeled_deadline_us=*/0.0};
  auto ticket = svc.submit(std::move(request));
  if (!ticket.admitted())
    throw std::invalid_argument("track_paths_sharded: request rejected: " +
                                std::string(to_string(ticket.verdict())));
  svc.drain();
  return ticket.report().to_summary();
}

}  // namespace detail

/// Track the given AFFINE start roots of `start_system` through the
/// gamma homotopy to roots of `target`, the paths spread over device
/// shards.  summary.paths[i] is the i-th start root's result; in
/// projective geometry (the default) its solution is the patched
/// projective point (n+1 coordinates, homotopy::dehomogenize for the
/// affine chart) and its status classifies the endpoint.
template <prec::RealScalar S>
SolveSummary<S> track_paths_sharded(
    const poly::PolynomialSystem& target, const poly::PolynomialSystem& start_system,
    const std::vector<std::vector<cplx::Complex<S>>>& start_roots,
    cplx::Complex<double> gamma, const solve::Options& options = {}) {
  options.validate();
  if (options.tracking.geometry == solve::Geometry::kProjective)
    return detail::track_lockstep_via_service<S>(target, start_system, start_roots,
                                                 gamma, options);
  return detail::track_lockstep_loop<S>(target, start_system, start_roots, gamma,
                                        options);
}

/// Track the total-degree paths of `target` over device shards -- the
/// device counterpart of solve_total_degree, with the evaluation work
/// running on the shards' devices.
template <prec::RealScalar S>
SolveSummary<S> solve_total_degree_sharded(const poly::PolynomialSystem& target,
                                           const solve::Options& options = {}) {
  const TotalDegreeStart start(target);
  return track_paths_sharded<S>(
      target, start.system(),
      total_degree_roots<S>(start, options.sharding.max_paths),
      random_gamma(options.gamma_seed), options);
}

}  // namespace polyeval::homotopy
