#pragma once

/// \file sharded_solver.hpp
/// Path-tracking batches routed through device shards.
///
/// The manager/worker layout of solver.hpp, with the workers promoted
/// from CPU evaluators to per-shard devices: each shard owns a
/// `simt::Device` (with its own pool and pre-warmed scratch) and a
/// device evaluator for the target system; the start system stays on
/// the CPU (it is a handful of x_i^d - 1 monomials, not the uniform
/// structure the massively parallel pipeline wants).  Path jobs are
/// claimed in chunks from a shared cursor -- the dynamic balance of the
/// MPI manager/worker implementations the paper cites -- and results
/// land indexed by path, so the output order is deterministic.
///
/// Geometry: PROJECTIVE tracking is the default -- start roots are
/// embedded in a random patch hyperplane c . z = 1 (homogenize.hpp),
/// the trackers renormalize into the patch and classify endpoints
/// (converged / at infinity / stalled / diverged) with the Cauchy
/// endgame answering t -> 1 stalls.  The device still evaluates the
/// AFFINE target (the homogeneous rows are lifted on the host,
/// projective.hpp), so the paper's uniform structure requirement is
/// untouched.  The affine mode remains behind TrackGeometry::kAffine as
/// the parity/escape hatch; its paths to infinity stall as before.
///
/// Routes: projective lockstep on the fused backend is a one-shot call
/// into the solve service (projective only); every other combination --
/// affine lockstep, the pipelined backend, per-path mode -- runs the
/// dedicated loops below.  Options are validated once at entry, so every
/// route rejects the same bad options with std::invalid_argument.
///
/// Reproducibility: a path's trajectory depends only on its start root,
/// gamma, the patch and the evaluators, all identical across shards, so
/// solutions are BITWISE reproducible across shard counts (the sharded
/// analogue of the evaluator parity guarantee).  Requires a
/// uniform-structure target (pack_system's precondition).

#include <memory>
#include <optional>

#include "ad/cpu_evaluator.hpp"
#include "core/fused_evaluator.hpp"
#include "core/pipelined_evaluator.hpp"
#include "homotopy/batch_tracker.hpp"
#include "homotopy/solver.hpp"
#include "service/solve_service.hpp"
#include "simt/device_registry.hpp"

#include "homotopy/shard_options.hpp"

namespace polyeval::homotopy {

namespace detail {

/// Everything one shard's manager thread owns while tracking a path at
/// a time in AFFINE coordinates: the per-device target evaluator, the
/// CPU start-system evaluator, and the homotopy/tracker built over
/// them.  One instance per shard, used by one participant at a time.
template <prec::RealScalar S, class TargetEvalT>
struct ShardTrackState {
  using TargetEval = TargetEvalT;
  using StartEval = ad::CpuEvaluator<S>;

  TargetEval f;
  StartEval g;
  Homotopy<S, TargetEval, StartEval> h;
  PathTracker<S, Homotopy<S, TargetEval, StartEval>> tracker;

  ShardTrackState(simt::Device& device, const poly::PolynomialSystem& target,
                  const poly::PolynomialSystem& start_system,
                  cplx::Complex<double> gamma, const ShardedSolveOptions& options)
      : f(device, target, 1,
          {.block_size = options.block_size,
           .interchange = {},
           .tuning = options.tuning,
           .detect_races = options.detect_races}),
        g(start_system),
        h(f, g, gamma),
        tracker(h, options.track) {}
};

/// The projective per-path counterpart: the device still evaluates the
/// affine target; the homotopy lifts it into the patch.
template <prec::RealScalar S, class TargetEvalT>
struct ShardProjectiveTrackState {
  using TargetEval = TargetEvalT;

  TargetEval f;
  ProjectiveHomotopy<S, TargetEval> h;
  PathTracker<S, ProjectiveHomotopy<S, TargetEval>> tracker;

  ShardProjectiveTrackState(simt::Device& device,
                            const poly::PolynomialSystem& target,
                            const poly::PolynomialSystem& start_system,
                            cplx::Complex<double> gamma,
                            std::span<const cplx::Complex<double>> patch,
                            const ShardedSolveOptions& options)
      : f(device, target, 1,
          {.block_size = options.block_size,
           .interchange = {},
           .tuning = options.tuning,
           .detect_races = options.detect_races}),
        h(f, target, start_system, gamma, patch),
        tracker(h, options.track) {}
};

/// One shard's affine lockstep state: the device evaluator sized for
/// whole live-set batches, the CPU start evaluator, and the
/// BatchPathTracker over them.
template <prec::RealScalar S, class TargetEvalT>
struct ShardLockstepState {
  using TargetEval = TargetEvalT;
  using StartEval = ad::CpuEvaluator<S>;

  TargetEval f;
  StartEval g;
  BatchPathTracker<S, TargetEval> tracker;

  ShardLockstepState(simt::Device& device, const poly::PolynomialSystem& target,
                     const poly::PolynomialSystem& start_system,
                     cplx::Complex<double> gamma, const ShardedSolveOptions& options,
                     unsigned batch_capacity, std::size_t max_paths)
      : f(device, target, batch_capacity,
          {.block_size = options.block_size,
           .interchange = {},
           .tuning = options.tuning,
           .detect_races = options.detect_races}),
        g(start_system),
        tracker(device, f, g, gamma, options.track, max_paths) {}
};

/// The projective lockstep state: batched projective homotopy over the
/// affine device evaluator.
template <prec::RealScalar S, class TargetEvalT>
struct ShardProjectiveLockstepState {
  using TargetEval = TargetEvalT;

  TargetEval f;
  BatchedProjectiveHomotopy<S, TargetEval> h;
  BatchPathTracker<S, BatchedProjectiveHomotopy<S, TargetEval>> tracker;

  ShardProjectiveLockstepState(simt::Device& device,
                               const poly::PolynomialSystem& target,
                               const poly::PolynomialSystem& start_system,
                               cplx::Complex<double> gamma,
                               std::span<const cplx::Complex<double>> patch,
                               const ShardedSolveOptions& options,
                               unsigned batch_capacity, std::size_t max_paths)
      : f(device, target, batch_capacity,
          {.block_size = options.block_size,
           .interchange = {},
           .tuning = options.tuning,
           .detect_races = options.detect_races}),
        h(f, target, start_system, gamma, patch),
        tracker(device, h, options.track, max_paths) {}
};

/// The lockstep tracking loop, generic over the shard state: paths are
/// partitioned into contiguous per-shard slices (deterministic; a
/// path's trajectory is independent of its shard, so any partition
/// yields bitwise-identical summaries) and each shard advances its
/// whole slice in lockstep rounds.  `make_state(device, capacity,
/// max_paths)` builds one shard's state.
template <prec::RealScalar S, class MakeState>
SolveSummary<S> track_lockstep_loop(
    const std::vector<std::vector<cplx::Complex<S>>>& start_roots,
    const ShardedSolveOptions& options, MakeState&& make_state) {
  const std::uint64_t paths = start_roots.size();

  SolveSummary<S> summary;
  summary.attempted = paths;
  summary.paths.resize(paths);
  if (paths == 0) return summary;

  simt::DeviceRegistry registry(options.shards, simt::DeviceSpec::tesla_c2050(),
                                options.workers_per_shard);
  const std::size_t per_shard =
      (paths + registry.size() - 1) / registry.size();  // last slice may be short
  const unsigned capacity =
      static_cast<unsigned>(std::min<std::size_t>(options.lockstep_batch, per_shard));
  // Shards past the last slice (more shards than paths) own nothing;
  // skip their evaluator/tracker construction entirely.
  const std::size_t used = (paths + per_shard - 1) / per_shard;

  using State = typename std::invoke_result_t<MakeState, simt::Device&, unsigned,
                                              std::size_t>::element_type;
  std::vector<std::unique_ptr<State>> shards;
  shards.reserve(used);
  for (std::size_t i = 0; i < used; ++i)
    shards.push_back(make_state(registry.device(static_cast<unsigned>(i)),
                                capacity, per_shard));

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

  for (const auto& p : summary.paths) {
    if (p.success) ++summary.successes;
    if (p.status == PathStatus::kAtInfinity) ++summary.at_infinity;
  }
  return summary;
}

/// The manager/worker per-path tracking loop, generic over the shard
/// state; `make_state(device)` builds one shard's state.
template <prec::RealScalar S, class MakeState>
SolveSummary<S> track_perpath_loop(
    const std::vector<std::vector<cplx::Complex<S>>>& start_roots,
    const ShardedSolveOptions& options, MakeState&& make_state) {
  const std::uint64_t paths = start_roots.size();

  SolveSummary<S> summary;
  summary.attempted = paths;
  summary.paths.resize(paths);
  if (paths == 0) return summary;

  simt::DeviceRegistry registry(options.shards, simt::DeviceSpec::tesla_c2050(),
                                options.workers_per_shard);
  using State = typename std::invoke_result_t<MakeState, simt::Device&>::element_type;
  std::vector<std::unique_ptr<State>> shards;
  shards.reserve(registry.size());
  for (unsigned i = 0; i < registry.size(); ++i)
    shards.push_back(make_state(registry.device(i)));

  const auto track_one = [&](unsigned shard, std::uint64_t path) {
    summary.paths[path] = shards[shard]->tracker.track(
        std::span<const cplx::Complex<S>>(start_roots[path]));
  };

  if (registry.size() == 1) {
    for (std::uint64_t p = 0; p < paths; ++p) track_one(0, p);
  } else {
    simt::ThreadPool manager(registry.size() - 1);
    manager.parallel_for_ranges(
        paths, options.chunk_paths,
        [&](unsigned participant, std::size_t begin, std::size_t end) {
          for (std::size_t p = begin; p < end; ++p) track_one(participant, p);
        });
  }

  for (const auto& p : summary.paths) {
    if (p.success) ++summary.successes;
    if (p.status == PathStatus::kAtInfinity) ++summary.at_infinity;
  }
  return summary;
}

/// Geometry-resolved dispatch over mode for one device-evaluator type.
template <prec::RealScalar S, class TargetEval>
SolveSummary<S> track_paths_sharded_with(
    const poly::PolynomialSystem& target, const poly::PolynomialSystem& start_system,
    const std::vector<std::vector<cplx::Complex<S>>>& start_roots,
    cplx::Complex<double> gamma, const ShardedSolveOptions& options) {
  if (options.geometry == TrackGeometry::kProjective) {
    // Embed the affine start roots into the patch ONCE, before any
    // sharding, so every shard sees identical projective start points.
    const auto patch_d = random_patch(target.dimension() + 1, options.patch_seed);
    std::vector<cplx::Complex<S>> patch;
    patch.reserve(patch_d.size());
    for (const auto& c : patch_d) patch.push_back(cplx::Complex<S>::from_double(c));
    std::vector<std::vector<cplx::Complex<S>>> embedded;
    embedded.reserve(start_roots.size());
    for (const auto& root : start_roots)
      embedded.push_back(embed_in_patch<S>(
          std::span<const cplx::Complex<S>>(root),
          std::span<const cplx::Complex<S>>(patch)));

    if (options.mode == ShardTrackMode::kLockstep)
      return track_lockstep_loop<S>(
          embedded, options,
          [&](simt::Device& device, unsigned capacity, std::size_t max_paths) {
            return std::make_unique<ShardProjectiveLockstepState<S, TargetEval>>(
                device, target, start_system, gamma,
                std::span<const cplx::Complex<double>>(patch_d), options, capacity,
                max_paths);
          });
    return track_perpath_loop<S>(
        embedded, options, [&](simt::Device& device) {
          return std::make_unique<ShardProjectiveTrackState<S, TargetEval>>(
              device, target, start_system, gamma,
              std::span<const cplx::Complex<double>>(patch_d), options);
        });
  }

  if (options.mode == ShardTrackMode::kLockstep)
    return track_lockstep_loop<S>(
        start_roots, options,
        [&](simt::Device& device, unsigned capacity, std::size_t max_paths) {
          return std::make_unique<ShardLockstepState<S, TargetEval>>(
              device, target, start_system, gamma, options, capacity, max_paths);
        });
  return track_perpath_loop<S>(
      start_roots, options, [&](simt::Device& device) {
        return std::make_unique<ShardTrackState<S, TargetEval>>(
            device, target, start_system, gamma, options);
      });
}

}  // namespace detail

/// Track the given AFFINE start roots of `start_system` through the
/// gamma homotopy to roots of `target`, path jobs distributed over
/// device shards.  summary.paths[i] is the i-th start root's result; in
/// projective geometry (the default) its solution is the patched
/// projective point (n+1 coordinates, homotopy::dehomogenize for the
/// affine chart) and its status classifies the endpoint.
namespace detail {

/// The fused projective lockstep path, re-expressed as a one-shot call
/// into the solve service: one request carrying every path, a service
/// sized so the whole per-shard slice is resident (slots_per_shard),
/// drained to completion.  Endpoints are bitwise identical to the
/// dedicated loop -- a path's trajectory depends only on its start
/// root, gamma, patch and evaluators, all of which the service
/// reproduces exactly -- so the pipelined/per-path loops remain
/// independent parity baselines.
template <prec::RealScalar S>
SolveSummary<S> track_lockstep_via_service(
    const poly::PolynomialSystem& target, const poly::PolynomialSystem& start_system,
    const std::vector<std::vector<cplx::Complex<S>>>& start_roots,
    cplx::Complex<double> gamma, const ShardedSolveOptions& options) {
  const std::uint64_t paths = start_roots.size();
  if (paths == 0) {
    SolveSummary<S> summary;
    return summary;
  }
  const std::size_t per_shard = (paths + options.shards - 1) / options.shards;
  typename service::SolveService<S>::Config config;
  config.shards = options.shards;
  config.workers_per_shard = options.workers_per_shard;
  config.lockstep_batch =
      static_cast<unsigned>(std::min<std::size_t>(options.lockstep_batch, per_shard));
  config.slots_per_shard = per_shard;
  config.max_tenants = 1;
  config.max_queued = 1;
  config.max_paths_per_request = paths;
  service::SolveService<S> svc(std::move(config));

  service::SolveRequest<S> request{target, solve::Options::from_sharded(options),
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

template <prec::RealScalar S>
SolveSummary<S> track_paths_sharded(
    const poly::PolynomialSystem& target, const poly::PolynomialSystem& start_system,
    const std::vector<std::vector<cplx::Complex<S>>>& start_roots,
    cplx::Complex<double> gamma, const ShardedSolveOptions& options = {}) {
  solve::Options::from_sharded(options).validate();
  if (options.mode == ShardTrackMode::kLockstep &&
      options.backend == ShardEvalBackend::kFused &&
      options.geometry == TrackGeometry::kProjective)
    return detail::track_lockstep_via_service<S>(target, start_system, start_roots,
                                                 gamma, options);
  if (options.backend == ShardEvalBackend::kPipelined)
    return detail::track_paths_sharded_with<S, core::PipelinedFusedEvaluator<S>>(
        target, start_system, start_roots, gamma, options);
  return detail::track_paths_sharded_with<S, core::FusedGpuEvaluator<S>>(
      target, start_system, start_roots, gamma, options);
}

/// Track the total-degree paths of `target` over device shards -- the
/// sharded counterpart of solve_total_degree, with the per-path
/// evaluation work running on the shards' devices.
template <prec::RealScalar S>
SolveSummary<S> solve_total_degree_sharded(const poly::PolynomialSystem& target,
                                           const ShardedSolveOptions& options = {}) {
  using C = cplx::Complex<S>;
  const TotalDegreeStart start(target);
  const auto gamma = random_gamma(options.gamma_seed);

  std::uint64_t paths = start.num_paths();
  if (options.max_paths > 0) paths = std::min(paths, options.max_paths);
  else if (start.num_paths_saturated())
    throw std::invalid_argument(
        "solve_total_degree_sharded: Bezout number exceeds 2^64; set max_paths");

  std::vector<std::vector<C>> roots;
  roots.reserve(paths);
  for (std::uint64_t p = 0; p < paths; ++p) {
    const auto root_d = start.start_root(p);
    std::vector<C> root;
    root.reserve(root_d.size());
    for (const auto& z : root_d) root.push_back(C::from_double(z));
    roots.push_back(std::move(root));
  }

  return track_paths_sharded<S>(target, start.system(), roots, gamma, options);
}

}  // namespace polyeval::homotopy
