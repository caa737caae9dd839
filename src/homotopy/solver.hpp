#pragma once

/// \file solver.hpp
/// All-paths total-degree solver on the CPU: the manager/worker loop the
/// paper's introduction describes (path-tracking jobs distributed over
/// workers), one scalar PathTracker per path over private
/// `ad::CpuEvaluator`s, in either geometry of `solve::Options`.
///
/// It is also the scalar reference of the device routes: the CPU
/// evaluator computes the device kernels' bits, so
/// `track_paths_sharded` (the lockstep loop and the solve service) must
/// reproduce its endpoints bit for bit, and the parity tests and bench
/// checks compare against it -- it shares no loop or evaluator with
/// the code under test.  Unlike the device routes it takes any system,
/// uniform in the paper's (n, m, k, d) sense or not.

#include <algorithm>
#include <cmath>

#include "ad/cpu_evaluator.hpp"
#include "homotopy/homogenize.hpp"
#include "homotopy/projective.hpp"
#include "homotopy/start_system.hpp"
#include "homotopy/tracker.hpp"
#include "simt/thread_pool.hpp"
#include "solve/options.hpp"

namespace polyeval::homotopy {

template <prec::RealScalar S>
struct SolveSummary {
  std::vector<TrackResult<S>> paths;
  std::uint64_t attempted = 0;
  std::uint64_t successes = 0;    ///< kConverged endpoints
  std::uint64_t at_infinity = 0;  ///< kAtInfinity endpoints (projective mode)

  /// Paths with a classified endpoint (converged or at infinity): the
  /// solved-paths numerator of bench_tracking's solved_frac column.
  [[nodiscard]] std::uint64_t classified() const noexcept {
    return successes + at_infinity;
  }

  /// Recount `successes` and `at_infinity` from `paths`.
  void tally() noexcept {
    successes = at_infinity = 0;
    for (const auto& p : paths) {
      if (p.success) ++successes;
      if (p.status == PathStatus::kAtInfinity) ++at_infinity;
    }
  }

  /// Distinct solutions among the successful endpoints (max-norm
  /// tolerance matching; a NaN coordinate never matches).
  [[nodiscard]] std::vector<std::vector<cplx::Complex<S>>> distinct_solutions(
      double tolerance = 1e-6) const {
    std::vector<std::vector<cplx::Complex<S>>> found;
    for (const auto& p : paths) {
      if (!p.success) continue;
      const bool seen = std::any_of(found.begin(), found.end(), [&](const auto& q) {
        for (std::size_t i = 0; i < q.size(); ++i)
          if (!(cplx::max_abs_diff(q[i], p.solution[i]) < tolerance)) return false;
        return true;
      });
      if (!seen) found.push_back(p.solution);
    }
    return found;
  }
};

/// The first `max_paths` (0 = all) total-degree start roots of `start`,
/// root p in slot p: the one root list every total-degree entry point
/// tracks.
template <prec::RealScalar S>
[[nodiscard]] std::vector<std::vector<cplx::Complex<S>>> total_degree_roots(
    const TotalDegreeStart& start, std::uint64_t max_paths) {
  using C = cplx::Complex<S>;
  std::uint64_t paths = start.num_paths();
  if (max_paths > 0) paths = std::min(paths, max_paths);
  else if (start.num_paths_saturated())
    throw std::invalid_argument(
        "total_degree_roots: Bezout number exceeds 2^64; set max_paths");

  std::vector<std::vector<C>> roots;
  roots.reserve(paths);
  for (std::uint64_t p = 0; p < paths; ++p) {
    const auto root_d = start.start_root(p);
    std::vector<C> root;
    root.reserve(root_d.size());
    for (const auto& z : root_d) root.push_back(C::from_double(z));
    roots.push_back(std::move(root));
  }
  return roots;
}

/// Track every total-degree path of the target system in precision S,
/// on `options.sharding.shards` CPU workers (a worker plays a shard's
/// part).  In projective geometry (the default) summary.paths[i]'s
/// solution is the patched projective point (n+1 coordinates,
/// homotopy::dehomogenize for the affine chart) and its status
/// classifies the endpoint.  Throws std::invalid_argument on options
/// that fail `solve::Options::validate`.
template <prec::RealScalar S>
SolveSummary<S> solve_total_degree(const poly::PolynomialSystem& target,
                                   const solve::Options& options = {}) {
  using C = cplx::Complex<S>;
  using CpuEval = ad::CpuEvaluator<S>;
  options.validate();
  const TotalDegreeStart start(target);
  const auto gamma = random_gamma(options.gamma_seed);
  auto roots = total_degree_roots<S>(start, options.sharding.max_paths);

  const bool projective = options.tracking.geometry == solve::Geometry::kProjective;
  std::vector<cplx::Complex<double>> patch;
  if (projective) {
    patch = random_patch(target.dimension() + 1, options.tracking.patch_seed);
    embed_all_in_patch<S>(roots, patch);
  }

  SolveSummary<S> summary;
  summary.attempted = roots.size();
  summary.paths.resize(roots.size());

  const auto track_path = [&](std::size_t path) {
    // Worker-private evaluators: no shared mutable state between jobs.
    CpuEval f(target);
    const std::span<const C> root(roots[path]);
    if (projective) {
      ProjectiveHomotopy<S, CpuEval> h(f, target, start.system(), gamma, patch);
      summary.paths[path] = PathTracker<S, decltype(h)>(h, options.tracking.track).track(root);
    } else {
      CpuEval g(start.system());
      Homotopy<S, CpuEval, CpuEval> h(f, g, gamma);
      summary.paths[path] = PathTracker<S, decltype(h)>(h, options.tracking.track).track(root);
    }
  };
  if (options.sharding.shards == 1) {
    for (std::size_t p = 0; p < roots.size(); ++p) track_path(p);
  } else {
    simt::ThreadPool pool(options.sharding.shards - 1);  // the caller is one worker
    pool.parallel_for(roots.size(), track_path);
  }

  summary.tally();
  return summary;
}

}  // namespace polyeval::homotopy
