#pragma once

/// \file batch.hpp
/// Batched Newton's method with per-path convergence masks: the
/// corrector of the lockstep path tracker.  Where newton::refine walks
/// one point through evaluate -> residual check -> solve -> update,
/// refine_batch walks a whole active set through the same sequence with
/// every evaluation batched into device launches and the linear solves
/// looped through a linalg::LuArena.
///
/// One wave, many option classes: each path carries its own iteration
/// cap and residual tolerance (one of a short span of NewtonOptions,
/// chosen per path), so one call advances paths with different Newton
/// budgets -- the lockstep tracker's round puts its tracking
/// correctors, its Cauchy circle samples and its t = 1 polishes in one
/// wave.
///
/// One evaluation per iteration, as in newton::refine: while any path
/// can still update (it < its own cap), one full evaluate_range over
/// those paths, in Jacobian-chunk launches, gives each of them its
/// residual and its Newton system at once; converged paths retire and
/// the survivors' systems are packed to the front of the chunk for the
/// LU batch.  A path that reaches its own cap, after which no update
/// can follow, runs the values-only probe (evaluate_values_range) in a
/// separate launch, one per cap reached.  A probe before every Jacobian
/// step would evaluate most points twice: on the benchmark's tracking
/// and service workloads 71-73% of the probed points were unconverged
/// and went straight on to a full evaluation at the same point.
///
/// Per-path bitwise contract: each path runs EXACTLY newton::refine's
/// arithmetic under its own class's options -- the batched evaluators
/// guarantee per-point independence (one block per point), the
/// values-only probe is bit-identical to a full evaluation's values
/// (build_fused_values_kernel), and LuArena repeats lu_solve's
/// elimination verbatim -- so a path's iterates, residuals and
/// convergence verdicts are independent of which other paths shared
/// its batches.  What the batching buys: paths that converge or go
/// singular drop out of the later launches (the masks), and every
/// launch carries the whole surviving set.
///
/// Zero allocation: all working storage lives in RefineBatchScratch and
/// the caller's LuArena, sized once via reserve(); steady-state
/// refine_batch calls never touch the allocator.

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "linalg/lu.hpp"
#include "newton/newton.hpp"
#include "poly/eval_result.hpp"

namespace polyeval::newton {

/// Anything that can evaluate a batch of points, each at its own
/// parameter value (the homotopy's t, complex so the Cauchy endgame can
/// circle it around 1; ordinary tracking passes real values), with and
/// without the Jacobian -- homotopy::BatchedHomotopy and
/// homotopy::BatchedProjectiveHomotopy are the models.  Both entry
/// points evaluate points[first + i] at ts[first + i] for i in
/// [0, count) with
/// CHUNK-LOCAL outputs: `values` receives count*n entries point-major,
/// `jacobians` count*n*n row-major.  Jacobian calls are bounded by
/// max_batch() (the device batch capacity); values-only calls take any
/// count.
template <class E, class S>
concept BatchEvaluator =
    requires(E e, const std::vector<std::vector<cplx::Complex<S>>>& points,
             std::span<const cplx::Complex<S>> ts, std::size_t first,
             std::size_t count,
             std::span<cplx::Complex<S>> values,
             std::span<cplx::Complex<S>> jacobians) {
      e.evaluate_range(points, ts, first, count, values, jacobians);
      e.evaluate_values_range(points, ts, first, count, values);
      { e.max_batch() } -> std::convertible_to<std::size_t>;
      { e.dimension() } -> std::convertible_to<unsigned>;
    };

/// Per-path outcome of a refine_batch call -- the fields of NewtonResult
/// a tracker consumes, without the per-iteration history vectors.
struct BatchPathStatus {
  bool converged = false;
  bool singular = false;       ///< the path's Jacobian became singular
  unsigned iterations = 0;     ///< Newton updates applied
  double final_residual = 0.0;
  /// Residual of the entry point (newton::refine's residual_history[0])
  /// -- what a diverged endgame polish reports for the pre-polish point.
  double initial_residual = 0.0;
};

/// Working storage of refine_batch, owned by the caller so repeated
/// calls (one per tracker round) stay allocation-free.  Per-path
/// buffers (points, the cap probes) scale with `max_paths`;
/// the O(n^2) full-evaluation buffers scale only with `jac_chunk` --
/// the device batch capacity the full launches walk the active set in.
template <prec::RealScalar S>
struct RefineBatchScratch {
  using C = cplx::Complex<S>;

  std::vector<std::vector<C>> points;  ///< compacted active iterates
  std::vector<C> ts;                   ///< compacted (complex) parameters
  std::vector<std::size_t> active;     ///< surviving slot ids
  std::vector<std::size_t> capped;     ///< slot ids at their own cap (probed)
  std::vector<C> probe_values;         ///< cap probe values, count*n
  std::vector<C> values;               ///< chunk values (residuals, Newton RHS)
  std::vector<C> jacobians;            ///< Jacobian-chunk matrices, chunk*n*n
  std::vector<C> delta;                ///< Jacobian-chunk updates, chunk*n
  std::vector<unsigned char> singular; ///< per-system lu_solve_batch flags
  std::vector<std::size_t> slot_ids;   ///< compacted caller slot ids (bind_slots)
  std::size_t jac_chunk = 0;           ///< full-evaluation chunk bound

  /// Cumulative instrumentation, maintained by refine_batch and read
  /// by the observability layer (obs::TrackerMetrics increments are
  /// fed from deltas of these).  Plain integers on purpose: scratch is
  /// single-writer by contract, and the tracker's zero-alloc gate
  /// covers these adds too.
  std::uint64_t calls = 0;               ///< calls that staged device work
  std::uint64_t iterations_applied = 0;  ///< Newton updates across all paths

  /// Size for up to `max_paths` paths of dimension n, full evaluations
  /// chunked to `jac_chunk` paths per launch.
  void reserve(unsigned n, std::size_t max_paths, std::size_t chunk) {
    jac_chunk = std::min(std::max<std::size_t>(chunk, 1), max_paths);
    points.resize(max_paths);
    for (auto& p : points) p.resize(n);
    ts.resize(max_paths);
    active.reserve(max_paths);
    capped.reserve(max_paths);
    probe_values.resize(max_paths * std::size_t{n});
    values.resize(jac_chunk * std::size_t{n});
    jacobians.resize(jac_chunk * std::size_t{n} * n);
    delta.resize(jac_chunk * std::size_t{n});
    singular.resize(jac_chunk);
    slot_ids.resize(max_paths);
  }
};

/// Evaluators that need to know which caller-side slot each compacted
/// batch position belongs to (the solve service's tenant-routed
/// BatchedProjectiveHomotopy, which routes each point to its own
/// system).  The
/// bound span is indexed exactly like the points of the evaluate calls
/// that follow it: bound[first + i] owns points[first + i].
template <class E>
concept SlotAwareEvaluator = requires(E e, std::span<const std::size_t> ids) {
  e.bind_slots(ids);
};

/// Refine x[i] (i in [0, count)) toward a root of e(., ts[i]) under
/// its own option class, options[class_of[i]] (class 0 for every path
/// when class_of is empty): at most that class's max_iterations Newton
/// updates, every stage batched over the still-active subset -- one
/// full evaluation per iteration over the paths that can still update,
/// a values-only probe for the paths at their own cap.  x is updated in
/// place; status[i] mirrors newton::refine's verdict for path i under
/// its class's options, bit for bit.  The arena and scratch must be
/// reserved for at least `count` paths of the evaluator's dimension.
/// update_tolerance is unsupported (the trackers never set it): its
/// re-evaluation after the update would need a second launch per
/// iteration for a knob nothing uses.
///
/// `slot_ids` (optional, size >= count when non-empty): caller-side
/// slot of each path, forwarded through compaction to a SlotAwareEvaluator
/// so tenant-routed homotopies can route every point to its own system.
/// `masked` (optional, size >= count when non-empty): nonzero entries
/// are excluded up front -- the cooperative-cancellation mask.  Their
/// status is reset but never evaluated, and when ALL paths are masked the
/// call returns before any staging or device work, exactly like the
/// count == 0 case.
template <prec::RealScalar S, class BatchEval>
  requires BatchEvaluator<BatchEval, S>
void refine_batch(BatchEval& e, std::vector<std::vector<cplx::Complex<S>>>& x,
                  std::span<const cplx::Complex<S>> ts, std::size_t count,
                  std::span<const NewtonOptions> options,
                  std::span<const unsigned char> class_of, linalg::LuArena<S>& arena,
                  RefineBatchScratch<S>& scratch, std::span<BatchPathStatus> status,
                  std::span<const std::size_t> slot_ids,
                  std::span<const unsigned char> masked) {
  using C = cplx::Complex<S>;
  const unsigned n = e.dimension();
  const std::size_t nn = std::size_t{n} * n;
  // An all-false active mask must not pay a launch/upload round: with
  // nothing to refine, return before any staging or device work.
  if (count == 0) return;
  if (options.empty())
    throw std::invalid_argument("refine_batch: no option class");
  for (const NewtonOptions& o : options)
    if (o.update_tolerance > 0.0)
      throw std::invalid_argument("refine_batch: update_tolerance unsupported");
  if (x.size() < count || ts.size() < count || status.size() < count)
    throw std::invalid_argument("refine_batch: bad batch spans");
  if (!class_of.empty() && class_of.size() < count)
    throw std::invalid_argument("refine_batch: bad class span");
  if (!slot_ids.empty() && slot_ids.size() < count)
    throw std::invalid_argument("refine_batch: bad slot_ids span");
  if (!masked.empty() && masked.size() < count)
    throw std::invalid_argument("refine_batch: bad mask span");
  const std::size_t chunk =
      std::min({scratch.jac_chunk, arena.slots(), e.max_batch()});
  if (arena.dimension() != n || chunk == 0 || scratch.points.size() < count)
    throw std::invalid_argument("refine_batch: arena/scratch too small");
  const auto options_of = [&](std::size_t i) -> const NewtonOptions& {
    return options[class_of.empty() ? 0 : class_of[i]];
  };

  scratch.active.clear();
  for (std::size_t i = 0; i < count; ++i) {
    status[i] = {};
    if (!class_of.empty() && class_of[i] >= options.size())
      throw std::invalid_argument("refine_batch: bad option class");
    if (!masked.empty() && masked[i]) continue;
    scratch.active.push_back(i);
  }
  // All paths masked out (mid-round cancellation): as free as count == 0.
  if (scratch.active.empty()) return;
  ++scratch.calls;

  // A compacted launch over `ids`: copy each surviving iterate (and its
  // parameter) into slot j of the scratch batch, and re-bind the
  // compacted slot ids on slot-aware evaluators.
  const auto compact = [&](const std::vector<std::size_t>& ids) {
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const auto& src = x[ids[j]];
      std::copy(src.begin(), src.end(), scratch.points[j].begin());
      scratch.ts[j] = ts[ids[j]];
    }
    if constexpr (SlotAwareEvaluator<BatchEval>) {
      if (!slot_ids.empty()) {
        for (std::size_t j = 0; j < ids.size(); ++j)
          scratch.slot_ids[j] = slot_ids[ids[j]];
        e.bind_slots(
            std::span<const std::size_t>(scratch.slot_ids.data(), ids.size()));
      }
    }
  };

  // Record path i's residual at iteration `it`; true when it retires.
  const auto check = [&](std::size_t i, std::span<const C> vals, unsigned it) {
    const double residual = linalg::max_norm_d<S>(vals);
    status[i].final_residual = residual;
    if (it == 0) status[i].initial_residual = residual;
    status[i].converged = residual <= options_of(i).residual_tolerance;
    return status[i].converged;
  };

  for (unsigned it = 0; !scratch.active.empty(); ++it) {
    // Paths at their own cap: no update can follow, so a values-only
    // probe settles their verdicts.
    scratch.capped.clear();
    std::size_t keep = 0;
    for (const std::size_t i : scratch.active) {
      if (options_of(i).max_iterations == it)
        scratch.capped.push_back(i);
      else
        scratch.active[keep++] = i;
    }
    scratch.active.resize(keep);
    if (!scratch.capped.empty()) {
      const std::size_t p = scratch.capped.size();
      compact(scratch.capped);
      e.evaluate_values_range(scratch.points, std::span<const C>(scratch.ts), 0, p,
                              std::span<C>(scratch.probe_values));
      for (std::size_t j = 0; j < p; ++j)
        check(scratch.capped[j],
              std::span<const C>(scratch.probe_values).subspan(j * n, n), it);
    }
    if (scratch.active.empty()) return;

    // One full evaluation per iteration, walked in chunks of the
    // scratch capacity: its values are the residuals AND the Newton
    // right-hand sides.  Converged paths retire; the survivors' systems
    // are packed to the front of the chunk for the LU batch.
    const std::size_t a = scratch.active.size();
    compact(scratch.active);
    keep = 0;
    for (std::size_t c0 = 0; c0 < a; c0 += chunk) {
      const std::size_t cc = std::min(chunk, a - c0);
      e.evaluate_range(scratch.points, std::span<const C>(scratch.ts), c0, cc,
                       std::span<C>(scratch.values),
                       std::span<C>(scratch.jacobians));
      std::size_t live = 0;
      for (std::size_t j = 0; j < cc; ++j) {
        const std::size_t i = scratch.active[c0 + j];
        if (check(i, std::span<const C>(scratch.values).subspan(j * n, n), it))
          continue;
        if (live != j) {
          std::copy_n(scratch.values.begin() + j * n, n,
                      scratch.values.begin() + live * n);
          std::copy_n(scratch.jacobians.begin() + j * nn, nn,
                      scratch.jacobians.begin() + live * nn);
        }
        scratch.active[c0 + live++] = i;
      }
      linalg::lu_solve_batch(arena, live, std::span<const C>(scratch.jacobians),
                             std::span<const C>(scratch.values),
                             std::span<C>(scratch.delta),
                             std::span<unsigned char>(scratch.singular));

      for (std::size_t j = 0; j < live; ++j) {
        const std::size_t i = scratch.active[c0 + j];
        if (scratch.singular[j]) {
          status[i].singular = true;  // converged stays false, as in refine
          continue;
        }
        for (unsigned v = 0; v < n; ++v) x[i][v] -= scratch.delta[j * n + v];
        ++status[i].iterations;
        ++scratch.iterations_applied;
        scratch.active[keep++] = i;
      }
    }
    scratch.active.resize(keep);
  }
}

/// One option class for every path.
template <prec::RealScalar S, class BatchEval>
  requires BatchEvaluator<BatchEval, S>
void refine_batch(BatchEval& e, std::vector<std::vector<cplx::Complex<S>>>& x,
                  std::span<const cplx::Complex<S>> ts, std::size_t count,
                  const NewtonOptions& options, linalg::LuArena<S>& arena,
                  RefineBatchScratch<S>& scratch, std::span<BatchPathStatus> status,
                  std::span<const std::size_t> slot_ids = {},
                  std::span<const unsigned char> masked = {}) {
  refine_batch<S>(e, x, ts, count, std::span<const NewtonOptions>(&options, 1),
                  std::span<const unsigned char>{}, arena, scratch, status, slot_ids,
                  masked);
}

}  // namespace polyeval::newton
