#pragma once

/// \file batch.hpp
/// Newton's method one evaluation at a time: the corrector of the
/// lockstep path tracker.  Where newton::refine owns its loop (evaluate
/// -> residual check -> solve -> update, until converged or capped),
/// a batched caller owns the evaluations instead: every round it
/// evaluates the current iterate of every path it carries in one
/// device launch, then hands each path's values and Jacobian to step(),
/// which runs exactly one iteration of newton::refine's arithmetic on
/// that path's SolveState.  Paths with different budgets (the tracker's
/// correctors, circle samples and t = 1 polishes) thus share every
/// launch, and a path that converges or fails simply stops asking for
/// evaluations.
///
/// Per-path bitwise contract: driving step() with the evaluations of
/// the iterates it produces reproduces newton::refine bit for bit under
/// the same options -- the same residual norm, the same verdict at the
/// same evaluation, LuArena's elimination (lu_solve's, verbatim) and the
/// same update.  The evaluation at the cap, which refine makes only for
/// its residual, is a full one here: its Jacobian goes unused, and its
/// values equal a values-only evaluation's bit for bit.

#include <span>
#include <stdexcept>

#include "linalg/lu.hpp"
#include "newton/newton.hpp"

namespace polyeval::newton {

/// Evaluators that need to know which caller-side slot each batch
/// position belongs to (the solve service's tenant-routed
/// BatchedProjectiveHomotopy, which routes each point to its own
/// system).  The bound span is indexed exactly like the points of the
/// evaluate calls that follow it: bound[first + i] owns points[first + i].
template <class E>
concept SlotAwareEvaluator = requires(E e, std::span<const std::size_t> ids) {
  e.bind_slots(ids);
};

/// One path's Newton solve between evaluations: the fields of
/// NewtonResult a tracker consumes, without the history vectors (whether
/// it converged is step()'s Verdict).  A default-constructed state
/// starts a solve.
struct SolveState {
  unsigned iterations = 0;        ///< Newton updates applied
  double initial_residual = 0.0;  ///< entry point's residual (residual_history[0])
  double final_residual = 0.0;    ///< residual of the latest evaluation
  bool singular = false;          ///< the Jacobian became singular
};

/// What step() made of an evaluation.
enum class Verdict : unsigned char {
  kContinue,   ///< the iterate moved: evaluate it again
  kConverged,  ///< the residual met the tolerance
  kFailed,     ///< singular Jacobian, or unconverged at the iteration cap
};

/// Consume the evaluation (`values`, row-major `jacobian`) of the
/// iterate `x`: the residual check, the cap, the LU solve (arena slot 0,
/// `delta` of at least n entries as scratch) and the update of
/// newton::refine's iteration, once.  Allocation-free.
/// update_tolerance is unsupported (the trackers never set it): its
/// re-evaluation after an update would be a second evaluation per
/// iteration.
template <prec::RealScalar S>
Verdict step(SolveState& state, const NewtonOptions& options,
             std::span<cplx::Complex<S>> x, std::span<const cplx::Complex<S>> values,
             std::span<const cplx::Complex<S>> jacobian, linalg::LuArena<S>& arena,
             std::span<cplx::Complex<S>> delta) {
  if (options.update_tolerance > 0.0)
    throw std::invalid_argument("newton::step: update_tolerance unsupported");
  const double residual = linalg::max_norm_d<S>(values);
  // Every evaluation before the last applies an update, so the first
  // is the only one that finds no update applied.
  if (state.iterations == 0) state.initial_residual = residual;
  state.final_residual = residual;
  if (residual <= options.residual_tolerance) return Verdict::kConverged;
  if (state.iterations == options.max_iterations) return Verdict::kFailed;
  if (!arena.solve(0, jacobian, values, delta)) {
    state.singular = true;
    return Verdict::kFailed;
  }
  for (std::size_t v = 0; v < x.size(); ++v) x[v] -= delta[v];
  ++state.iterations;
  return Verdict::kContinue;
}

}  // namespace polyeval::newton
