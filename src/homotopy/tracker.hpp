#pragma once

/// \file tracker.hpp
/// Adaptive predictor-corrector path tracking along the homotopy from
/// t = 0 to t = 1: Euler predictor on the Davidenko equation
/// J_h dx/dt = -dh/dt, Newton corrector at the advanced t, step halving
/// on corrector failure and growth after consecutive successes.
///
/// Two geometries share this tracker.  Over an affine Homotopy it is
/// the classic tracker: paths that diverge to infinity stall just short
/// of t = 1 and report kStalled.  Over a ProjectiveHomotopy (detected
/// by the renormalize() hook) it tracks in the patch c . z = 1 with
/// per-step renormalization, retires paths whose homogeneous coordinate
/// vanishes as kAtInfinity, and answers the t -> 1 stall signature with
/// the Cauchy endgame (endgame.hpp) -- so every path terminates with a
/// classified endpoint.
///
/// The step-control arithmetic lives in ONE copy (detail::StepState and
/// friends), shared with the lockstep BatchPathTracker so the two
/// trackers' bitwise contract holds by construction.

#include <type_traits>

#include "homotopy/endgame.hpp"
#include "homotopy/homotopy.hpp"

namespace polyeval::homotopy {

struct TrackOptions {
  double initial_step = 0.05;
  double min_step = 1e-8;
  double max_step = 0.2;
  double step_growth = 1.5;
  double step_shrink = 0.5;
  unsigned growth_after = 3;           ///< consecutive successes before growing
  unsigned corrector_iterations = 4;   ///< Newton steps per corrector call
  double corrector_tolerance = 1e-9;   ///< residual target during tracking
  unsigned max_steps = 10000;
  double end_tolerance = 1e-12;        ///< residual target of the final refine
  unsigned end_iterations = 10;        ///< Newton steps at t = 1
  /// Projective mode: |z_n| / max|z_i| below this classifies the point
  /// as lying on the hyperplane at infinity.  At 1e-4 a dehomogenized
  /// endpoint would have coordinates beyond 1e4 -- for the degree-15+
  /// rows of the paper's workloads, z_n^d is then far below double
  /// resolution, i.e. the homogeneous system cannot distinguish the
  /// point from the hyperplane at infinity.
  double at_infinity_tolerance = 1e-4;
  EndgameOptions endgame;              ///< Cauchy endgame knobs (projective)

  /// Memberwise equality: the solve service coalesces paths of
  /// different requests into shared lockstep rounds only when their
  /// TrackOptions compare equal (the hash is just a bucket key).
  friend bool operator==(const TrackOptions&, const TrackOptions&) = default;
};

/// Classified endpoint of one tracked path.
enum class PathStatus : unsigned char {
  kConverged,   ///< finite solution: final residual <= end_tolerance
  kAtInfinity,  ///< projective endpoint with vanishing homogeneous coordinate
  kStalled,     ///< step control died before t = 1 (underflow / max_steps)
  kDiverged,    ///< reached t = 1 but the endpoint failed the residual test
  kCancelled,   ///< retired by cooperative cancellation or a missed deadline
};

/// The ONE spelling of each status, shared by benches, dumps and the
/// service's report surface.
[[nodiscard]] constexpr const char* to_string(PathStatus s) noexcept {
  switch (s) {
    case PathStatus::kConverged: return "converged";
    case PathStatus::kAtInfinity: return "at_infinity";
    case PathStatus::kStalled: return "stalled";
    case PathStatus::kDiverged: return "diverged";
    case PathStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

template <prec::RealScalar S>
struct TrackResult {
  PathStatus status = PathStatus::kStalled;
  bool success = false;      ///< status == kConverged (legacy consumers)
  std::vector<cplx::Complex<S>> solution;
  unsigned steps = 0;        ///< accepted predictor-corrector steps
  unsigned rejections = 0;   ///< halved steps
  unsigned endgame_failures = 0;  ///< failed Cauchy endgame attempts (lost, exhausted)
  unsigned winding = 0;      ///< endgame winding number (0 = endgame not run)
  double final_residual = 0.0;
  double t_reached = 0.0;

  /// Solved in the classification sense: a finite root or a certified
  /// point at infinity (the solved-paths numerator of bench_tracking).
  [[nodiscard]] bool classified() const noexcept {
    return status == PathStatus::kConverged || status == PathStatus::kAtInfinity;
  }
};

namespace detail {

/// The ONE copy of the adaptive step-control arithmetic, shared by the
/// scalar and lockstep trackers (their bitwise contract): per-path
/// state plus the clamp / accept / reject transitions.
struct StepState {
  double t = 0.0;
  double step = 0.0;
  unsigned streak = 0;
  unsigned steps = 0;
  unsigned rejections = 0;
  /// Failed Cauchy endgame attempts (at most two run: endgame_triggered).
  unsigned endgame_failures = 0;
};

/// The shared initial state of a path's step controller.
[[nodiscard]] inline StepState initial_step_state(const TrackOptions& o) {
  StepState s;
  s.step = o.initial_step;
  return s;
}

/// Step length clamped to the remaining parameter interval.
[[nodiscard]] inline double clamped_dt(const StepState& s) {
  const double rest = 1.0 - s.t;
  return s.step < rest ? s.step : rest;
}

/// The parameter the step lands on: t + dt, clamped so the corrector is
/// never asked to evaluate past t = 1 (the former code added first and
/// clamped only the stored result, letting the last step's corrector
/// run at t > 1 when t + (1 - t) rounded up).
[[nodiscard]] inline double step_target(const StepState& s, double dt) {
  const double next = s.t + dt;
  return next > 1.0 ? 1.0 : next;
}

/// Accept the corrector step onto `t_next` (a step_target value): count
/// it and grow the step after growth_after consecutive successes.
inline void accept_step(StepState& s, double t_next, const TrackOptions& o) {
  s.t = t_next;
  ++s.steps;
  if (++s.streak >= o.growth_after) {
    s.step = std::min(s.step * o.step_growth, o.max_step);
    s.streak = 0;
  }
}

/// Reject the step: count it, reset the growth streak (a rejection must
/// restart the consecutive-success count), shrink the step.
inline void reject_step(StepState& s, const TrackOptions& o) {
  ++s.rejections;
  s.streak = 0;
  s.step *= o.step_shrink;
}

/// Whether a rejection arms the Cauchy endgame (projective), at most
/// twice per path: first at the stall signature, rejected down to a
/// tiny step while already close to t = 1; then, after a failed first
/// attempt, once more as a last chance when the step underflows
/// min_step, at whatever radius tracking crept to meanwhile.  Each
/// attempt can circle max_windings loops, so every further retry would
/// be the costliest work of the path.
[[nodiscard]] inline bool endgame_triggered(const StepState& s,
                                            const TrackOptions& o) {
  if (!o.endgame.enabled || s.t < o.endgame.trigger_t) return false;
  if (s.endgame_failures == 0) return s.step < o.endgame.trigger_step;
  return s.endgame_failures == 1 && s.step < o.min_step;
}

/// Book a failed endgame attempt.
inline void endgame_failed(StepState& s) { ++s.endgame_failures; }

/// The ONE copy of the projective endpoint residual acceptance at
/// t = 1: end_tolerance, widened to the tracking corrector's tolerance
/// (singular endpoints keep an elevated Newton floor) and, for
/// endpoints the endgame extrapolated (winding > 0), to the endgame's
/// own sample tolerance.
[[nodiscard]] inline bool projective_endpoint_converged(double residual,
                                                        unsigned winding,
                                                        const TrackOptions& o) {
  double accept = std::max(o.end_tolerance, o.corrector_tolerance);
  if (winding > 0) accept = std::max(accept, o.endgame.corrector_tolerance);
  return residual <= accept;
}

/// Shared constructor-time validation of the tracking options.
inline void validate_track_options(const TrackOptions& o) {
  if (o.endgame.enabled && o.endgame.samples_per_loop == 0)
    throw std::invalid_argument(
        "TrackOptions: endgame.samples_per_loop must be >= 1");
}

/// Resolves PathTracker's homotopy type without eagerly instantiating
/// Homotopy<S, Homo, void> for the single-argument spelling.
template <class S, class EvalFOrHomo, class EvalG>
struct TrackerHomotopy {
  using type = Homotopy<S, EvalFOrHomo, EvalG>;
};
template <class S, class Homo>
struct TrackerHomotopy<S, Homo, void> {
  using type = Homo;
};

}  // namespace detail

/// Scalar path tracker.  Instantiate either as
/// PathTracker<S, EvalF, EvalG> over a Homotopy<S, EvalF, EvalG> (the
/// historical spelling) or as PathTracker<S, Homo> over any homotopy
/// type -- e.g. PathTracker<S, ProjectiveHomotopy<S, EvalF>>.
template <prec::RealScalar S, class EvalFOrHomo, class EvalG = void>
class PathTracker {
 public:
  using Homo = typename detail::TrackerHomotopy<S, EvalFOrHomo, EvalG>::type;

 private:
  using C = cplx::Complex<S>;
  static constexpr bool kProjective =
      requires(Homo& h, std::span<C> z) { h.renormalize(z); };

 public:
  PathTracker(Homo& homotopy, TrackOptions options = {})
      : h_(homotopy), options_(options) {
    detail::validate_track_options(options_);
  }

  /// Track one path from a start root of g (where h(x, 0) = 0); in
  /// projective mode the root must already be embedded in the patch.
  [[nodiscard]] TrackResult<S> track(std::span<const C> start) {
    const unsigned n = h_.dimension();
    TrackResult<S> result;
    result.solution.assign(start.begin(), start.end());

    detail::StepState st = detail::initial_step_state(options_);
    poly::EvalResult<S> eval(n);

    while (st.t < 1.0 && st.steps + st.rejections < options_.max_steps) {
      const double dt = detail::clamped_dt(st);
      const double t_next = detail::step_target(st, dt);

      // Predictor: Euler step along the Davidenko flow at (x, t).
      h_.set_t(S(st.t));
      h_.evaluate(std::span<const C>(result.solution), eval);
      auto jac = linalg::Matrix<S>::from_row_major(n, n, eval.jacobian);
      const auto rhs = h_.dt_from_last();
      auto flow = linalg::lu_solve(std::move(jac), std::span<const C>(rhs));
      std::vector<C> predicted = result.solution;
      if (flow) {
        const S h_dt(dt);
        for (unsigned i = 0; i < n; ++i) predicted[i] -= (*flow)[i] * h_dt;
      }
      // A singular Jacobian mid-path leaves the predictor at the current
      // point; the corrector then decides whether the step is viable.

      // Corrector: Newton at the (clamped) advanced t.
      h_.set_t(S(t_next));
      newton::NewtonOptions copts;
      copts.max_iterations = options_.corrector_iterations;
      copts.residual_tolerance = options_.corrector_tolerance;
      auto corrected = newton::refine<S>(h_, std::span<const C>(predicted), copts);

      if (corrected.converged) {
        result.solution = std::move(corrected.solution);
        detail::accept_step(st, t_next, options_);
        if constexpr (kProjective) {
          h_.renormalize(std::span<C>(result.solution));
          if (h_.infinity_ratio(std::span<const C>(result.solution)) <
              options_.at_infinity_tolerance) {
            // The homogeneous coordinate collapsed mid-track: a
            // certified point at infinity, reported with the accepting
            // corrector's residual.
            result.status = PathStatus::kAtInfinity;
            result.final_residual = corrected.final_residual;
            finish(result, st);
            return result;
          }
        }
      } else {
        detail::reject_step(st, options_);
        if constexpr (kProjective) {
          if (detail::endgame_triggered(st, options_)) {
            if (run_endgame(result, st)) return result;
            // Failed attempt (lost sample or no closure): the path was
            // restored to the theta = 0 point; keep tracking, with one
            // last attempt left at step underflow after a first failure.
            detail::endgame_failed(st);
          }
        }
        if (st.step < options_.min_step) break;
      }
    }

    if (st.t >= 1.0) {
      classify_at_end(result, st);
      return result;
    }

    // Paths dying mid-track (step underflow, max_steps) still report
    // the residual of where they stopped; in projective mode a stop
    // point already sitting on the hyperplane at infinity is a
    // classified endpoint, not a stall.
    h_.set_t(S(st.t));
    h_.evaluate(std::span<const C>(result.solution), eval);
    result.status = PathStatus::kStalled;
    if constexpr (kProjective) {
      if (h_.infinity_ratio(std::span<const C>(result.solution)) <
          options_.at_infinity_tolerance)
        result.status = PathStatus::kAtInfinity;
    }
    result.final_residual = linalg::max_norm_d<S>(eval.values);
    finish(result, st);
    return result;
  }

 private:
  /// Copy the step-control tallies into the result.
  void finish(TrackResult<S>& result, const detail::StepState& st) {
    result.steps = st.steps;
    result.rejections = st.rejections;
    result.endgame_failures = st.endgame_failures;
    result.t_reached = st.t;
    result.success = result.status == PathStatus::kConverged;
  }

  /// Endgame phase at t = 1: polish the endpoint, then classify from
  /// the kept point -- at-infinity first (projective), then the final
  /// residual check against end_tolerance (NOT the polish's converged
  /// flag alone, so an endpoint that already satisfies the tolerance
  /// without polish counts as converged).
  void classify_at_end(TrackResult<S>& result, detail::StepState& st) {
    h_.set_t(S(1.0));
    newton::NewtonOptions eopts;
    eopts.max_iterations = options_.end_iterations;
    eopts.residual_tolerance = options_.end_tolerance;
    auto polished =
        newton::refine<S>(h_, std::span<const C>(result.solution), eopts);
    if (polished.converged) {
      result.solution = std::move(polished.solution);
      result.final_residual = polished.final_residual;
    } else {
      // A diverged polish must not replace the tracked point with a
      // worse iterate: keep the pre-polish point and report ITS
      // residual at t = 1 (the polish's entry probe).
      result.final_residual = polished.residual_history.front();
    }
    if constexpr (kProjective) {
      if (h_.infinity_ratio(std::span<const C>(result.solution)) <
          options_.at_infinity_tolerance) {
        result.status = PathStatus::kAtInfinity;
        finish(result, st);
        return;
      }
      result.status = detail::projective_endpoint_converged(
                          result.final_residual, result.winding, options_)
                          ? PathStatus::kConverged
                          : PathStatus::kDiverged;
      finish(result, st);
      return;
    }
    result.status = result.final_residual <= options_.end_tolerance
                        ? PathStatus::kConverged
                        : PathStatus::kDiverged;
    finish(result, st);
  }

  /// One Cauchy endgame attempt (projective only): circle t around 1
  /// at radius 1 - t, one corrector solve per sample, until the loop
  /// closes; the sample mean is the endpoint, handed to the t = 1
  /// classification (returns true -- the path is classified).  A lost
  /// sample or a loop that never closes fails the attempt: the path is
  /// restored to the theta = 0 point and returns false so tracking
  /// resumes (detail::endgame_triggered decides whether it re-arms).
  bool run_endgame(TrackResult<S>& result, detail::StepState& st)
    requires kProjective
  {
    endgame_.reserve(h_.dimension(), options_.endgame);
    endgame_.begin(1.0 - st.t, std::span<const C>(result.solution));
    newton::NewtonOptions copts;
    copts.max_iterations = options_.endgame.corrector_iterations;
    copts.residual_tolerance = options_.endgame.corrector_tolerance;
    for (;;) {
      h_.set_t_complex(endgame_.next_t(options_.endgame));
      auto corrected =
          newton::refine<S>(h_, std::span<const C>(result.solution), copts);
      if (!corrected.converged) break;  // lost the circle at this radius
      result.solution = std::move(corrected.solution);
      const auto step =
          endgame_.absorb(std::span<const C>(result.solution), options_.endgame);
      if (step == CauchyEndgame<S>::Step::kClosed) {
        endgame_.endpoint(std::span<C>(result.solution));
        result.winding = endgame_.winding();
        st.t = 1.0;
        classify_at_end(result, st);
        return true;
      }
      if (step == CauchyEndgame<S>::Step::kExhausted) break;  // no closure
    }
    const auto z0 = endgame_.start_point();
    std::copy(z0.begin(), z0.end(), result.solution.begin());
    return false;
  }

  Homo& h_;
  TrackOptions options_;
  CauchyEndgame<S> endgame_;
};

}  // namespace polyeval::homotopy
