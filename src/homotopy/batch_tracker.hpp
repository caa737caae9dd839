#pragma once

/// \file batch_tracker.hpp
/// Lockstep batched path tracking: every round gives EACH live path of
/// a shard exactly one evaluation of the homotopy, all of them batched
/// into one full device launch per device-capacity chunk -- the
/// follow-on the paper's lineage builds (Verschelde & Yu's batched GPU
/// Newton, Chen's GPU path tracker), and the workload the fused
/// one-block-per-point schedule was designed for.  Where the per-path
/// tracker feeds the device one point per launch (a grid of one block),
/// a round launches the next point of every live path at once, whatever
/// that point is for:
///
///   * a predictor at (x, t) -- Jacobian and Davidenko right-hand side
///     for the Euler step,
///   * a Newton iteration of the tracking corrector at the step target,
///     of an endgame path's Cauchy circle sample at complex t, or of an
///     endpoint's polish at t = 1 (newton::step, each under its own
///     options: the three share nothing but the launch),
///   * the stall probe of a path whose step underflowed or whose step
///     budget is spent -- its final residual at (x, t).
///
/// Each path is a small state machine (its phase, Newton iterate and
/// parameter, Newton progress, adaptive step state and endgame
/// accumulators); the round stages every live path's next point,
/// launches, and consumes the results path by path with the scalar
/// tracker's transitions -- accept/reject, renormalize, at-infinity,
/// endgame arm/absorb/fail, classification.  A path's modeled cost is
/// thus its own evaluation count, and a round costs one launch per
/// device-capacity chunk of the live set.  Retired paths drop out of
/// the live set at the end of the round.
///
/// Geometries: instantiated over a target evaluator the tracker builds
/// the affine BatchedHomotopy itself (the historical spelling);
/// instantiated over an externally built batched homotopy (the
/// BatchedHomotopyTag) it tracks whatever that homotopy models -- the
/// projective patch with renormalization, at-infinity classification
/// and the lockstep Cauchy endgame when the homotopy provides the
/// renormalize() hook.  The tracker calls no homotopy member beyond
/// dimension, max_batch, evaluate_range, rhs_from_last, the projective
/// hooks and (slot-aware homotopies) bind_slots.
///
/// Bitwise contract: a path's trajectory is IDENTICAL to
/// PathTracker::track over the same evaluators and geometry.  Every
/// ingredient holds bit for bit: the fused evaluators' per-point batch
/// independence, LuArena's equality with lu_solve, newton::step's
/// equality with newton::refine, the shared step-control and endgame
/// state arithmetic (tracker.hpp, endgame.hpp), and this file repeating
/// the scalar tracker's control flow transition by transition.  Only
/// the SCHEDULE changes -- which is why track_paths_sharded runs
/// lockstep only, while the parity tests compare it with the scalar CPU
/// solver (solver.hpp).
///
/// Zero allocation: all per-path state, batch staging, LU scratch and
/// endgame accumulators are sized in the constructor for `max_paths`;
/// steady-state round() calls never touch the allocator (the device
/// log is cleared -- capacity kept -- at each round's start, the
/// long-running-caller convention).

#include <algorithm>
#include <limits>
#include <mutex>

#include "ad/cpu_evaluator.hpp"
#include "homotopy/projective.hpp"
#include "homotopy/tracker.hpp"
#include "newton/batch.hpp"
#include "obs/metrics.hpp"
#include "simt/device.hpp"

namespace polyeval::homotopy {

/// The gamma-trick homotopy of homotopy.hpp, evaluated for a batch of
/// points each at its OWN (complex) t -- the lockstep tracker's paths
/// sit at different parameter values after their first diverging step,
/// and the endgame circles t around 1.  The target system f runs on the
/// device in batched launches (evaluate_range); the start system g
/// stays on the CPU per point, as in the sharded per-path tracker.  The
/// per-point combination h = gamma (1-t) g + t f repeats
/// Homotopy::evaluate's arithmetic exactly, so batching changes nothing
/// bitwise.
template <prec::RealScalar S, class TargetEval>
class BatchedHomotopy {
  using C = cplx::Complex<S>;

 public:
  /// Marks this type as a batched homotopy for BatchPathTracker's
  /// generic (externally-constructed) constructor.
  using BatchedHomotopyTag = void;

  BatchedHomotopy(TargetEval& f, ad::CpuEvaluator<S>& g, cplx::Complex<double> gamma)
      : f_(f),
        g_(g),
        gamma_(C::from_double(gamma)),
        max_batch_(f.batch_capacity()),
        g_eval_(f.dimension()) {
    if (f_.dimension() != g_.dimension())
      throw std::invalid_argument("BatchedHomotopy: dimension mismatch");
    const unsigned n = f_.dimension();
    f_chunk_.resize(max_batch_);
    for (auto& r : f_chunk_) r.resize(n);
    f_values_.resize(max_batch_ * std::size_t{n});
    g_values_.resize(max_batch_ * std::size_t{n});
  }

  [[nodiscard]] unsigned dimension() const noexcept { return f_.dimension(); }
  /// Largest evaluate_range chunk (= the device batch capacity); the
  /// O(n^2) Jacobian traffic of any caller is bounded by it.
  [[nodiscard]] std::size_t max_batch() const noexcept { return max_batch_; }

  /// h(x_{first+i}, ts_{first+i}) for i in [0, count), count <=
  /// max_batch(): values into values[i*n ..], row-major Jacobians into
  /// jacobians[i*n*n ..] (chunk-local indexing, so callers walking a
  /// large set reuse one max_batch-sized scratch).  One device launch;
  /// f and g values are recorded per chunk slot for rhs_from_last.
  void evaluate_range(const std::vector<std::vector<C>>& points,
                      std::span<const C> ts, std::size_t first, std::size_t count,
                      std::span<C> values, std::span<C> jacobians) {
    const unsigned n = dimension();
    const std::size_t nn = std::size_t{n} * n;
    if (count > max_batch_ || ts.size() < first + count || values.size() < count * n ||
        jacobians.size() < count * nn)
      throw std::invalid_argument("BatchedHomotopy: bad batch spans");

    f_.evaluate_range(points, first, count,
                      std::span<poly::EvalResult<S>>(f_chunk_).subspan(0, count));
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t slot = first + i;
      g_.evaluate(std::span<const C>(points[slot]), g_eval_);
      std::copy(f_chunk_[i].values.begin(), f_chunk_[i].values.end(),
                f_values_.begin() + i * n);
      std::copy(g_eval_.values.begin(), g_eval_.values.end(),
                g_values_.begin() + i * n);
      // Homotopy::evaluate's combination (the shared one copy), per-slot t.
      const detail::GammaBlend<S> blend(gamma_, ts[slot]);
      for (unsigned q = 0; q < n; ++q)
        values[i * n + q] = blend.combine(g_eval_.values[q], f_chunk_[i].values[q]);
      for (std::size_t e = 0; e < nn; ++e)
        jacobians[i * nn + e] =
            blend.combine(g_eval_.jacobian[e], f_chunk_[i].jacobian[e]);
    }
  }

  /// Davidenko right-hand side dh/dt = f(x) - gamma g(x) of chunk slot
  /// i of the most recent evaluate_range call (the predictor follows
  /// the corrector state, as in Homotopy::dt_from_last).
  void rhs_from_last(std::size_t i, std::span<C> out) const {
    const unsigned n = dimension();
    for (unsigned q = 0; q < n; ++q)
      out[q] =
          detail::davidenko_rhs(gamma_, f_values_[i * n + q], g_values_[i * n + q]);
  }

 private:
  TargetEval& f_;
  ad::CpuEvaluator<S>& g_;
  C gamma_;
  std::size_t max_batch_;
  poly::EvalResult<S> g_eval_;                ///< per-point CPU scratch
  std::vector<poly::EvalResult<S>> f_chunk_;  ///< device chunk results
  std::vector<C> f_values_, g_values_;        ///< last full eval, per chunk slot
};

/// Lockstep batched tracker over one shard's evaluators.  Load a batch
/// of start roots with start(), then round() until no path is live (or
/// run()); read per-path TrackResults with result().
template <prec::RealScalar S, class TargetOrHomo>
class BatchPathTracker {
  using C = cplx::Complex<S>;
  /// An externally-constructed batched homotopy (projective mode) vs a
  /// bare target evaluator (affine convenience: the tracker builds the
  /// BatchedHomotopy itself).
  static constexpr bool kExternalHomo =
      requires { typename TargetOrHomo::BatchedHomotopyTag; };

 public:
  using Homo =
      std::conditional_t<kExternalHomo, TargetOrHomo, BatchedHomotopy<S, TargetOrHomo>>;

 private:
  /// Tenant-routed homotopies (the solve service's
  /// BatchedProjectiveHomotopy over a routed FusedGpuEvaluator) need the
  /// slot id of every staged point to route it to its own system...
  static constexpr bool kSlotAware = newton::SlotAwareEvaluator<Homo>;
  /// ...and take the slot id in their projective hooks too.
  static constexpr bool kSlotProjective =
      requires(Homo& h, std::size_t id, std::span<C> z) { h.renormalize(id, z); };
  static constexpr bool kProjective =
      kSlotProjective || requires(Homo& h, std::span<C> z) { h.renormalize(z); };
  using HomoMember = std::conditional_t<kExternalHomo, Homo&, Homo>;

 public:
  /// Affine convenience: build the gamma-trick BatchedHomotopy over
  /// (f, g) internally.  `max_paths` is the lockstep capacity every
  /// internal buffer is sized for; `device` is the device behind `f`
  /// (its launch log is cleared each round, capacity kept).
  BatchPathTracker(simt::Device& device, TargetOrHomo& f, ad::CpuEvaluator<S>& g,
                   cplx::Complex<double> gamma, TrackOptions options,
                   std::size_t max_paths)
    requires(!kExternalHomo)
      : device_(device), h_(f, g, gamma), options_(options), max_paths_(max_paths) {
    reserve_buffers();
  }

  /// Generic: track over an externally built batched homotopy (e.g.
  /// BatchedProjectiveHomotopy); `device` is the device behind its
  /// target evaluator.
  BatchPathTracker(simt::Device& device, TargetOrHomo& homotopy, TrackOptions options,
                   std::size_t max_paths)
    requires kExternalHomo
      : device_(device), h_(homotopy), options_(options), max_paths_(max_paths) {
    reserve_buffers();
  }

  [[nodiscard]] unsigned dimension() const noexcept { return h_.dimension(); }
  [[nodiscard]] std::size_t max_paths() const noexcept { return max_paths_; }
  [[nodiscard]] std::size_t path_count() const noexcept { return paths_; }
  /// Paths not yet retired, whatever their next evaluation is for.
  [[nodiscard]] std::size_t live_paths() const noexcept { return live_.size(); }
  /// Evaluation rounds run since start().
  [[nodiscard]] std::size_t rounds() const noexcept { return rounds_; }

  /// Load paths i = 0..count-1 from roots[first + i] (state reset; the
  /// batch must fit max_paths).  In projective mode roots must already
  /// be embedded in the patch.  Buffers are reused, so a second start()
  /// on a warm tracker allocates nothing.
  void start(const std::vector<std::vector<C>>& roots, std::size_t first,
             std::size_t count) {
    if (count > max_paths_)
      throw std::invalid_argument("BatchPathTracker: batch exceeds max_paths");
    if (first > roots.size() || count > roots.size() - first)
      throw std::invalid_argument("BatchPathTracker: bad root range");
    for (std::size_t i = 0; i < count; ++i)
      if (roots[first + i].size() != h_.dimension())
        throw std::invalid_argument("BatchPathTracker: root has wrong dimension");
    for (const std::size_t id : live_) slots_[id].phase = Phase::kIdle;
    live_.clear();
    paths_ = count;
    rounds_ = 0;
    for (std::size_t i = 0; i < count; ++i)
      load(i, std::span<const C>(roots[first + i]), detail::initial_step_state(options_));
  }

  /// Seat one path in free slot `slot` with explicit step-control state
  /// -- the solve service's incremental entry point, used both for
  /// fresh admissions (initial_step_state) and for live paths stolen
  /// from another shard's tracker mid-solve (path state between steps
  /// is just (x, t, step, streak); a path's trajectory depends only on
  /// its state and the homotopy, so adoption preserves the bitwise
  /// contract).  The slot must not be live.
  void adopt(std::size_t slot, std::span<const C> x, const detail::StepState& ctl) {
    if (slot >= max_paths_)
      throw std::invalid_argument("BatchPathTracker: bad adopt slot");
    if (x.size() != h_.dimension())
      throw std::invalid_argument("BatchPathTracker: root has wrong dimension");
    if (slots_[slot].phase != Phase::kIdle)
      throw std::logic_error("BatchPathTracker: slot is live");
    load(slot, x, ctl);
    paths_ = std::max(paths_, slot + 1);
    {
      std::lock_guard<std::mutex> lk(cancel_mutex_);
      cancel_flags_[slot] = 0;  // stale flag from the slot's former tenant
    }
  }

  /// Fresh-path adoption: the same loading start() performs per slot.
  void adopt(std::size_t slot, std::span<const C> x) {
    adopt(slot, x, detail::initial_step_state(options_));
  }

  /// Steal the live path out of `slot`: its point is copied to x_out,
  /// its step-control state returned, and the slot freed for
  /// re-adoption.  Only a path between steps (its next evaluation a
  /// predictor) is donatable -- a corrector, circle sample or polish in
  /// flight carries Newton and endgame state that adopt() cannot take.
  detail::StepState donate(std::size_t slot, std::span<C> x_out) {
    if (!donatable(slot))
      throw std::logic_error("BatchPathTracker: slot not donatable");
    // Order-preserving, so later rounds stay deterministic.
    live_.erase(std::find(live_.begin(), live_.end(), slot));
    auto& s = slots_[slot];
    s.phase = Phase::kIdle;
    std::copy(s.x.begin(), s.x.end(), x_out.begin());
    return s.ctl;
  }

  /// True when `slot` holds a path between steps that donate() may take.
  [[nodiscard]] bool donatable(std::size_t slot) const {
    return slot < max_paths_ && slots_[slot].phase == Phase::kPredict;
  }

  /// Whether path i has retired (result() is ready).
  [[nodiscard]] bool retired(std::size_t i) const {
    return i < paths_ && slots_[i].retired;
  }

  [[nodiscard]] const TrackOptions& options() const noexcept { return options_; }

  /// Attach pre-resolved observability counters (obs::TrackerMetrics):
  /// every subsequent round() increments them with relaxed atomic adds
  /// -- no allocation, no launches, no effect on the tracked arithmetic,
  /// so the bitwise and zero-alloc contracts hold instrumented or not.
  /// Deliberately NOT part of TrackOptions: the solve service coalesces
  /// requests by comparing options with operator==, and a pointer in
  /// there would break that.  nullptr detaches.  The struct (typically
  /// shared by every shard of a service) must outlive the tracker.
  void set_metrics(const obs::TrackerMetrics* metrics) noexcept {
    metrics_ = metrics;
  }

  /// Request cooperative cancellation of path `slot`.  Thread-safe (the
  /// async service's clients call it while round() runs); the path
  /// retires as kCancelled at the start of the next round, before any
  /// staging, so a round whose live paths are all cancelled launches
  /// nothing.
  void cancel(std::size_t slot) {
    if (slot >= max_paths_) return;
    std::lock_guard<std::mutex> lk(cancel_mutex_);
    cancel_flags_[slot] = 1;
    cancel_pending_ = true;
  }

  /// One evaluation round: stage the next point of every live path --
  /// predictor, Newton iterate of a corrector, circle sample or polish,
  /// or stall probe -- into one full launch per device-capacity chunk,
  /// consume each result with the path's own transition, and drop the
  /// retirees from the live set.  Returns the number of still-live
  /// paths; allocation-free in steady state.
  std::size_t round() {
    if (live_.empty()) return 0;
    device_.clear_log();
    ++rounds_;
    if (metrics_) metrics_->rounds->inc();

    // Cancellation's consume point: requests that arrived since the last
    // round retire before any staging -- no launch, cancellation must be
    // cheap.
    if (take_cancel_flags()) {
      for (const std::size_t id : live_)
        if (round_cancel_[id])
          retire(slots_[id], PathStatus::kCancelled, slots_[id].final_residual);
      drop_retired();
      if (live_.empty()) return 0;
    }

    const unsigned n = h_.dimension();
    const std::size_t nn = std::size_t{n} * n;
    updates_ = 0;
    for (std::size_t c0 = 0; c0 < live_.size(); c0 += cap_) {
      const std::size_t cc = std::min(cap_, live_.size() - c0);
      const auto ids = std::span<const std::size_t>(live_).subspan(c0, cc);
      for (std::size_t j = 0; j < cc; ++j) {
        const auto& s = slots_[ids[j]];
        const auto& point = newton_phase(s.phase) ? s.z : s.x;
        std::copy(point.begin(), point.end(), batch_pts_[j].begin());
        ts_[j] = s.tz;
      }
      if constexpr (kSlotAware) h_.bind_slots(ids);
      h_.evaluate_range(batch_pts_, std::span<const C>(ts_), 0, cc, std::span<C>(hv_),
                        std::span<C>(hj_));
      for (std::size_t j = 0; j < cc; ++j)
        consume(ids[j], j, std::span<const C>(hv_).subspan(j * n, n),
                std::span<const C>(hj_).subspan(j * nn, nn));
    }
    drop_retired();
    if (metrics_) metrics_->newton_iterations->inc(updates_);
    return live_.size();
  }

  /// Rounds until every path retired.
  void run() {
    while (round() > 0) {
    }
  }

  /// Result of path i; throws while the path is still live (round()
  /// until live_paths() == 0, or run()).  Allocates the solution vector
  /// -- call outside the measured steady state.
  [[nodiscard]] TrackResult<S> result(std::size_t i) const {
    if (i >= paths_)
      throw std::invalid_argument("BatchPathTracker: bad path index");
    const auto& s = slots_[i];
    if (!s.retired)
      throw std::logic_error("BatchPathTracker: path still live");
    TrackResult<S> r;
    r.status = s.status;
    r.success = s.success;
    r.steps = s.ctl.steps;
    r.rejections = s.ctl.rejections;
    r.endgame_failures = s.ctl.endgame_failures;
    r.winding = s.winding;
    r.final_residual = s.final_residual;
    r.t_reached = s.ctl.t;
    r.solution.assign(s.x.begin(), s.x.end());
    return r;
  }

 private:
  /// What a path's next evaluation is for.  The Newton phases come
  /// first: they index newton_options_.
  enum class Phase : unsigned char {
    kCorrect,  ///< tracking corrector at the step target
    kSample,   ///< Cauchy circle sample at complex t (projective)
    kPolish,   ///< endpoint polish at t = 1
    kPredict,  ///< Euler predictor at (x, t)
    kProbe,    ///< final residual at (x, t) of a path that stopped short
    kIdle,     ///< not live: free, retired or donated
  };
  static constexpr std::size_t kNewtonPhases = 3;

  /// The phases whose evaluation is an iteration of a Newton solve.
  [[nodiscard]] static bool newton_phase(Phase p) noexcept {
    return static_cast<std::size_t>(p) < kNewtonPhases;
  }

  struct PathSlot {
    std::vector<C> x;  ///< the path's point
    std::vector<C> z;  ///< Newton iterate of the solve in flight
    C tz;              ///< parameter of the next evaluation
    double t_next = 0.0;  ///< the corrector's step target
    newton::SolveState newton;
    detail::StepState ctl;
    Phase phase = Phase::kIdle;
    double final_residual = 0.0;
    PathStatus status = PathStatus::kStalled;
    unsigned winding = 0;
    bool retired = false, success = false;
    CauchyEndgame<S> eg;
  };

  /// Constructor-time buffer sizing shared by both constructors: all
  /// per-path state for `max_paths_` paths of the homotopy's dimension,
  /// launch staging bounded by the device batch capacity.
  void reserve_buffers() {
    detail::validate_track_options(options_);
    const unsigned n = h_.dimension();
    const std::size_t nn = std::size_t{n} * n;
    cap_ = std::min<std::size_t>(std::max<std::size_t>(h_.max_batch(), 1),
                                 std::max<std::size_t>(max_paths_, 1));
    arena_.resize(n, 1);
    slots_.resize(max_paths_);
    for (auto& s : slots_) {
      s.x.resize(n);
      s.z.resize(n);
      s.eg.reserve(n, options_.endgame);
    }
    live_.reserve(max_paths_);
    const auto phase = [](Phase p) { return static_cast<std::size_t>(p); };
    newton_options_[phase(Phase::kCorrect)] = {
        .max_iterations = options_.corrector_iterations,
        .residual_tolerance = options_.corrector_tolerance};
    newton_options_[phase(Phase::kSample)] = {
        .max_iterations = options_.endgame.corrector_iterations,
        .residual_tolerance = options_.endgame.corrector_tolerance};
    newton_options_[phase(Phase::kPolish)] = {.max_iterations = options_.end_iterations,
                                              .residual_tolerance = options_.end_tolerance};
    batch_pts_.resize(cap_);
    for (auto& p : batch_pts_) p.resize(n);
    ts_.resize(cap_);
    hv_.resize(cap_ * std::size_t{n});
    hj_.resize(cap_ * nn);
    rhs_.resize(n);
    delta_.resize(n);
    cancel_flags_.assign(max_paths_, 0);
    round_cancel_.assign(max_paths_, 0);
  }

  /// Seat a fresh or adopted path in `slot` and queue its first step.
  void load(std::size_t slot, std::span<const C> x, const detail::StepState& ctl) {
    auto& s = slots_[slot];
    std::copy(x.begin(), x.end(), s.x.begin());
    s.ctl = ctl;
    s.final_residual = 0.0;
    s.status = PathStatus::kStalled;
    s.winding = 0;
    s.retired = false;
    s.success = false;
    next_step(s, /*stopped=*/false);
    live_.push_back(slot);
  }

  /// Consume path `id`'s evaluation (its values and Jacobian).
  void consume(std::size_t id, std::size_t j, std::span<const C> values,
               std::span<const C> jacobian) {
    auto& s = slots_[id];
    if (s.phase == Phase::kPredict) {
      predict(s, j, jacobian);
      return;
    }
    if (s.phase == Phase::kProbe) {
      // The scalar tracker's mid-track exit: a stop point already on
      // the hyperplane at infinity is a classified endpoint, not a stall.
      retire(s,
             infinity_ratio_slot(id, std::span<const C>(s.x)) <
                     options_.at_infinity_tolerance
                 ? PathStatus::kAtInfinity
                 : PathStatus::kStalled,
             linalg::max_norm_d<S>(values));
      return;
    }
    const auto verdict = newton::step<S>(
        s.newton, newton_options_[static_cast<std::size_t>(s.phase)],
        std::span<C>(s.z), values, jacobian, arena_, std::span<C>(delta_));
    if (verdict == newton::Verdict::kContinue) {
      ++updates_;
      return;
    }
    if (metrics_)
      metrics_->newton_iterations_per_path->observe(
          static_cast<double>(s.newton.iterations));
    const bool converged = verdict == newton::Verdict::kConverged;
    if (s.phase == Phase::kCorrect)
      corrected(s, id, converged);
    else if (s.phase == Phase::kSample)
      sampled(s, converged);
    else
      polished(s, id, converged);
  }

  /// Euler step along the Davidenko flow from the evaluation at (x, t),
  /// dt clamped to the remaining interval; the corrector starts there.
  void predict(PathSlot& s, std::size_t j, std::span<const C> jacobian) {
    h_.rhs_from_last(j, std::span<C>(rhs_));
    const double dt = detail::clamped_dt(s.ctl);
    std::copy(s.x.begin(), s.x.end(), s.z.begin());
    // A singular Jacobian mid-path leaves the predictor at the current
    // point; the corrector decides viability (as scalar).
    if (arena_.solve(0, jacobian, std::span<const C>(rhs_), std::span<C>(delta_))) {
      const S h_dt(dt);
      for (std::size_t v = 0; v < s.z.size(); ++v) s.z[v] -= delta_[v] * h_dt;
    }
    s.t_next = detail::step_target(s.ctl, dt);
    s.tz = C(S(s.t_next));
    s.newton = {};
    s.phase = Phase::kCorrect;
  }

  /// The corrector's verdict: the scalar tracker's accept/reject step
  /// control (the shared one copy).
  void corrected(PathSlot& s, std::size_t id, bool converged) {
    if (converged) {
      if (metrics_) metrics_->steps_accepted->inc();
      std::copy(s.z.begin(), s.z.end(), s.x.begin());
      detail::accept_step(s.ctl, s.t_next, options_);
      if constexpr (kProjective) {
        renormalize_slot(id, std::span<C>(s.x));
        if (infinity_ratio_slot(id, std::span<const C>(s.x)) <
            options_.at_infinity_tolerance) {
          retire(s, PathStatus::kAtInfinity, s.newton.final_residual);
          return;
        }
      }
      if (s.ctl.t >= 1.0) {
        begin_solve(s, Phase::kPolish, C(S(1.0)));
        return;
      }
      next_step(s, /*stopped=*/false);
      return;
    }
    if (metrics_) {
      metrics_->steps_rejected->inc();
      // The growth streak the rejection wipes (reject_step zeroes it),
      // observed before the reset.
      metrics_->accept_streak->observe(static_cast<double>(s.ctl.streak));
    }
    detail::reject_step(s.ctl, options_);
    if constexpr (kProjective) {
      if (detail::endgame_triggered(s.ctl, options_)) {
        s.eg.begin(1.0 - s.ctl.t, std::span<const C>(s.x));
        if (metrics_) metrics_->endgame_entries->inc();
        begin_solve(s, Phase::kSample, s.eg.next_t(options_.endgame));
        return;
      }
    }
    next_step(s, s.ctl.step < options_.min_step);
  }

  /// A circle sample's verdict (projective): absorb it, and either
  /// circle on, hand a closed loop's integral-mean endpoint to the
  /// polish, or fail the attempt.
  void sampled(PathSlot& s, bool converged) {
    if (metrics_) metrics_->endgame_samples->inc();
    if (!converged) {
      fail_endgame_attempt(s, obs::TrackerMetrics::kLost);  // lost the circle
      return;
    }
    std::copy(s.z.begin(), s.z.end(), s.x.begin());
    const auto step = s.eg.absorb(std::span<const C>(s.x), options_.endgame);
    if (step == CauchyEndgame<S>::Step::kClosed) {
      if (metrics_) metrics_->endgame_attempts[obs::TrackerMetrics::kClosed]->inc();
      s.eg.endpoint(std::span<C>(s.x));
      s.winding = s.eg.winding();
      s.ctl.t = 1.0;
      begin_solve(s, Phase::kPolish, C(S(1.0)));
      return;
    }
    if (step == CauchyEndgame<S>::Step::kExhausted) {
      fail_endgame_attempt(s, obs::TrackerMetrics::kExhausted);
      return;
    }
    begin_solve(s, Phase::kSample, s.eg.next_t(options_.endgame));
  }

  /// Polish + classification at t = 1 (normal arrivals and closed
  /// endgame loops): a diverged polish keeps the tracked point and ITS
  /// residual (the polish's entry residual), and the status comes from
  /// the kept point's final residual check -- with the projective
  /// at-infinity test taking precedence -- exactly as the scalar
  /// tracker classifies.
  void polished(PathSlot& s, std::size_t id, bool converged) {
    if (converged) {
      std::copy(s.z.begin(), s.z.end(), s.x.begin());
      s.final_residual = s.newton.final_residual;
    } else {
      s.final_residual = s.newton.initial_residual;
    }
    if constexpr (kProjective) {
      if (infinity_ratio_slot(id, std::span<const C>(s.x)) <
          options_.at_infinity_tolerance) {
        retire(s, PathStatus::kAtInfinity, s.final_residual);
        return;
      }
      retire(s,
             detail::projective_endpoint_converged(s.final_residual, s.winding, options_)
                 ? PathStatus::kConverged
                 : PathStatus::kDiverged,
             s.final_residual);
      return;
    }
    retire(s,
           s.final_residual <= options_.end_tolerance ? PathStatus::kConverged
                                                      : PathStatus::kDiverged,
           s.final_residual);
  }

  /// A failed endgame attempt (lost sample or no closure, `outcome`):
  /// restore the theta = 0 point, count the failure and resume tracking
  /// (PathTracker's resume arithmetic, including the step-underflow
  /// death check the scalar loop applies right after a failed attempt
  /// -- which stops a path whose last attempt, armed at underflow,
  /// failed).
  void fail_endgame_attempt(PathSlot& s, std::size_t outcome) {
    if (metrics_) metrics_->endgame_attempts[outcome]->inc();
    const auto z0 = s.eg.start_point();
    std::copy(z0.begin(), z0.end(), s.x.begin());
    detail::endgame_failed(s.ctl);
    next_step(s, s.ctl.step < options_.min_step);
  }

  /// Queue the path's next tracking step at (x, t): the predictor, or
  /// -- when the path `stopped` (step underflow) or its step budget is
  /// spent (the scalar tracker's loop condition) -- the stall probe.
  void next_step(PathSlot& s, bool stopped) {
    stopped = stopped || s.ctl.steps + s.ctl.rejections >= options_.max_steps;
    s.phase = stopped ? Phase::kProbe : Phase::kPredict;
    s.tz = C(S(s.ctl.t));
  }

  /// Start a Newton solve of `phase` from the path's point at parameter t.
  void begin_solve(PathSlot& s, Phase phase, const C& t) {
    std::copy(s.x.begin(), s.x.end(), s.z.begin());
    s.tz = t;
    s.newton = {};
    s.phase = phase;
  }

  /// The projective hooks, routed per slot on tenant-routed homotopies
  /// (each tenant has its own patch).
  void renormalize_slot([[maybe_unused]] std::size_t id,
                        [[maybe_unused]] std::span<C> z) {
    if constexpr (kSlotProjective)
      h_.renormalize(id, z);
    else if constexpr (kProjective)
      h_.renormalize(z);
  }
  [[nodiscard]] double infinity_ratio_slot([[maybe_unused]] std::size_t id,
                                           [[maybe_unused]] std::span<const C> z)
      const {
    if constexpr (kSlotProjective)
      return h_.infinity_ratio(id, z);
    else if constexpr (kProjective)
      return h_.infinity_ratio(z);
    else
      return std::numeric_limits<double>::infinity();  // affine: never at infinity
  }

  /// Copy-and-clear the pending cancel flags into round_cancel_;
  /// returns whether any were set.  The only lock round() takes, held
  /// for two memcpy-sized loops.
  bool take_cancel_flags() {
    std::lock_guard<std::mutex> lk(cancel_mutex_);
    if (!cancel_pending_) return false;
    std::copy(cancel_flags_.begin(), cancel_flags_.end(), round_cancel_.begin());
    std::fill(cancel_flags_.begin(), cancel_flags_.end(), 0);
    cancel_pending_ = false;
    return true;
  }

  /// Retire a slot with its classified status (success mirrors
  /// kConverged for legacy consumers).
  void retire(PathSlot& s, PathStatus status, double residual) {
    s.phase = Phase::kIdle;
    s.status = status;
    s.final_residual = residual;
    s.success = status == PathStatus::kConverged;
    s.retired = true;
    if (metrics_) {
      metrics_->retired_by_status[static_cast<std::size_t>(status)]->inc();
      metrics_->path_steps->observe(static_cast<double>(s.ctl.steps));
    }
  }

  /// Compact the retirees out of the live set, order-preserving.
  void drop_retired() {
    std::erase_if(live_, [&](std::size_t id) { return slots_[id].phase == Phase::kIdle; });
  }

  simt::Device& device_;
  HomoMember h_;
  TrackOptions options_;
  const obs::TrackerMetrics* metrics_ = nullptr;
  std::size_t max_paths_;
  std::size_t cap_ = 0;  ///< launch chunk bound (device batch capacity)
  std::size_t paths_ = 0;
  std::size_t rounds_ = 0;
  std::uint64_t updates_ = 0;  ///< Newton updates applied this round

  std::vector<PathSlot> slots_;
  std::vector<std::size_t> live_;  ///< live slot ids, in admission order
  /// Newton options by phase (corrector, circle sample, polish).
  newton::NewtonOptions newton_options_[kNewtonPhases];

  linalg::LuArena<S> arena_;               ///< one slot: solves run path by path
  std::vector<std::vector<C>> batch_pts_;  ///< launch staging, one chunk
  std::vector<C> ts_;                      ///< per-point (complex) parameters
  std::vector<C> hv_;     ///< chunk h values
  std::vector<C> hj_;     ///< chunk h Jacobians
  std::vector<C> rhs_;    ///< one Davidenko right-hand side
  std::vector<C> delta_;  ///< one LU solution (Euler flow or Newton update)

  std::mutex cancel_mutex_;                  ///< guards the two flag fields
  std::vector<unsigned char> cancel_flags_;  ///< pending cancels, per slot
  bool cancel_pending_ = false;
  std::vector<unsigned char> round_cancel_;  ///< this round's consumed flags
};

}  // namespace polyeval::homotopy
