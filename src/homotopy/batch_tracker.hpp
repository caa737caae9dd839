#pragma once

/// \file batch_tracker.hpp
/// Lockstep batched path tracking: advance ALL live paths of a shard one
/// predictor-corrector step per round, with every stage that touches the
/// target system batched into single device launches -- the follow-on
/// the paper's lineage builds (Verschelde & Yu's batched GPU Newton,
/// Chen's GPU path tracker), and the workload the fused one-block-per-
/// point schedule was designed for.  Where the per-path tracker feeds
/// the device one point per corrector launch (a grid of one block), a
/// round here launches:
///
///   * one full batch evaluation for every tracking path's predictor
///     (Jacobian + Davidenko right-hand side),
///   * ONE Newton wave (newton::refine_batch with a per-path option
///     class) over the round's correctors, every endgame path's next
///     Cauchy circle sample (projective mode) and the t = 1 polish of
///     the previous round's finishers: one full batch per Newton
///     iteration over every path still iterating, whose values are the
///     residual checks and whose Jacobians the steps, and one
///     values-only batch at each cap an unconverged path reaches,
///   * one values-only batch retiring the round's dead paths with their
///     final residuals,
///
/// while each path keeps its own adaptive state (t, step size, growth
/// streak, rejection count) exactly as the scalar tracker would have it,
/// and retired paths -- classified endpoints, at-infinity retirements,
/// step-underflow and max-step failures -- are compacted out of the
/// live sets between rounds.
///
/// A path's Newton work waits for the round's one wave: a path armed
/// for the endgame takes its first circle sample in the next round's
/// wave, and a round's finishers (t = 1 arrivals and closed endgame
/// loops) are polished and classified there.  Until then
/// a finisher is live (live_paths() counts it, cancellation sweeps it,
/// donate() and adopt() refuse it).  Every launch pays a fixed floor on
/// the device, which is why the three sets share the wave's launches;
/// the polyeval_newton_calls_total metric counts one call per round
/// with Newton work.
///
/// Geometries: instantiated over a target evaluator the tracker builds
/// the affine BatchedHomotopy itself (the historical spelling);
/// instantiated over an externally built batched homotopy (the
/// BatchedHomotopyTag) it tracks whatever that homotopy models -- the
/// projective patch with renormalization, at-infinity classification
/// and the lockstep Cauchy endgame when the homotopy provides the
/// renormalize() hook.
///
/// Bitwise contract: a path's trajectory is IDENTICAL to
/// PathTracker::track over the same evaluators and geometry.  Every
/// ingredient holds bit for bit: the fused evaluators' per-point batch
/// independence, the values kernel's equality with full-evaluation
/// values, LuArena's equality with lu_solve, the shared step-control
/// and endgame state arithmetic (tracker.hpp, endgame.hpp), and this
/// file repeating the scalar tracker's control flow verbatim, each path
/// under its own stage's Newton options inside the wave.  Only the
/// SCHEDULE changes -- which is why track_paths_sharded runs lockstep
/// only, while the parity tests compare it with the scalar CPU solver
/// (solver.hpp).
///
/// Zero allocation: all per-path state, batch staging, Newton scratch,
/// endgame accumulators and LU slots are sized in the constructor for
/// `max_paths`; steady-state round() calls never touch the allocator
/// (the device log is cleared -- capacity kept -- at each round's
/// start, the long-running-caller convention).

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
/// device in batched launches (evaluate_range / evaluate_values_range);
/// the start system g stays on the CPU per point, as in the sharded
/// per-path tracker.  The per-point combination h = gamma (1-t) g + t f
/// repeats Homotopy::evaluate's arithmetic exactly, so batching changes
/// nothing bitwise.
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
        g_eval_(f.dimension()),
        g_vals_(f.dimension()) {
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

  /// Values-only h(x_{first+i}, ts_{first+i}) into values[i*n ..] for
  /// i in [0, count), any count: the target system runs the fused
  /// values kernel in max_batch-sized launches (no Jacobian work,
  /// n-value downloads) and g its values-only CPU path.  Bitwise equal
  /// to evaluate_range's values.
  void evaluate_values_range(const std::vector<std::vector<C>>& points,
                             std::span<const C> ts, std::size_t first,
                             std::size_t count, std::span<C> values) {
    const unsigned n = dimension();
    if (ts.size() < first + count || values.size() < count * n)
      throw std::invalid_argument("BatchedHomotopy: bad batch spans");

    for (std::size_t c0 = 0; c0 < count; c0 += max_batch_) {
      const std::size_t cnt = std::min(max_batch_, count - c0);
      f_.evaluate_values_range(points, first + c0, cnt,
                               std::span<C>(values).subspan(c0 * n, cnt * n));
      for (std::size_t i = 0; i < cnt; ++i) {
        const std::size_t slot = c0 + i;
        g_.evaluate_values(std::span<const C>(points[first + slot]),
                           std::span<C>(g_vals_));
        const detail::GammaBlend<S> blend(gamma_, ts[first + slot]);
        for (unsigned q = 0; q < n; ++q)
          values[slot * n + q] = blend.combine(g_vals_[q], values[slot * n + q]);
      }
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
  std::vector<C> g_vals_;                     ///< per-point values-only scratch
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
  /// Tracking, endgame and pending-polish paths (a t = 1 finisher
  /// stays live until the next round's wave polishes it).
  [[nodiscard]] std::size_t live_paths() const noexcept {
    return active_.size() + endgame_ids_.size() + polish_ids_.size();
  }
  [[nodiscard]] std::size_t rounds() const noexcept { return rounds_; }

  /// Load paths i = 0..count-1 from roots[first + i] (state reset; the
  /// batch must fit max_paths).  In projective mode roots must already
  /// be embedded in the patch.  Buffers are reused, so a second start()
  /// on a warm tracker allocates nothing.
  void start(const std::vector<std::vector<C>>& roots, std::size_t first,
             std::size_t count) {
    const unsigned n = h_.dimension();
    if (count > max_paths_)
      throw std::invalid_argument("BatchPathTracker: batch exceeds max_paths");
    if (first > roots.size() || count > roots.size() - first)
      throw std::invalid_argument("BatchPathTracker: bad root range");
    paths_ = count;
    rounds_ = 0;
    active_.clear();
    endgame_ids_.clear();
    polish_ids_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      if (roots[first + i].size() != n)
        throw std::invalid_argument("BatchPathTracker: root has wrong dimension");
      auto& s = slots_[i];
      std::copy(roots[first + i].begin(), roots[first + i].end(), s.x.begin());
      s.ctl = detail::initial_step_state(options_);
      s.final_residual = 0.0;
      s.status = PathStatus::kStalled;
      s.winding = 0;
      s.retired = false;
      s.success = false;
      active_.push_back(i);
    }
  }

  /// Seat one path in free slot `slot` with explicit step-control state
  /// -- the solve service's incremental entry point, used both for
  /// fresh admissions (initial_step_state) and for live paths stolen
  /// from another shard's tracker mid-solve (path state is just
  /// (x, t, step, streak); a path's trajectory depends only on its
  /// state and the homotopy, so adoption preserves the bitwise
  /// contract).  The slot must not be live (tracking, in the endgame
  /// or awaiting its polish).
  void adopt(std::size_t slot, std::span<const C> x, const detail::StepState& ctl) {
    if (slot >= max_paths_)
      throw std::invalid_argument("BatchPathTracker: bad adopt slot");
    if (x.size() != h_.dimension())
      throw std::invalid_argument("BatchPathTracker: root has wrong dimension");
    for (const auto* ids : {&active_, &endgame_ids_, &polish_ids_})
      if (std::find(ids->begin(), ids->end(), slot) != ids->end())
        throw std::logic_error("BatchPathTracker: slot is live");
    auto& s = slots_[slot];
    std::copy(x.begin(), x.end(), s.x.begin());
    s.ctl = ctl;
    s.final_residual = 0.0;
    s.status = PathStatus::kStalled;
    s.winding = 0;
    s.retired = false;
    s.success = false;
    active_.push_back(slot);
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

  /// Steal the live tracking path out of `slot`: its point is copied to
  /// x_out, its step-control state returned, and the slot freed for
  /// re-adoption.  Only plain tracking paths are donatable -- endgame
  /// paths carry Cauchy accumulator state and finishers await their
  /// polish, so both are pinned to their shard.
  detail::StepState donate(std::size_t slot, std::span<C> x_out) {
    const auto it = std::find(active_.begin(), active_.end(), slot);
    if (it == active_.end())
      throw std::logic_error("BatchPathTracker: slot not donatable");
    active_.erase(it);  // order-preserving, so later rounds stay deterministic
    auto& s = slots_[slot];
    std::copy(s.x.begin(), s.x.end(), x_out.begin());
    return s.ctl;
  }

  /// True when `slot` holds a tracking path that donate() may take.
  [[nodiscard]] bool donatable(std::size_t slot) const {
    return std::find(active_.begin(), active_.end(), slot) != active_.end();
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
  /// retires as kCancelled at the next consume point -- round entry, or
  /// the wave's mask for cancels landing after the predictor (whose
  /// launches they then skip, newton::refine_batch).
  void cancel(std::size_t slot) {
    if (slot >= max_paths_) return;
    std::lock_guard<std::mutex> lk(cancel_mutex_);
    cancel_flags_[slot] = 1;
    cancel_pending_ = true;
  }

  /// Advance every live path one predictor-corrector step (or, for
  /// paths in the endgame, one Cauchy circle sample), polish and retire
  /// the previous round's t = 1 finishers, and compact the retirees out
  /// of the live sets.  The round's Newton work -- correctors, circle
  /// samples and polishes -- runs as ONE refine_batch wave, each set
  /// under its own options.  Returns the number of still-live paths;
  /// allocation-free in steady state.
  std::size_t round() {
    if (live_paths() == 0) return 0;
    device_.clear_log();
    ++rounds_;
    if (metrics_) metrics_->rounds->inc();
    const unsigned n = h_.dimension();

    // Cancellation consume point 1: requests that arrived between
    // rounds retire before any staging -- no probe launch, cancellation
    // must be cheap.
    if (take_cancel_flags()) {
      sweep_cancelled(active_);
      sweep_cancelled(endgame_ids_);
      sweep_cancelled(polish_ids_);
      if (live_paths() == 0) return 0;
    }

    // Retire exhausted paths first -- the scalar tracker's loop
    // condition, checked before the step -- with one batched probe for
    // their final residuals.  (Endgame paths are exempt: their work is
    // bounded by max_windings loops, not by the step budget.)
    probe_ids_.clear();
    end_ids_.clear();
    std::size_t keep = 0;
    for (const std::size_t id : active_) {
      if (slots_[id].ctl.steps + slots_[id].ctl.rejections >= options_.max_steps)
        probe_ids_.push_back(id);
      else
        active_[keep++] = id;
    }
    active_.resize(keep);

    const std::size_t a = active_.size();
    if (a > 0) {
      // Predictor: full batches at (x_p, t_p) -- Euler along the
      // Davidenko flow, per-path dt clamped to the remaining interval --
      // walked in device-capacity chunks so the Jacobian scratch stays
      // bounded.
      for (std::size_t j = 0; j < a; ++j) {
        const auto& s = slots_[active_[j]];
        dts_[j] = detail::clamped_dt(s.ctl);
        t_next_[j] = detail::step_target(s.ctl, dts_[j]);
        ts_[j] = C(S(s.ctl.t));
        std::copy(s.x.begin(), s.x.end(), batch_pts_[j].begin());
      }
      bind_ids(active_);
      for (std::size_t c0 = 0; c0 < a; c0 += cap_) {
        const std::size_t cc = std::min(cap_, a - c0);
        h_.evaluate_range(batch_pts_, std::span<const C>(ts_), c0, cc,
                          std::span<C>(hv_), std::span<C>(hj_));
        for (std::size_t j = 0; j < cc; ++j)
          h_.rhs_from_last(j, std::span<C>(rhs_).subspan(j * n, n));
        linalg::lu_solve_batch(arena_, cc, std::span<const C>(hj_),
                               std::span<const C>(rhs_), std::span<C>(flow_),
                               std::span<unsigned char>(singular_));
        for (std::size_t j = 0; j < cc; ++j) {
          const std::size_t g = c0 + j;
          std::copy(batch_pts_[g].begin(), batch_pts_[g].end(),
                    corr_pts_[g].begin());
          if (!singular_[j]) {
            // A singular Jacobian mid-path leaves the predictor at the
            // current point; the corrector decides viability (as scalar).
            const S h_dt(dts_[g]);
            for (unsigned v = 0; v < n; ++v)
              corr_pts_[g][v] -= flow_[j * n + v] * h_dt;
          }
          corr_ts_[g] = C(S(t_next_[g]));
        }
      }
    }

    // Cancellation consume point 2: cancels that landed after the
    // predictor mask the correctors instead (an all-masked wave pays no
    // launch at all -- refine_batch's early return), and endgame and
    // polish paths flagged by the same sweep retire before the wave.
    const bool mid_cancel = take_cancel_flags();
    if (mid_cancel) {
      sweep_cancelled(endgame_ids_);
      sweep_cancelled(polish_ids_);
    }

    // The wave: correctors at the clamped advanced t, then every
    // endgame path's next circle sample (projective), then the t = 1
    // polish of the previous round's finishers.
    const std::size_t e = endgame_ids_.size();
    const std::size_t p = polish_ids_.size();
    stage_wave(a, e, mid_cancel);
    newton::refine_batch<S>(
        h_, corr_pts_, std::span<const C>(corr_ts_), a + e + p,
        std::span<const newton::NewtonOptions>(wave_options_),
        std::span<const unsigned char>(wave_class_), arena_, nscratch_,
        std::span<newton::BatchPathStatus>(statuses_),
        std::span<const std::size_t>(wave_ids_),
        mid_cancel ? std::span<const unsigned char>(cancel_mask_)
                   : std::span<const unsigned char>{});
    if (metrics_) {
      metrics_->endgame_samples->inc(e);
      for (std::size_t j = 0; j < a + e + p; ++j)
        if (!(mid_cancel && cancel_mask_[j]))
          metrics_->newton_iterations_per_path->observe(
              static_cast<double>(statuses_[j].iterations));
    }

    // Per-path step control -- the scalar tracker's accept/reject
    // arithmetic (the shared one copy), path by path.  Finishers are
    // polished in the next round's wave; newly armed endgame paths take
    // their first circle sample there too (appended past the e paths
    // sampled in this wave).
    keep = 0;
    for (std::size_t j = 0; j < a; ++j) {
      const std::size_t id = active_[j];
      auto& s = slots_[id];
      if (mid_cancel && cancel_mask_[j]) {
        retire(s, PathStatus::kCancelled, s.final_residual);
        continue;
      }
      if (statuses_[j].converged) {
        if (metrics_) metrics_->steps_accepted->inc();
        std::copy(corr_pts_[j].begin(), corr_pts_[j].end(), s.x.begin());
        detail::accept_step(s.ctl, t_next_[j], options_);
        if constexpr (kProjective) {
          renormalize_slot(id, std::span<C>(s.x));
          if (infinity_ratio_slot(id, std::span<const C>(s.x)) <
              options_.at_infinity_tolerance) {
            retire(s, PathStatus::kAtInfinity, statuses_[j].final_residual);
            continue;
          }
        }
        if (s.ctl.t >= 1.0) {
          end_ids_.push_back(id);
          continue;
        }
      } else {
        if (metrics_) {
          metrics_->steps_rejected->inc();
          // The growth streak the rejection wipes (reject_step zeroes
          // it), observed before the reset.
          metrics_->accept_streak->observe(
              static_cast<double>(s.ctl.streak));
        }
        detail::reject_step(s.ctl, options_);
        if constexpr (kProjective) {
          if (detail::endgame_triggered(s.ctl, options_)) {
            s.eg.begin(1.0 - s.ctl.t, std::span<const C>(s.x));
            endgame_ids_.push_back(id);
            if (metrics_) metrics_->endgame_entries->inc();
            continue;
          }
        }
        if (s.ctl.step < options_.min_step) {
          probe_ids_.push_back(id);
          continue;
        }
      }
      active_[keep++] = id;
    }
    active_.resize(keep);

    // Circle samples (projective): loops that close hand their
    // integral-mean endpoint to the next round's polish.
    if constexpr (kProjective) {
      keep = 0;
      for (std::size_t j = 0; j < e; ++j) {
        const std::size_t id = endgame_ids_[j];
        auto& s = slots_[id];
        const auto& st = statuses_[a + j];
        if (!st.converged) {
          // Lost the circle at this radius: fail the attempt, restore
          // the theta = 0 point and resume tracking (the shared
          // attempt count decides whether it re-arms, as scalar).
          fail_endgame_attempt(s, id, obs::TrackerMetrics::kLost);
          continue;
        }
        std::copy(corr_pts_[a + j].begin(), corr_pts_[a + j].end(), s.x.begin());
        const auto step = s.eg.absorb(std::span<const C>(s.x), options_.endgame);
        if (step == CauchyEndgame<S>::Step::kClosed) {
          if (metrics_)
            metrics_->endgame_attempts[obs::TrackerMetrics::kClosed]->inc();
          s.eg.endpoint(std::span<C>(s.x));
          s.winding = s.eg.winding();
          s.ctl.t = 1.0;
          end_ids_.push_back(id);
          continue;
        }
        if (step == CauchyEndgame<S>::Step::kExhausted) {
          fail_endgame_attempt(s, id, obs::TrackerMetrics::kExhausted);
          continue;
        }
        endgame_ids_[keep++] = id;
      }
      endgame_ids_.erase(endgame_ids_.begin() + static_cast<std::ptrdiff_t>(keep),
                         endgame_ids_.begin() + static_cast<std::ptrdiff_t>(e));
    }

    // Polish + classification at t = 1 of the previous round's
    // finishers (normal arrivals and closed endgame loops): a diverged
    // polish keeps the tracked point and ITS residual (the polish's
    // entry residual), and the status comes from the kept point's final
    // residual check -- with the projective at-infinity test taking
    // precedence -- exactly as the scalar tracker classifies.
    for (std::size_t j = 0; j < p; ++j) {
      const std::size_t id = polish_ids_[j];
      auto& s = slots_[id];
      const auto& st = statuses_[a + e + j];
      if (st.converged) {
        std::copy(corr_pts_[a + e + j].begin(), corr_pts_[a + e + j].end(),
                  s.x.begin());
        s.final_residual = st.final_residual;
      } else {
        s.final_residual = st.initial_residual;
      }
      if constexpr (kProjective) {
        if (infinity_ratio_slot(id, std::span<const C>(s.x)) <
            options_.at_infinity_tolerance) {
          retire(s, PathStatus::kAtInfinity, s.final_residual);
          continue;
        }
        retire(s,
               detail::projective_endpoint_converged(s.final_residual, s.winding,
                                                     options_)
                   ? PathStatus::kConverged
                   : PathStatus::kDiverged,
               s.final_residual);
        continue;
      }
      retire(s,
             s.final_residual <= options_.end_tolerance ? PathStatus::kConverged
                                                        : PathStatus::kDiverged,
             s.final_residual);
    }
    polish_ids_.swap(end_ids_);  // this round's finishers: next round's polish

    // Step-underflow / budget failures: batched residual probe, then
    // retire as stalls.
    retire_failed(probe_ids_);

    // The Newton totals come from the scratch's cumulative counters
    // (the newton-layer plumbing), folded in once per round as deltas.
    if (metrics_) {
      metrics_->newton_calls->inc(nscratch_.calls - newton_calls_seen_);
      metrics_->newton_iterations->inc(nscratch_.iterations_applied -
                                       newton_iters_seen_);
      newton_calls_seen_ = nscratch_.calls;
      newton_iters_seen_ = nscratch_.iterations_applied;
    }

    return live_paths();
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
  struct PathSlot {
    std::vector<C> x;
    detail::StepState ctl;
    double final_residual = 0.0;
    PathStatus status = PathStatus::kStalled;
    unsigned winding = 0;
    bool retired = false, success = false;
    CauchyEndgame<S> eg;
  };

  /// Constructor-time buffer sizing shared by both constructors: all
  /// per-path state and batch staging for `max_paths_` paths of the
  /// homotopy's dimension, Jacobian-stage traffic bounded by the device
  /// batch capacity.
  void reserve_buffers() {
    detail::validate_track_options(options_);
    const unsigned n = h_.dimension();
    const std::size_t nn = std::size_t{n} * n;
    cap_ = std::min<std::size_t>(std::max<std::size_t>(h_.max_batch(), 1),
                                 std::max<std::size_t>(max_paths_, 1));
    arena_.resize(n, cap_);
    nscratch_.reserve(n, max_paths_, cap_);
    statuses_.resize(max_paths_);
    slots_.resize(max_paths_);
    for (auto& s : slots_) {
      s.x.resize(n);
      s.eg.reserve(n, options_.endgame);
    }
    active_.reserve(max_paths_);
    probe_ids_.reserve(max_paths_);
    end_ids_.reserve(max_paths_);
    polish_ids_.reserve(max_paths_);
    endgame_ids_.reserve(max_paths_);
    wave_ids_.resize(max_paths_);
    wave_class_.resize(max_paths_);
    wave_options_[kCorrector] = {.max_iterations = options_.corrector_iterations,
                                 .residual_tolerance = options_.corrector_tolerance};
    wave_options_[kSample] = {.max_iterations = options_.endgame.corrector_iterations,
                              .residual_tolerance = options_.endgame.corrector_tolerance};
    wave_options_[kPolish] = {.max_iterations = options_.end_iterations,
                              .residual_tolerance = options_.end_tolerance};
    batch_pts_.resize(max_paths_);
    for (auto& p : batch_pts_) p.resize(n);
    corr_pts_.resize(max_paths_);
    for (auto& p : corr_pts_) p.resize(n);
    ts_.resize(max_paths_);
    corr_ts_.resize(max_paths_);
    dts_.resize(max_paths_);
    t_next_.resize(max_paths_);
    hv_.resize(max_paths_ * std::size_t{n});
    hj_.resize(cap_ * nn);
    rhs_.resize(cap_ * std::size_t{n});
    flow_.resize(cap_ * std::size_t{n});
    singular_.resize(cap_);
    cancel_flags_.assign(max_paths_, 0);
    round_cancel_.assign(max_paths_, 0);
    cancel_mask_.assign(max_paths_, 0);
  }

  /// Stage the round's wave behind the a correctors already in
  /// corr_pts_/corr_ts_: the e endgame paths' next circle samples, then
  /// the polishes of polish_ids_ at t = 1, with each path's slot id and
  /// option class, and the cancellation mask after a mid-round cancel.
  void stage_wave(std::size_t a, std::size_t e, bool mid_cancel) {
    std::copy(active_.begin(), active_.end(), wave_ids_.begin());
    std::fill_n(wave_class_.begin(), a, kCorrector);
    const auto stage = [&](const std::vector<std::size_t>& ids, std::size_t first,
                           WaveClass option_class, auto t_of) {
      for (std::size_t j = 0; j < ids.size(); ++j) {
        const auto& s = slots_[ids[j]];
        std::copy(s.x.begin(), s.x.end(), corr_pts_[first + j].begin());
        corr_ts_[first + j] = t_of(s);
        wave_ids_[first + j] = ids[j];
        wave_class_[first + j] = option_class;
      }
    };
    stage(endgame_ids_, a, kSample,
          [&](const PathSlot& s) { return s.eg.next_t(options_.endgame); });
    stage(polish_ids_, a + e, kPolish, [](const PathSlot&) { return C(S(1.0)); });
    // Endgame and polish paths flagged by the same sweep are gone, so
    // the mask bites on correctors only.
    if (mid_cancel)
      for (std::size_t j = 0; j < a + e + polish_ids_.size(); ++j)
        cancel_mask_[j] = round_cancel_[wave_ids_[j]];
  }

  /// Point -> slot routing for tenant-routed homotopies: before a
  /// staged launch whose point i came from slot ids[i], hand the id list
  /// to a slot-aware homotopy (no-op for the others).
  void bind_ids([[maybe_unused]] const std::vector<std::size_t>& ids) {
    if constexpr (kSlotAware) h_.bind_slots(std::span<const std::size_t>(ids));
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

  /// Retire every round_cancel_-flagged path of `ids` as kCancelled and
  /// compact it out (no probe launch; the last known residual stands).
  void sweep_cancelled(std::vector<std::size_t>& ids) {
    std::size_t keep = 0;
    for (const std::size_t id : ids) {
      if (round_cancel_[id])
        retire(slots_[id], PathStatus::kCancelled, slots_[id].final_residual);
      else
        ids[keep++] = id;
    }
    ids.resize(keep);
  }

  /// A failed endgame attempt (lost sample or no closure, `outcome`):
  /// restore the theta = 0 point, count the failure and hand the path
  /// back to the tracking set (PathTracker's resume arithmetic,
  /// including the step-underflow death check the scalar loop applies
  /// right after a failed attempt -- which retires a path whose last
  /// attempt, armed at underflow, failed).
  void fail_endgame_attempt(PathSlot& s, std::size_t id, std::size_t outcome) {
    if (metrics_) metrics_->endgame_attempts[outcome]->inc();
    const auto z0 = s.eg.start_point();
    std::copy(z0.begin(), z0.end(), s.x.begin());
    detail::endgame_failed(s.ctl);
    if (s.ctl.step < options_.min_step)
      probe_ids_.push_back(id);  // retired by this round's stall probe
    else
      active_.push_back(id);
  }

  /// Retire a slot with its classified status (success mirrors
  /// kConverged for legacy consumers).
  void retire(PathSlot& s, PathStatus status, double residual) {
    s.status = status;
    s.final_residual = residual;
    s.success = status == PathStatus::kConverged;
    s.retired = true;
    if (metrics_) {
      metrics_->retired_by_status[static_cast<std::size_t>(status)]->inc();
      metrics_->path_steps->observe(static_cast<double>(s.ctl.steps));
    }
  }

  /// Retire `ids` as stalls with one batched values probe at their
  /// current (x, t) -- the scalar tracker's mid-track exit residual.
  void retire_failed(const std::vector<std::size_t>& ids) {
    if (ids.empty()) return;
    const unsigned n = h_.dimension();
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const auto& s = slots_[ids[j]];
      std::copy(s.x.begin(), s.x.end(), batch_pts_[j].begin());
      ts_[j] = C(S(s.ctl.t));
    }
    bind_ids(ids);
    h_.evaluate_values_range(batch_pts_, std::span<const C>(ts_), 0, ids.size(),
                             std::span<C>(hv_));
    for (std::size_t j = 0; j < ids.size(); ++j) {
      auto& s = slots_[ids[j]];
      PathStatus status = PathStatus::kStalled;
      if constexpr (kProjective) {
        // A stop point already on the hyperplane at infinity is a
        // classified endpoint, not a stall (as scalar).
        if (infinity_ratio_slot(ids[j], std::span<const C>(s.x)) <
            options_.at_infinity_tolerance)
          status = PathStatus::kAtInfinity;
      }
      retire(s, status,
             linalg::max_norm_d<S>(std::span<const C>(hv_).subspan(j * n, n)));
    }
  }

  simt::Device& device_;
  HomoMember h_;
  TrackOptions options_;
  const obs::TrackerMetrics* metrics_ = nullptr;
  std::uint64_t newton_calls_seen_ = 0;  ///< scratch counter watermark
  std::uint64_t newton_iters_seen_ = 0;
  std::size_t max_paths_;
  std::size_t cap_ = 0;  ///< Jacobian-stage chunk bound (device batch capacity)
  std::size_t paths_ = 0;
  std::size_t rounds_ = 0;

  std::vector<PathSlot> slots_;
  std::vector<std::size_t> active_;       ///< live tracking path ids
  std::vector<std::size_t> probe_ids_;    ///< this round's stalls
  std::vector<std::size_t> end_ids_;      ///< this round's t = 1 finishers
  std::vector<std::size_t> polish_ids_;   ///< last round's, polished this round
  std::vector<std::size_t> endgame_ids_;  ///< paths circling the endgame

  /// The wave's option classes, indexed by wave_class_ entries.
  enum WaveClass : unsigned char { kCorrector, kSample, kPolish, kWaveClasses };
  newton::NewtonOptions wave_options_[kWaveClasses];
  std::vector<std::size_t> wave_ids_;       ///< slot id per wave position
  std::vector<unsigned char> wave_class_;   ///< option class per wave position

  linalg::LuArena<S> arena_;
  newton::RefineBatchScratch<S> nscratch_;
  std::vector<newton::BatchPathStatus> statuses_;

  std::vector<std::vector<C>> batch_pts_;  ///< predictor/probe staging
  std::vector<std::vector<C>> corr_pts_;   ///< corrector/endgame iterates
  std::vector<C> ts_, corr_ts_;            ///< per-slot (complex) parameters
  std::vector<double> dts_;
  std::vector<double> t_next_;  ///< clamped step targets
  std::vector<C> hv_;   ///< batched h values
  std::vector<C> hj_;   ///< batched h Jacobians
  std::vector<C> rhs_;  ///< batched Davidenko right-hand sides
  std::vector<C> flow_; ///< batched predictor flows
  std::vector<unsigned char> singular_;

  std::mutex cancel_mutex_;                  ///< guards the two flag fields
  std::vector<unsigned char> cancel_flags_;  ///< pending cancels, per slot
  bool cancel_pending_ = false;
  std::vector<unsigned char> round_cancel_;  ///< this round's consumed flags
  std::vector<unsigned char> cancel_mask_;   ///< wave mask staging
};

}  // namespace polyeval::homotopy
