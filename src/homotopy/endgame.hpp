#pragma once

/// \file endgame.hpp
/// The Cauchy (integral-mean) endgame: when the step controller detects
/// the t -> 1 stall signature, stop shrinking the real step and instead
/// walk the path around circles t = 1 - r e^{i theta} of fixed radius
/// r = 1 - t.  The path z(t) is an analytic function of (1-t)^{1/w}
/// near t = 1 (w = the winding number of the endpoint), so
///
///   * the samples return to the theta = 0 start point after exactly w
///     loops -- counting loops until closure *measures* w, and
///   * the uniform sample mean over those w loops is the trapezoidal
///     Cauchy integral (1 / 2 pi w) * integral z dtheta = z(1), an
///     endpoint estimate whose quadrature error decays like r^N
///     (spectral accuracy of the periodic trapezoid rule),
///
/// which converts a stall just short of t = 1 into a classified
/// endpoint: a finite (possibly singular) root, or a point at infinity
/// when the homogeneous coordinate of the extrapolation vanishes.
///
/// The theta = 0 point is the tracking corrector's iterate, while the
/// loop ends are circle correctors' iterates: near a singular endpoint
/// the two can disagree by more than the closure tolerance, so the
/// samples settle onto the periodic orbit only after the first loop.
/// A loop therefore also closes when it ends back at an EARLIER loop
/// end; the winding is then the number of loops since that end, and
/// the mean runs over exactly those loops (any w consecutive loops of
/// the orbit sweep the same w-sheeted circle).
///
/// This class is the ONE copy of the endgame state arithmetic (sample
/// parameter, Cauchy sum, closure test, winding count, endpoint mean),
/// shared by the scalar tracker (which drives it with newton::refine)
/// and the lockstep batch tracker (newton::step, one Newton iteration
/// of a sample per round, in the same launch as every other live
/// path's evaluation) -- so the per-path trajectories agree bit for bit
/// by construction.

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "cplx/complex.hpp"

namespace polyeval::homotopy {

struct EndgameOptions {
  bool enabled = true;
  /// Stall signature: the endgame fires when a corrector rejection
  /// leaves the path at t >= trigger_t with step < trigger_step.  A
  /// failed first attempt gets one more, when the step underflows
  /// TrackOptions::min_step (detail::endgame_triggered).
  double trigger_t = 0.9;
  double trigger_step = 1e-3;
  unsigned samples_per_loop = 16;
  unsigned max_windings = 8;
  /// Newton budget per circle sample.  Near a singular endpoint the
  /// corrector converges only linearly, so the circle correctors get a
  /// deeper budget than the tracking corrector's few-step probe.
  unsigned corrector_iterations = 16;
  /// Residual target per circle sample: looser than the tracking
  /// corrector's, because sample accuracy only feeds the Cauchy mean
  /// (whose quadrature error dominates) and the singular endpoints the
  /// endgame exists for have an elevated Newton residual floor.
  double corrector_tolerance = 1e-8;
  /// Loop closure: the sample after a full loop must return to the
  /// theta = 0 start point, or to an earlier loop's end, within this
  /// max-norm distance.  Distinct branches of a winding-w endpoint are
  /// O(r^{1/w}) apart, far above the corrector's noise floor, so the
  /// test is not delicate.
  double closure_tolerance = 1e-6;

  /// Memberwise equality, so TrackOptions (which embeds this) can be a
  /// coalescing key in the solve service.
  friend bool operator==(const EndgameOptions&, const EndgameOptions&) = default;
};

template <prec::RealScalar S>
class CauchyEndgame {
  using C = cplx::Complex<S>;

 public:
  /// Size the state for points of `dimension` coordinates and attempts
  /// of up to `options.max_windings` loops (done once at construction
  /// time in the batch tracker's slots: begin()/absorb() never allocate
  /// after this).
  void reserve(unsigned dimension, const EndgameOptions& options) {
    start_.resize(dimension);
    sum_.resize(dimension);
    // Loop ends 1 .. max_windings - 1 are closure references for the
    // loops after them (the last loop's end never is).
    const std::size_t kept = options.max_windings > 1 ? options.max_windings - 1 : 0;
    ends_.resize(kept * dimension);
    end_sums_.resize(kept * dimension);
  }

  /// Arm the endgame at the stalled point `z` (the theta = 0 sample)
  /// with circle radius `radius` = 1 - t.
  void begin(double radius, std::span<const C> z) {
    radius_ = radius;
    samples_ = 0;
    winding_ = 0;
    base_ = 0;
    std::copy(z.begin(), z.end(), start_.begin());
    std::fill(sum_.begin(), sum_.end(), C{});
  }

  /// Complex tracking parameter of the NEXT sample:
  /// t = 1 - r e^{i theta} at theta = 2 pi (samples + 1) / N.
  [[nodiscard]] C next_t(const EndgameOptions& options) const {
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    const double theta = kTwoPi * static_cast<double>(samples_ + 1) /
                         static_cast<double>(options.samples_per_loop);
    return C::from_double(
        {1.0 - radius_ * std::cos(theta), -radius_ * std::sin(theta)});
  }

  enum class Step {
    kContinue,   ///< keep circling
    kClosed,     ///< returned to the start point or an earlier loop end
    kExhausted,  ///< max_windings loops without closure
  };

  /// Absorb the corrected sample at next_t(): accumulate the Cauchy sum
  /// and, on each completed loop, run the closure test -- against the
  /// theta = 0 point first, then against the earlier loop ends, most
  /// recent first (the shortest period).
  Step absorb(std::span<const C> z, const EndgameOptions& options) {
    const std::size_t n = sum_.size();
    for (std::size_t i = 0; i < n; ++i) sum_[i] += z[i];
    ++samples_;
    if (samples_ % options.samples_per_loop != 0) return Step::kContinue;
    const unsigned loops = samples_ / options.samples_per_loop;
    for (unsigned k = 0; k < loops; ++k) {
      const unsigned ref = k == 0 ? 0 : loops - k;  // 0, then loops - 1 down to 1
      const auto target = ref == 0 ? std::span<const C>(start_) : loop_end(ref);
      if (returned(z, target, options)) {
        base_ = ref;
        winding_ = loops - ref;
        return Step::kClosed;
      }
    }
    if (loops >= options.max_windings) return Step::kExhausted;
    std::copy(z.begin(), z.end(), ends_.begin() + (loops - 1) * n);
    std::copy(sum_.begin(), sum_.end(), end_sums_.begin() + (loops - 1) * n);
    return Step::kContinue;
  }

  /// Winding number measured by the closure test (loops since the
  /// point the last loop returned to).
  [[nodiscard]] unsigned winding() const noexcept { return winding_; }
  [[nodiscard]] double radius() const noexcept { return radius_; }

  /// The theta = 0 point the endgame was armed at: a failed attempt
  /// (lost sample, no closure) restores the path here and resumes real
  /// tracking.
  [[nodiscard]] std::span<const C> start_point() const noexcept {
    return std::span<const C>(start_);
  }

  /// The Cauchy integral mean over the closing winding() loops: the
  /// endpoint estimate z(1).  Call after absorb() returned kClosed.
  void endpoint(std::span<C> out) const {
    // Samples of the closing loops: samples per loop times winding().
    const unsigned count = samples_ / (base_ + winding_) * winding_;
    const S scale =
        prec::ScalarTraits<S>::from_double(1.0 / static_cast<double>(count));
    if (base_ == 0) {  // the whole attempt, without subtracting a zero sum
      for (std::size_t i = 0; i < sum_.size(); ++i) out[i] = sum_[i] * scale;
      return;
    }
    const auto before = std::span<const C>(end_sums_).subspan(
        (base_ - 1) * sum_.size(), sum_.size());
    for (std::size_t i = 0; i < sum_.size(); ++i)
      out[i] = (sum_[i] - before[i]) * scale;
  }

 private:
  /// End of loop `loop` (1-based), as absorbed.
  [[nodiscard]] std::span<const C> loop_end(unsigned loop) const {
    return std::span<const C>(ends_).subspan((loop - 1) * sum_.size(), sum_.size());
  }

  /// Whether every coordinate of `z` is within closure_tolerance of
  /// `ref`; a NaN distance never is.
  [[nodiscard]] static bool returned(std::span<const C> z, std::span<const C> ref,
                                     const EndgameOptions& options) {
    for (std::size_t i = 0; i < ref.size(); ++i)
      if (!(cplx::max_abs_diff(z[i], ref[i]) <= options.closure_tolerance))
        return false;
    return true;
  }

  double radius_ = 0.0;
  unsigned samples_ = 0;
  unsigned winding_ = 0;
  unsigned base_ = 0;        ///< loop end the closing loop returned to (0 = start)
  std::vector<C> start_;     ///< the theta = 0 point (closure reference)
  std::vector<C> sum_;       ///< running Cauchy sum
  std::vector<C> ends_;      ///< loop ends, loop-major (closure references)
  std::vector<C> end_sums_;  ///< the running sum at each kept loop end
};

}  // namespace polyeval::homotopy
