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
/// This class is the ONE copy of the endgame state arithmetic (sample
/// parameter, Cauchy sum, closure test, winding count, endpoint mean),
/// shared by the scalar tracker (which drives it with newton::refine)
/// and the lockstep batch tracker (newton::refine_batch, one sample per
/// round for every endgame path in a single whole-set launch) -- so the
/// per-path trajectories agree bit for bit by construction.

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "cplx/complex.hpp"

namespace polyeval::homotopy {

struct EndgameOptions {
  bool enabled = true;
  /// Stall signature: the endgame fires when a corrector rejection
  /// leaves the path at t >= trigger_t with step < trigger_step.
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
  /// theta = 0 start point within this max-norm distance.  Distinct
  /// branches of a winding-w endpoint are O(r^{1/w}) apart, far above
  /// the corrector's noise floor, so the test is not delicate.
  double closure_tolerance = 1e-6;

  /// Memberwise equality, so TrackOptions (which embeds this) can be a
  /// coalescing key in the solve service.
  friend bool operator==(const EndgameOptions&, const EndgameOptions&) = default;
};

template <prec::RealScalar S>
class CauchyEndgame {
  using C = cplx::Complex<S>;

 public:
  /// Size the state for points of `dimension` coordinates (done once at
  /// construction time in the batch tracker's slots: begin()/absorb()
  /// never allocate after this).
  void reserve(unsigned dimension) {
    start_.resize(dimension);
    sum_.resize(dimension);
  }

  /// Arm the endgame at the stalled point `z` (the theta = 0 sample)
  /// with circle radius `radius` = 1 - t.
  void begin(double radius, std::span<const C> z) {
    radius_ = radius;
    samples_ = 0;
    winding_ = 0;
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
    kClosed,     ///< returned to the start point: winding() is set
    kExhausted,  ///< max_windings loops without closure
  };

  /// Absorb the corrected sample at next_t(): accumulate the Cauchy sum
  /// and, on each completed loop, run the closure test.
  Step absorb(std::span<const C> z, const EndgameOptions& options) {
    for (std::size_t i = 0; i < sum_.size(); ++i) sum_[i] += z[i];
    ++samples_;
    if (samples_ % options.samples_per_loop != 0) return Step::kContinue;
    // Closed when every coordinate is back within tolerance; a NaN
    // distance never is.
    bool closed = true;
    for (std::size_t i = 0; i < start_.size() && closed; ++i)
      closed = cplx::max_abs_diff(z[i], start_[i]) <= options.closure_tolerance;
    if (closed) {
      winding_ = samples_ / options.samples_per_loop;
      return Step::kClosed;
    }
    if (samples_ / options.samples_per_loop >= options.max_windings)
      return Step::kExhausted;
    return Step::kContinue;
  }

  /// Winding number measured by the closure test (loops until return).
  [[nodiscard]] unsigned winding() const noexcept { return winding_; }
  [[nodiscard]] double radius() const noexcept { return radius_; }

  /// The theta = 0 point the endgame was armed at: a failed attempt
  /// (lost sample, no closure) restores the path here and resumes real
  /// tracking, to re-arm later at a smaller radius.
  [[nodiscard]] std::span<const C> start_point() const noexcept {
    return std::span<const C>(start_);
  }

  /// The Cauchy integral mean over all absorbed samples: the endpoint
  /// estimate z(1).  Call after absorb() returned kClosed.
  void endpoint(std::span<C> out) const {
    const S scale =
        prec::ScalarTraits<S>::from_double(1.0 / static_cast<double>(samples_));
    for (std::size_t i = 0; i < sum_.size(); ++i) out[i] = sum_[i] * scale;
  }

 private:
  double radius_ = 0.0;
  unsigned samples_ = 0;
  unsigned winding_ = 0;
  std::vector<C> start_;  ///< the theta = 0 point (closure reference)
  std::vector<C> sum_;    ///< running Cauchy sum
};

}  // namespace polyeval::homotopy
