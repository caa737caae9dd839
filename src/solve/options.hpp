#pragma once

/// \file options.hpp
/// The ONE option surface of the solver stack: the tracking knobs and
/// their coordinate geometry, the evaluator-geometry pins, and the
/// shard fan-out, grouped into nested Tracking / Tuning / Sharding
/// sections with validated defaults.  The solve service, the one-shot
/// `homotopy::track_paths_sharded` and the CPU reference solver
/// `homotopy::solve_total_degree` all take a `solve::Options`.

#include <cstdint>
#include <stdexcept>

#include "homotopy/tracker.hpp"
#include "tune/tune_key.hpp"

namespace polyeval::solve {

/// Tracking geometry.
enum class Geometry {
  /// Patched homogeneous coordinates with at-infinity classification
  /// and the Cauchy endgame: every path terminates classified.
  kProjective,
  /// The historical affine tracker: paths to infinity stall.
  kAffine,
};

using TuningMode = tune::TuningMode;

struct Options {
  /// Path-tracking section: the predictor-corrector/step-control knobs
  /// plus the coordinate geometry they run in.
  struct Tracking {
    homotopy::TrackOptions track;
    Geometry geometry = Geometry::kProjective;
    /// Seed of the random patch hyperplane (projective geometry).
    std::uint64_t patch_seed = 20120717;

    friend bool operator==(const Tracking&, const Tracking&) = default;
  };

  /// Evaluator-geometry section: how auto knobs resolve and which pins
  /// override them.  Results are bitwise independent of every field.
  struct Tuning {
    TuningMode mode = TuningMode::kMeasured;
    unsigned block_size = 0;  ///< 0 = resolve via `mode`
    bool detect_races = false;

    friend bool operator==(const Tuning&, const Tuning&) = default;
  };

  /// Fleet-placement section: shard fan-out and batching capacities.
  /// The CPU solver runs `shards` workers, one per shard.
  struct Sharding {
    unsigned shards = 2;
    unsigned workers_per_shard = 1;  ///< device pool threads per shard
    std::uint64_t max_paths = 0;     ///< 0 = all Bezout paths
    /// Lockstep device batch capacity: live-set launches are chunked to
    /// this many points (also the per-shard evaluator's buffer size).
    unsigned lockstep_batch = 64;

    friend bool operator==(const Sharding&, const Sharding&) = default;
  };

  Tracking tracking;
  Tuning tuning;
  Sharding sharding;
  std::uint64_t gamma_seed = 20120102;

  friend bool operator==(const Options&, const Options&) = default;

  /// Throws std::invalid_argument on nonsense combinations; returns
  /// *this so call sites can validate inline.
  const Options& validate() const {
    if (sharding.shards == 0)
      throw std::invalid_argument("solve::Options: shards must be >= 1");
    if (sharding.workers_per_shard == 0)
      throw std::invalid_argument(
          "solve::Options: workers_per_shard must be >= 1");
    if (sharding.lockstep_batch == 0)
      throw std::invalid_argument(
          "solve::Options: lockstep_batch must be >= 1");
    const auto& t = tracking.track;
    if (!(t.initial_step > 0.0) || !(t.min_step > 0.0) ||
        !(t.max_step >= t.initial_step))
      throw std::invalid_argument("solve::Options: bad step bounds");
    if (!(t.step_growth >= 1.0) || !(t.step_shrink > 0.0) ||
        !(t.step_shrink < 1.0))
      throw std::invalid_argument("solve::Options: bad step growth/shrink");
    if (t.corrector_iterations == 0 || t.max_steps == 0)
      throw std::invalid_argument("solve::Options: bad iteration budgets");
    return *this;
  }
};

}  // namespace polyeval::solve
