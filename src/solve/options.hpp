#pragma once

/// \file options.hpp
/// The ONE composable option surface of the solver stack.  Every knob
/// that used to live scattered across `homotopy::ShardedSolveOptions`,
/// the evaluator geometry pins (`block_size`, interchange layout,
/// stream count), `tune::TuningMode`, `TrackGeometry`, `ShardTrackMode`
/// and `ShardEvalBackend` now has exactly one spelling here, grouped
/// into nested Tracking / Tuning / Sharding sections with validated
/// defaults.  `homotopy::ShardedSolveOptions` remains, bridged by
/// to_sharded()/from_sharded(); new code should construct a
/// `solve::Options` and hand it to the service or the one-shot entry
/// points.

#include <cstdint>
#include <stdexcept>

#include "homotopy/shard_options.hpp"
#include "homotopy/tracker.hpp"
#include "tune/tune_key.hpp"

namespace polyeval::solve {

/// Canonical spellings of the mode enums.  These alias the existing
/// homotopy/tune types rather than redefining them, so the two
/// surfaces interconvert without casts while the legacy names decay.
using Geometry = homotopy::TrackGeometry;
using TrackMode = homotopy::ShardTrackMode;
using EvalBackend = homotopy::ShardEvalBackend;
using TuningMode = tune::TuningMode;

struct Options {
  /// Path-tracking section: the predictor-corrector/step-control knobs
  /// plus the coordinate geometry they run in.
  struct Tracking {
    homotopy::TrackOptions track;
    Geometry geometry = Geometry::kProjective;
    /// Seed of the random patch hyperplane (projective geometry).
    std::uint64_t patch_seed = 20120717;
    /// Lockstep by default; per-path kept for parity testing.
    TrackMode mode = TrackMode::kLockstep;

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
  struct Sharding {
    unsigned shards = 2;
    unsigned workers_per_shard = 1;  ///< device pool threads per shard
    unsigned chunk_paths = 2;        ///< paths per claim (per-path mode)
    std::uint64_t max_paths = 0;     ///< 0 = all Bezout paths
    EvalBackend backend = EvalBackend::kFused;
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
    if (sharding.chunk_paths == 0)
      throw std::invalid_argument("solve::Options: chunk_paths must be >= 1");
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

  /// Bridge to the legacy spelling (kept while callers migrate).
  [[nodiscard]] homotopy::ShardedSolveOptions to_sharded() const {
    homotopy::ShardedSolveOptions o;
    o.track = tracking.track;
    o.gamma_seed = gamma_seed;
    o.shards = sharding.shards;
    o.workers_per_shard = sharding.workers_per_shard;
    o.chunk_paths = sharding.chunk_paths;
    o.max_paths = sharding.max_paths;
    o.block_size = tuning.block_size;
    o.tuning = tuning.mode;
    o.detect_races = tuning.detect_races;
    o.backend = sharding.backend;
    o.mode = tracking.mode;
    o.geometry = tracking.geometry;
    o.patch_seed = tracking.patch_seed;
    o.lockstep_batch = sharding.lockstep_batch;
    return o;
  }

  /// Bridge from the legacy spelling.
  [[nodiscard]] static Options from_sharded(
      const homotopy::ShardedSolveOptions& o) {
    Options n;
    n.tracking.track = o.track;
    n.tracking.geometry = o.geometry;
    n.tracking.patch_seed = o.patch_seed;
    n.tracking.mode = o.mode;
    n.tuning.mode = o.tuning;
    n.tuning.block_size = o.block_size;
    n.tuning.detect_races = o.detect_races;
    n.sharding.shards = o.shards;
    n.sharding.workers_per_shard = o.workers_per_shard;
    n.sharding.chunk_paths = o.chunk_paths;
    n.sharding.max_paths = o.max_paths;
    n.sharding.backend = o.backend;
    n.sharding.lockstep_batch = o.lockstep_batch;
    n.gamma_seed = o.gamma_seed;
    return n;
  }
};

}  // namespace polyeval::solve
