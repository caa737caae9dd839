#pragma once

/// \file report.hpp
/// The versioned result surface shared by the solve service and the
/// one-shot path: `homotopy::SolveSummary` (paths + two counters) is
/// promoted to a `solve::Report` with per-status counts (including
/// kCancelled), winding and residual extremes, the Cauchy endgame's
/// closures and failed attempts, and a timing breakdown (queue wait,
/// tracking, modeled device time).  `kVersion` bumps
/// whenever a field changes meaning so persisted dumps stay
/// interpretable.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "homotopy/solver.hpp"
#include "homotopy/tracker.hpp"

namespace polyeval::solve {

/// Per-status path counts, indexed by PathStatus.
struct StatusCounts {
  static constexpr std::size_t kStatuses = 5;
  std::array<std::uint64_t, kStatuses> counts{};

  [[nodiscard]] std::uint64_t& operator[](homotopy::PathStatus s) {
    return counts[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t operator[](homotopy::PathStatus s) const {
    return counts[static_cast<std::size_t>(s)];
  }
};

template <prec::RealScalar S>
struct Report {
  /// Bumped when any field changes meaning.  v2: added the scheduling
  /// metrics snapshot (`metrics`).  v3: added the endgame tallies
  /// (`endgame_closures`, `endgame_failures`).  v4: `timing.rounds` and
  /// `metrics.shared_rounds` count evaluation rounds (one evaluation per
  /// live path), and a NaN endpoint residual makes `max_final_residual`
  /// NaN.
  static constexpr unsigned kVersion = 4;

  std::vector<homotopy::TrackResult<S>> paths;
  std::uint64_t attempted = 0;
  StatusCounts by_status;          ///< per-PathStatus endpoint counts
  unsigned max_winding = 0;        ///< largest endgame winding observed
  double max_final_residual = 0.0; ///< worst endpoint residual
  std::uint64_t total_steps = 0;   ///< accepted steps across all paths
  std::uint64_t total_rejections = 0;
  /// Cauchy endgame, per request: paths whose endpoint a closed loop
  /// extrapolated (winding > 0), and failed attempts (a lost sample or
  /// max_windings loops without closure) across all paths.
  std::uint64_t endgame_closures = 0;
  std::uint64_t endgame_failures = 0;

  /// Timing breakdown.  Wall fields are host clock; modeled_us is the
  /// device cost model's makespan share for this request (the solve
  /// service's scheduling currency).
  struct Timing {
    double queue_wall_us = 0.0;  ///< submit -> first path adopted
    double track_wall_us = 0.0;  ///< first adoption -> last retirement
    double total_wall_us = 0.0;  ///< submit -> report finalized
    double modeled_us = 0.0;     ///< modeled device time attributed
    /// Lockstep evaluation rounds this request rode in (one per service
    /// tick; each gives every live path one evaluation).
    std::uint64_t rounds = 0;
  } timing;

  /// Per-request scheduling metrics, filled by the solve service (zero
  /// on the one-shot path): what cross-request batching and the work
  /// stealer actually did to THIS request -- the per-request view of
  /// the registry-level counters SolveService::metrics() aggregates.
  struct Metrics {
    std::uint64_t shared_rounds = 0;  ///< evaluation rounds ridden with >= 2 tenants
    unsigned peak_tenants = 0;        ///< most co-tenants in one round
    std::uint64_t steals = 0;         ///< times a path moved shards
    std::uint64_t queue_pulls = 0;    ///< paths pulled from pending to slots
  } metrics;

  [[nodiscard]] std::uint64_t successes() const {
    return by_status[homotopy::PathStatus::kConverged];
  }
  [[nodiscard]] std::uint64_t at_infinity() const {
    return by_status[homotopy::PathStatus::kAtInfinity];
  }
  [[nodiscard]] std::uint64_t cancelled() const {
    return by_status[homotopy::PathStatus::kCancelled];
  }
  /// Paths with a classified endpoint (the solved_frac numerator).
  [[nodiscard]] std::uint64_t classified() const {
    return successes() + at_infinity();
  }

  /// Tally the count/extreme fields from `paths` (idempotent).
  void retally() {
    by_status = {};
    max_winding = 0;
    max_final_residual = 0.0;
    total_steps = 0;
    total_rejections = 0;
    endgame_closures = 0;
    endgame_failures = 0;
    attempted = paths.size();
    for (const auto& p : paths) {
      ++by_status[p.status];
      max_winding = std::max(max_winding, p.winding);
      // A NaN residual is the worst one and stays (std::max drops it).
      if (std::isnan(p.final_residual) || p.final_residual > max_final_residual)
        max_final_residual = p.final_residual;
      total_steps += p.steps;
      total_rejections += p.rejections;
      endgame_closures += p.winding > 0 ? 1 : 0;
      endgame_failures += p.endgame_failures;
    }
  }

  /// Human-readable rendering: version, per-status counts, extremes,
  /// the endgame tallies, the FULL timing breakdown (every Timing field prints, zero or
  /// not -- a zero queue wait is information, not noise) and the
  /// scheduling metrics.  Pinned in test_solve_api.
  [[nodiscard]] std::string to_string() const {
    std::ostringstream os;
    os << "solve report v" << kVersion << ": " << attempted << " paths";
    for (std::size_t s = 0; s < StatusCounts::kStatuses; ++s)
      os << (s == 0 ? " (" : ", ")
         << homotopy::to_string(static_cast<homotopy::PathStatus>(s)) << "="
         << by_status.counts[s];
    os << ")\n";
    os << "  extremes: max_winding=" << max_winding
       << " max_final_residual=" << max_final_residual
       << " steps=" << total_steps << " rejections=" << total_rejections
       << "\n";
    os << "  endgame: closures=" << endgame_closures
       << " failed_attempts=" << endgame_failures << "\n";
    os << "  timing: queue_wall_us=" << timing.queue_wall_us
       << " track_wall_us=" << timing.track_wall_us
       << " total_wall_us=" << timing.total_wall_us
       << " modeled_us=" << timing.modeled_us << " rounds=" << timing.rounds
       << "\n";
    os << "  scheduling: shared_rounds=" << metrics.shared_rounds
       << " peak_tenants=" << metrics.peak_tenants
       << " steals=" << metrics.steals
       << " queue_pulls=" << metrics.queue_pulls << "\n";
    return os.str();
  }

  /// The legacy summary view (solver.hpp consumers).
  [[nodiscard]] homotopy::SolveSummary<S> to_summary() const {
    homotopy::SolveSummary<S> s;
    s.paths = paths;
    s.attempted = attempted;
    s.successes = successes();
    s.at_infinity = at_infinity();
    return s;
  }
};

/// Promote a legacy summary (one-shot solver output) to a Report.
template <prec::RealScalar S>
[[nodiscard]] Report<S> make_report(const homotopy::SolveSummary<S>& summary) {
  Report<S> r;
  r.paths = summary.paths;
  r.retally();
  return r;
}

}  // namespace polyeval::solve
