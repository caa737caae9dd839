// The unified request/response surface: solve::Options validates,
// solve::Report tallies per-status counts/extremes and converts to the
// legacy summary, and the enum to_string helpers cover every value.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "service/request.hpp"
#include "solve/options.hpp"
#include "solve/report.hpp"

namespace {

using namespace polyeval;

TEST(SolveOptions, DefaultsValidate) {
  const solve::Options opt;
  EXPECT_NO_THROW(opt.validate());
  EXPECT_EQ(opt.tracking.geometry, solve::Geometry::kProjective);
  EXPECT_EQ(opt.tuning.mode, solve::TuningMode::kMeasured);
}

TEST(SolveOptions, ValidationRejectsNonsense) {
  {
    solve::Options o;
    o.sharding.shards = 0;
    EXPECT_THROW(o.validate(), std::invalid_argument);
  }
  {
    solve::Options o;
    o.sharding.workers_per_shard = 0;
    EXPECT_THROW(o.validate(), std::invalid_argument);
  }
  {
    solve::Options o;
    o.sharding.lockstep_batch = 0;
    EXPECT_THROW(o.validate(), std::invalid_argument);
  }
  {
    solve::Options o;
    o.tracking.track.initial_step = 0.0;
    EXPECT_THROW(o.validate(), std::invalid_argument);
  }
  {
    solve::Options o;
    o.tracking.track.step_shrink = 1.5;  // must shrink
    EXPECT_THROW(o.validate(), std::invalid_argument);
  }
  {
    solve::Options o;
    o.tracking.track.max_steps = 0;
    EXPECT_THROW(o.validate(), std::invalid_argument);
  }
}

TEST(SolveReport, RetallyCountsEveryStatus) {
  solve::Report<double> r;
  r.paths.resize(5);
  r.paths[0].status = homotopy::PathStatus::kConverged;
  r.paths[0].steps = 10;
  r.paths[0].winding = 2;
  r.paths[0].final_residual = 1e-12;
  r.paths[1].status = homotopy::PathStatus::kAtInfinity;
  r.paths[1].rejections = 3;
  r.paths[1].endgame_failures = 2;
  r.paths[2].status = homotopy::PathStatus::kStalled;
  r.paths[2].endgame_failures = 1;
  r.paths[3].status = homotopy::PathStatus::kDiverged;
  r.paths[4].status = homotopy::PathStatus::kCancelled;
  r.retally();

  EXPECT_EQ(r.attempted, 5u);
  EXPECT_EQ(r.successes(), 1u);
  EXPECT_EQ(r.at_infinity(), 1u);
  EXPECT_EQ(r.cancelled(), 1u);
  EXPECT_EQ(r.classified(), 2u);
  EXPECT_EQ(r.by_status[homotopy::PathStatus::kStalled], 1u);
  EXPECT_EQ(r.by_status[homotopy::PathStatus::kDiverged], 1u);
  EXPECT_EQ(r.max_winding, 2u);
  EXPECT_EQ(r.max_final_residual, 1e-12);
  EXPECT_EQ(r.total_steps, 10u);
  EXPECT_EQ(r.total_rejections, 3u);
  EXPECT_EQ(r.endgame_closures, 1u);  // path 0, winding 2
  EXPECT_EQ(r.endgame_failures, 3u);

  const auto summary = r.to_summary();
  EXPECT_EQ(summary.attempted, 5u);
  EXPECT_EQ(summary.successes, 1u);
  EXPECT_EQ(summary.at_infinity, 1u);
  EXPECT_EQ(summary.paths.size(), 5u);

  const auto back = solve::make_report(summary);
  EXPECT_EQ(back.successes(), 1u);
  EXPECT_EQ(back.cancelled(), 1u);
  EXPECT_EQ(back.attempted, 5u);
}

TEST(SolveReport, RetallyKeepsANaNResidual) {
  // A NaN endpoint residual is the worst one: std::max used to drop it,
  // wherever it sat among the paths.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t at = 0; at < 3; ++at) {
    solve::Report<double> r;
    r.paths.resize(3);
    for (std::size_t p = 0; p < 3; ++p)
      r.paths[p].final_residual = p == at ? nan : 1e-9 * static_cast<double>(p + 1);
    r.retally();
    EXPECT_TRUE(std::isnan(r.max_final_residual)) << "NaN at path " << at;
  }
  solve::Report<double> finite;
  finite.paths.resize(2);
  finite.paths[0].final_residual = 3e-9;
  finite.paths[1].final_residual = 1e-9;
  finite.retally();
  EXPECT_EQ(finite.max_final_residual, 3e-9);
}

TEST(SolveReport, ToStringPrintsEveryTimingAndMetricsField) {
  // The human rendering is pinned: every Timing field and every
  // scheduling-metrics field prints, zero or not -- a consumer reading
  // a report dump must never have to guess whether a missing field was
  // zero or just omitted.
  solve::Report<double> r;
  r.paths.resize(3);
  r.paths[0].status = homotopy::PathStatus::kConverged;
  r.paths[0].steps = 12;
  r.paths[0].winding = 2;
  r.paths[0].final_residual = 0.25;
  r.paths[0].endgame_failures = 1;
  r.paths[1].status = homotopy::PathStatus::kAtInfinity;
  r.paths[1].rejections = 4;
  r.paths[1].endgame_failures = 2;
  r.paths[2].status = homotopy::PathStatus::kCancelled;
  r.retally();
  r.timing.queue_wall_us = 1.5;
  r.timing.track_wall_us = 200.25;
  r.timing.total_wall_us = 210.5;
  r.timing.modeled_us = 1234.5;
  r.timing.rounds = 17;
  r.metrics.shared_rounds = 9;
  r.metrics.peak_tenants = 3;
  r.metrics.steals = 2;
  r.metrics.queue_pulls = 5;

  EXPECT_EQ(r.to_string(),
            "solve report v4: 3 paths (converged=1, at_infinity=1, "
            "stalled=0, diverged=0, cancelled=1)\n"
            "  extremes: max_winding=2 max_final_residual=0.25 steps=12 "
            "rejections=4\n"
            "  endgame: closures=1 failed_attempts=3\n"
            "  timing: queue_wall_us=1.5 track_wall_us=200.25 "
            "total_wall_us=210.5 modeled_us=1234.5 rounds=17\n"
            "  scheduling: shared_rounds=9 peak_tenants=3 steals=2 "
            "queue_pulls=5\n");

  // A default report still prints the full timing block (all zeros).
  const solve::Report<double> empty;
  EXPECT_NE(empty.to_string().find(
                "timing: queue_wall_us=0 track_wall_us=0 total_wall_us=0 "
                "modeled_us=0 rounds=0"),
            std::string::npos);
  EXPECT_EQ(solve::Report<double>::kVersion, 4u);
}

TEST(SolveReport, StatusToStringCoversEveryValue) {
  using homotopy::PathStatus;
  EXPECT_STREQ(homotopy::to_string(PathStatus::kConverged), "converged");
  EXPECT_STREQ(homotopy::to_string(PathStatus::kAtInfinity), "at_infinity");
  EXPECT_STREQ(homotopy::to_string(PathStatus::kStalled), "stalled");
  EXPECT_STREQ(homotopy::to_string(PathStatus::kDiverged), "diverged");
  EXPECT_STREQ(homotopy::to_string(PathStatus::kCancelled), "cancelled");

  using service::AdmissionVerdict;
  EXPECT_STREQ(to_string(AdmissionVerdict::kAdmitted), "admitted");
  EXPECT_STREQ(to_string(AdmissionVerdict::kQueueFull), "queue_full");
  EXPECT_STREQ(to_string(AdmissionVerdict::kPathBudgetExceeded),
               "path_budget_exceeded");
  EXPECT_STREQ(to_string(AdmissionVerdict::kInvalid), "invalid");

  using service::RequestStatus;
  EXPECT_STREQ(to_string(RequestStatus::kRejected), "rejected");
  EXPECT_STREQ(to_string(RequestStatus::kQueued), "queued");
  EXPECT_STREQ(to_string(RequestStatus::kTracking), "tracking");
  EXPECT_STREQ(to_string(RequestStatus::kDone), "done");
}

}  // namespace
