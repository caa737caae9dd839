#pragma once

// The three workloads and the per-layer passes of the traced run.

#include "common.hpp"
#include "poly/system.hpp"
#include "solve/options.hpp"

namespace perfbench {

/// Setup cost of one workload instance: process CPU seconds of
/// construction plus warm-up, and the autotuner probes (cache misses)
/// it paid.
struct SetupCost {
  double seconds = 0.0;
  std::uint64_t probes = 0;
};

// ----- service.cpp: svc_small_stream and track_dim16_proj ---------------

/// Untraced end-to-end run of svc_small_stream (tracking == false) or
/// track_dim16_proj (tracking == true).
[[nodiscard]] Result run_service_workload(const Args& args, bool tracking);

/// Cold (autotuner cache cleared first) or warm setup of a service
/// workload; the instance is discarded.
[[nodiscard]] SetupCost service_setup_cost(std::uint64_t seed, bool tracking, bool cold);

/// Traced pass of the svc_small_stream loop: spans around submit and
/// step for `budget_s` seconds (at least 24 requests).
/// Appends the service.* metrics when `out` is non-null; returns the
/// loop's completed requests per process CPU second.
double service_layers(const Args& args, double budget_s, SpanLog* log, Result* out);

/// obs.trace_overhead_frac (service lifecycle tracing on vs off over the
/// stream's fixed quota) and obs.scrape_us (metrics() + expose).
void obs_layers(const Args& args, Result& out);

/// The i-th request system of track_dim16_proj and the options every
/// service request of this benchmark carries.
[[nodiscard]] pe::poly::PolynomialSystem track_system(std::uint64_t seed, std::uint64_t i);
[[nodiscard]] pe::solve::Options request_options(std::uint64_t paths);
inline constexpr unsigned kTrackPaths = 16;

// ----- tracking.cpp: the homotopy / linalg layers ------------------------

/// BatchPathTracker driven directly over BatchedProjectiveHomotopy and
/// FusedGpuEvaluator, both wrapped in forwarding timing decorators, on
/// track_dim16_proj's request systems and start points.  Appends the
/// homotopy.* and linalg.* metrics when `out` is non-null; returns the
/// pass's tracked paths per process CPU second.
double tracking_layers(const Args& args, double budget_s, SpanLog* log, Result* out);

// ----- eval.cpp: eval_table1_dd and the core / simt / ad / prec layers ---

[[nodiscard]] Result run_eval_workload(const Args& args);
[[nodiscard]] SetupCost eval_setup_cost(std::uint64_t seed, bool cold);

/// Traced pass of the eval loop (evaluate_range wrapped in spans) plus
/// the single-threaded CPU baselines and the quad-double check.  Appends
/// the core.*, simt.overhead_ratio, ad.* and prec.* metrics when `out`
/// is non-null; returns evaluated points per process CPU second.
double eval_layers(const Args& args, double budget_s, SpanLog* log, Result* out);

/// simt.model_err_table1: the cost model against the paper's Table 1.
void paper_model_layers(Result& out);

}  // namespace perfbench
