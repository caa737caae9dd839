// The observability layer: metrics registry semantics (counter /
// gauge / float-counter / fixed-bucket histogram, labeled families,
// Prometheus text exposition), span tracing with TraceLevel gating,
// the Chrome trace-event exporter's structure, and the end-to-end
// guarantees the telemetry rides on: status labels pinned to the ONE
// PathStatus spelling, bitwise-identical endpoints with tracing off
// and on, launch accounting identical at every level, and exact
// agreement between request spans and solve::Report::Timing.

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "homotopy/tracker.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "poly/random_system.hpp"
#include "service/solve_service.hpp"

namespace {

using namespace polyeval;

// ----- exposition parsing helper -------------------------------------

/// The numeric value of sample line `sample` (full name including any
/// {label="..."} selector) in a Prometheus text exposition, or NaN.
double sample_value(const std::string& exposition, const std::string& sample) {
  std::istringstream in(exposition);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(sample + " ", 0) == 0)
      return std::stod(line.substr(sample.size() + 1));
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::string expose(const obs::MetricsRegistry& registry) {
  std::ostringstream os;
  registry.expose(os);
  return os.str();
}

// ----- registry units -------------------------------------------------

TEST(Metrics, CounterGaugeFloatCounterRoundTrip) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("polyeval_test_total", "a counter");
  obs::Gauge& g = registry.gauge("polyeval_test_depth", "a gauge");
  obs::FloatCounter& f = registry.float_counter("polyeval_test_us_total");

  c.inc();
  c.inc(4);
  g.set(2.5);
  g.add(-0.5);
  f.add(1.25);
  f.add(0.25);

  EXPECT_EQ(c.value(), 5u);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(f.value(), 1.5);

  // Re-resolving the same name returns the same instrument.
  EXPECT_EQ(&registry.counter("polyeval_test_total"), &c);

  const std::string text = expose(registry);
  EXPECT_NE(text.find("# HELP polyeval_test_total a counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE polyeval_test_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE polyeval_test_depth gauge"), std::string::npos);
  EXPECT_EQ(sample_value(text, "polyeval_test_total"), 5.0);
  EXPECT_EQ(sample_value(text, "polyeval_test_depth"), 2.0);
  EXPECT_EQ(sample_value(text, "polyeval_test_us_total"), 1.5);
}

TEST(Metrics, LabeledFamilyExposesEveryLabelValue) {
  obs::MetricsRegistry registry;
  registry.counter("polyeval_launches_total", "kernel", "fused", "launches")
      .inc(3);
  registry.counter("polyeval_launches_total", "kernel", "probe").inc(1);
  // Label-value hit path returns the same instrument.
  EXPECT_EQ(
      registry.counter("polyeval_launches_total", "kernel", "fused").value(),
      3u);

  const std::string text = expose(registry);
  EXPECT_EQ(sample_value(text, "polyeval_launches_total{kernel=\"fused\"}"),
            3.0);
  EXPECT_EQ(sample_value(text, "polyeval_launches_total{kernel=\"probe\"}"),
            1.0);
}

TEST(Metrics, HistogramBucketsFollowPrometheusLeSemantics) {
  obs::MetricsRegistry registry;
  static constexpr std::array<double, 3> bounds = {1.0, 5.0, 10.0};
  obs::Histogram& h =
      registry.histogram("polyeval_test_hist", bounds, "a histogram");

  h.observe(0.5);   // le 1
  h.observe(1.0);   // le 1 (boundary lands in its bucket)
  h.observe(3.0);   // le 5
  h.observe(10.5);  // +Inf

  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);

  // Exposition: cumulative buckets plus _sum / _count.
  const std::string text = expose(registry);
  EXPECT_EQ(sample_value(text, "polyeval_test_hist_bucket{le=\"1\"}"), 2.0);
  EXPECT_EQ(sample_value(text, "polyeval_test_hist_bucket{le=\"5\"}"), 3.0);
  EXPECT_EQ(sample_value(text, "polyeval_test_hist_bucket{le=\"10\"}"), 3.0);
  EXPECT_EQ(sample_value(text, "polyeval_test_hist_bucket{le=\"+Inf\"}"), 4.0);
  EXPECT_EQ(sample_value(text, "polyeval_test_hist_sum"), 15.0);
  EXPECT_EQ(sample_value(text, "polyeval_test_hist_count"), 4.0);
}

TEST(Metrics, TypeMismatchOnReRegistrationThrows) {
  obs::MetricsRegistry registry;
  registry.counter("polyeval_test_total");
  EXPECT_THROW(registry.gauge("polyeval_test_total"), std::logic_error);
  EXPECT_THROW(registry.float_counter("polyeval_test_total"),
               std::logic_error);
}

TEST(Metrics, TrackerStatusLabelsPinnedToPathStatusSpelling) {
  // The retired-by-status counters index by static_cast<size_t>(status);
  // their exposition labels must stay the ONE spelling
  // homotopy::to_string defines, in enum order.
  obs::MetricsRegistry registry;
  obs::TrackerMetrics m = obs::TrackerMetrics::from_registry(registry);
  static constexpr homotopy::PathStatus kAll[] = {
      homotopy::PathStatus::kConverged, homotopy::PathStatus::kAtInfinity,
      homotopy::PathStatus::kStalled, homotopy::PathStatus::kDiverged,
      homotopy::PathStatus::kCancelled};
  for (std::size_t s = 0; s < obs::TrackerMetrics::kStatuses; ++s)
    m.retired_by_status[s]->inc(s + 1);

  const std::string text = expose(registry);
  for (std::size_t s = 0; s < obs::TrackerMetrics::kStatuses; ++s) {
    const std::string sample = "polyeval_paths_retired_total{status=\"" +
                               std::string(homotopy::to_string(kAll[s])) +
                               "\"}";
    EXPECT_EQ(sample_value(text, sample), static_cast<double>(s + 1))
        << sample;
  }
}

TEST(Metrics, EndgameOutcomeLabelsPinned) {
  // The endgame attempt counters index by TrackerMetrics::EndgameOutcome;
  // their exposition labels are the spellings dashboards scrape.
  obs::MetricsRegistry registry;
  obs::TrackerMetrics m = obs::TrackerMetrics::from_registry(registry);
  static constexpr const char* kLabels[] = {"closed", "lost", "exhausted"};
  static_assert(std::size(kLabels) == obs::TrackerMetrics::kEndgameOutcomes);
  EXPECT_EQ(obs::TrackerMetrics::kClosed, 0u);
  EXPECT_EQ(obs::TrackerMetrics::kLost, 1u);
  EXPECT_EQ(obs::TrackerMetrics::kExhausted, 2u);
  for (std::size_t o = 0; o < obs::TrackerMetrics::kEndgameOutcomes; ++o)
    m.endgame_attempts[o]->inc(o + 1);
  m.endgame_samples->inc(48);

  const std::string text = expose(registry);
  for (std::size_t o = 0; o < obs::TrackerMetrics::kEndgameOutcomes; ++o) {
    const std::string sample = "polyeval_endgame_attempts_total{outcome=\"" +
                               std::string(kLabels[o]) + "\"}";
    EXPECT_EQ(sample_value(text, sample), static_cast<double>(o + 1)) << sample;
  }
  EXPECT_EQ(sample_value(text, "polyeval_endgame_samples_total"), 48.0);
  EXPECT_EQ(sample_value(text, "polyeval_endgame_entries_total"), 0.0);
  EXPECT_EQ(text.find("polyeval_endgame_retries_total"), std::string::npos);
}

// ----- tracer units ---------------------------------------------------

TEST(Tracer, LevelGatesRecording) {
  obs::Tracer tracer(obs::TraceLevel::kRequests);
  EXPECT_TRUE(tracer.enabled(obs::TraceLevel::kRequests));
  EXPECT_FALSE(tracer.enabled(obs::TraceLevel::kRounds));

  const std::size_t kept = tracer.begin_span("track", "request", 0, 1.0,
                                             obs::TraceLevel::kRequests);
  const std::size_t dropped =
      tracer.begin_span("tick", "round", 0, 1.0, obs::TraceLevel::kRounds);
  EXPECT_NE(kept, obs::Tracer::npos);
  EXPECT_EQ(dropped, obs::Tracer::npos);
  tracer.span_args(kept, 41.5, 6, 9);
  tracer.end_span(kept, 42.0);
  tracer.end_span(dropped, 42.0);  // no-op handle

  ASSERT_EQ(tracer.spans().size(), 1u);
  const obs::Tracer::Span& s = tracer.spans()[0];
  EXPECT_STREQ(s.name, "track");
  EXPECT_STREQ(s.cat, "request");
  EXPECT_FALSE(s.open);
  EXPECT_DOUBLE_EQ(s.modeled_start_us, 1.0);
  EXPECT_DOUBLE_EQ(s.modeled_end_us, 42.0);
  EXPECT_DOUBLE_EQ(s.arg_modeled_us, 41.5);
  EXPECT_GE(s.host_end_us, s.host_start_us);
}

TEST(Tracer, ChromeExportRendersTracksSpansAndSlices) {
  obs::Tracer tracer(obs::TraceLevel::kFull);
  tracer.set_devices(2);
  const std::size_t q =
      tracer.begin_span("queued", "queue", 3, 0.0, obs::TraceLevel::kRequests);
  tracer.end_span(q, 10.0);
  const std::size_t r =
      tracer.begin_span("track", "request", 3, 10.0,
                        obs::TraceLevel::kRequests);
  tracer.span_args(r, 90.0, 6, 2);
  tracer.end_span(r, 100.0);
  const std::size_t t =
      tracer.begin_span("tick", "round", 0, 10.0, obs::TraceLevel::kRounds);
  tracer.end_span(t, 100.0);
  using Engine = obs::Tracer::DeviceSlice::Engine;
  tracer.add_device_slice(0, Engine::kDmaH2D, "h2d", 10.0, 18.0, 4096);
  tracer.add_device_slice(0, Engine::kCompute, "fused_full", 18.0, 95.0, 0);
  tracer.add_device_slice(1, Engine::kDmaD2H, "d2h", 20.0, 28.0, 2048);

  std::ostringstream os;
  obs::write_chrome_trace(os, tracer);
  const std::string json = os.str();

  // Track metadata: service, scheduler, the request row, both devices.
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"solve service\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"scheduler\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request 3\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"device 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dma h2d\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dma d2h\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"compute\""), std::string::npos);
  // Spans carry both clocks: modeled ts/dur plus host wall in args.
  EXPECT_NE(json.find("\"name\":\"track\",\"cat\":\"request\""),
            std::string::npos);
  EXPECT_NE(json.find("\"modeled_us\":90"), std::string::npos);
  EXPECT_NE(json.find("\"host_wall_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tick\",\"cat\":\"round\""),
            std::string::npos);
  // Device slices land on their engine tids with byte payloads.
  EXPECT_NE(json.find("\"name\":\"fused_full\",\"cat\":\"kernel\""),
            std::string::npos);
  EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
}

TEST(Tracer, OpenSpansAreSkippedByTheExporter) {
  obs::Tracer tracer(obs::TraceLevel::kRequests);
  tracer.begin_span("queued", "queue", 0, 0.0, obs::TraceLevel::kRequests);
  std::ostringstream os;
  obs::write_chrome_trace(os, tracer);
  // The metadata row exists (the request was seen) but no X event.
  EXPECT_EQ(os.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(os.str().find("\"request 0\""), std::string::npos);
}

// ----- end-to-end: tracing must observe, never perturb ----------------

poly::PolynomialSystem obs_system(std::uint32_t seed) {
  poly::SystemSpec spec;
  spec.dimension = 3;
  spec.monomials_per_polynomial = 3;
  spec.variables_per_monomial = 2;
  spec.max_exponent = 2;
  spec.seed = seed;
  return poly::make_random_system(spec);
}

solve::Options obs_options() {
  solve::Options opt;
  opt.sharding.max_paths = 6;
  opt.tracking.track.max_steps = 4000;
  return opt;
}

struct LeveledRun {
  std::vector<std::vector<homotopy::TrackResult<double>>> paths;
  std::vector<double> modeled_us;  ///< per request, from the report
  double kernel_launches = 0.0;    ///< from the metrics exposition
  double spans_modeled_sum = -1.0; ///< request spans' args sum (traced)
  std::size_t spans = 0, slices = 0;
};

LeveledRun run_at_level(obs::TraceLevel level) {
  service::SolveService<double>::Config config;
  config.shards = 2;
  config.trace = level;
  service::SolveService<double> svc(std::move(config));
  auto ta = svc.submit({obs_system(99), obs_options(), {}, 0, 0.0});
  auto tb = svc.submit({obs_system(1234), obs_options(), {}, 0, 0.0});
  EXPECT_TRUE(ta.admitted());
  EXPECT_TRUE(tb.admitted());
  svc.drain();

  LeveledRun out;
  out.paths.push_back(ta.report().paths);
  out.paths.push_back(tb.report().paths);
  out.modeled_us = {ta.report().timing.modeled_us,
                    tb.report().timing.modeled_us};
  const std::string text = expose(svc.metrics());
  // Sum the per-kernel launch family across label values.
  double launches = 0.0;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("polyeval_kernel_launches_total{", 0) == 0)
      launches += std::stod(line.substr(line.rfind(' ') + 1));
  }
  out.kernel_launches = launches;

  out.spans = svc.tracer().spans().size();
  double span_sum = 0.0;
  for (const auto& s : svc.tracer().spans())
    if (std::string_view(s.cat) == "request" && s.arg_modeled_us >= 0.0)
      span_sum += s.arg_modeled_us;
  out.spans_modeled_sum = span_sum;
  for (std::size_t d = 0; d < svc.tracer().device_count(); ++d)
    out.slices += svc.tracer().device_slices(d).size();
  return out;
}

TEST(ObsEndToEnd, TracingPreservesBitwiseEndpointsAndLaunchAccounting) {
  const LeveledRun off = run_at_level(obs::TraceLevel::kOff);
  const LeveledRun rounds = run_at_level(obs::TraceLevel::kRounds);
  const LeveledRun full = run_at_level(obs::TraceLevel::kFull);

  // Endpoints are bitwise identical at every level.
  for (const LeveledRun* traced : {&rounds, &full}) {
    ASSERT_EQ(traced->paths.size(), off.paths.size());
    for (std::size_t r = 0; r < off.paths.size(); ++r) {
      ASSERT_EQ(traced->paths[r].size(), off.paths[r].size());
      for (std::size_t p = 0; p < off.paths[r].size(); ++p) {
        const auto& x = off.paths[r][p];
        const auto& y = traced->paths[r][p];
        EXPECT_EQ(x.status, y.status);
        EXPECT_EQ(x.steps, y.steps);
        EXPECT_EQ(x.final_residual, y.final_residual);
        for (std::size_t i = 0; i < x.solution.size(); ++i)
          EXPECT_EQ(cplx::max_abs_diff(x.solution[i], y.solution[i]), 0.0);
      }
      // The modeled accounting is identical too (tracing observes the
      // clock, it never feeds it).
      EXPECT_EQ(traced->modeled_us[r], off.modeled_us[r]);
    }
    // Same launches at every level: the tracer adds zero work.
    EXPECT_EQ(traced->kernel_launches, off.kernel_launches);
  }
  EXPECT_GT(off.kernel_launches, 0.0);

  // kOff records nothing; enabled levels record the lifecycle.
  EXPECT_EQ(off.spans, 0u);
  EXPECT_EQ(off.slices, 0u);
  EXPECT_GT(rounds.spans, 0u);
  EXPECT_GT(rounds.slices, 0u);
  EXPECT_GE(full.slices, rounds.slices);

  // The request spans carry exactly the reports' modeled shares.
  const double report_sum = off.modeled_us[0] + off.modeled_us[1];
  EXPECT_DOUBLE_EQ(full.spans_modeled_sum, report_sum);
  EXPECT_DOUBLE_EQ(rounds.spans_modeled_sum, report_sum);
}

TEST(ObsEndToEnd, ChromeExportOfServiceRunIsWellFormed) {
  service::SolveService<double>::Config config;
  config.shards = 2;
  config.trace = obs::TraceLevel::kFull;
  service::SolveService<double> svc(std::move(config));
  auto ticket = svc.submit({obs_system(7), obs_options(), {}, 0, 0.0});
  ASSERT_TRUE(ticket.admitted());
  svc.drain();

  std::ostringstream os;
  svc.export_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"solve service\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"round\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"dma\""), std::string::npos);
}

}  // namespace
