// svc_small_stream and track_dim16_proj: closed-loop clients of one
// persistent sync-mode SolveService<double>, driven from this thread
// through submit / step / report.  2 shards x 1 worker: main thread +
// one scheduler pool thread + two device workers = 4 threads.

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <unordered_map>

#include "poly/random_system.hpp"
#include "service/solve_service.hpp"
#include "tune/autotuner.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pe::poly::PolynomialSystem;
using pe::poly::UniformStructure;
using Service = pe::service::SolveService<double>;
using Report = pe::solve::Report<double>;

// svc_small_stream: three small uniform structures (k <= n, d <= 2).
constexpr UniformStructure kSmall[] = {{3, 3, 2, 2}, {4, 4, 3, 2}, {6, 5, 3, 2}};
constexpr unsigned kStreamOutstanding = 12;
// 78 = 2 x 39: every (structure, path count) pair twice.
constexpr std::size_t kStreamQuota = 78;
constexpr std::size_t kStreamRequests = 2048;  // generated up front
// track_dim16_proj: the Table-1 structure at dimension 16, one client.
constexpr UniformStructure kTable1Dim16 = {16, 22, 9, 2};
constexpr std::size_t kTrackQuota = 4;
constexpr std::size_t kTrackRequests = 64;

constexpr unsigned kSetupRepeats = 5;

PolynomialSystem make_system(const UniformStructure& st, std::uint64_t seed) {
  pe::poly::SystemSpec spec;
  spec.dimension = st.n;
  spec.monomials_per_polynomial = st.m;
  spec.variables_per_monomial = st.k;
  spec.max_exponent = st.d;
  spec.seed = seed;
  return pe::poly::make_random_system(spec);
}

struct Request {
  std::shared_ptr<const PolynomialSystem> system;
  std::uint64_t paths = 0;
  bool repeat = false;  ///< an earlier request's system: a SystemCache hit
};

struct Workload {
  std::vector<Request> requests;
  unsigned outstanding = 1;
  std::size_t quota = 1;  ///< requests every run completes (fixed metrics)
  std::vector<PolynomialSystem> warmup;  ///< one per structure, never in the stream
};

Workload make_workload(std::uint64_t seed, bool tracking) {
  Workload w;
  if (tracking) {
    w.outstanding = 1;
    w.quota = kTrackQuota;
    for (std::size_t i = 0; i < kTrackRequests; ++i)
      w.requests.push_back({std::make_shared<const PolynomialSystem>(track_system(seed, i)),
                            kTrackPaths, false});
    w.warmup.push_back(make_system(kTable1Dim16, mix_seed(seed, 0xa11ce)));
    return w;
  }
  w.outstanding = kStreamOutstanding;
  w.quota = kStreamQuota;
  // The mix is stratified so every seed asks for the same amount of
  // work: structures take turns, path counts cycle through 4..16 from a
  // seeded offset, and each structure's requests alternate between a
  // fresh coefficient draw (a cache miss that builds an entry) and a
  // repeat of one of its earlier systems, drawn by the seed (a hit).
  std::mt19937_64 rng(mix_seed(seed, 0x5eed));
  const std::uint64_t path_offset = rng() % 13;
  std::vector<std::shared_ptr<const PolynomialSystem>> earlier[std::size(kSmall)];
  w.requests.reserve(kStreamRequests);
  for (std::size_t i = 0; i < kStreamRequests; ++i) {
    const std::size_t st = i % std::size(kSmall);
    auto& mine = earlier[st];
    Request r;
    r.repeat = (i / std::size(kSmall)) % 2 == 1;
    if (r.repeat) {
      r.system = mine[rng() % mine.size()];
    } else {
      r.system = std::make_shared<const PolynomialSystem>(make_system(kSmall[st], rng()));
      mine.push_back(r.system);
    }
    // Every row has degree >= d = 2, so 2^n paths always exist.
    const std::uint64_t paths_available = std::uint64_t{1} << kSmall[st].n;
    r.paths = std::min<std::uint64_t>(4 + (path_offset + i * 5) % 13, paths_available);
    w.requests.push_back(std::move(r));
  }
  for (std::size_t s = 0; s < std::size(kSmall); ++s)
    w.warmup.push_back(make_system(kSmall[s], mix_seed(seed, 0xa11ce + s)));
  return w;
}

Service::Config service_config(pe::obs::TraceLevel trace = pe::obs::TraceLevel::kOff) {
  Service::Config config;
  config.shards = 2;
  config.workers_per_shard = 1;
  config.trace = trace;
  return config;
}

/// Construct a service and warm it: one short request per structure
/// (cancelled after one round) builds the SystemCache entry, the tuned
/// geometry and the group's evaluators before any timed request.
std::unique_ptr<Service> build_service(const Workload& w, bool cold, SetupCost& cost,
                                       pe::obs::TraceLevel trace = pe::obs::TraceLevel::kOff) {
  auto& tuner = pe::tune::Autotuner::global();
  if (cold) tuner.cache().clear();
  const std::size_t misses0 = tuner.misses();
  const double cpu0 = process_cpu_s();
  auto svc = std::make_unique<Service>(service_config(trace));
  std::vector<pe::service::SolveTicket<double>> tickets;
  for (const auto& sys : w.warmup)
    tickets.push_back(svc->submit({sys, request_options(1), {}, /*round_budget=*/1, 0.0}));
  svc->drain();
  cost.seconds = process_cpu_s() - cpu0;
  cost.probes = tuner.misses() - misses0;
  for (const auto& t : tickets)
    if (!t.done()) throw std::runtime_error("warm-up request did not complete");
  return svc;
}

/// Sample values of the service's Prometheus exposition, by series.
std::map<std::string, double> scrape(Service& svc) {
  std::ostringstream os;
  svc.metrics().expose(os);
  std::map<std::string, double> out;
  std::istringstream in(os.str());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return out;
}

/// Jacobian evaluations the trackers ran: one predictor evaluation per
/// accepted or rejected step plus one per applied Newton update.
double jacobian_evals(const std::map<std::string, double>& m) {
  const auto get = [&](const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  return get("polyeval_tracker_steps_accepted_total") +
         get("polyeval_tracker_steps_rejected_total") +
         get("polyeval_newton_iterations_total");
}

struct Completed {
  std::size_t index = 0;
  Report report;
};

struct LoopOut {
  std::uint64_t attempted = 0, rejected = 0;
  std::vector<Completed> done;  ///< in completion order
  /// The measurement window: with several clients, the completions up
  /// to the moment the loop stopped submitting (the drain after it, with
  /// fewer requests in flight, is checked but not counted); with one
  /// client, exactly the quota requests, so a seed's rate always covers
  /// the same requests whatever the host's speed.
  std::size_t window_done = 0;
  std::uint64_t window_paths = 0;
  double window_wall_s = 0.0;
  double window_cpu_s = 0.0;  ///< process CPU time: every thread's work
  double window_evals = 0.0;  ///< Jacobian evaluations
  std::vector<double> wall_latency_ms;  ///< window requests, host wall clock
  /// Submit -> done on the service's modeled clock, for the first
  /// `quota` completions.  The schedule up to the quota is the same on
  /// every run, so these, the modeled clock and the resident set read
  /// at the quota repeat for one seed.
  std::vector<double> modeled_latency_ms;
  double quota_modeled_us = 0.0;
  double quota_rss_mb = 0.0;
};

/// The closed loop: keep `w.outstanding` requests in flight, submitting
/// the next one as soon as one completes, until `seconds` have passed
/// and the fixed quota has completed; then drain.  Submission never
/// stops before the quota completes, so the schedule up to it is the
/// same on every run.  Latency is submit -> the step after which the
/// ticket reads done.
LoopOut closed_loop(Service& svc, const Workload& w, double seconds, SpanLog* log) {
  struct Inflight {
    std::size_t index;
    pe::service::SolveTicket<double> ticket;
    Clock::time_point submitted;
    double submitted_modeled_us;
  };
  LoopOut out;
  std::vector<Inflight> inflight;
  std::size_t next = 0;
  bool submitting = true;
  const double evals0 = jacobian_evals(scrape(svc));
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const bool per_quota = w.outstanding == 1;
  const auto close_window = [&] {
    out.window_cpu_s = process_cpu_s() - cpu0;
    out.window_wall_s = seconds_since(t0);
    out.window_evals = jacobian_evals(scrape(svc)) - evals0;
    out.window_done = out.done.size();
  };
  for (;;) {
    if (submitting && out.done.size() >= w.quota && seconds_since(t0) >= seconds) {
      submitting = false;
      if (!per_quota) close_window();
    }
    while (submitting && inflight.size() < w.outstanding) {
      const Request& rq = w.requests[next % w.requests.size()];
      const std::size_t index = next++;
      ++out.attempted;
      const auto submitted = Clock::now();
      const double submitted_modeled_us = svc.stats().total_modeled_us;
      pe::service::SolveTicket<double> ticket;
      {
        ScopedSpan span(log, rq.repeat ? "service.submit_hit" : "service.submit_miss");
        ticket = svc.submit({*rq.system, request_options(rq.paths), {}, 0, 0.0});
      }
      if (!ticket.admitted()) {
        ++out.rejected;
        continue;
      }
      inflight.push_back({index, std::move(ticket), submitted, submitted_modeled_us});
    }
    if (inflight.empty()) break;
    {
      ScopedSpan span(log, "service.step");
      svc.step();
    }
    const auto now = Clock::now();
    double modeled_now_us = -1.0;
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (!it->ticket.done()) {
        ++it;
        continue;
      }
      if (per_quota ? out.done.size() < w.quota : submitting) {
        out.wall_latency_ms.push_back(
            std::chrono::duration<double, std::milli>(now - it->submitted).count());
        out.window_paths += it->ticket.report().attempted;
      }
      out.done.push_back({it->index, it->ticket.report()});
      if (per_quota && out.done.size() == w.quota) close_window();
      if (out.done.size() <= w.quota) {
        if (modeled_now_us < 0.0) modeled_now_us = svc.stats().total_modeled_us;
        out.modeled_latency_ms.push_back((modeled_now_us - it->submitted_modeled_us) * 1e-3);
        if (out.done.size() == w.quota) {
          out.quota_modeled_us = modeled_now_us;
          out.quota_rss_mb = peak_rss_mb();
        }
      }
      it = inflight.erase(it);
    }
  }
  return out;
}

/// Re-check every request's report: the path count, and the residual of
/// every converged endpoint in quad-double.  Returns the failed count.
std::uint64_t check_reports(const Workload& w, const std::vector<Completed>& done,
                            Result& result, double& worst_residual) {
  std::unordered_map<const PolynomialSystem*, std::unique_ptr<QdResidual>> checkers;
  std::uint64_t failed = 0;
  for (const auto& c : done) {
    const Request& rq = w.requests[c.index % w.requests.size()];
    bool ok = c.report.paths.size() == rq.paths;
    auto& checker = checkers[rq.system.get()];
    if (!checker) checker = std::make_unique<QdResidual>(*rq.system);
    for (const auto& p : c.report.paths) {
      if (p.status != pe::homotopy::PathStatus::kConverged) continue;
      const double r = checker->residual(std::span<const pe::cplx::Complex<double>>(p.solution));
      if (!(r <= worst_residual)) worst_residual = r;
      if (!(r <= kEndpointResidualBound)) ok = false;
    }
    if (!ok) {
      ++failed;
      if (failed <= 3)
        result.fail_check("request " + std::to_string(c.index) +
                          ": path count or quad-double endpoint residual");
    }
  }
  return failed;
}

void digest_report(Digest& d, const Report& r) {
  d.add(std::uint64_t{r.paths.size()});
  for (const auto& p : r.paths) {
    d.add(static_cast<std::uint64_t>(p.status));
    d.add(std::uint64_t{p.steps});
    d.add(std::uint64_t{p.rejections});
    d.add(std::uint64_t{p.winding});
    d.add(p.final_residual);
    for (const auto& z : p.solution) d.add(z);
  }
}

}  // namespace

PolynomialSystem track_system(std::uint64_t seed, std::uint64_t i) {
  return make_system(kTable1Dim16, mix_seed(seed, 0x7ac0000 + i));
}

pe::solve::Options request_options(std::uint64_t paths) {
  pe::solve::Options opt;
  opt.sharding.max_paths = paths;
  opt.tracking.track.max_steps = 3000;
  return opt;
}

SetupCost service_setup_cost(std::uint64_t seed, bool tracking, bool cold) {
  SetupCost cost;
  (void)build_service(make_workload(seed, tracking), cold, cost);
  return cost;
}

Result run_service_workload(const Args& args, bool tracking) {
  Result result;
  const Workload w = make_workload(args.seed, tracking);

  Digest inputs;
  for (std::size_t i = 0; i < w.quota; ++i) {
    inputs.add(*w.requests[i].system);
    inputs.add(w.requests[i].paths);
  }
  result.inputs_digest = inputs.hex();

  std::vector<double> setup_s;
  std::unique_ptr<Service> svc;
  for (unsigned rep = 0; rep < kSetupRepeats; ++rep) {
    svc.reset();
    SetupCost cost;
    svc = build_service(w, /*cold=*/true, cost);
    setup_s.push_back(cost.seconds);
  }

  LoopOut loop;
  try {
    loop = closed_loop(*svc, w, args.seconds, nullptr);
  } catch (const std::exception& e) {
    result.fail_check(std::string("service threw: ") + e.what());
    return result;
  }

  double worst_residual = 0.0;
  const std::uint64_t check_failed = check_reports(w, loop.done, result, worst_residual);
  result.attempted = loop.attempted;
  result.failed = loop.rejected + check_failed;
  if (loop.rejected > 0) result.fail_check(std::to_string(loop.rejected) + " requests rejected");

  // Fixed quota: the first w.quota requests, in request order.
  std::vector<const Report*> quota(w.quota, nullptr);
  for (const auto& c : loop.done)
    if (c.index < w.quota) quota[c.index] = &c.report;
  Digest out_digest, first_digest;
  std::uint64_t quota_paths = 0, quota_classified = 0;
  for (std::size_t i = 0; i < w.quota; ++i) {
    if (quota[i] == nullptr) {
      result.fail_check("quota request " + std::to_string(i) + " did not complete");
      continue;
    }
    digest_report(out_digest, *quota[i]);
    if (i == 0) digest_report(first_digest, *quota[i]);
    quota_paths += quota[i]->attempted;
    quota_classified += quota[i]->classified();
  }
  result.output_digest = out_digest.hex();
  const double solved_frac =
      quota_paths > 0 ? static_cast<double>(quota_classified) / static_cast<double>(quota_paths)
                      : 0.0;
  const double modeled_ms = loop.quota_modeled_us * 1e-3;

  const auto tail = tail_latency(loop.modeled_latency_ms);
  result.add("setup_s", median(setup_s), "s");
  result.add("solves_per_cpu_s", static_cast<double>(loop.window_done) / loop.window_cpu_s,
             "1/cpu_s");
  result.add("latency_p50_ms", median(loop.modeled_latency_ms), "modeled_ms");
  result.add("latency_tail_ms", tail.value, "modeled_ms");
  result.add("paths_per_cpu_s", static_cast<double>(loop.window_paths) / loop.window_cpu_s,
             "1/cpu_s");
  result.add("evals_per_cpu_s", loop.window_evals / loop.window_cpu_s, "1/cpu_s");
  result.add("modeled_makespan_ms", modeled_ms, "modeled_ms");
  result.add("solved_frac", solved_frac, "fraction");
  result.add("peak_rss_mb", loop.quota_rss_mb, "MB");

  result.add_fixed("modeled_makespan_ms", modeled_ms, "modeled_ms");
  result.add_fixed("solved_frac", solved_frac, "fraction");
  result.add_fixed("quota_paths", static_cast<double>(quota_paths), "count");
  result.add_fixed("first_request_digest", static_cast<double>(first_digest.value() >> 11),
                   "digest");

  const auto wall_tail = tail_latency(loop.wall_latency_ms);
  char line[400];
  std::snprintf(line, sizeof(line),
                "closed loop, %u outstanding: %zu requests in the %.3f s window (%zu in all), "
                "%.3f process CPU s; modeled latency tail = %s",
                w.outstanding, loop.window_done, loop.window_wall_s, loop.done.size(),
                loop.window_cpu_s, describe(tail).c_str());
  result.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "host wall (not gated): %.4g solves/s, %.4g paths/s, latency p50 %.4g ms, "
                "tail %.4g ms (%s)",
                static_cast<double>(loop.window_done) / loop.window_wall_s,
                static_cast<double>(loop.window_paths) / loop.window_wall_s,
                median(loop.wall_latency_ms), wall_tail.value, describe(wall_tail).c_str());
  result.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "check: worst quad-double endpoint residual %.3g (bound %.0e)", worst_residual,
                kEndpointResidualBound);
  result.notes.push_back(line);
  return result;
}

double service_layers(const Args& args, double budget_s, SpanLog* log, Result* out) {
  Workload w = make_workload(args.seed, /*tracking=*/false);
  w.quota = 24;  // the layer figures need a few dozen requests, not the full quota
  SetupCost cost;
  auto svc = build_service(w, /*cold=*/false, cost);
  const auto before = svc->stats();
  const LoopOut loop = closed_loop(*svc, w, budget_s, log);
  const auto after = svc->stats();
  const double rate = static_cast<double>(loop.window_done) / loop.window_cpu_s;
  if (out == nullptr) return rate;

  out->attempted += loop.attempted;
  out->failed += loop.rejected;
  std::vector<double> queue_ms;
  for (const auto& c : loop.done) queue_ms.push_back(c.report.timing.queue_wall_us * 1e-3);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses = static_cast<double>(after.cache_misses - before.cache_misses);
  const double shard_rounds = static_cast<double>(after.shard_rounds - before.shard_rounds);
  out->add("service.submit_hit_us", median(log->durations_us("service.submit_hit")), "us");
  out->add("service.submit_miss_us", median(log->durations_us("service.submit_miss")), "us");
  out->add("service.step_us", median(log->durations_us("service.step")), "us");
  out->add("service.queue_wait_ms_p50", median(queue_ms), "ms");
  out->add("service.coalesced_round_frac",
           static_cast<double>(after.coalesced_rounds - before.coalesced_rounds) / shard_rounds,
           "fraction");
  out->add("service.cache_hit_ratio", hits / (hits + misses), "fraction");
  out->add("service.steals", static_cast<double>(after.live_steals - before.live_steals),
           "count");
  return rate;
}

void obs_layers(const Args& args, Result& out) {
  // The stream's first 24 requests on fresh warm services, alternating
  // the tracer off and at kRounds; the overhead is the ratio of the
  // medians of their process CPU time.
  Workload w = make_workload(args.seed, /*tracking=*/false);
  w.quota = 24;
  std::vector<double> off_s, on_s;
  for (int rep = 0; rep < 2; ++rep) {
    for (const auto level : {pe::obs::TraceLevel::kOff, pe::obs::TraceLevel::kRounds}) {
      SetupCost cost;
      auto svc = build_service(w, /*cold=*/false, cost, level);
      const LoopOut loop = closed_loop(*svc, w, 0.0, nullptr);
      (level == pe::obs::TraceLevel::kOff ? off_s : on_s).push_back(loop.window_cpu_s);
      out.attempted += loop.attempted;
      out.failed += loop.rejected;
      if (level == pe::obs::TraceLevel::kRounds && rep == 1) {
        std::vector<double> scrape_us;
        for (int s = 0; s < 21; ++s) {
          const auto t0 = Clock::now();
          std::ostringstream os;
          svc->metrics().expose(os);
          scrape_us.push_back(seconds_since(t0) * 1e6);
        }
        out.add("obs.scrape_us", median(scrape_us), "us");
      }
    }
  }
  out.add("obs.trace_overhead_frac", median(on_s) / median(off_s) - 1.0, "fraction");
}

}  // namespace perfbench
