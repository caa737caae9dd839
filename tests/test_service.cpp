// The persistent solve service: cross-request coalescing onto shared
// lockstep rounds with bitwise parity against standalone solves,
// structure-keyed caching (colliding hashes must never alias), work
// stealing between shards, cooperative cancellation and deadlines,
// admission control verdicts, and the async submit/poll/cancel surface
// (the TSan job drives the threaded test).

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "homotopy/solver.hpp"
#include "poly/random_system.hpp"
#include "service/solve_service.hpp"

namespace {

using namespace polyeval;

poly::PolynomialSystem small_system(std::uint32_t seed, unsigned dimension = 3) {
  poly::SystemSpec spec;
  spec.dimension = dimension;
  spec.monomials_per_polynomial = 3;
  spec.variables_per_monomial = 2;
  spec.max_exponent = 2;
  spec.seed = seed;
  return poly::make_random_system(spec);
}

solve::Options small_options(std::uint64_t max_paths = 6) {
  solve::Options opt;
  opt.sharding.max_paths = max_paths;
  opt.tracking.track.max_steps = 4000;
  return opt;
}

/// The standalone reference: the CPU solver, which shares no loop or
/// evaluator with the service and computes the device kernels' bits.
homotopy::SolveSummary<double> standalone(const poly::PolynomialSystem& sys,
                                          const solve::Options& opt) {
  return homotopy::solve_total_degree<double>(sys, opt);
}

/// Parses the Prometheus exposition text for one histogram family and
/// returns its p99 as the upper bound of the bucket containing the
/// 99th-percentile observation (cumulative `le` semantics).  This is
/// the same quantile a scrape-side `histogram_quantile` would report,
/// so gating on it exercises the surface operators actually watch.
double histogram_p99_from_exposition(const std::string& text,
                                     const std::string& family) {
  const std::string prefix = family + "_bucket{le=\"";
  std::istringstream in(text);
  std::string line;
  std::vector<std::pair<double, std::uint64_t>> cumulative;  // (bound, count<=)
  std::uint64_t total = 0;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t close = line.find('"', prefix.size());
    const std::string le = line.substr(prefix.size(), close - prefix.size());
    const double bound = le == "+Inf"
                             ? std::numeric_limits<double>::infinity()
                             : std::stod(le);
    const std::uint64_t cum = std::stoull(line.substr(line.find('}') + 1));
    cumulative.emplace_back(bound, cum);
    total = std::max(total, cum);
  }
  if (total == 0) return 0.0;
  const auto need = static_cast<std::uint64_t>(
      std::ceil(0.99 * static_cast<double>(total)));
  for (const auto& [bound, cum] : cumulative)
    if (cum >= std::max<std::uint64_t>(need, 1)) return bound;
  return std::numeric_limits<double>::infinity();
}

void expect_paths_bitwise_equal(const std::vector<homotopy::TrackResult<double>>& a,
                                const std::vector<homotopy::TrackResult<double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].status, b[p].status) << "path " << p;
    EXPECT_EQ(a[p].steps, b[p].steps) << "path " << p;
    EXPECT_EQ(a[p].rejections, b[p].rejections) << "path " << p;
    EXPECT_EQ(a[p].endgame_failures, b[p].endgame_failures) << "path " << p;
    EXPECT_EQ(a[p].winding, b[p].winding) << "path " << p;
    EXPECT_EQ(a[p].final_residual, b[p].final_residual) << "path " << p;
    ASSERT_EQ(a[p].solution.size(), b[p].solution.size()) << "path " << p;
    for (std::size_t i = 0; i < a[p].solution.size(); ++i)
      EXPECT_EQ(cplx::max_abs_diff(a[p].solution[i], b[p].solution[i]), 0.0)
          << "path " << p << ", coordinate " << i;
  }
}

TEST(SolveService, CoalescesSameStructureRequestsWithBitwiseParity) {
  // Two systems, same uniform structure, different coefficients: they
  // must share lockstep rounds (coalesced_rounds observes it) and every
  // request's endpoints must match its standalone solve bit for bit.
  const auto sys_a = small_system(99);
  const auto sys_b = small_system(1234);
  const auto opt = small_options();

  service::SolveService<double>::Config config;
  config.shards = 2;
  service::SolveService<double> svc(std::move(config));

  auto ta = svc.submit({sys_a, opt, {}, 0, 0.0});
  auto tb = svc.submit({sys_b, opt, {}, 0, 0.0});
  ASSERT_TRUE(ta.admitted());
  ASSERT_TRUE(tb.admitted());
  svc.drain();
  ASSERT_TRUE(ta.done());
  ASSERT_TRUE(tb.done());

  const auto stats = svc.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_GE(stats.coalesced_rounds, 1u) << "requests never shared a round";
  EXPECT_GE(stats.max_tenants_in_round, 2u);
  EXPECT_EQ(stats.cache_misses, 2u);  // distinct coefficient tables

  expect_paths_bitwise_equal(ta.report().paths, standalone(sys_a, opt).paths);
  expect_paths_bitwise_equal(tb.report().paths, standalone(sys_b, opt).paths);

  // The report's tallies and progress surface agree with the paths.
  const auto& ra = ta.report();
  EXPECT_EQ(ra.attempted, 6u);
  EXPECT_EQ(ra.classified(), ra.successes() + ra.at_infinity());
  EXPECT_GT(ra.timing.rounds, 0u);
  EXPECT_GT(ra.timing.modeled_us, 0.0);
  const auto pa = ta.poll();
  EXPECT_EQ(pa.status, service::RequestStatus::kDone);
  EXPECT_EQ(pa.paths_retired, 6u);
}

TEST(SolveService, ModeledClockRewardsCoalescingOverSequentialSolves) {
  // The tentpole throughput claim at test scale: two same-structure
  // requests solved through one service (shared rounds amortize launch
  // overhead) must cost no more modeled device time than the same two
  // requests solved back to back through fresh services.
  const auto sys_a = small_system(99);
  const auto sys_b = small_system(1234);
  const auto opt = small_options();

  const auto run = [&](std::initializer_list<const poly::PolynomialSystem*> order) {
    service::SolveService<double>::Config config;
    config.shards = 2;
    service::SolveService<double> svc(std::move(config));
    for (const auto* sys : order) {
      auto t = svc.submit({*sys, opt, {}, 0, 0.0});
      EXPECT_TRUE(t.admitted());
    }
    svc.drain();
    return svc.stats().total_modeled_us;
  };

  const double batched = run({&sys_a, &sys_b});
  double sequential = 0.0;
  sequential += run({&sys_a});
  sequential += run({&sys_b});
  EXPECT_LE(batched, sequential);
}

TEST(SolveService, CollidingHashesNeverAliasDistinctStructures) {
  // A constant-hash SystemCache buckets everything together; the full
  // content scan must still keep distinct systems (here: different
  // dimensions) apart, and they must never coalesce into one group.
  const auto sys_a = small_system(99, 3);
  const auto sys_b = small_system(77, 4);

  service::SolveService<double>::Config config;
  config.shards = 2;
  config.hasher = [](const core::PackedSystem&) { return std::uint64_t{7}; };
  service::SolveService<double> svc(std::move(config));

  auto ta = svc.submit({sys_a, small_options(4), {}, 0, 0.0});
  auto tb = svc.submit({sys_b, small_options(4), {}, 0, 0.0});
  ASSERT_TRUE(ta.admitted());
  ASSERT_TRUE(tb.admitted());
  svc.drain();

  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache_misses, 2u);  // two entries despite one bucket
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_LE(stats.max_tenants_in_round, 1u) << "distinct structures coalesced";
  EXPECT_EQ(stats.coalesced_rounds, 0u);

  // Both still solve correctly against their own standalone runs.
  expect_paths_bitwise_equal(ta.report().paths,
                             standalone(sys_a, small_options(4)).paths);
  expect_paths_bitwise_equal(tb.report().paths,
                             standalone(sys_b, small_options(4)).paths);
}

TEST(SolveService, SystemCacheReusesEntriesAcrossRequests) {
  const auto sys = small_system(99);
  service::SolveService<double> svc;
  for (int i = 0; i < 3; ++i) {
    auto t = svc.submit({sys, small_options(4), {}, 0, 0.0});
    ASSERT_TRUE(t.admitted());
    svc.drain();
    ASSERT_TRUE(t.done());
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

TEST(SolveService, CancellationMidSolvePreservesSurvivorParity) {
  // Cancel request A after its first tracking tick; B keeps riding the
  // (now A-free) rounds and must stay bitwise equal to its standalone
  // solve.  A's paths all end kCancelled or already-classified.
  const auto sys_a = small_system(99);
  const auto sys_b = small_system(1234);
  const auto opt = small_options();

  service::SolveService<double>::Config config;
  config.shards = 2;
  service::SolveService<double> svc(std::move(config));
  auto ta = svc.submit({sys_a, opt, {}, 0, 0.0});
  auto tb = svc.submit({sys_b, opt, {}, 0, 0.0});
  ASSERT_TRUE(ta.admitted() && tb.admitted());

  (void)svc.step();  // both activate and ride one round
  ta.cancel();
  svc.drain();

  ASSERT_TRUE(ta.done());
  ASSERT_TRUE(tb.done());
  const auto& ra = ta.report();
  EXPECT_GE(ra.cancelled(), 1u) << "cancel arrived after completion";
  for (const auto& p : ra.paths)
    EXPECT_TRUE(p.status == homotopy::PathStatus::kCancelled || p.classified())
        << "cancelled request leaked status " << homotopy::to_string(p.status);
  EXPECT_GE(svc.stats().cancelled_requests, 1u);

  expect_paths_bitwise_equal(tb.report().paths, standalone(sys_b, opt).paths);
}

TEST(SolveService, DeadlineExpiryReportsCancelledNotDiverged) {
  // A one-tick round budget cannot finish this workload: the request
  // completes with kCancelled paths -- never kDiverged/kStalled, which
  // would misreport a scheduling decision as a numerical verdict.
  const auto sys = small_system(99);
  service::SolveService<double> svc;
  auto t = svc.submit({sys, small_options(), {}, /*round_budget=*/1, 0.0});
  ASSERT_TRUE(t.admitted());
  svc.drain();
  ASSERT_TRUE(t.done());

  const auto& r = t.report();
  EXPECT_GE(r.cancelled(), 1u);
  EXPECT_EQ(r.by_status[homotopy::PathStatus::kDiverged], 0u);
  EXPECT_EQ(r.by_status[homotopy::PathStatus::kStalled], 0u);
  for (const auto& p : r.paths)
    EXPECT_TRUE(p.status == homotopy::PathStatus::kCancelled || p.classified());
}

TEST(SolveService, AdmissionControlVerdicts) {
  const auto sys = small_system(99);

  {  // Affine solves belong to the one-shot API.
    service::SolveService<double> svc;
    auto opt = small_options();
    opt.tracking.geometry = solve::Geometry::kAffine;  // projective only
    auto t = svc.submit({sys, opt, {}, 0, 0.0});
    EXPECT_EQ(t.verdict(), service::AdmissionVerdict::kInvalid);
    EXPECT_TRUE(t.done());
    EXPECT_EQ(t.poll().status, service::RequestStatus::kRejected);
    EXPECT_THROW((void)t.report(), std::logic_error);

    opt = small_options();
    opt.sharding.shards = 0;  // fails Options::validate
    EXPECT_EQ(svc.submit({sys, opt, {}, 0, 0.0}).verdict(),
              service::AdmissionVerdict::kInvalid);
  }
  {  // Path budget.
    service::SolveService<double>::Config config;
    config.max_paths_per_request = 2;
    service::SolveService<double> svc(std::move(config));
    auto t = svc.submit({sys, small_options(6), {}, 0, 0.0});
    EXPECT_EQ(t.verdict(), service::AdmissionVerdict::kPathBudgetExceeded);
    EXPECT_EQ(svc.stats().rejected_budget, 1u);
    // Trimmed under the budget, the same system is admitted.
    EXPECT_TRUE(svc.submit({sys, small_options(2), {}, 0, 0.0}).admitted());
  }
  {  // Bounded queue backpressure.
    service::SolveService<double>::Config config;
    config.max_queued = 1;
    service::SolveService<double> svc(std::move(config));
    auto t1 = svc.submit({sys, small_options(2), {}, 0, 0.0});
    auto t2 = svc.submit({sys, small_options(2), {}, 0, 0.0});
    EXPECT_TRUE(t1.admitted());
    EXPECT_EQ(t2.verdict(), service::AdmissionVerdict::kQueueFull);
    EXPECT_EQ(svc.stats().rejected_queue_full, 1u);
    svc.drain();  // the admitted one still completes
    EXPECT_TRUE(t1.done());
  }
}

TEST(SolveService, StealsLivePathsIntoIdleShards) {
  // 5 paths over 2 shards with 4 slots each: shard 0 fills to 4, shard
  // 1 gets 1, the pending queue is empty -- the very first rebalance
  // must move a path (4,1) -> (3,2), and endpoints stay bitwise equal
  // to the standalone solve (trajectories are schedule-independent).
  const auto sys = small_system(99);
  const auto opt = small_options(5);

  service::SolveService<double>::Config config;
  config.shards = 2;
  config.slots_per_shard = 4;
  service::SolveService<double> svc(std::move(config));
  auto t = svc.submit({sys, opt, {}, 0, 0.0});
  ASSERT_TRUE(t.admitted());
  svc.drain();
  ASSERT_TRUE(t.done());

  EXPECT_GE(svc.stats().live_steals, 1u);
  expect_paths_bitwise_equal(t.report().paths, standalone(sys, opt).paths);
}

TEST(SolveService, FairnessLetsSmallRequestsFinishPastAHugeOne) {
  // The starvation scenario the fairness knob exists for: one huge
  // request and a chain of small ones share a group with scarce slots
  // (2 shards x 2) and scarce tenants (2).  FIFO fill parks every
  // small-request path behind the huge run's backlog, so the smalls
  // complete (and release their tenant to the next small) only near
  // the end of the huge solve.  Deficit-round-robin fill interleaves
  // them, so the last small finishes strictly earlier -- a
  // deterministic tick-count gate -- and the operator-visible
  // queue-wall p99 (existing obs histogram) must not get worse.
  // Endpoints stay bitwise equal either way: fairness shapes placement
  // order, never arithmetic.
  const auto huge_sys = small_system(7);
  const auto small_sys = small_system(4242);
  const auto huge_opt = small_options(48);
  const auto small_opt = small_options(2);
  constexpr std::size_t kSmalls = 4;

  struct Outcome {
    std::uint64_t last_small_done_tick = 0;
    double queue_wall_p99 = 0.0;
  };
  const auto run = [&](std::uint64_t fairness) {
    service::SolveService<double>::Config config;
    config.shards = 2;
    config.slots_per_shard = 2;
    config.max_tenants = 2;
    config.fairness = fairness;
    service::SolveService<double> svc(std::move(config));

    auto huge = svc.submit({huge_sys, huge_opt, {}, 0, 0.0});
    std::array<service::SolveTicket<double>, kSmalls> smalls;
    for (auto& t : smalls) t = svc.submit({small_sys, small_opt, {}, 0, 0.0});
    EXPECT_TRUE(huge.admitted());
    for (auto& t : smalls) EXPECT_TRUE(t.admitted());

    Outcome out;
    std::array<std::uint64_t, kSmalls> done_tick{};
    std::uint64_t tick = 0;
    bool more = true;
    while (more) {
      more = svc.step();
      ++tick;
      for (std::size_t i = 0; i < kSmalls; ++i)
        if (done_tick[i] == 0 && smalls[i].done()) done_tick[i] = tick;
    }
    EXPECT_TRUE(huge.done());
    for (std::size_t i = 0; i < kSmalls; ++i) {
      EXPECT_TRUE(smalls[i].done());
      out.last_small_done_tick =
          std::max(out.last_small_done_tick, done_tick[i]);
    }
    // The premise: the huge request really dwarfs the smalls, so FIFO
    // has something to starve them behind.
    EXPECT_GE(huge.report().attempted, 16u);

    expect_paths_bitwise_equal(huge.report().paths,
                               standalone(huge_sys, huge_opt).paths);
    expect_paths_bitwise_equal(smalls[0].report().paths,
                               standalone(small_sys, small_opt).paths);

    std::ostringstream os;
    svc.metrics().expose(os);
    out.queue_wall_p99 = histogram_p99_from_exposition(
        os.str(), "polyeval_request_queue_wall_us");
    return out;
  };

  const Outcome fifo = run(0);
  const Outcome fair = run(1);
  EXPECT_LT(fair.last_small_done_tick, fifo.last_small_done_tick)
      << "deficit-round-robin fill must retire the small requests "
         "strictly before FIFO fill does";
  EXPECT_LE(fair.queue_wall_p99, fifo.queue_wall_p99)
      << "fairness must not worsen the queue-wall p99 the obs "
         "histogram reports";
}

TEST(SolveService, HeterogeneousFleetKeepsBitwiseParityAndChargesEveryDevice) {
  // A 2x-asymmetric fleet through the service front door: weights come
  // out 1.0 / 0.5, endpoints stay bitwise equal to the standalone
  // solve (weighted placement moves paths, never arithmetic), and the
  // per-device busy ledger shows both devices actually worked.
  const auto sys = small_system(99);
  const auto opt = small_options(6);

  service::SolveService<double>::Config config;
  config.specs = {simt::DeviceSpec::tesla_c2050(),
                  simt::DeviceSpec::tesla_c2050().derated(
                      0.5, "half-clock C2050 (simulated)")};
  service::SolveService<double> svc(std::move(config));

  ASSERT_EQ(svc.weights().size(), 2u);
  EXPECT_DOUBLE_EQ(svc.weights()[0], 1.0);
  EXPECT_DOUBLE_EQ(svc.weights()[1], 0.5);

  auto t = svc.submit({sys, opt, {}, 0, 0.0});
  ASSERT_TRUE(t.admitted());
  svc.drain();
  ASSERT_TRUE(t.done());

  expect_paths_bitwise_equal(t.report().paths, standalone(sys, opt).paths);

  const auto stats = svc.stats();
  ASSERT_EQ(stats.device_busy_us.size(), 2u);
  EXPECT_GT(stats.device_busy_us[0], 0.0)
      << "the fast device never ran a round";
  EXPECT_GT(stats.device_busy_us[1], 0.0)
      << "weighted fill starved the slow device entirely";
  // Weighted fill biases toward the fast device: it must carry at
  // least as much modeled busy time as the half-clock one earns
  // credit for.
  EXPECT_GE(stats.device_busy_us[0], stats.device_busy_us[1] * 0.5);
}

TEST(SolveService, AsyncSubmitPollCancelFromClientThreads) {
  // The concurrency surface the TSan job exercises: a background
  // scheduler thread ticking rounds while client threads submit, poll
  // and cancel through tickets.
  const auto sys_a = small_system(99);
  const auto sys_b = small_system(1234);
  const auto opt = small_options(4);

  service::SolveService<double>::Config config;
  config.shards = 2;
  config.async = true;
  service::SolveService<double> svc(std::move(config));

  std::vector<service::SolveTicket<double>> tickets(3);
  std::thread client_a([&] {
    tickets[0] = svc.submit({sys_a, opt, {}, 0, 0.0});
    while (!tickets[0].done()) std::this_thread::yield();
  });
  std::thread client_b([&] {
    tickets[1] = svc.submit({sys_b, opt, {}, 0, 0.0});
    tickets[2] = svc.submit({sys_a, opt, {}, 0, 0.0});
    tickets[2].cancel();  // may land before or after completion: both legal
    while (!tickets[1].done() || !tickets[2].done()) std::this_thread::yield();
  });
  client_a.join();
  client_b.join();
  svc.wait_idle();

  for (auto& t : tickets) {
    ASSERT_TRUE(t.valid());
    ASSERT_TRUE(t.admitted());
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.report().attempted, t.poll().paths_total);
  }
  // The un-cancelled requests still match their standalone solves.
  expect_paths_bitwise_equal(tickets[0].report().paths,
                             standalone(sys_a, opt).paths);
  expect_paths_bitwise_equal(tickets[1].report().paths,
                             standalone(sys_b, opt).paths);
}

TEST(SolveService, MetricsExpositionCoversEveryInstrumentedLayer) {
  // One multi-request run (two admitted + one rejected) must leave
  // nonzero samples from EVERY instrumented layer on the exposition
  // page: service admission/lifecycle, scheduler rounds, the lockstep
  // tracker, the Newton layer, the caches and the per-kernel launch
  // accounting.  This is the contract consumers scrape against.
  service::SolveService<double>::Config config;
  config.shards = 2;
  config.max_paths_per_request = 8;
  service::SolveService<double> svc(std::move(config));

  auto ta = svc.submit({small_system(99), small_options(), {}, 0, 0.0});
  auto tb = svc.submit({small_system(1234), small_options(), {}, 0, 0.0});
  ASSERT_TRUE(ta.admitted());
  ASSERT_TRUE(tb.admitted());
  // Over the per-request path budget: rejected at admission.
  auto tr = svc.submit({small_system(7), small_options(16), {}, 0, 0.0});
  EXPECT_EQ(tr.verdict(), service::AdmissionVerdict::kPathBudgetExceeded);
  svc.drain();
  ASSERT_TRUE(ta.done());
  ASSERT_TRUE(tb.done());

  std::ostringstream os;
  svc.metrics().expose(os);
  const std::string text = os.str();

  const auto sample = [&](const std::string& name) {
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
      if (line.rfind(name + " ", 0) == 0)
        return std::stod(line.substr(name.size() + 1));
    ADD_FAILURE() << "sample '" << name << "' missing from exposition";
    return -1.0;
  };

  // Service lifecycle + admission.
  EXPECT_EQ(sample("polyeval_requests_submitted_total"), 3.0);
  EXPECT_EQ(sample("polyeval_requests_admitted_total"), 2.0);
  EXPECT_EQ(sample("polyeval_requests_completed_total"), 2.0);
  EXPECT_EQ(sample("polyeval_requests_rejected_total"
                   "{reason=\"path_budget_exceeded\"}"), 1.0);
  EXPECT_GT(sample("polyeval_service_ticks_total"), 0.0);
  EXPECT_GT(sample("polyeval_shard_rounds_total"), 0.0);
  EXPECT_GT(sample("polyeval_queue_pulls_total"), 0.0);
  EXPECT_GT(sample("polyeval_modeled_us_total"), 0.0);
  EXPECT_EQ(sample("polyeval_request_queue_wall_us_count"), 2.0);

  // Tracker layer.
  EXPECT_GT(sample("polyeval_tracker_rounds_total"), 0.0);
  EXPECT_GT(sample("polyeval_tracker_steps_accepted_total"), 0.0);
  EXPECT_EQ(sample("polyeval_paths_retired_total{status=\"converged\"}") +
                sample("polyeval_paths_retired_total{status=\"at_infinity\"}") +
                sample("polyeval_paths_retired_total{status=\"stalled\"}") +
                sample("polyeval_paths_retired_total{status=\"diverged\"}") +
                sample("polyeval_paths_retired_total{status=\"cancelled\"}"),
            12.0);
  EXPECT_EQ(sample("polyeval_path_steps_count"), 12.0);
  // Endgame: with no cancellation every armed attempt ends closed, lost
  // or exhausted.
  EXPECT_EQ(sample("polyeval_endgame_entries_total"),
            sample("polyeval_endgame_attempts_total{outcome=\"closed\"}") +
                sample("polyeval_endgame_attempts_total{outcome=\"lost\"}") +
                sample("polyeval_endgame_attempts_total{outcome=\"exhausted\"}"));
  EXPECT_GT(sample("polyeval_endgame_entries_total"), 0.0);
  EXPECT_GT(sample("polyeval_endgame_samples_total"), 0.0);

  // Newton layer: the per-path histogram observes each finished Newton
  // solve once -- every corrector (one per accepted or rejected step),
  // every circle sample, and at most one polish per path.  Newton work
  // has no call counter of its own: it rides the evaluation rounds.
  EXPECT_GT(sample("polyeval_newton_iterations_total"), 0.0);
  const double solves = sample("polyeval_newton_iterations_per_path_count");
  const double correctors_and_samples =
      sample("polyeval_tracker_steps_accepted_total") +
      sample("polyeval_tracker_steps_rejected_total") +
      sample("polyeval_endgame_samples_total");
  EXPECT_GE(solves, correctors_and_samples);
  EXPECT_LE(solves, correctors_and_samples + 12.0);
  EXPECT_EQ(text.find("polyeval_newton_calls_total"), std::string::npos);

  // Caches (gauges refreshed by metrics()).  Admission resolves the
  // cache entry BEFORE the path-budget check, so the rejected request's
  // distinct system also counts one miss: three in total.
  EXPECT_EQ(sample("polyeval_system_cache_misses"), 3.0);
  EXPECT_EQ(sample("polyeval_service_queue_depth"), 0.0);
  EXPECT_EQ(sample("polyeval_service_active_requests"), 0.0);

  // Per-kernel launch accounting + DMA directions.
  EXPECT_NE(text.find("polyeval_kernel_launches_total{kernel="),
            std::string::npos);
  EXPECT_NE(text.find("polyeval_kernel_modeled_us_total{kernel="),
            std::string::npos);
  EXPECT_GT(sample("polyeval_dma_bytes_total{direction=\"h2d\"}"), 0.0);
  EXPECT_GT(sample("polyeval_dma_bytes_total{direction=\"d2h\"}"), 0.0);

  // The per-request scheduling metrics surface in the report too.
  EXPECT_GT(ta.report().metrics.queue_pulls, 0u);
  EXPECT_GE(ta.report().metrics.peak_tenants, 1u);
}

}  // namespace
