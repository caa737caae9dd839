// Allocation-counting regression tests: the evaluation hot path must be
// allocation-free in steady state.  The global operator new/delete are
// replaced with counting versions, warm-up calls size every persistent
// buffer (engine scratch, race journals, staging vectors), and then the
// measured region asserts the allocator was never touched -- including
// by the pool's worker threads, which share the global counter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/batch_evaluator.hpp"
#include "core/fused_evaluator.hpp"
#include "core/pipelined_evaluator.hpp"
#include "core/sharded_evaluator.hpp"
#include "homotopy/batch_tracker.hpp"
#include "homotopy/start_system.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "poly/random_system.hpp"
#include "simt/thread_pool.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace polyeval;
using Cd = cplx::Complex<double>;

poly::PolynomialSystem make_system(unsigned n, unsigned m, unsigned k, unsigned d) {
  poly::SystemSpec spec;
  spec.dimension = n;
  spec.monomials_per_polynomial = m;
  spec.variables_per_monomial = k;
  spec.max_exponent = d;
  spec.seed = 1234;
  return poly::make_random_system(spec);
}

std::vector<std::vector<Cd>> make_points(unsigned batch, unsigned dim) {
  std::vector<std::vector<Cd>> points;
  for (unsigned p = 0; p < batch; ++p)
    points.push_back(poly::make_random_point<double>(dim, 900 + p));
  return points;
}

TEST(ZeroAlloc, ParallelForDoesNotAllocatePerIndex) {
  simt::ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  // warm-up (thread creation happened in the constructor)
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });

  const std::uint64_t before = g_allocations.load();
  pool.parallel_for(100000, [&](std::size_t i) { sum.fetch_add(i); });
  pool.parallel_for_chunked(100000, 64, [&](std::size_t i) { sum.fetch_add(i); });
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "parallel_for allocated " << (after - before) << " times for 200k indices";
}

TEST(ZeroAlloc, BatchEvaluatorSteadyStateEvaluate) {
  const auto sys = make_system(8, 6, 4, 3);
  simt::Device device;
  core::BatchGpuEvaluator<double> gpu(device, sys, 4);
  const auto points = make_points(4, 8);
  std::vector<poly::EvalResult<double>> results;

  // Warm-up: sizes the staging vectors, the engine scratch, the race
  // journals and the log.
  for (int i = 0; i < 3; ++i) {
    device.clear_log();
    gpu.evaluate(points, results);
  }

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10; ++i) {
    device.clear_log();  // keeps capacity; long-running users do the same
    gpu.evaluate(points, results);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state BatchGpuEvaluator::evaluate allocated " << (after - before)
      << " times over 10 calls";
}

TEST(ZeroAlloc, FusedEvaluatorSteadyStateEvaluate) {
  const auto sys = make_system(8, 6, 4, 3);
  simt::Device device;
  core::FusedGpuEvaluator<double> gpu(device, sys, 4);
  const auto points = make_points(4, 8);
  std::vector<poly::EvalResult<double>> results;

  for (int i = 0; i < 3; ++i) {
    device.clear_log();
    gpu.evaluate(points, results);
  }

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10; ++i) {
    device.clear_log();
    gpu.evaluate(points, results);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state FusedGpuEvaluator::evaluate allocated " << (after - before)
      << " times over 10 calls";
}

TEST(ZeroAlloc, ShardedEvaluatorSteadyStateEvaluate) {
  // The sharding layer preserves the guarantee end to end: the manager
  // pool's chunk cursor, the per-shard staging, every device's engine
  // scratch (pre-warmed at construction) and the merged log all stay
  // off the allocator in steady state -- under BOTH schedules, so the
  // nondeterministic claim patterns of work stealing cannot smuggle an
  // allocation in.
  const auto sys = make_system(8, 6, 4, 3);
  for (const auto schedule :
       {core::ShardSchedule::kWorkStealing, core::ShardSchedule::kStatic}) {
    core::ShardedEvaluator<double>::Options opt;
    opt.shards = 2;
    opt.workers_per_shard = 1;
    opt.chunk_points = 2;
    opt.schedule = schedule;
    core::ShardedEvaluator<double> sharded(sys, opt);
    const auto points = make_points(8, 8);
    std::vector<poly::EvalResult<double>> results;

    for (int i = 0; i < 5; ++i) sharded.evaluate(points, results);

    const std::uint64_t before = g_allocations.load();
    for (int i = 0; i < 10; ++i) sharded.evaluate(points, results);
    const std::uint64_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u)
        << "steady-state ShardedEvaluator::evaluate allocated " << (after - before)
        << " times over 10 calls (schedule "
        << (schedule == core::ShardSchedule::kStatic ? "static" : "stealing") << ")";
  }
}

TEST(ZeroAlloc, PipelinedEvaluatorSteadyStateEvaluate) {
  // The stream pipeline preserves the guarantee: the double-buffered
  // staging, the stream logs/timelines (reset keeps capacity), the
  // event stamps and the engine clocks are all allocation-free once the
  // warm-up calls have sized them.
  const auto sys = make_system(8, 6, 4, 3);
  simt::Device device;
  core::PipelinedFusedEvaluator<double>::Options opt;
  opt.micro_chunk = 3;  // partial tail chunk: 3 + 3 + 2
  core::PipelinedFusedEvaluator<double> gpu(device, sys, 8, opt);
  const auto points = make_points(8, 8);
  std::vector<poly::EvalResult<double>> results;

  for (int i = 0; i < 3; ++i) {
    device.clear_log();
    gpu.evaluate(points, results);
  }

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10; ++i) {
    device.clear_log();
    gpu.evaluate(points, results);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state PipelinedFusedEvaluator::evaluate allocated "
      << (after - before) << " times over 10 calls";
}

TEST(ZeroAlloc, FusedValuesRangeSteadyState) {
  // The values-only fused path shares the zero-alloc guarantee: staging,
  // the values buffer and the kernel are all constructor-built.
  const auto sys = make_system(8, 6, 4, 3);
  simt::Device device;
  core::FusedGpuEvaluator<double> gpu(device, sys, 4);
  const auto points = make_points(4, 8);
  std::vector<Cd> values(4 * 8);

  for (int i = 0; i < 3; ++i) {
    device.clear_log();
    gpu.evaluate_values_range(points, 0, 4, std::span<Cd>(values));
  }

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10; ++i) {
    device.clear_log();
    gpu.evaluate_values_range(points, 0, 4, std::span<Cd>(values));
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state evaluate_values_range allocated " << (after - before)
      << " times over 10 calls";
}

TEST(ZeroAlloc, BatchPathTrackerSteadyStateRounds) {
  // The lockstep tracker's rounds -- one launch of every live path's
  // predictor, corrector iteration, polish or stall probe, LU arena
  // solves and live-set compaction -- must all run off pre-sized
  // storage.  A first full run warms every buffer (and the device's
  // collector scratch); the second run's rounds are then measured end
  // to end.
  poly::SystemSpec spec;
  spec.dimension = 3;
  spec.monomials_per_polynomial = 3;
  spec.variables_per_monomial = 2;
  spec.max_exponent = 2;
  spec.seed = 99;
  const auto sys = poly::make_random_system(spec);
  const homotopy::TotalDegreeStart start(sys);
  const auto gamma = homotopy::random_gamma(42);

  std::vector<std::vector<Cd>> roots;
  for (std::uint64_t p = 0; p < 4; ++p) {
    const auto rd = start.start_root(p);
    std::vector<Cd> r;
    for (const auto& z : rd) r.push_back(z);
    roots.push_back(std::move(r));
  }

  simt::Device device;
  core::FusedGpuEvaluator<double> f(device, sys, 4);
  ad::CpuEvaluator<double> g(start.system());
  homotopy::TrackOptions topt;
  topt.max_steps = 4000;
  homotopy::BatchPathTracker<double, core::FusedGpuEvaluator<double>> tracker(
      device, f, g, gamma, topt, roots.size());

  tracker.start(roots, 0, roots.size());
  tracker.run();  // warm-up: sizes every buffer along the whole trajectory

  tracker.start(roots, 0, roots.size());
  const std::uint64_t before = g_allocations.load();
  tracker.run();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state lockstep rounds allocated " << (after - before)
      << " times over " << tracker.rounds() << " rounds";
  EXPECT_GT(tracker.rounds(), 1u);
}

/// Forwarding decorator over a batched homotopy that sorts each
/// launch's points by their parameter -- tracking (real t < 1), circle
/// sample (complex t), t = 1 -- and counts the launches holding all
/// three, allocation-free.
template <class Homo>
class PointKindHomotopy {
 public:
  using BatchedHomotopyTag = void;

  explicit PointKindHomotopy(Homo& h) : h_(h) {}

  [[nodiscard]] unsigned dimension() const noexcept { return h_.dimension(); }
  [[nodiscard]] std::size_t max_batch() const noexcept { return h_.max_batch(); }
  void evaluate_range(const std::vector<std::vector<Cd>>& points, std::span<const Cd> ts,
                      std::size_t first, std::size_t count, std::span<Cd> values,
                      std::span<Cd> jacobians) {
    bool tracking = false, sample = false, at_one = false;
    for (std::size_t i = first; i < first + count; ++i) {
      if (ts[i].im() != 0.0)
        sample = true;
      else if (ts[i].re() < 1.0)
        tracking = true;
      else
        at_one = true;
    }
    if (tracking && sample && at_one) ++mixed_launches;
    h_.evaluate_range(points, ts, first, count, values, jacobians);
  }
  void rhs_from_last(std::size_t i, std::span<Cd> out) const { h_.rhs_from_last(i, out); }
  void renormalize(std::span<Cd> z) const { h_.renormalize(z); }
  [[nodiscard]] double infinity_ratio(std::span<const Cd> z) const {
    return h_.infinity_ratio(z);
  }

  unsigned mixed_launches = 0;

 private:
  Homo& h_;
};

TEST(ZeroAlloc, ProjectiveBatchTrackerWithEndgameSteadyStateRounds) {
  // The projective lockstep rounds add the pullback staging, the lift
  // scratch, patch renormalization, the at-infinity probes and the
  // Cauchy endgame stage (circle samples, sample sums, closure tests
  // against the start point and earlier loop ends, attempt
  // bookkeeping) -- all must run off pre-sized storage, including the
  // rounds whose one launch mixes tracking points, circle samples and
  // t = 1 points.  The dim-3 workload drives several paths through the
  // endgame (the winding-2/3 endpoints) and one to an at-infinity
  // retirement.
  poly::SystemSpec spec;
  spec.dimension = 3;
  spec.monomials_per_polynomial = 3;
  spec.variables_per_monomial = 2;
  spec.max_exponent = 2;
  spec.seed = 99;
  const auto sys = poly::make_random_system(spec);
  const homotopy::TotalDegreeStart start(sys);
  const auto gamma = homotopy::random_gamma(20120102);
  const auto patch = homotopy::random_patch(4, 20120717);
  std::vector<Cd> patch_s(patch.begin(), patch.end());

  std::vector<std::vector<Cd>> roots;
  for (std::uint64_t p = 0; p < 6; ++p) {
    const auto rd = start.start_root(p);
    roots.push_back(homotopy::embed_in_patch<double>(
        std::span<const Cd>(std::vector<Cd>(rd.begin(), rd.end())),
        std::span<const Cd>(patch_s)));
  }

  simt::Device device;
  core::FusedGpuEvaluator<double> f(device, sys, 6);  // one launch per round
  using Fused =
      homotopy::BatchedProjectiveHomotopy<double, core::FusedGpuEvaluator<double>>;
  Fused h(f, sys, start.system(), gamma, std::span<const Cd>(patch));
  PointKindHomotopy<Fused> kinds(h);
  homotopy::TrackOptions topt;
  topt.max_steps = 4000;
  homotopy::BatchPathTracker<double, PointKindHomotopy<Fused>> tracker(device, kinds, topt,
                                                                      roots.size());
  // The endgame's outcome and sample counters ride along (registration
  // up front; every round's increments go through resolved handles).
  obs::MetricsRegistry registry;
  const obs::TrackerMetrics metrics = obs::TrackerMetrics::from_registry(registry);
  tracker.set_metrics(&metrics);

  tracker.start(roots, 0, roots.size());
  tracker.run();  // warm-up: sizes every buffer along the whole trajectory
  unsigned endgame_paths = 0, at_infinity = 0;
  for (std::size_t p = 0; p < roots.size(); ++p) {
    const auto r = tracker.result(p);
    if (r.winding > 0) ++endgame_paths;
    if (r.status == homotopy::PathStatus::kAtInfinity) ++at_infinity;
  }
  // The measured run must really exercise the endgame machinery.
  EXPECT_GE(endgame_paths, 1u);
  EXPECT_GE(at_infinity, 1u);

  kinds.mixed_launches = 0;
  tracker.start(roots, 0, roots.size());
  const std::uint64_t before = g_allocations.load();
  tracker.run();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state projective lockstep rounds (incl. endgame) allocated "
      << (after - before) << " times over " << tracker.rounds() << " rounds";
  EXPECT_GT(kinds.mixed_launches, 0u)
      << "no measured launch held tracking points, circle samples and t = 1 points";
  std::uint64_t outcomes = 0;
  for (const obs::Counter* c : metrics.endgame_attempts) outcomes += c->value();
  EXPECT_GT(metrics.endgame_entries->value(), 0u);
  EXPECT_EQ(outcomes, metrics.endgame_entries->value());
  EXPECT_GT(metrics.endgame_samples->value(), 0u);
}

TEST(ZeroAlloc, BatchPathTrackerWithMetricsSteadyStateRounds) {
  // The metrics-instrumented tracker keeps the zero-alloc guarantee:
  // registration (from_registry, which MAY allocate) happens once up
  // front, after which every round's counter incs and histogram
  // observes go through pre-resolved handles -- relaxed atomics, no
  // lookup, no allocation.
  poly::SystemSpec spec;
  spec.dimension = 3;
  spec.monomials_per_polynomial = 3;
  spec.variables_per_monomial = 2;
  spec.max_exponent = 2;
  spec.seed = 99;
  const auto sys = poly::make_random_system(spec);
  const homotopy::TotalDegreeStart start(sys);
  const auto gamma = homotopy::random_gamma(42);

  std::vector<std::vector<Cd>> roots;
  for (std::uint64_t p = 0; p < 4; ++p) {
    const auto rd = start.start_root(p);
    std::vector<Cd> r;
    for (const auto& z : rd) r.push_back(z);
    roots.push_back(std::move(r));
  }

  simt::Device device;
  core::FusedGpuEvaluator<double> f(device, sys, 4);
  ad::CpuEvaluator<double> g(start.system());
  homotopy::TrackOptions topt;
  topt.max_steps = 4000;
  homotopy::BatchPathTracker<double, core::FusedGpuEvaluator<double>> tracker(
      device, f, g, gamma, topt, roots.size());

  obs::MetricsRegistry registry;
  obs::TrackerMetrics metrics = obs::TrackerMetrics::from_registry(registry);
  tracker.set_metrics(&metrics);

  tracker.start(roots, 0, roots.size());
  tracker.run();  // warm-up: sizes every buffer along the whole trajectory

  tracker.start(roots, 0, roots.size());
  const std::uint64_t before = g_allocations.load();
  tracker.run();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "instrumented lockstep rounds allocated " << (after - before)
      << " times over " << tracker.rounds() << " rounds";
  // The instrumentation really observed the run (both runs counted).
  EXPECT_GE(metrics.rounds->value(), 2 * tracker.rounds());
  EXPECT_GT(metrics.steps_accepted->value(), 0u);
  EXPECT_GT(metrics.newton_iterations->value(), 0u);
  std::uint64_t retired = 0;
  for (const obs::Counter* c : metrics.retired_by_status)
    retired += c->value();
  EXPECT_EQ(retired, 2 * roots.size());
}

TEST(ZeroAlloc, TracerOffIsNoOpAndAllocationFree) {
  // A kOff tracer is the default on every service: every recording
  // entry point must return immediately without touching the allocator
  // or retaining anything -- this is what lets Config::trace default on
  // without costing the zero-alloc / bitwise gates anything.
  obs::Tracer tracer;  // default level: kOff
  EXPECT_FALSE(tracer.enabled(obs::TraceLevel::kRequests));

  const std::uint64_t before = g_allocations.load();
  tracer.set_devices(4);
  for (int i = 0; i < 100; ++i) {
    const std::size_t span = tracer.begin_span(
        "track", "request", 7, 0.0, obs::TraceLevel::kRequests);
    EXPECT_EQ(span, obs::Tracer::npos);
    tracer.span_args(span, 1.0, 2, 3);
    tracer.end_span(span, 10.0);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "kOff tracer allocated " << (after - before) << " times";
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.device_count(), 0u);
}

TEST(ZeroAlloc, CancelledRoundSkipsLaunchAndAllocator) {
  // Cancellation is free: once every live path is cancelled, the next
  // round retires them all before any staging -- it returns 0 with an
  // empty device log (no launch, no transfer) and touches no allocator.
  const auto sys = make_system(4, 3, 2, 2);
  const homotopy::TotalDegreeStart start(sys);
  std::vector<std::vector<Cd>> roots;
  for (std::uint64_t p = 0; p < 4; ++p) {
    const auto rd = start.start_root(p);
    roots.emplace_back(rd.begin(), rd.end());
  }
  simt::Device device;
  core::FusedGpuEvaluator<double> f(device, sys, 2);
  ad::CpuEvaluator<double> g(start.system());
  homotopy::BatchPathTracker<double, core::FusedGpuEvaluator<double>> tracker(
      device, f, g, homotopy::random_gamma(1), homotopy::TrackOptions{}, roots.size());
  tracker.start(roots, 0, roots.size());
  ASSERT_EQ(tracker.round(), roots.size());  // live paths mid-track
  ASSERT_FALSE(device.log().kernels.empty());

  const std::uint64_t before = g_allocations.load();
  for (std::size_t slot = 0; slot < roots.size(); ++slot) tracker.cancel(slot);
  const std::size_t live = tracker.round();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(live, 0u);
  EXPECT_EQ(after - before, 0u);
  EXPECT_TRUE(device.log().kernels.empty()) << "an all-cancelled round launched";
  EXPECT_EQ(device.log().transfers.transfers_to_device, 0u);
  EXPECT_EQ(device.log().transfers.transfers_from_device, 0u);
  for (std::size_t p = 0; p < roots.size(); ++p)
    EXPECT_EQ(tracker.result(p).status, homotopy::PathStatus::kCancelled);
}

TEST(ZeroAlloc, FusedEvaluatorWithRaceCheckingSteadyState) {
  // The race journals are epoch-stamped and persist across launches, so
  // even the checked configuration is allocation-free once warm.
  const auto sys = make_system(8, 6, 4, 3);
  simt::Device device;
  core::FusedGpuEvaluator<double>::Options opt;
  opt.detect_races = true;
  core::FusedGpuEvaluator<double> gpu(device, sys, 4, opt);
  const auto points = make_points(4, 8);
  std::vector<poly::EvalResult<double>> results;

  for (int i = 0; i < 3; ++i) {
    device.clear_log();
    gpu.evaluate(points, results);
  }

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10; ++i) {
    device.clear_log();
    gpu.evaluate(points, results);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
