// Service steady-state memory: once a solve is warm (groups built,
// evaluators sized, metrics families registered, device logs at their
// high-water capacity), scheduler ticks must not touch the allocator
// except for path retirements (one endpoint copy into the report each),
// and the per-settle log watermark must plateau -- the fold-then-clear
// in run_rounds keeps the log vectors' capacity, so a stable watermark
// IS the steady-state memory bound.
//
// Own executable (CMake builds one per test file), so replacing the
// global allocator cannot collide with test_zero_alloc's.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "poly/random_system.hpp"
#include "service/solve_service.hpp"

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
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace polyeval;

poly::PolynomialSystem test_system() {
  poly::SystemSpec spec;
  spec.dimension = 4;
  spec.monomials_per_polynomial = 3;
  spec.variables_per_monomial = 2;
  spec.max_exponent = 2;
  spec.seed = 777;
  return poly::make_random_system(spec);
}

solve::Options test_options() {
  solve::Options opt;
  opt.sharding.max_paths = 12;
  opt.tracking.track.max_steps = 4000;
  return opt;
}

/// One warm solve, then a second solve of the same system stepped tick
/// by tick under the allocation counter.
void expect_mid_solve_ticks_do_not_allocate(unsigned shards) {
  service::SolveService<double>::Config config;
  config.shards = shards;
  config.trace = obs::TraceLevel::kOff;
  service::SolveService<double> svc(std::move(config));
  const auto sys = test_system();
  const auto opt = test_options();

  // Warm-up solve: builds the structure group, shard evaluators,
  // trackers, race journals and every metrics family the settle fold
  // touches (per-kernel counters included).
  {
    auto warm = svc.submit({sys, opt, {}, 0, 0.0});
    svc.drain();
    ASSERT_TRUE(warm.done());
  }

  // Second solve of the same system: a cache hit riding warm state.
  auto ticket = svc.submit({sys, opt, {}, 0, 0.0});
  ASSERT_TRUE(svc.step());  // activation tick (tenant install, staging)

  // Per-tick contract: a tick that retires no path allocates NOTHING
  // (rounds, settle folds, watermark bookkeeping and log clears all ride
  // pre-sized storage); a retiring path may allocate exactly once (its
  // endpoint lands in the report).
  std::uint64_t prev_retired = ticket.poll().paths_retired;
  int quiet_ticks = 0;
  bool more = true;
  for (int i = 0; i < 40 && more; ++i) {
    const std::uint64_t before = g_allocations.load();
    more = svc.step();
    const std::uint64_t allocs = g_allocations.load() - before;
    const std::uint64_t retired = ticket.poll().paths_retired;
    const std::uint64_t retired_now = retired - prev_retired;
    prev_retired = retired;
    if (more) {  // the completion tick assembles the report
      EXPECT_LE(allocs, retired_now)
          << "tick " << i << ": " << allocs << " allocation(s), "
          << retired_now << " retirement(s)";
      if (retired_now == 0) ++quiet_ticks;
    }
  }
  // The window must actually have exercised steady-state ticks.
  EXPECT_GE(quiet_ticks, 10);

  svc.drain();
  ASSERT_TRUE(ticket.done());
}

TEST(ServiceSteadyState, MidSolveTicksDoNotAllocate) {
  // One shard, and the default two: a multi-shard group also runs the
  // per-tick steal pass and the parallel shard rounds.
  for (const unsigned shards : {1u, 2u}) {
    SCOPED_TRACE(shards == 1 ? "1 shard" : "2 shards");
    expect_mid_solve_ticks_do_not_allocate(shards);
  }
}

TEST(ServiceSteadyState, LogKernelWatermarkPlateausAcrossIdenticalSolves) {
  service::SolveService<double>::Config config;
  config.shards = 1;
  service::SolveService<double> svc(std::move(config));
  const auto sys = test_system();
  const auto opt = test_options();

  auto t1 = svc.submit({sys, opt, {}, 0, 0.0});
  svc.drain();
  const auto w1 = svc.stats().log_kernel_watermark;
  EXPECT_GT(w1, 0u);  // rounds did launch kernels through the fold

  auto t2 = svc.submit({sys, opt, {}, 0, 0.0});
  svc.drain();
  const auto w2 = svc.stats().log_kernel_watermark;
  // Identical workload, warm log capacity: the high-water mark must not
  // move -- this is the "clear keeps capacity" steady-state contract.
  EXPECT_EQ(w2, w1);

  (void)t1.report();
  (void)t2.report();
}

}  // namespace
