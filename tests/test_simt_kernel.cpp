// The SIMT engine: launch geometry, phase barriers, coalescing analysis,
// shared-memory bank conflicts, divergence accounting, occupancy and the
// per-block statistics memo with its bare (BareThread) path.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <random>

#include "prec/double_double.hpp"
#include "simt/device.hpp"

namespace {

using namespace polyeval::simt;

TEST(Launch, ValidatesConfiguration) {
  Device device;
  Kernel noop{"noop", {[](ThreadContext&) {}}};
  EXPECT_THROW((void)device.launch(noop, {0, 32, 0}), LaunchError);
  EXPECT_THROW((void)device.launch(noop, {1, 0, 0}), LaunchError);
  EXPECT_THROW((void)device.launch(noop, {1, 2048, 0}), LaunchError);  // > 1024
  EXPECT_THROW((void)device.launch(noop, {1, 32, 50000}), LaunchError);  // > 48K shared
  EXPECT_NO_THROW((void)device.launch(noop, {1, 32, 49152}));
}

TEST(Launch, ThreadIdentitiesCoverTheGrid) {
  Device device;
  auto buf = device.alloc_global<int>(4 * 64, "ids");
  device.fill(buf, -1);
  Kernel kernel{"ids",
                {[buf](ThreadContext& ctx) {
                  ctx.store(buf, ctx.global_thread_index(),
                            static_cast<int>(ctx.block_index() * 1000 + ctx.thread_index()));
                }}};
  (void)device.launch(kernel, {4, 64, 0});
  std::vector<int> host(4 * 64);
  device.download(buf, std::span<int>(host));
  for (unsigned b = 0; b < 4; ++b)
    for (unsigned t = 0; t < 64; ++t)
      EXPECT_EQ(host[b * 64 + t], static_cast<int>(b * 1000 + t));
}

TEST(Launch, LaneAndWarpDerivedFromThread) {
  Device device;
  auto lanes = device.alloc_global<unsigned>(64, "lanes");
  auto warps = device.alloc_global<unsigned>(64, "warps");
  Kernel kernel{"lanes",
                {[lanes, warps](ThreadContext& ctx) {
                  ctx.store(lanes, ctx.thread_index(), ctx.lane());
                  ctx.store(warps, ctx.thread_index(), ctx.warp());
                }}};
  (void)device.launch(kernel, {1, 64, 0});
  for (unsigned t = 0; t < 64; ++t) {
    EXPECT_EQ(lanes.raw()[t], t % 32);
    EXPECT_EQ(warps.raw()[t], t / 32);
  }
}

TEST(Launch, PhasesActAsBarriers) {
  // Phase 1 writes shared; phase 2 reads a *different* thread's slot.
  // Without a barrier between phases this would read garbage.
  Device device;
  const unsigned b = 32;
  auto out = device.alloc_global<int>(b, "out");
  Kernel kernel{"barrier",
                {
                    [](ThreadContext& ctx) {
                      auto sh = ctx.shared_array<int>(0, 32);
                      sh.set(ctx.thread_index(), static_cast<int>(ctx.thread_index()) + 100);
                    },
                    [out](ThreadContext& ctx) {
                      auto sh = ctx.shared_array<int>(0, 32);
                      const unsigned other = 31 - ctx.thread_index();
                      ctx.store(out, ctx.thread_index(), sh.get(other));
                    },
                }};
  (void)device.launch(kernel, {1, b, 32 * sizeof(int)});
  for (unsigned t = 0; t < b; ++t) EXPECT_EQ(out.raw()[t], static_cast<int>(131 - t));
}

TEST(Launch, SharedMemoryIsPerBlock) {
  // Each block writes its block index into shared and reads it back;
  // blocks must not see each other's values.
  Device device;
  auto out = device.alloc_global<int>(8 * 32, "out");
  Kernel kernel{"per_block",
                {
                    [](ThreadContext& ctx) {
                      auto sh = ctx.shared_array<int>(0, 1);
                      if (ctx.thread_index() == 0)
                        sh.set(0, static_cast<int>(ctx.block_index()));
                    },
                    [out](ThreadContext& ctx) {
                      auto sh = ctx.shared_array<int>(0, 1);
                      ctx.store(out, ctx.global_thread_index(), sh.get(0));
                    },
                }};
  (void)device.launch(kernel, {8, 32, sizeof(int)});
  for (unsigned b = 0; b < 8; ++b)
    for (unsigned t = 0; t < 32; ++t)
      EXPECT_EQ(out.raw()[b * 32 + t], static_cast<int>(b));
}

TEST(Stats, OpCountsAndPerThreadMax) {
  Device device;
  Kernel kernel{"ops", {[](ThreadContext& ctx) {
                  ctx.op_cmul(ctx.thread_index() + 1);  // thread t: t+1 muls
                  ctx.op_cadd(2);
                }}};
  const auto stats = device.launch(kernel, {1, 4, 0});
  EXPECT_EQ(stats.complex_mul_total, 1u + 2 + 3 + 4);
  EXPECT_EQ(stats.complex_add_total, 8u);
  EXPECT_EQ(stats.complex_mul_per_thread_max, 4u);
  EXPECT_EQ(stats.complex_add_per_thread_max, 2u);
}

TEST(Coalescing, ConsecutiveDoublesAreMinimal) {
  // 32 lanes x 8 bytes consecutive = 256 bytes = 2 segments of 128.
  Device device;
  auto buf = device.alloc_global<double>(32, "data");
  Kernel kernel{"coalesced", {[buf](ThreadContext& ctx) {
                  (void)ctx.load(buf, ctx.thread_index());
                }}};
  const auto stats = device.launch(kernel, {1, 32, 0});
  EXPECT_EQ(stats.global_load_requests, 1u);
  EXPECT_EQ(stats.global_load_transactions, 2u);
  EXPECT_EQ(stats.global_bytes_loaded, 256u);
}

TEST(Coalescing, StridedAccessExplodes) {
  // stride of 128 bytes: every lane touches its own segment.
  Device device;
  auto buf = device.alloc_global<double>(32 * 16, "data");
  Kernel kernel{"strided", {[buf](ThreadContext& ctx) {
                  (void)ctx.load(buf, std::size_t{ctx.thread_index()} * 16);
                }}};
  const auto stats = device.launch(kernel, {1, 32, 0});
  EXPECT_EQ(stats.global_load_requests, 1u);
  EXPECT_EQ(stats.global_load_transactions, 32u);
  EXPECT_LT(stats.load_coalescing_ratio(), 0.04);
}

TEST(Coalescing, BroadcastIsOneTransaction) {
  Device device;
  auto buf = device.alloc_global<double>(4, "data");
  Kernel kernel{"broadcast",
                {[buf](ThreadContext& ctx) { (void)ctx.load(buf, 0); }}};
  const auto stats = device.launch(kernel, {1, 32, 0});
  EXPECT_EQ(stats.global_load_transactions, 1u);
}

TEST(Coalescing, StoresTrackedSeparately) {
  Device device;
  auto buf = device.alloc_global<double>(64, "data");
  Kernel kernel{"stores", {[buf](ThreadContext& ctx) {
                  ctx.store(buf, ctx.thread_index(), 1.0);
                  ctx.store(buf, 32 + ctx.thread_index(), 2.0);
                }}};
  const auto stats = device.launch(kernel, {1, 32, 0});
  EXPECT_EQ(stats.global_store_requests, 2u);
  EXPECT_EQ(stats.global_store_transactions, 4u);  // 2 coalesced stores
  EXPECT_EQ(stats.global_load_requests, 0u);
}

TEST(Coalescing, OrdinalGroupingSeparatesInstructions) {
  // Two loads per lane at very different addresses: must form TWO
  // requests (grouped by ordinal), each coalesced -- not one scattered
  // request.
  Device device;
  auto buf = device.alloc_global<double>(1024, "data");
  Kernel kernel{"two_loads", {[buf](ThreadContext& ctx) {
                  (void)ctx.load(buf, ctx.thread_index());
                  (void)ctx.load(buf, 512 + ctx.thread_index());
                }}};
  const auto stats = device.launch(kernel, {1, 32, 0});
  EXPECT_EQ(stats.global_load_requests, 2u);
  EXPECT_EQ(stats.global_load_transactions, 4u);
}

TEST(BankConflicts, ConflictFreeUnitStride) {
  // lane i accesses word i: all 32 banks hit once.
  Device device;
  Kernel kernel{"unit", {[](ThreadContext& ctx) {
                  auto sh = ctx.shared_array<float>(0, 32);
                  sh.set(ctx.thread_index(), 1.0f);
                }}};
  const auto stats = device.launch(kernel, {1, 32, 32 * sizeof(float)});
  EXPECT_EQ(stats.shared_requests, 1u);
  EXPECT_EQ(stats.shared_cycles, 1u);
  EXPECT_EQ(stats.bank_conflict_cycles(), 0u);
}

TEST(BankConflicts, Stride32IsWorstCase) {
  // lane i accesses word 32*i: all lanes in bank 0 -> 32-way conflict.
  Device device;
  Kernel kernel{"worst", {[](ThreadContext& ctx) {
                  auto sh = ctx.shared_array<float>(0, 32 * 32);
                  sh.set(std::size_t{ctx.thread_index()} * 32, 1.0f);
                }}};
  const auto stats = device.launch(kernel, {1, 32, 32 * 32 * sizeof(float)});
  EXPECT_EQ(stats.shared_requests, 1u);
  EXPECT_EQ(stats.shared_cycles, 32u);
  EXPECT_EQ(stats.bank_conflict_cycles(), 31u);
}

TEST(BankConflicts, SameWordBroadcasts) {
  Device device;
  Kernel kernel{"bcast", {[](ThreadContext& ctx) {
                  auto sh = ctx.shared_array<float>(0, 32);
                  (void)ctx.thread_index();
                  (void)sh.get(7);
                }}};
  const auto stats = device.launch(kernel, {1, 32, 32 * sizeof(float)});
  EXPECT_EQ(stats.shared_cycles, 1u);  // broadcast, no serialization
}

TEST(Divergence, InactiveLanesAreCounted) {
  Device device;
  Kernel kernel{"tail", {[](ThreadContext& ctx) {
                  if (ctx.global_thread_index() >= 40) ctx.mark_inactive();
                }}};
  const auto stats = device.launch(kernel, {2, 32, 0});  // 64 threads, 40 active
  EXPECT_EQ(stats.inactive_lane_phases, 24u);
}

TEST(Occupancy, SharedMemoryLimitsResidency) {
  Device device;
  Kernel noop{"noop", {[](ThreadContext&) {}}};
  // 20 KB per block: only 2 blocks fit in 48 KB.
  auto stats = device.launch(noop, {28, 32, 20 * 1024});
  EXPECT_EQ(stats.concurrent_blocks_per_sm, 2u);
  EXPECT_EQ(stats.waves, 1u);  // 28 blocks <= 14 SMs * 2
  // tiny blocks: the Fermi max of 8 applies
  stats = device.launch(noop, {1000, 32, 0});
  EXPECT_EQ(stats.concurrent_blocks_per_sm, 8u);
  EXPECT_EQ(stats.waves, 9u);  // ceil(1000 / 112)
}

TEST(Occupancy, ThreadLimitCapsResidency) {
  Device device;
  Kernel noop{"noop", {[](ThreadContext&) {}}};
  // 1024-thread blocks: 1536/1024 -> 1 resident block per SM.
  const auto stats = device.launch(noop, {14, 1024, 0});
  EXPECT_EQ(stats.concurrent_blocks_per_sm, 1u);
  EXPECT_EQ(stats.warps_per_block, 32u);
}

TEST(Occupancy, BusiestSmSerialization) {
  Device device;
  Kernel noop{"noop", {[](ThreadContext&) {}}};
  // 22 blocks of one warp each over 14 SMs: busiest SM has 2 warps.
  const auto stats = device.launch(noop, {22, 32, 0});
  EXPECT_EQ(stats.warps_on_busiest_sm, 2u);
}

TEST(Launch, DeterministicAcrossRuns) {
  // Blocks run on a pool: results and stats must not depend on timing.
  Device device;
  auto buf = device.alloc_global<double>(256, "acc");
  Kernel kernel{"work", {[buf](ThreadContext& ctx) {
                  const auto i = ctx.global_thread_index();
                  ctx.store(buf, i, static_cast<double>(i) * 1.5);
                  ctx.op_cmul(3);
                }}};
  const auto s1 = device.launch(kernel, {8, 32, 0});
  std::vector<double> first(256);
  device.download(buf, std::span<double>(first));
  const auto s2 = device.launch(kernel, {8, 32, 0});
  std::vector<double> second(256);
  device.download(buf, std::span<double>(second));
  EXPECT_EQ(first, second);
  EXPECT_EQ(s1.complex_mul_total, s2.complex_mul_total);
  EXPECT_EQ(s1.global_store_transactions, s2.global_store_transactions);
}

TEST(Launch, LogAccumulatesKernels) {
  Device device;
  Kernel noop{"first", {[](ThreadContext&) {}}};
  Kernel noop2{"second", {[](ThreadContext&) {}}};
  (void)device.launch(noop, {1, 32, 0});
  (void)device.launch(noop2, {1, 32, 0});
  ASSERT_EQ(device.log().kernels.size(), 2u);
  EXPECT_EQ(device.log().kernels[0].kernel, "first");
  EXPECT_EQ(device.log().kernels[1].kernel, "second");
  device.clear_log();
  EXPECT_TRUE(device.log().kernels.empty());
}

TEST(RaceDetection, SharedWriteWriteHazardThrows) {
  // every thread writes shared word 0 in the same phase
  Device device;
  Kernel racy{"racy_shared", {[](ThreadContext& ctx) {
                auto sh = ctx.shared_array<int>(0, 1);
                sh.set(0, static_cast<int>(ctx.thread_index()));
              }}};
  EXPECT_THROW((void)device.launch(racy, {1, 32, sizeof(int)}), LaunchError);
}

TEST(RaceDetection, SharedReadWriteHazardThrows) {
  // thread 0 writes the word every other thread reads, no barrier between
  Device device;
  Kernel racy{"racy_rw", {[](ThreadContext& ctx) {
                auto sh = ctx.shared_array<int>(0, 1);
                if (ctx.thread_index() == 0)
                  sh.set(0, 7);
                else
                  (void)sh.get(0);
              }}};
  EXPECT_THROW((void)device.launch(racy, {1, 32, sizeof(int)}), LaunchError);
}

TEST(RaceDetection, BarrierSeparatedAccessesAreClean) {
  // the same pattern split across phases is the CORRECT idiom
  Device device;
  Kernel clean{"clean",
               {
                   [](ThreadContext& ctx) {
                     auto sh = ctx.shared_array<int>(0, 1);
                     if (ctx.thread_index() == 0) sh.set(0, 7);
                   },
                   [](ThreadContext& ctx) {
                     auto sh = ctx.shared_array<int>(0, 1);
                     (void)sh.get(0);
                   },
               }};
  EXPECT_NO_THROW((void)device.launch(clean, {1, 32, sizeof(int)}));
}

TEST(RaceDetection, GlobalDoubleWriteThrows) {
  Device device;
  auto buf = device.alloc_global<int>(4, "shared_slot");
  Kernel racy{"racy_global", {[buf](ThreadContext& ctx) {
                ctx.store(buf, 0, static_cast<int>(ctx.global_thread_index()));
              }}};
  EXPECT_THROW((void)device.launch(racy, {2, 32, 0}), LaunchError);
}

TEST(RaceDetection, GlobalDoubleWriteAcrossBlocksDetected) {
  // blocks write overlapping ranges: thread t of each block writes t
  Device device;
  auto buf = device.alloc_global<int>(32, "overlap");
  Kernel racy{"racy_blocks", {[buf](ThreadContext& ctx) {
                ctx.store(buf, ctx.thread_index(), 1);
              }}};
  EXPECT_THROW((void)device.launch(racy, {2, 32, 0}), LaunchError);
  // the same kernel with one block is fine
  EXPECT_NO_THROW((void)device.launch(racy, {1, 32, 0}));
}

TEST(RaceDetection, OptOutRecordsInsteadOfThrowing) {
  Device device;
  Kernel racy{"racy_shared", {[](ThreadContext& ctx) {
                auto sh = ctx.shared_array<int>(0, 1);
                sh.set(0, static_cast<int>(ctx.thread_index()));
              }}};
  LaunchConfig cfg{1, 32, sizeof(int)};
  cfg.detect_races = false;
  EXPECT_NO_THROW((void)device.launch(racy, cfg));
}

TEST(RaceDetection, SameThreadRepeatedWritesAreClean) {
  Device device;
  Kernel clean{"accumulate", {[](ThreadContext& ctx) {
                 auto sh = ctx.shared_array<int>(0, 32);
                 for (int i = 0; i < 4; ++i) sh.set(ctx.thread_index(), i);
               }}};
  EXPECT_NO_THROW((void)device.launch(clean, {1, 32, 32 * sizeof(int)}));
}

TEST(Launch, PartialLastWarpStillGrouped) {
  // 40 threads = one full warp + one 8-lane warp; accesses still coalesce
  // within each warp.
  Device device;
  auto buf = device.alloc_global<double>(64, "data");
  Kernel kernel{"partial", {[buf](ThreadContext& ctx) {
                  (void)ctx.load(buf, ctx.thread_index());
                }}};
  const auto stats = device.launch(kernel, {1, 40, 0});
  EXPECT_EQ(stats.global_load_requests, 2u);   // two warps
  EXPECT_EQ(stats.global_load_transactions, 3u);  // 2 + 1 segments
}

/// A kernel whose work branches on a loaded value -- the pattern a
/// BlockStatsMemo forbids: block b multiplies once per lane when
/// flag[b] > 0, and loads a strided (scattered) word per lane.  The
/// phase is generic, so memo hits run it over BareThread.
Kernel make_branchy(const GlobalBuffer<int>& flag, const GlobalBuffer<double>& data) {
  return Kernel{"branchy", {[flag, data](auto& ctx) {
                  (void)ctx.load(data, std::size_t{ctx.thread_index()} * 16);
                  if (ctx.load(flag, ctx.block_index()) > 0) ctx.op_cmul();
                }}};
}

LaunchConfig memo_config(BlockStatsMemo& memo, unsigned blocks, unsigned threads) {
  LaunchConfig cfg{blocks, threads, 0};
  cfg.detect_races = false;
  cfg.memo.table = &memo;
  return cfg;
}

TEST(BlockStatsMemo, HitsReportTheInstrumentedStatistics) {
  Device device;
  auto flag = device.alloc_global<int>(2, "flag");
  auto data = device.alloc_global<double>(32 * 16, "data");
  device.fill(flag, 1);
  const Kernel kernel = make_branchy(flag, data);
  BlockStatsMemo memo(1, 2);
  const auto reference = device.launch(kernel, {2, 32, 0});  // checked, no memo
  for (int launch = 0; launch < 3; ++launch) {
    const auto stats = device.launch(kernel, memo_config(memo, 2, 32));
    EXPECT_EQ(stats.complex_mul_total, reference.complex_mul_total);
    EXPECT_EQ(stats.global_load_requests, reference.global_load_requests);
    EXPECT_EQ(stats.global_load_transactions, reference.global_load_transactions);
    EXPECT_EQ(stats.global_bytes_loaded, reference.global_bytes_loaded);
  }
}

TEST(BlockStatsMemo, HitWithDifferentWorkThrows) {
  Device device;
  auto flag = device.alloc_global<int>(2, "flag");
  auto data = device.alloc_global<double>(32 * 16, "data");
  device.fill(flag, 1);
  const Kernel kernel = make_branchy(flag, data);
  BlockStatsMemo memo(1, 2);
  const LaunchConfig cfg = memo_config(memo, 2, 32);
  (void)device.launch(kernel, cfg);  // fills both blocks' entries

  const std::vector<int> flipped = {1, 0};
  device.upload(flag, std::span<const int>(flipped));
  try {
    (void)device.launch(kernel, cfg);
    FAIL() << "a hit whose work changed must throw";
  } catch (const LaunchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("branchy"), std::string::npos) << what;
    EXPECT_NE(what.find("block 1"), std::string::npos) << what;
  }

  // The checked path never consults the memo ...
  LaunchConfig checked = cfg;
  checked.detect_races = true;
  EXPECT_NO_THROW((void)device.launch(kernel, checked));
  // ... and a forgotten row is filled afresh.
  memo.invalidate_row(0);
  EXPECT_EQ(device.launch(kernel, cfg).complex_mul_total, 32u);
  EXPECT_EQ(device.launch(kernel, cfg).complex_mul_total, 32u);
}

TEST(BlockStatsMemo, KeysBlocksByRow) {
  // Row r's entry of block b is independent of row r' != r: launching
  // block 0 under row 1 after it ran under row 0 fills row 1 afresh.
  Device device;
  auto flag = device.alloc_global<int>(2, "flag");
  auto data = device.alloc_global<double>(32 * 16, "data");
  device.fill(flag, 1);
  const Kernel kernel = make_branchy(flag, data);
  BlockStatsMemo memo(2, 1);
  LaunchConfig cfg = memo_config(memo, 1, 32);
  const std::vector<unsigned> row0 = {0}, row1 = {1};
  cfg.memo.rows = std::span<const unsigned>(row0);
  (void)device.launch(kernel, cfg);
  device.fill(flag, 0);
  cfg.memo.rows = std::span<const unsigned>(row1);
  EXPECT_EQ(device.launch(kernel, cfg).complex_mul_total, 0u);  // a miss
  cfg.memo.rows = std::span<const unsigned>(row0);
  EXPECT_THROW((void)device.launch(kernel, cfg), LaunchError);  // a stale hit
  const std::vector<unsigned> no_such_row = {2};
  cfg.memo.rows = std::span<const unsigned>(no_such_row);
  EXPECT_THROW((void)device.launch(kernel, cfg), LaunchError);
}

TEST(BlockStatsMemo, RejectsAnotherGeometry) {
  Device device;
  auto flag = device.alloc_global<int>(4, "flag");
  auto data = device.alloc_global<double>(64 * 16, "data");
  device.fill(flag, 1);
  const Kernel kernel = make_branchy(flag, data);
  BlockStatsMemo memo(1, 2);
  (void)device.launch(kernel, memo_config(memo, 2, 32));
  EXPECT_THROW((void)device.launch(kernel, memo_config(memo, 2, 64)), LaunchError);
  LaunchConfig more_shared = memo_config(memo, 2, 32);
  more_shared.shared_bytes = 64;
  EXPECT_THROW((void)device.launch(kernel, more_shared), LaunchError);
  EXPECT_THROW((void)device.launch(kernel, memo_config(memo, 3, 32)), LaunchError);
  EXPECT_NO_THROW((void)device.launch(kernel, memo_config(memo, 1, 32)));
}

/// A kernel whose block b multiplies (b % 2) + 1 times per lane and
/// stores b at out[b]: its statistics depend on the block class b mod 2.
Kernel make_two_class(const GlobalBuffer<unsigned>& out) {
  return Kernel{"two_class", {[out](auto& ctx) {
                  ctx.op_cmul(ctx.block_index() % 2 + 1);
                  if (ctx.thread_index() == 0) ctx.store(out, ctx.block_index(), ctx.block_index());
                }}};
}

TEST(BlockStatsMemo, ClassKeyRunsEachClassOnceAndReportsTheFullStatistics) {
  // Blocks keyed by class b mod 2: the first memoized launch runs blocks
  // 0 and 1 instrumented and blocks 2..5 bare, and reports what the
  // checked launch reports.
  constexpr unsigned kBlocks = 6;
  Device device;
  auto out = device.alloc_global<unsigned>(kBlocks, "out");
  const Kernel kernel = make_two_class(out);
  const auto reference = device.launch(kernel, {kBlocks, 32, 0});  // checked
  BlockStatsMemo memo(1, kBlocks, 2);
  EXPECT_EQ(memo.period(), 2u);
  for (int launch = 0; launch < 2; ++launch) {
    device.fill(out, 99u);
    const auto stats = device.launch(kernel, memo_config(memo, kBlocks, 32));
    EXPECT_EQ(stats.complex_mul_total, reference.complex_mul_total);
    EXPECT_EQ(stats.complex_mul_per_thread_max, reference.complex_mul_per_thread_max);
    EXPECT_EQ(stats.global_store_requests, reference.global_store_requests);
    EXPECT_EQ(stats.global_store_transactions, reference.global_store_transactions);
    std::vector<unsigned> got(kBlocks);
    device.download(out, std::span<unsigned>(got));
    for (unsigned b = 0; b < kBlocks; ++b) EXPECT_EQ(got[b], b) << "launch " << launch;
  }
}

TEST(BlockStatsMemo, StatisticsOnlyLaunchRunsOnlyTheBlocksTheMemoLacks) {
  // A statistics-only launch runs the lowest block of each unfilled class
  // and leaves every other block's outputs unwritten, with the checked
  // launch's statistics; once the memo is full it runs no block at all.
  constexpr unsigned kBlocks = 6;
  Device device;
  auto out = device.alloc_global<unsigned>(kBlocks, "out");
  const Kernel kernel = make_two_class(out);
  const auto reference = device.launch(kernel, {kBlocks, 32, 0});  // checked
  BlockStatsMemo memo(1, kBlocks, 2);
  LaunchConfig cfg = memo_config(memo, kBlocks, 32);
  cfg.statistics_only = true;
  for (const std::vector<unsigned> want : {std::vector<unsigned>{0, 1, 99, 99, 99, 99},
                                           std::vector<unsigned>(kBlocks, 99)}) {
    device.fill(out, 99u);
    const auto stats = device.launch(kernel, cfg);
    EXPECT_EQ(stats.complex_mul_total, reference.complex_mul_total);
    EXPECT_EQ(stats.global_store_requests, reference.global_store_requests);
    EXPECT_EQ(stats.global_store_transactions, reference.global_store_transactions);
    EXPECT_EQ(stats.global_bytes_stored, reference.global_bytes_stored);
    std::vector<unsigned> got(kBlocks);
    device.download(out, std::span<unsigned>(got));
    EXPECT_EQ(got, want);
  }
  // A checked launch ignores the flag and runs every block.
  cfg.detect_races = true;
  device.fill(out, 99u);
  (void)device.launch(kernel, cfg);
  std::vector<unsigned> got(kBlocks);
  device.download(out, std::span<unsigned>(got));
  for (unsigned b = 0; b < kBlocks; ++b) EXPECT_EQ(got[b], b);
}

TEST(BlockStatsMemo, WorkBeyondTheBlockClassThrows) {
  // Keyed by class b mod 2, a kernel whose work depends on more of the
  // block index than its class breaks the key: block 2 runs bare against
  // block 0's entry in the first memoized launch, and the guard throws.
  Device device;
  Kernel kernel{"beyond_class", {[](auto& ctx) {
                  if (ctx.block_index() >= 2) ctx.op_cmul();
                }}};
  BlockStatsMemo memo(1, 4, 2);
  try {
    (void)device.launch(kernel, memo_config(memo, 4, 32));
    FAIL() << "work beyond the block class must throw";
  } catch (const LaunchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("beyond_class"), std::string::npos) << what;
    EXPECT_NE(what.find("block 2"), std::string::npos) << what;
    EXPECT_NE(what.find("class 0"), std::string::npos) << what;
  }
  // Every block its own class (the two-argument memo), the kernel is fine.
  BlockStatsMemo per_block(1, 4);
  EXPECT_EQ(device.launch(kernel, memo_config(per_block, 4, 32)).complex_mul_total, 64u);
  EXPECT_EQ(device.launch(kernel, memo_config(per_block, 4, 32)).complex_mul_total, 64u);
}

TEST(BlockStatsMemo, PeriodFollowsTheSegmentArithmetic) {
  const DeviceSpec spec;  // 128-byte segments
  const auto period = [&](std::initializer_list<std::uint64_t> strides, unsigned blocks) {
    const std::vector<std::uint64_t> v(strides);
    return block_stats_period(spec, std::span<const std::uint64_t>(v), blocks);
  };
  EXPECT_EQ(period({}, 32), 1u);
  EXPECT_EQ(period({0}, 32), 1u);        // every block reads the same slice
  EXPECT_EQ(period({1024}, 32), 1u);     // whole segments per block
  EXPECT_EQ(period({192}, 32), 2u);      // 1.5 segments
  EXPECT_EQ(period({96, 192}, 32), 4u);  // lcm(4, 2)
  EXPECT_EQ(period({48, 576}, 32), 8u);  // lcm(8, 2)
  EXPECT_EQ(period({4}, 32), 32u);       // capped at the block count
  EXPECT_EQ(period({16}, 5), 5u);
  EXPECT_EQ(period({16}, 0), 1u);
  DeviceSpec odd = spec;
  odd.global_transaction_bytes = 96;  // does not divide the allocation alignment
  const std::vector<std::uint64_t> whole = {96};
  EXPECT_EQ(block_stats_period(odd, std::span<const std::uint64_t>(whole), 7), 7u);
}

TEST(Device, ReportsItsHostWorkers) {
  // Autotuner probe devices copy this count from the device being tuned.
  EXPECT_EQ(Device(DeviceSpec::tesla_c2050(), 3).host_workers(), 3u);
  EXPECT_GE(Device(DeviceSpec::tesla_c2050(), 0).host_workers(), 1u);  // one per core
}

TEST(BlockStatsMemo, PhaseWithoutBareEntryThrows) {
  // A phase that takes only ThreadContext& has no bare entry, so a
  // memoized launch of its kernel is refused before any block runs.
  Device device;
  Kernel checked_only{"checked_only", {[](auto& ctx) { ctx.op_cmul(); },
                                       [](ThreadContext& ctx) { ctx.op_cadd(); }}};
  BlockStatsMemo memo(1, 1);
  try {
    (void)device.launch(checked_only, memo_config(memo, 1, 32));
    FAIL() << "a memoized phase without a bare entry must throw";
  } catch (const LaunchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checked_only"), std::string::npos) << what;
    EXPECT_NE(what.find("phase 1"), std::string::npos) << what;
  }
  // Without a memo, or on the checked path, the kernel runs as before.
  LaunchConfig unmemoized{1, 32, 0};
  unmemoized.detect_races = false;
  EXPECT_EQ(device.launch(checked_only, unmemoized).complex_add_total, 32u);
  LaunchConfig checked = memo_config(memo, 1, 32);
  checked.detect_races = true;
  EXPECT_EQ(device.launch(checked_only, checked).complex_mul_total, 32u);
}

TEST(FmaEntries, MatchTheBaselineEntriesBitForBit) {
  // Double-double products, the one arithmetic the FMA entries change,
  // over operands from where the products' error terms are subnormal
  // to near overflow, through the checked entry and the memo-hit bare
  // entry, with the FMA entries forced off and on.
  using polyeval::prec::DoubleDouble;
  if (!host_has_fma()) GTEST_SKIP() << "no FMA entries in this build or on this host";
  constexpr unsigned kBlocks = 4, kThreads = 64, kCount = kBlocks * kThreads;
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> mantissa(-2.0, 2.0), tail(-0x1p-54, 0x1p-54);
  std::uniform_int_distribution<int> exponent(-520, 510);
  std::vector<DoubleDouble> a(kCount), b(kCount);
  for (auto* operands : {&a, &b})
    for (auto& v : *operands) {
      const double hi = std::ldexp(mantissa(rng), exponent(rng));
      v = DoubleDouble::from_sum(hi, hi * tail(rng));
    }

  std::vector<std::vector<DoubleDouble>> outputs;
  for (const bool fma : {false, true}) {
    Device device;
    auto da = device.alloc_global<DoubleDouble>(kCount, "a");
    auto db = device.alloc_global<DoubleDouble>(kCount, "b");
    auto out = device.alloc_global<DoubleDouble>(kCount, "out");
    device.upload(da, std::span<const DoubleDouble>(a));
    device.upload(db, std::span<const DoubleDouble>(b));
    const auto product = [da, db, out](auto& ctx) {
      const std::size_t i =
          std::size_t{ctx.block_index()} * ctx.block_dim() + ctx.thread_index();
      ctx.store(out, i, ctx.load(da, i) * ctx.load(db, i));
      ctx.op_cmul();
    };
    const Kernel kernel{"dd_products", {Phase(product, fma)}};
    BlockStatsMemo memo(1, kBlocks);
    for (const bool checked : {true, false}) {
      device.fill(out, DoubleDouble(0.0));
      LaunchConfig cfg = memo_config(memo, kBlocks, kThreads);
      cfg.detect_races = checked;
      (void)device.launch(kernel, cfg);
      if (!checked) (void)device.launch(kernel, cfg);  // the memo hit runs bare
      outputs.emplace_back(kCount);
      device.download(out, std::span<DoubleDouble>(outputs.back()));
    }
  }
  for (std::size_t r = 1; r < outputs.size(); ++r)
    EXPECT_EQ(std::memcmp(outputs[0].data(), outputs[r].data(),
                          kCount * sizeof(DoubleDouble)),
              0)
        << "run " << r << " (0, 1: baseline checked, bare; 2, 3: FMA checked, bare)";
}

TEST(BlockStatsMemo, BareSharedArrayOutOfBoundsThrows) {
  // The view's extent is a loaded value: in bounds while the memo
  // fills, one element past the block's shared allocation on the hit.
  Device device;
  auto extent = device.alloc_global<unsigned>(1, "extent");
  device.fill(extent, 1u);
  Kernel kernel{"shared_extent", {[extent](auto& ctx) {
                  auto sh = ctx.template shared_array<int>(0, ctx.load(extent, 0));
                  if (ctx.thread_index() == 0) sh.set(0, 1);
                }}};
  BlockStatsMemo memo(1, 1);
  LaunchConfig cfg = memo_config(memo, 1, 32);
  cfg.shared_bytes = sizeof(int);
  (void)device.launch(kernel, cfg);  // fills the entry
  device.fill(extent, 2u);
  try {
    (void)device.launch(kernel, cfg);
    FAIL() << "a bare block's out-of-bounds shared view must throw";
  } catch (const LaunchError& e) {
    EXPECT_NE(std::string(e.what()).find("out of bounds"), std::string::npos) << e.what();
  }
}

}  // namespace
