// The chunked thread pool: full index coverage under every chunk size,
// contiguous range handout, participant identification, exception
// propagation, and the degenerate configurations.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <vector>

#include "simt/thread_pool.hpp"

namespace {

using namespace polyeval::simt;

TEST(ThreadPoolChunked, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{1000}, std::size_t{5000}}) {
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for_chunked(hits.size(), chunk,
                              [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolChunked, RangesAreContiguousAndCoverTheSpace) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallel_for_ranges(1003, 64, [&](unsigned, std::size_t begin, std::size_t end) {
    ASSERT_LT(begin, end);
    const std::lock_guard lock(mutex);
    ranges.emplace_back(begin, end);
  });
  std::sort(ranges.begin(), ranges.end());
  std::size_t expected = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, expected);
    EXPECT_LE(end - begin, 64u);
    expected = end;
  }
  EXPECT_EQ(expected, 1003u);
}

TEST(ThreadPoolChunked, ParticipantIdsStayInRange) {
  ThreadPool pool(3);
  std::atomic<bool> bad{false};
  pool.parallel_for_ranges(500, 8, [&](unsigned participant, std::size_t, std::size_t) {
    if (participant > pool.worker_count()) bad = true;
  });
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(pool.participant_count(), 4u);
}

TEST(ThreadPoolChunked, CallerParticipates) {
  // With zero-size chunking pressure on a single worker, the caller
  // thread must still help drain the job (no deadlock, full coverage).
  ThreadPool pool(1);
  std::atomic<std::size_t> count{0};
  pool.parallel_for_chunked(10000, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10000u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, MutableCallablesAreAccepted) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  // Every worker calls the one closure, so its mutable state is per
  // call: call i owns slot i alone.
  pool.parallel_for(10, [&sum, seen = std::array<int, 10>{}](std::size_t i) mutable {
    seen[i] += 5;
    sum.fetch_add(seen[i]);
  });
  EXPECT_EQ(sum.load(), 50);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [](std::size_t i) {
                          if (i % 7 == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // the pool survives and runs the next job normally
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(pool.parallel_for(0, [&](std::size_t) { FAIL(); }));
}

TEST(ThreadPool, DefaultChunkIsSaneAcrossCounts) {
  ThreadPool pool(2);
  EXPECT_GE(pool.default_chunk(0), 1u);
  EXPECT_GE(pool.default_chunk(1), 1u);
  const std::size_t chunk = pool.default_chunk(100000);
  EXPECT_GE(chunk, 1u);
  EXPECT_LE(chunk, 100000u);
  // enough chunks for every participant to get work
  EXPECT_GE(100000u / chunk, pool.participant_count());
}

TEST(ThreadPool, SequentialJobsReuseThePool) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> count{0};
    pool.parallel_for(round + 1, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), static_cast<std::size_t>(round) + 1);
  }
}

}  // namespace
