#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace olite {
namespace {

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(0), ThreadPool::DefaultThreads());
  EXPECT_EQ(ThreadPool::ResolveThreads(3), 3u);
}

TEST(ThreadPoolTest, SerialWidthVisitsEveryIndexOnce) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(0, hits.size(), /*grain=*/7,
                   [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  // Per-index slots: concurrent writers never share an element.
  std::vector<int> hits(10'000, 0);
  pool.ParallelFor(0, hits.size(), /*grain=*/16,
                   [&](size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EmptyAndSingletonRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(5, 6, 1, [&](size_t i) {
    ++calls;
    EXPECT_EQ(i, 5u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ShardIdsStayBelowWidth) {
  // fn runs on the caller plus at most `num_threads() - 1` helpers, and at
  // width 1 on the caller alone.
  auto threads_seen = [](unsigned width) {
    ThreadPool pool(width);
    std::vector<std::thread::id> id_of(5'000);
    pool.ParallelFor(0, id_of.size(), /*grain=*/8, [&](size_t i) {
      id_of[i] = std::this_thread::get_id();
    });
    return std::set<std::thread::id>(id_of.begin(), id_of.end());
  };
  for (unsigned width : {2u, 4u}) {
    EXPECT_LE(threads_seen(width).size(), width) << "width " << width;
  }
  EXPECT_EQ(threads_seen(1),
            std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(ThreadPoolTest, ExceptionReachesCallerAfterJoin) {
  for (unsigned width : {1u, 4u}) {
    ThreadPool pool(width);
    std::atomic<size_t> ran{0};
    EXPECT_THROW(pool.ParallelFor(0, 1'000, /*grain=*/10,
                                  [&](size_t i) {
                                    ran.fetch_add(1);
                                    if (i == 555) throw std::runtime_error("x");
                                  }),
                 std::runtime_error)
        << "width " << width;
    if (width == 1) {
      EXPECT_EQ(ran.load(), 556u);  // inline, in index order
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  ThreadPool pool(4);
  // Chunks may issue their own ParallelFor on the same pool; workers must
  // never deadlock even though every outer chunk waits on an inner job.
  const size_t outer = 8, inner = 500;
  std::vector<std::vector<int>> hits(outer, std::vector<int>(inner, 0));
  pool.ParallelFor(0, outer, /*grain=*/1, [&](size_t o) {
    pool.ParallelFor(0, inner, /*grain=*/32,
                     [&](size_t i) { ++hits[o][i]; });
  });
  for (const auto& row : hits) {
    for (int h : row) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(0, 100, /*grain=*/9,
                     [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 5'000u);
}

}  // namespace
}  // namespace olite
