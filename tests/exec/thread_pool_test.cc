// Unit tests of the execution layer: ThreadPool, ParallelFor's partition
// contract, StatsSink exactness, and the CountingOracle under
// concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "subseq/exec/exec_context.h"
#include "subseq/exec/parallel_for.h"
#include "subseq/exec/stats_sink.h"
#include "subseq/exec/thread_pool.h"
#include "testing/counting_oracle.h"
#include "testing/helpers.h"

namespace subseq {
namespace {

using ::subseq::testing::CountingOracle;
using ::subseq::testing::CountingQueryFn;

TEST(ExecContextTest, ResolvedThreadsHasFloorOfOne) {
  EXPECT_GE(ExecContext{}.ResolvedThreads(), 1);
  EXPECT_EQ(ExecContext{5}.ResolvedThreads(), 5);
  EXPECT_EQ(SequentialExec().ResolvedThreads(), 1);
}

TEST(ThreadPoolTest, DrainsQueuedTasksBeforeShutdown) {
  std::atomic<int32_t> executed{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // destructor joins after the queue is drained
  EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPoolTest, InWorkerDistinguishesPools) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.InWorker());
  std::atomic<bool> seen_inside{false};
  std::atomic<bool> done{false};
  pool.Submit([&] {
    seen_inside = pool.InWorker();
    done = true;
  });
  while (!done) {
  }
  EXPECT_TRUE(seen_inside.load());
}

TEST(ExecContextTest, HardwareConcurrencyResolvesOnceAndStays) {
  // The resolution is cached process-wide (the num_threads = 0 hoist):
  // repeated calls must agree and respect the floor of 1.
  const int32_t first = ResolveHardwareConcurrency();
  EXPECT_GE(first, 1);
  EXPECT_EQ(ResolveHardwareConcurrency(), first);
  EXPECT_EQ(ExecContext{}.ResolvedThreads(), first);
}

TEST(ThreadPoolTest, SubmitDetachedRunsCompletionAfterTask) {
  ThreadPool pool(2);
  std::atomic<int32_t> order{0};
  std::atomic<int32_t> task_pos{-1};
  std::atomic<int32_t> complete_pos{-1};
  std::atomic<bool> done{false};
  pool.SubmitDetached(
      [&] { task_pos = order.fetch_add(1); },
      [&] {
        complete_pos = order.fetch_add(1);
        done = true;
      });
  while (!done) {
  }
  EXPECT_EQ(task_pos.load(), 0);
  EXPECT_EQ(complete_pos.load(), 1);
}

TEST(ThreadPoolTest, SubmitDetachedAllowsEmptyCompletionAndDrains) {
  std::atomic<int32_t> executed{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      pool.SubmitDetached(
          [&executed] { executed.fetch_add(1, std::memory_order_relaxed); },
          std::function<void()>());
    }
  }  // destructor joins after the queue is drained
  EXPECT_EQ(executed.load(), 200);
}

TEST(ThreadPoolTest, SubmitDetachedCompletionRunsOnAWorker) {
  ThreadPool pool(1);
  std::atomic<bool> completion_in_worker{false};
  std::atomic<bool> done{false};
  pool.SubmitDetached([] {},
                      [&] {
                        completion_in_worker = pool.InWorker();
                        done = true;
                      });
  while (!done) {
  }
  EXPECT_TRUE(completion_in_worker.load());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const int32_t threads : {1, 2, 3, 8}) {
    for (const int64_t n : {0, 1, 7, 64, 1000}) {
      std::vector<std::atomic<int32_t>> visits(static_cast<size_t>(n));
      const int32_t chunks = ParallelFor(
          ExecContext{threads}, n, [&](int64_t begin, int64_t end, int32_t) {
            for (int64_t i = begin; i < end; ++i) {
              visits[static_cast<size_t>(i)].fetch_add(1);
            }
          });
      if (n == 0) {
        EXPECT_EQ(chunks, 0);
        continue;
      }
      EXPECT_GE(chunks, 1);
      EXPECT_LE(chunks, threads);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1)
            << "index " << i << " at threads=" << threads << " n=" << n;
      }
    }
  }
}

TEST(ParallelForTest, ChunksAreContiguousAndAscending) {
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges(8, {-1, -1});
  const int32_t chunks = ParallelFor(
      ExecContext{4}, 103, [&](int64_t begin, int64_t end, int32_t chunk) {
        std::lock_guard<std::mutex> lock(mu);
        ranges[static_cast<size_t>(chunk)] = {begin, end};
      });
  ASSERT_GE(chunks, 1);
  int64_t expected_begin = 0;
  for (int32_t c = 0; c < chunks; ++c) {
    EXPECT_EQ(ranges[static_cast<size_t>(c)].first, expected_begin);
    EXPECT_GT(ranges[static_cast<size_t>(c)].second,
              ranges[static_cast<size_t>(c)].first);
    expected_begin = ranges[static_cast<size_t>(c)].second;
  }
  EXPECT_EQ(expected_begin, 103);
}

TEST(ParallelForTest, GrainLimitsChunkCount) {
  // 10 iterations at grain 8 fit in ceil(10/8) = 2 chunks at most.
  const int32_t chunks = ParallelFor(
      ExecContext{8}, 10, [](int64_t, int64_t, int32_t) {}, /*grain=*/8);
  EXPECT_LE(chunks, 2);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  std::atomic<int64_t> total{0};
  ParallelFor(ExecContext{4}, 16, [&](int64_t begin, int64_t end, int32_t) {
    for (int64_t i = begin; i < end; ++i) {
      // A nested section from a pool worker must degrade to inline
      // execution rather than waiting on its own pool.
      ParallelFor(ExecContext{4}, 32, [&](int64_t b, int64_t e, int32_t) {
        total.fetch_add(e - b, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 16 * 32);
}

TEST(StatsSinkTest, TotalsAreExactUnderConcurrentAdds) {
  StatsSink sink;
  ParallelFor(ExecContext{8}, 10000, [&](int64_t begin, int64_t end,
                                         int32_t) {
    for (int64_t i = begin; i < end; ++i) {
      sink.AddDistanceComputations(1);
      sink.AddResults(2);
    }
  });
  EXPECT_EQ(sink.distance_computations(), 10000);
  EXPECT_EQ(sink.results(), 20000);
  sink.Reset();
  EXPECT_EQ(sink.distance_computations(), 0);
  EXPECT_EQ(sink.results(), 0);
}

TEST(CountingOracleTest, CountsExactlyUnderConcurrentCallers) {
  Rng rng(11);
  const testing::ScalarPointOracle base(
      testing::RandomSeries(&rng, 64, 0.0, 100.0));
  const CountingOracle counting(base);
  ParallelFor(ExecContext{8}, 5000, [&](int64_t begin, int64_t end,
                                        int32_t) {
    for (int64_t i = begin; i < end; ++i) {
      counting.Distance(static_cast<ObjectId>(i % 64),
                        static_cast<ObjectId>((i * 7) % 64));
    }
  });
  EXPECT_EQ(counting.count(), 5000);
}

TEST(CountingQueryFnTest, SinkOverloadIsThreadSafe) {
  Rng rng(13);
  const testing::ScalarPointOracle oracle(
      testing::RandomSeries(&rng, 32, 0.0, 100.0));
  StatsSink sink;
  const QueryDistanceFn counted =
      CountingQueryFn(oracle.QueryFrom(50.0), &sink);
  ParallelFor(ExecContext{8}, 4096, [&](int64_t begin, int64_t end,
                                        int32_t) {
    for (int64_t i = begin; i < end; ++i) {
      counted(static_cast<ObjectId>(i % 32));
    }
  });
  EXPECT_EQ(sink.distance_computations(), 4096);
}

}  // namespace
}  // namespace subseq
