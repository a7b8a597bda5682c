// Tests of the benchmark's own arithmetic: nearest-rank percentiles and
// the tail-support rule, failure counting, and the open-loop due-time
// accounting, driven against fake servers built on subseq's Future.

#include "loadgen.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "subseq/serve/future.h"

namespace perfbench {
namespace {

using subseq::Future;
using subseq::Promise;
using std::chrono::milliseconds;

std::vector<double> Evenly(double gap_s, int n) {
  std::vector<double> due;
  for (int i = 0; i < n; ++i) due.push_back(gap_s * i);
  return due;
}

TEST(NearestRank, PicksTheSmallestSampleCoveringTheQuantile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(NearestRank(v, 0.50), 50);
  EXPECT_EQ(NearestRank(v, 0.99), 99);
  EXPECT_EQ(NearestRank(v, 1.00), 100);
  EXPECT_EQ(NearestRank(v, 0.001), 1);
  EXPECT_EQ(NearestRank({7.0}, 0.99), 7.0);
  EXPECT_EQ(NearestRank({1.0, 2.0, 3.0}, 0.5), 2.0);
  EXPECT_TRUE(std::isnan(NearestRank({}, 0.5)));
}

TEST(MiddleMean, AveragesTheMiddleHalf) {
  EXPECT_DOUBLE_EQ(MiddleMean({8, 1, 7, 2, 6, 3, 5, 4}), 4.5);  // drops 1, 2, 7, 8
  EXPECT_DOUBLE_EQ(MiddleMean({100, 1, 2, 3, 4, 5, 6, -100}), 3.5);
  // Two clusters of four: the median (nearest rank) takes a side, the
  // middle mean sits between them.
  const std::vector<double> clusters = {3.0, 3.1, 3.2, 3.3, 4.4, 4.5, 4.6, 4.7};
  EXPECT_DOUBLE_EQ(NearestRank(clusters, 0.5), 3.3);
  EXPECT_DOUBLE_EQ(MiddleMean(clusters), (3.2 + 3.3 + 4.4 + 4.5) / 4);
  EXPECT_DOUBLE_EQ(MiddleMean({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(MiddleMean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_TRUE(std::isnan(MiddleMean({})));
}

TEST(NearestRank, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10);
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9);
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_EQ(SamplesNeeded(0.99), 1000);
  EXPECT_EQ(SamplesNeeded(0.90), 100);
  EXPECT_EQ(SamplesNeeded(0.50), 20);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0);
}

TEST(PhaseTally, CountsEveryKindOfFailure) {
  PhaseTally t;
  t.Add(Outcome::kOk);
  t.Add(Outcome::kOk);
  t.Add(Outcome::kOk);
  t.Add(Outcome::kError);
  t.Add(Outcome::kTimeout);
  EXPECT_EQ(t.sent, 5);
  EXPECT_EQ(t.succeeded, 3);
  EXPECT_EQ(t.failed(), 2);
  t.MarkWrong();  // the correctness check found a wrong answer
  EXPECT_EQ(t.succeeded, 2);
  EXPECT_EQ(t.failed(), 3);
  EXPECT_EQ(t.sent, t.succeeded + t.failed());

  PhaseTally u;
  for (int i = 0; i < 5; ++i) u.Add(Outcome::kOk);
  const std::vector<PhaseTally> both = {t, u};
  EXPECT_DOUBLE_EQ(FailFraction(both), 3.0 / 10.0);
  EXPECT_EQ(FailFraction(std::vector<PhaseTally>{}), 0.0);
}

TEST(ArrivalSchedule, IsSeededAndHasTheRequestedRate) {
  const auto uniform = [](int64_t i) {
    return static_cast<double>(MixSeed(42, static_cast<uint64_t>(i)) >> 11) *
           0x1.0p-53;
  };
  const std::vector<double> a = ArrivalSchedule(100.0, 20000, uniform);
  const std::vector<double> b = ArrivalSchedule(100.0, 20000, uniform);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.front(), 0.0);
  for (size_t i = 1; i < a.size(); ++i) {
    ASSERT_GE(a[i] - a[i - 1], 0.005 - 1e-12);
    ASSERT_LE(a[i] - a[i - 1], 0.015 + 1e-12);
  }
  const double mean_gap = a.back() / static_cast<double>(a.size() - 1);
  EXPECT_NEAR(mean_gap, 0.01, 0.0002);
}

// A one-worker FIFO server whose service times are given per request.
class FifoServer {
 public:
  explicit FifoServer(std::vector<int> service_ms)
      : service_ms_(std::move(service_ms)), worker_([this] { Serve(); }) {}
  ~FifoServer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }
  Future<int> Submit(size_t i) {
    Promise<int> promise;
    Future<int> future = promise.GetFuture();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back(i, std::move(promise));
    }
    cv_.notify_all();
    return future;
  }

 private:
  void Serve() {
    for (;;) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;
      auto [i, promise] = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      std::this_thread::sleep_for(milliseconds(service_ms_[i]));
      promise.Set(static_cast<int>(i));
    }
  }

  const std::vector<int> service_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<size_t, Promise<int>>> queue_;  // guarded by mu_
  bool stop_ = false;                                  // guarded by mu_
  std::thread worker_;
};

TEST(OpenLoop, StalledCompletionChargesTheRequestsQueuedBehindIt) {
  // Ten requests due every 5 ms; the first takes 80 ms, the rest 1 ms.
  // Queued behind the stall, request k cannot finish before 80 ms, so
  // timed from its due time (5k ms) it waited at least 80 - 5k ms, even
  // though its own service took 1 ms.
  std::vector<int> service(10, 1);
  service[0] = 80;
  FifoServer server(service);
  std::vector<int> got(10, -1);
  const OpenLoopResult r = RunOpenLoop(
      Evenly(0.005, 10), [&](size_t i) { return server.Submit(i); },
      [&](size_t i, int v) { got[i] = v; }, 5.0);
  ASSERT_EQ(r.completed(), 10);
  const std::vector<double> lat = r.LatenciesMs();
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(got[static_cast<size_t>(k)], k);
    EXPECT_GE(lat[static_cast<size_t>(k)], 80.0 - 5.0 * k - 0.5) << "request " << k;
  }
}

TEST(OpenLoop, GeneratorStallIsChargedFromTheDueTime) {
  // Submitting request 0 blocks the generator for 60 ms; requests due
  // meanwhile go out late, and both their lateness and their latency
  // count from when they were due.
  const OpenLoopResult r = RunOpenLoop(
      Evenly(0.005, 8),
      [&](size_t i) {
        if (i == 0) std::this_thread::sleep_for(milliseconds(60));
        Promise<int> p;
        p.Set(0);
        return p.GetFuture();
      },
      [](size_t, int) {}, 5.0);
  ASSERT_EQ(r.completed(), 8);
  const std::vector<double> lat = r.LatenciesMs();
  const std::vector<double> late = r.LatenessMs();
  for (int k = 1; k < 8; ++k) {
    EXPECT_GE(late[static_cast<size_t>(k)], 60.0 - 5.0 * k - 0.5);
    EXPECT_GE(lat[static_cast<size_t>(k)], 60.0 - 5.0 * k - 0.5);
  }
  EXPECT_GE(NearestRank(late, 0.99), 50.0);
}

TEST(OpenLoop, CompletionsAreStampedOutOfSubmitOrder) {
  // Request 0 finishes 150 ms late; the others finish at once. Waiting in
  // submit order would stamp them all after request 0.
  std::vector<std::thread> finishers;
  const OpenLoopResult r = RunOpenLoop(
      Evenly(0.002, 6),
      [&](size_t i) {
        Promise<int> p;
        Future<int> f = p.GetFuture();
        if (i == 0) {
          finishers.emplace_back([p]() mutable {
            std::this_thread::sleep_for(milliseconds(150));
            p.Set(0);
          });
        } else {
          p.Set(static_cast<int>(i));
        }
        return f;
      },
      [](size_t, int) {}, 5.0);
  for (std::thread& t : finishers) t.join();
  const std::vector<double> lat = r.LatenciesMs();
  ASSERT_EQ(lat.size(), 6u);
  EXPECT_GE(lat[0], 149.0);
  for (size_t k = 1; k < lat.size(); ++k) EXPECT_LT(lat[k], 75.0) << "request " << k;
}

TEST(OpenLoop, NeverCompletedRequestsAreLeftIncomplete) {
  std::vector<Promise<int>> never(3);
  const OpenLoopResult r = RunOpenLoop(
      Evenly(0.001, 3),
      [&](size_t i) {
        if (i == 1) return never[i].GetFuture();
        Promise<int> p;
        p.Set(1);
        return p.GetFuture();
      },
      [](size_t, int) {}, 0.05);
  EXPECT_EQ(r.completed(), 2);
  EXPECT_FALSE(r.records[1].completed);
  EXPECT_EQ(r.LatenciesMs().size(), 2u);
  never[1].Set(0);  // release the state the abandoned future shares
}

TEST(ClosedLoop, ProgressInterpolatesBetweenCompletions) {
  const std::vector<double> done = {0.1, 0.3, 0.4};
  EXPECT_DOUBLE_EQ(Progress(done, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Progress(done, 0.05), 0.5);
  EXPECT_DOUBLE_EQ(Progress(done, 0.1), 1.0);
  EXPECT_DOUBLE_EQ(Progress(done, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Progress(done, 0.4), 3.0);
  EXPECT_DOUBLE_EQ(Progress(done, 0.9), 3.0);  // past the last completion
  EXPECT_DOUBLE_EQ(Progress({}, 0.5), 0.0);
}

TEST(ClosedLoop, CapacityCountsOnlySuccessesAfterWarmup) {
  const ClosedLoopResult all = RunClosedLoop(2, 0.6, 0.1, [](size_t) {
    std::this_thread::sleep_for(milliseconds(2));
    return true;
  });
  const ClosedLoopResult half = RunClosedLoop(2, 0.6, 0.1, [](size_t i) {
    std::this_thread::sleep_for(milliseconds(2));
    return i % 2 == 0;
  });
  EXPECT_GT(all.sent, 0);
  // Two clients at >= 2 ms per call: at most 1000 completions per second.
  EXPECT_GT(all.capacity_qps, 100.0);
  EXPECT_LE(all.capacity_qps, 1000.0);
  EXPECT_LT(half.capacity_qps, 0.75 * all.capacity_qps);
}

}  // namespace
}  // namespace perfbench
