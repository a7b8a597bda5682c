// Load-generation arithmetic of the repository benchmark: nearest-rank
// percentiles and the tail-support rule, per-phase failure tallies, the
// seeded arrival schedule, and the closed-loop and open-loop runners.
//
// Header-only and free of any subseq type, so loadgen_test.cc exercises
// exactly the code the benchmark runs against fake servers.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// 1-based nearest rank of quantile q in (0, 1] over n samples:
/// ceil(q * n), clamped to [1, n]. The small slack keeps q * n that is
/// an integer in exact arithmetic (0.99 * 1000) from rounding up a rank.
inline int64_t NearestRankIndex(int64_t n, double q) {
  const auto rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank, 1, std::max<int64_t>(n, 1));
}

/// Nearest-rank percentile: the smallest sample with at least q * n
/// samples at or below it. NaN for no samples.
inline double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto n = static_cast<int64_t>(values.size());
  const auto k = static_cast<size_t>(NearestRankIndex(n, q) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(k),
                   values.end());
  return values[k];
}

/// Mean of the middle half of `values`: the lowest and the highest
/// quarter (rounded down) are dropped. Like a median, a few values from a
/// slow spell of the machine do not move it; unlike a median, it does not
/// jump from one cluster to the other when the values fall into two
/// (traj_ingest's rounds alternate between a fresh and a grown delta).
/// NaN for no values.
inline double MiddleMean(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() / 4;
  double sum = 0.0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

/// Samples ranked strictly past the q-th nearest-rank percentile.
inline int64_t SamplesBeyond(int64_t n, double q) {
  return n <= 0 ? 0 : n - NearestRankIndex(n, q);
}

/// A percentile is reported only when at least `min_beyond` samples lie
/// beyond it; fewer would make it one or two unlucky requests.
inline constexpr int64_t kMinSamplesBeyond = 10;
inline bool PercentileSupported(int64_t n, double q,
                                int64_t min_beyond = kMinSamplesBeyond) {
  return SamplesBeyond(n, q) >= min_beyond;
}

/// The smallest sample count that supports quantile q.
inline int64_t SamplesNeeded(double q, int64_t min_beyond = kMinSamplesBeyond) {
  int64_t n = 1;
  while (!PercentileSupported(n, q, min_beyond)) ++n;
  return n;
}

/// How one attempted operation ended.
enum class Outcome {
  kOk,
  kError,     // the call returned a non-OK status
  kTimeout,   // never completed within the phase's drain deadline
  kWrong,     // completed OK but disagreed with the reference answer
};

/// Requests sent / succeeded / failed in one phase of one workload. A
/// request counts as failed if it returned an error, never completed, or
/// gave a wrong answer; the last is found after the phase by the
/// correctness check, which moves the request from succeeded to failed.
struct PhaseTally {
  std::string phase;
  int64_t sent = 0;
  int64_t succeeded = 0;
  int64_t errors = 0;
  int64_t timeouts = 0;
  int64_t wrong = 0;

  int64_t failed() const { return errors + timeouts + wrong; }

  void Add(Outcome outcome) {
    ++sent;
    switch (outcome) {
      case Outcome::kOk: ++succeeded; break;
      case Outcome::kError: ++errors; break;
      case Outcome::kTimeout: ++timeouts; break;
      case Outcome::kWrong: ++wrong; break;
    }
  }

  /// Reclassifies one request this tally counted as succeeded.
  void MarkWrong() {
    --succeeded;
    ++wrong;
  }
};

/// Failed over attempted across phases; 0 when nothing was attempted.
inline double FailFraction(std::span<const PhaseTally> tallies) {
  int64_t sent = 0;
  int64_t failed = 0;
  for (const PhaseTally& t : tallies) {
    sent += t.sent;
    failed += t.failed();
  }
  return sent == 0 ? 0.0 : static_cast<double>(failed) /
                               static_cast<double>(sent);
}

/// SplitMix64 finalizer: decorrelates (seed, index) pairs so request i
/// of a stream is a pure function of the run's seed and i.
inline uint64_t MixSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (index + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Due offsets (seconds from phase start) of `count` arrivals at `rate`
/// per second, each gap uniform in [0.5, 1.5] / rate; `uniform01(i)`
/// supplies the i-th uniform draw in [0, 1), so the schedule is a pure
/// function of the caller's seed. Poisson gaps would make p99 measure
/// which arrival bursts a seed happened to draw (its spread across seeds
/// was 0.3 of its median on proteins_hot); bounded jitter keeps p99 on
/// the service-time tail while arrivals still never wait for completions.
template <typename Uniform>
std::vector<double> ArrivalSchedule(double rate, int64_t count,
                                    Uniform&& uniform01) {
  std::vector<double> due;
  due.reserve(static_cast<size_t>(count));
  double t = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    due.push_back(t);
    t += (0.5 + uniform01(i)) / rate;
  }
  return due;
}

/// One open-loop request, in seconds from the phase start.
struct OpenLoopRecord {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool completed = false;

  /// Completion minus DUE time: a stall (of the server or of the
  /// generator itself) is charged to every request queued behind it.
  double latency_ms() const { return 1e3 * (done_s - due_s); }
};

struct OpenLoopResult {
  std::vector<OpenLoopRecord> records;

  /// latency_ms() of every completed request.
  std::vector<double> LatenciesMs() const {
    std::vector<double> out;
    for (const OpenLoopRecord& r : records) {
      if (r.completed) out.push_back(r.latency_ms());
    }
    return out;
  }
  /// How late the generator sent each request.
  std::vector<double> LatenessMs() const {
    std::vector<double> out;
    out.reserve(records.size());
    for (const OpenLoopRecord& r : records) {
      out.push_back(1e3 * (r.sent_s - r.due_s));
    }
    return out;
  }
  int64_t completed() const {
    return std::count_if(records.begin(), records.end(),
                         [](const OpenLoopRecord& r) { return r.completed; });
  }
};

/// Open loop: request i is sent at phase start + due_s[i] whatever the
/// state of earlier requests. `submit(i)` returns a future (Ready / Get);
/// `on_done(i, value)` receives each completed value on the collector
/// thread. The futures carry no completion callback, so a collector
/// thread polls every outstanding one and stamps each completion when it
/// first sees it ready — in completion order, not submit order. Requests
/// still outstanding `drain_timeout_s` after the last send are left
/// incomplete (the caller counts them as timeouts).
template <typename Submit, typename OnDone>
OpenLoopResult RunOpenLoop(std::span<const double> due_s, Submit&& submit,
                           OnDone&& on_done, double drain_timeout_s) {
  using FutureT = decltype(submit(size_t{0}));
  OpenLoopResult result;
  result.records.resize(due_s.size());
  for (size_t i = 0; i < due_s.size(); ++i) result.records[i].due_s = due_s[i];

  std::mutex mu;
  std::vector<std::pair<size_t, FutureT>> handoff;  // guarded by mu
  std::atomic<bool> all_sent{false};
  std::atomic<int64_t> drain_deadline_ns{std::numeric_limits<int64_t>::max()};
  const Clock::time_point start = Clock::now();

  std::thread collector([&] {
    std::vector<std::pair<size_t, FutureT>> outstanding;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        for (auto& entry : handoff) outstanding.push_back(std::move(entry));
        handoff.clear();
      }
      bool progressed = false;
      for (size_t k = 0; k < outstanding.size();) {
        if (!outstanding[k].second.Ready()) {
          ++k;
          continue;
        }
        const Clock::time_point done = Clock::now();
        const size_t i = outstanding[k].first;
        result.records[i].done_s = SecondsBetween(start, done);
        result.records[i].completed = true;
        on_done(i, outstanding[k].second.Get());
        outstanding[k] = std::move(outstanding.back());
        outstanding.pop_back();
        progressed = true;
      }
      if (all_sent.load()) {
        bool empty;
        {
          std::lock_guard<std::mutex> lock(mu);
          empty = handoff.empty() && outstanding.empty();
        }
        if (empty) return;
        const int64_t now_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start).count();
        if (now_ns > drain_deadline_ns.load()) return;
      }
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  for (size_t i = 0; i < due_s.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s[i])));
    result.records[i].sent_s = SecondsBetween(start, Clock::now());
    FutureT future = submit(i);
    std::lock_guard<std::mutex> lock(mu);
    handoff.emplace_back(i, std::move(future));
  }
  drain_deadline_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - start + std::chrono::duration<double>(drain_timeout_s))
          .count());
  all_sent.store(true);
  collector.join();
  return result;
}

/// Successful calls one closed-loop client has completed by time t, as a
/// continuous function: k at its k-th success (`done_s` ascending),
/// linear in between, 0 at the start. Counting whole completions in a
/// slice would make the rate a whole count over a fixed width: it would
/// move in steps, and slow workloads would repeat the same few values.
inline double Progress(const std::vector<double>& done_s, double t) {
  const auto next = std::upper_bound(done_s.begin(), done_s.end(), t);
  const auto k = next - done_s.begin();
  if (next == done_s.end()) return static_cast<double>(k);
  const double prev = k == 0 ? 0.0 : done_s[static_cast<size_t>(k - 1)];
  return static_cast<double>(k) + (t - prev) / (*next - prev);
}

/// Closed loop: `clients` threads each call `call(i)` (blocking until the
/// answer) for successive request indexes i until `seconds` elapse;
/// `call` returns whether the request succeeded. Capacity is the
/// successful completions per second (summed Progress over clients)
/// after the first `warmup_s` seconds. The caller runs several short
/// loops and takes their MiddleMean, so a transient stall of the machine
/// moves one loop, not the result.
struct ClosedLoopResult {
  int64_t sent = 0;
  double capacity_qps = 0.0;
};

template <typename Call>
ClosedLoopResult RunClosedLoop(int clients, double seconds, double warmup_s,
                               Call&& call) {
  std::atomic<int64_t> next{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::vector<double>> done_s(static_cast<size_t>(clients));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      while (Clock::now() < end) {
        const int64_t i = next.fetch_add(1);
        const bool ok = call(static_cast<size_t>(i));
        if (ok) done_s[static_cast<size_t>(c)].push_back(SecondsBetween(start, Clock::now()));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  ClosedLoopResult result;
  result.sent = next.load();
  double completed = 0.0;
  for (const std::vector<double>& client : done_s) {
    completed += Progress(client, seconds) - Progress(client, warmup_s);
  }
  result.capacity_qps = completed / (seconds - warmup_s);
  return result;
}

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
