// CountingOracle: decorates a DistanceOracle / QueryDistanceFn with a
// distance-computation counter. Indexes count their own query-side calls;
// the tests use this decorator to count build-side computations and to
// assert pruning behaviour.

#ifndef SUBSEQ_TESTS_TESTING_COUNTING_ORACLE_H_
#define SUBSEQ_TESTS_TESTING_COUNTING_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <utility>

#include "subseq/exec/stats_sink.h"
#include "subseq/metric/oracle.h"

namespace subseq::testing {

/// Wraps an oracle and counts every Distance() call. Safe to share across
/// the threads of a parallel build: the counter is atomic (relaxed
/// ordering — counts are exact, no synchronization is implied; read the
/// total after the build has joined).
class CountingOracle final : public DistanceOracle {
 public:
  explicit CountingOracle(const DistanceOracle& base) : base_(base) {}

  int32_t size() const override { return base_.size(); }

  double Distance(ObjectId a, ObjectId b) const override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return base_.Distance(a, b);
  }

  double DistanceBounded(ObjectId a, ObjectId b,
                         double upper_bound) const override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return base_.DistanceBounded(a, b, upper_bound);
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  void Reset() { count_.store(0, std::memory_order_relaxed); }

 private:
  const DistanceOracle& base_;
  mutable std::atomic<int64_t> count_{0};
};

/// Wraps a query function and counts every call through a caller-owned
/// counter (the function object is copyable; the counter is shared).
/// Single-threaded use only — for concurrent callers use the StatsSink
/// overload below.
inline QueryDistanceFn CountingQueryFn(QueryDistanceFn fn, int64_t* counter) {
  return [fn = std::move(fn), counter](ObjectId id) {
    ++*counter;
    return fn(id);
  };
}

/// As above, but counts through a thread-safe sink; the returned function
/// may be invoked from any number of threads concurrently.
inline QueryDistanceFn CountingQueryFn(QueryDistanceFn fn, StatsSink* sink) {
  return [fn = std::move(fn), sink](ObjectId id) {
    sink->AddDistanceComputations(1);
    return fn(id);
  };
}

}  // namespace subseq::testing

#endif  // SUBSEQ_TESTS_TESTING_COUNTING_ORACLE_H_
