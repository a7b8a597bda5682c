// Microbenchmarks of index operations (google-benchmark) on a scalar
// metric space: reference-net / cover-tree construction and range query.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "subseq/core/rng.h"
#include "subseq/exec/exec_context.h"
#include "subseq/metric/linear_scan.h"
#include "subseq/metric/mv_index.h"
#include "subseq/metric/oracle.h"
#include "subseq/metric/reference_net.h"

namespace subseq {
namespace {

class PointOracle final : public DistanceOracle {
 public:
  explicit PointOracle(std::vector<double> pts) : pts_(std::move(pts)) {}
  int32_t size() const override {
    return static_cast<int32_t>(pts_.size());
  }
  double Distance(ObjectId a, ObjectId b) const override {
    return std::fabs(pts_[static_cast<size_t>(a)] -
                     pts_[static_cast<size_t>(b)]);
  }
  QueryDistanceFn QueryFrom(double q) const {
    return [this, q](ObjectId id) {
      return std::fabs(q - pts_[static_cast<size_t>(id)]);
    };
  }

 private:
  std::vector<double> pts_;
};

std::vector<double> MakePoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> pts;
  pts.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pts.push_back(rng.NextDouble(0.0, 1000.0));
  return pts;
}

void BM_ReferenceNetBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const PointOracle oracle(MakePoints(n, 7));
  for (auto _ : state) {
    ReferenceNet net = ReferenceNet::BuildAll(oracle);
    benchmark::DoNotOptimize(net.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// The cover tree is the reference net capped at one parent per node.
void BM_CoverTreeBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const PointOracle oracle(MakePoints(n, 7));
  ReferenceNetOptions options;
  options.max_parents = 1;
  for (auto _ : state) {
    ReferenceNet tree = ReferenceNet::BuildAll(oracle, options);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_ReferenceNetRangeQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double eps = static_cast<double>(state.range(1));
  const PointOracle oracle(MakePoints(n, 9));
  const ReferenceNet net = ReferenceNet::BuildAll(oracle);
  Rng rng(10);
  for (auto _ : state) {
    const double q = rng.NextDouble(0.0, 1000.0);
    benchmark::DoNotOptimize(net.RangeQuery(oracle.QueryFrom(q), eps,
                                            nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LinearScanRangeQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double eps = static_cast<double>(state.range(1));
  const PointOracle oracle(MakePoints(n, 9));
  const LinearScan scan(oracle.size());
  Rng rng(10);
  for (auto _ : state) {
    const double q = rng.NextDouble(0.0, 1000.0);
    benchmark::DoNotOptimize(scan.RangeQuery(oracle.QueryFrom(q), eps,
                                             nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_MvIndexRangeQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double eps = static_cast<double>(state.range(1));
  const PointOracle oracle(MakePoints(n, 9));
  const MvIndex index(oracle);
  Rng rng(10);
  for (auto _ : state) {
    const double q = rng.NextDouble(0.0, 1000.0);
    benchmark::DoNotOptimize(index.RangeQuery(oracle.QueryFrom(q), eps,
                                              nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}

// Thread scaling of the exec layer (the second benchmark argument is
// ExecContext::num_threads). Results are identical at every setting;
// only wall-clock should move.
void BM_MvIndexBuildThreads(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const PointOracle oracle(MakePoints(n, 7));
  MvIndexOptions options;
  options.num_references = 20;
  options.sample_size = 400;
  options.exec = ExecContext{threads};
  for (auto _ : state) {
    const MvIndex index(oracle, options);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_BatchRangeQueryThreads(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const PointOracle oracle(MakePoints(n, 9));
  const LinearScan scan(oracle.size());
  Rng rng(10);
  std::vector<QueryDistanceFn> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(oracle.QueryFrom(rng.NextDouble(0.0, 1000.0)));
  }
  const ExecContext exec{threads};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scan.BatchRangeQuery(queries, 10.0, exec, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}

BENCHMARK(BM_ReferenceNetBuild)->Arg(1000)->Arg(5000);
BENCHMARK(BM_CoverTreeBuild)->Arg(1000)->Arg(5000);
BENCHMARK(BM_ReferenceNetRangeQuery)
    ->Args({10000, 1})
    ->Args({10000, 10})
    ->Args({10000, 100});
BENCHMARK(BM_LinearScanRangeQuery)->Args({10000, 1})->Args({10000, 100});
BENCHMARK(BM_MvIndexRangeQuery)
    ->Args({10000, 1})
    ->Args({10000, 10})
    ->Args({10000, 100});
BENCHMARK(BM_MvIndexBuildThreads)
    ->Args({5000, 1})
    ->Args({5000, 2})
    ->Args({5000, 4})
    ->Args({5000, 8});
BENCHMARK(BM_BatchRangeQueryThreads)
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->Args({20000, 4})
    ->Args({20000, 8});

}  // namespace
}  // namespace subseq
