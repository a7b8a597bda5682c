// Microbenchmarks of the distance kernels (google-benchmark): exact and
// early-abandoning variants at window-ish lengths.

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "subseq/core/rng.h"
#include "subseq/distance/dtw.h"
#include "subseq/distance/erp.h"
#include "subseq/distance/euclidean.h"
#include "subseq/distance/frechet.h"
#include "subseq/distance/hamming.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/distance/simd/cpu_features.h"

namespace subseq {
namespace {

std::vector<double> MakeSeries(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v.push_back(rng.NextDouble(0.0, 10.0));
  return v;
}

std::vector<char> MakeString(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<char> v;
  v.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    v.push_back("ACDEFGHIKLMNPQRSTVWY"[rng.NextBounded(20)]);
  }
  return v;
}

template <typename Dist>
void ScalarKernel(benchmark::State& state, const Dist& dist) {
  const int n = static_cast<int>(state.range(0));
  const auto a = MakeSeries(n, 1);
  const auto b = MakeSeries(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Compute(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Erp(benchmark::State& state) {
  ErpDistance1D d;
  ScalarKernel(state, d);
}
void BM_Dtw(benchmark::State& state) {
  DtwDistance1D d;
  ScalarKernel(state, d);
}
void BM_Frechet(benchmark::State& state) {
  FrechetDistance1D d;
  ScalarKernel(state, d);
}
void BM_Euclidean(benchmark::State& state) {
  EuclideanDistance1D d;
  ScalarKernel(state, d);
}

void BM_Levenshtein(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = MakeString(n, 3);
  const auto b = MakeString(n, 4);
  LevenshteinDistance<char> d;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.Compute(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}

// The row DP on the same strings: the double instance never takes the
// char instance's bit-parallel kernel, so BM_Levenshtein over this row is
// the kernel's speedup, and the 64/65 arguments straddle its dispatch
// boundary (the shorter operand at most 64 long).
void BM_LevenshteinDp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = MakeString(n, 3);
  const auto b = MakeString(n, 4);
  const std::vector<double> wide_a(a.begin(), a.end());
  const std::vector<double> wide_b(b.begin(), b.end());
  LevenshteinDistance<double> d;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.Compute(wide_a, wide_b));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LevenshteinBounded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double bound = static_cast<double>(state.range(1));
  const auto a = MakeString(n, 3);
  const auto b = MakeString(n, 4);
  LevenshteinDistance<char> d;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.ComputeBounded(a, b, bound));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ErpBounded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double bound = static_cast<double>(state.range(1));
  const auto a = MakeSeries(n, 5);
  const auto b = MakeSeries(n, 6);
  ErpDistance1D d;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.ComputeBounded(a, b, bound));
  }
  state.SetItemsProcessed(state.iterations());
}

// Batched ComputeMany vs a per-pair Compute loop over 16 equal-length
// candidates — the SegmentHitDistances fill shape. Values are
// bit-identical by contract; only the throughput differs.
template <typename Dist>
void BatchedKernel(benchmark::State& state, const Dist& dist, bool batched) {
  const int n = static_cast<int>(state.range(0));
  const auto a = MakeSeries(n, 11);
  std::vector<std::vector<double>> storage;
  for (int c = 0; c < 16; ++c) {
    storage.push_back(MakeSeries(n, 20 + static_cast<uint64_t>(c)));
  }
  const std::vector<std::span<const double>> views(storage.begin(),
                                                   storage.end());
  std::vector<double> out(views.size());
  for (auto _ : state) {
    if (batched) {
      dist.ComputeMany(a, views, out.data());
    } else {
      for (size_t c = 0; c < views.size(); ++c) {
        out[c] = dist.Compute(a, views[c]);
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(views.size()));
}

void BM_DtwBatched(benchmark::State& state) {
  DtwDistance1D d;
  BatchedKernel(state, d, /*batched=*/true);
}
void BM_DtwScalarLoop(benchmark::State& state) {
  DtwDistance1D d;
  BatchedKernel(state, d, /*batched=*/false);
}
void BM_EuclideanBatched(benchmark::State& state) {
  EuclideanDistance1D d;
  BatchedKernel(state, d, /*batched=*/true);
}
void BM_EuclideanScalarLoop(benchmark::State& state) {
  EuclideanDistance1D d;
  BatchedKernel(state, d, /*batched=*/false);
}

// The same single-pair kernel at a forced dispatch level: the
// portable/native delta of the DP inner loops.
template <typename Dist>
void LevelKernel(benchmark::State& state, const Dist& dist,
                 simd::SimdLevel level) {
  if (!simd::SetSimdLevelForTesting(level)) {
    state.SkipWithError("dispatch level unavailable on this machine");
    return;
  }
  ScalarKernel(state, dist);
  simd::ClearSimdLevelForTesting();
}

void BM_DtwPortable(benchmark::State& state) {
  DtwDistance1D d;
  LevelKernel(state, d, simd::SimdLevel::kPortable);
}
void BM_DtwAvx2(benchmark::State& state) {
  DtwDistance1D d;
  LevelKernel(state, d, simd::SimdLevel::kAvx2);
}
void BM_ErpPortable(benchmark::State& state) {
  ErpDistance1D d;
  LevelKernel(state, d, simd::SimdLevel::kPortable);
}
void BM_ErpAvx2(benchmark::State& state) {
  ErpDistance1D d;
  LevelKernel(state, d, simd::SimdLevel::kAvx2);
}

// The anti-diagonal (wavefront) single-pair DP at a forced dispatch
// level, forced on at every length so short args measure it too; the
// row-DP counterpart is the plain BM_Dtw/BM_Erp row at the same length.
template <typename Dist>
void AntidiagKernel(benchmark::State& state, const Dist& dist,
                    simd::SimdLevel level) {
  if (!simd::SetSimdLevelForTesting(level)) {
    state.SkipWithError("dispatch level unavailable on this machine");
    return;
  }
  simd::SetAntidiagThresholdForTesting(1);
  ScalarKernel(state, dist);
  simd::ClearAntidiagThresholdForTesting();
  simd::ClearSimdLevelForTesting();
}

void BM_DtwAntidiagPortable(benchmark::State& state) {
  DtwDistance1D d;
  AntidiagKernel(state, d, simd::SimdLevel::kPortable);
}
void BM_DtwAntidiagAvx2(benchmark::State& state) {
  DtwDistance1D d;
  AntidiagKernel(state, d, simd::SimdLevel::kAvx2);
}
void BM_ErpAntidiagPortable(benchmark::State& state) {
  ErpDistance1D d;
  AntidiagKernel(state, d, simd::SimdLevel::kPortable);
}
void BM_ErpAntidiagAvx2(benchmark::State& state) {
  ErpDistance1D d;
  AntidiagKernel(state, d, simd::SimdLevel::kAvx2);
}

BENCHMARK(BM_Erp)->Arg(20)->Arg(50)->Arg(100);
BENCHMARK(BM_Dtw)->Arg(20)->Arg(50)->Arg(100);
BENCHMARK(BM_Frechet)->Arg(20)->Arg(50)->Arg(100);
BENCHMARK(BM_Euclidean)->Arg(20)->Arg(100)->Arg(1000);
BENCHMARK(BM_Levenshtein)->Arg(20)->Arg(50)->Arg(64)->Arg(65)->Arg(100);
BENCHMARK(BM_LevenshteinDp)->Arg(20)->Arg(50)->Arg(64)->Arg(65)->Arg(100);
BENCHMARK(BM_LevenshteinBounded)
    ->Args({20, 2})
    ->Args({20, 8})
    ->Args({100, 5});
BENCHMARK(BM_ErpBounded)->Args({20, 4})->Args({20, 40})->Args({100, 10});
BENCHMARK(BM_DtwBatched)->Arg(20)->Arg(50)->Arg(100);
BENCHMARK(BM_DtwScalarLoop)->Arg(20)->Arg(50)->Arg(100);
BENCHMARK(BM_EuclideanBatched)->Arg(20)->Arg(100)->Arg(1000);
BENCHMARK(BM_EuclideanScalarLoop)->Arg(20)->Arg(100)->Arg(1000);
BENCHMARK(BM_DtwPortable)->Arg(20)->Arg(100);
BENCHMARK(BM_DtwAvx2)->Arg(20)->Arg(100);
BENCHMARK(BM_ErpPortable)->Arg(20)->Arg(100);
BENCHMARK(BM_ErpAvx2)->Arg(20)->Arg(100);
BENCHMARK(BM_DtwAntidiagPortable)->Arg(100)->Arg(1000);
BENCHMARK(BM_DtwAntidiagAvx2)->Arg(100)->Arg(1000);
BENCHMARK(BM_ErpAntidiagPortable)->Arg(100)->Arg(1000);
BENCHMARK(BM_ErpAntidiagAvx2)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace subseq
