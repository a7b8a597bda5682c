// Shared infrastructure for the per-figure benchmark drivers.
//
// Every driver is deterministic (fixed seeds) and prints a paper-style
// table. Sizes default to laptop/CI scale; set SUBSEQ_BENCH_SCALE=full in
// the environment to run the paper's dataset sizes (expect minutes to
// tens of minutes per figure on one core).

#ifndef SUBSEQ_BENCH_BENCH_COMMON_H_
#define SUBSEQ_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "subseq/core/rng.h"
#include "subseq/exec/exec_context.h"
#include "subseq/exec/stats_sink.h"
#include "subseq/core/sequence.h"
#include "subseq/core/types.h"
#include "subseq/data/protein_gen.h"
#include "subseq/data/song_gen.h"
#include "subseq/data/trajectory_gen.h"
#include "subseq/distance/distance.h"
#include "subseq/frame/window_oracle.h"
#include "subseq/frame/windowing.h"
#include "subseq/metric/range_index.h"

namespace subseq::bench {

/// The paper's window length for all three datasets.
inline constexpr int32_t kWindowLength = 20;

/// True when SUBSEQ_BENCH_SCALE=full.
bool FullScale();

/// Picks the CI-scale or paper-scale variant.
template <typename T>
T Scaled(T ci_value, T full_value) {
  return FullScale() ? full_value : ci_value;
}

/// Prints a separator + figure banner.
void Banner(const std::string& figure, const std::string& description);

/// Builds a protein database holding >= num_windows windows of length 20,
/// with UniProt-like family redundancy (see data/protein_gen.h).
SequenceDatabase<char> MakeProteinDb(int32_t num_windows, uint64_t seed);

/// Builds a pitch-sequence (SONGS) database holding >= num_windows windows.
SequenceDatabase<double> MakeSongDb(int32_t num_windows, uint64_t seed);

/// Builds a trajectory (TRAJ) database holding >= num_windows windows.
SequenceDatabase<Point2d> MakeTrajDb(int32_t num_windows, uint64_t seed);

/// Query workload: `count` query segments of `length` elements (the
/// window length unless given). Half are mutated database cuts starting
/// at a random window — at the window length, mutated copies of
/// database windows (the retrieval scenario the framework exists for);
/// half are fresh draws from the generator distribution.
std::vector<std::vector<char>> MakeProteinQueries(
    const SequenceDatabase<char>& db, const WindowCatalog& catalog,
    int32_t count, uint64_t seed, int32_t length = kWindowLength);
std::vector<std::vector<double>> MakeSongQueries(
    const SequenceDatabase<double>& db, const WindowCatalog& catalog,
    int32_t count, uint64_t seed, int32_t length = kWindowLength);
std::vector<std::vector<Point2d>> MakeTrajQueries(
    const SequenceDatabase<Point2d>& db, const WindowCatalog& catalog,
    int32_t count, uint64_t seed, int32_t length = kWindowLength);

/// Builds the named index ("rn", "rn-5", "ct", "mv-5", "mv-20", "mv-50",
/// "scan") over the oracle.
std::unique_ptr<RangeIndex> BuildIndex(const std::string& kind,
                                       const DistanceOracle& oracle);

/// Average fraction (in [0, 1]) of query-to-window distance computations
/// relative to a full scan, over the given queries at one epsilon. The
/// workload is issued as one BatchRangeQuery over `exec`; counts (and so
/// the reported fraction) are identical at any thread setting.
template <typename T>
double AvgComputationFraction(const RangeIndex& index,
                              const WindowOracle<T>& oracle,
                              const std::vector<std::vector<T>>& queries,
                              double epsilon,
                              const ExecContext& exec = {}) {
  std::vector<QueryDistanceFn> fns;
  fns.reserve(queries.size());
  for (const auto& q : queries) {
    fns.push_back(oracle.SegmentQuery(std::span<const T>(q)));
  }
  StatsSink sink;
  index.BatchRangeQuery(fns, epsilon, exec, &sink);
  return static_cast<double>(sink.distance_computations()) /
         (static_cast<double>(queries.size()) *
          static_cast<double>(oracle.size()));
}

/// One machine-readable benchmark record: a row name plus named numeric
/// metrics.
struct BenchRecord {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;
};

/// Writes `{"benchmark": ..., "scale": ..., "nproc": ..., "simd": ...,
/// "records": [...]}` to `path` (the machine-readable counterpart of the
/// printed tables), stamped with the hardware thread count and the active
/// SIMD dispatch level so a ratio can be read against the machine.
/// Returns false if the file cannot be written.
bool WriteBenchJson(const std::string& path, const std::string& benchmark,
                    const std::vector<BenchRecord>& records);

}  // namespace subseq::bench

#endif  // SUBSEQ_BENCH_BENCH_COMMON_H_
