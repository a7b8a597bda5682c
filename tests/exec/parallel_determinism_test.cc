// Parallel determinism: every query type over every IndexKind must
// return element-wise identical results — and identical stats totals —
// at num_threads = 1 and num_threads = 8, on all three paper domains
// (PROTEINS / SONGS / TRAJ). This is the exec layer's core contract:
// threads buy wall-clock time, never answers.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "subseq/data/protein_gen.h"
#include "subseq/data/song_gen.h"
#include "subseq/data/trajectory_gen.h"
#include "subseq/distance/erp.h"
#include "subseq/distance/frechet.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/exec/stats_sink.h"
#include "subseq/frame/matcher.h"
#include "subseq/metric/linear_scan.h"
#include "testing/helpers.h"

namespace subseq {
namespace {

constexpr IndexKind kAllKinds[] = {
    IndexKind::kReferenceNet, IndexKind::kCoverTree, IndexKind::kMvIndex,
    IndexKind::kLinearScan};

const char* KindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kReferenceNet: return "reference-net";
    case IndexKind::kCoverTree: return "cover-tree";
    case IndexKind::kMvIndex: return "mv-index";
    case IndexKind::kLinearScan: return "linear-scan";
  }
  return "?";
}

void ExpectStatsEqual(const MatchQueryStats& a, const MatchQueryStats& b,
                      const char* where) {
  EXPECT_EQ(a.segments, b.segments) << where;
  EXPECT_EQ(a.filter_computations, b.filter_computations) << where;
  EXPECT_EQ(a.hits, b.hits) << where;
  EXPECT_EQ(a.chains, b.chains) << where;
  EXPECT_EQ(a.verifications, b.verifications) << where;
}

/// Runs all three query types at the given thread budget.
template <typename T>
struct QueryOutcome {
  std::vector<SubsequenceMatch> range;
  std::optional<SubsequenceMatch> longest;
  std::optional<SubsequenceMatch> nearest;
  MatchQueryStats range_stats;
  MatchQueryStats longest_stats;
  MatchQueryStats nearest_stats;
  int64_t build_computations = 0;
};

template <typename T>
QueryOutcome<T> RunAllQueries(const SequenceDatabase<T>& db,
                              const SequenceDistance<T>& dist,
                              std::span<const T> query, IndexKind kind,
                              double epsilon, int32_t num_threads) {
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = kind;
  options.exec.num_threads = num_threads;
  auto matcher =
      std::move(SubsequenceMatcher<T>::Build(db, dist, options)).ValueOrDie();

  QueryOutcome<T> out;
  out.build_computations =
      matcher->index().build_stats().distance_computations;
  auto range = matcher->RangeSearch(query, epsilon, &out.range_stats);
  EXPECT_TRUE(range.ok()) << range.status().ToString();
  if (range.ok()) out.range = std::move(range).ValueOrDie();
  auto longest = matcher->LongestMatch(query, epsilon, &out.longest_stats);
  EXPECT_TRUE(longest.ok()) << longest.status().ToString();
  if (longest.ok()) out.longest = std::move(longest).ValueOrDie();
  auto nearest = matcher->NearestMatch(query, 2.0 * epsilon + 1.0, 0.5,
                                       &out.nearest_stats);
  EXPECT_TRUE(nearest.ok()) << nearest.status().ToString();
  if (nearest.ok()) out.nearest = std::move(nearest).ValueOrDie();
  return out;
}

template <typename T>
void ExpectDeterministicAcrossThreads(const SequenceDatabase<T>& db,
                                      const SequenceDistance<T>& dist,
                                      std::span<const T> query,
                                      double epsilon) {
  for (const IndexKind kind : kAllKinds) {
    SCOPED_TRACE(KindName(kind));
    const QueryOutcome<T> sequential =
        RunAllQueries(db, dist, query, kind, epsilon, /*num_threads=*/1);
    const QueryOutcome<T> parallel =
        RunAllQueries(db, dist, query, kind, epsilon, /*num_threads=*/8);

    // The index build must perform the same computations either way.
    EXPECT_EQ(sequential.build_computations, parallel.build_computations);

    EXPECT_EQ(sequential.range, parallel.range);
    EXPECT_EQ(sequential.longest.has_value(), parallel.longest.has_value());
    if (sequential.longest.has_value() && parallel.longest.has_value()) {
      EXPECT_EQ(*sequential.longest, *parallel.longest);
      EXPECT_EQ(sequential.longest->distance, parallel.longest->distance);
    }
    EXPECT_EQ(sequential.nearest.has_value(), parallel.nearest.has_value());
    if (sequential.nearest.has_value() && parallel.nearest.has_value()) {
      EXPECT_EQ(*sequential.nearest, *parallel.nearest);
      EXPECT_EQ(sequential.nearest->distance, parallel.nearest->distance);
    }
    ExpectStatsEqual(sequential.range_stats, parallel.range_stats,
                     "RangeSearch");
    ExpectStatsEqual(sequential.longest_stats, parallel.longest_stats,
                     "LongestMatch");
    ExpectStatsEqual(sequential.nearest_stats, parallel.nearest_stats,
                     "NearestMatch");
    // Sanity: the workload actually exercised the pipeline.
    EXPECT_GT(sequential.range_stats.segments, 0);
    EXPECT_GT(sequential.range_stats.hits, 0);
  }
}

/// A query sharing a region with the database: the first sequence's
/// prefix, so every epsilon >= 0 yields hits and verified matches.
template <typename T>
std::vector<T> QueryFromDatabase(const SequenceDatabase<T>& db,
                                 int32_t length) {
  const Sequence<T>& seq = db.at(0);
  EXPECT_GE(seq.size(), length);
  const auto view = seq.Subsequence(Interval{0, length});
  return std::vector<T>(view.begin(), view.end());
}

TEST(ParallelDeterminismTest, ProteinsAllIndexKinds) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 301});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const LevenshteinDistance<char> dist;
  const std::vector<char> query = QueryFromDatabase(db, 26);
  ExpectDeterministicAcrossThreads<char>(db, dist,
                                         std::span<const char>(query), 1.0);
}

TEST(ParallelDeterminismTest, SongsAllIndexKinds) {
  SongGenerator gen(SongGenOptions{.mean_length = 80, .seed = 302});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const FrechetDistance1D dist;
  const std::vector<double> query = QueryFromDatabase(db, 26);
  ExpectDeterministicAcrossThreads<double>(
      db, dist, std::span<const double>(query), 0.5);
}

TEST(ParallelDeterminismTest, TrajectoriesAllIndexKinds) {
  TrajectoryGenerator gen(TrajectoryGenOptions{.mean_length = 80,
                                               .seed = 303});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const ErpDistance2D dist;
  const std::vector<Point2d> query = QueryFromDatabase(db, 26);
  ExpectDeterministicAcrossThreads<Point2d>(
      db, dist, std::span<const Point2d>(query), 2.0);
}

TEST(ParallelDeterminismTest, BatchRangeQueryMatchesPerQueryResults) {
  // Index-level contract on a scalar metric space: BatchRangeQuery at 8
  // threads == per-query RangeQuery, and the sink's totals equal the sum
  // of per-query stats, for every backend.
  Rng rng(305);
  const testing::ScalarPointOracle oracle(
      testing::RandomSeries(&rng, 300, 0.0, 100.0));
  ReferenceNet net = ReferenceNet::BuildAll(oracle);
  CoverTree tree = CoverTree::BuildAll(oracle);
  const MvIndex mv(oracle);
  const LinearScan scan(oracle.size());
  const RangeIndex* indexes[] = {&net, &tree, &mv, &scan};

  std::vector<QueryDistanceFn> queries;
  std::vector<double> centers;
  for (int i = 0; i < 23; ++i) {
    centers.push_back(rng.NextDouble(0.0, 100.0));
  }
  for (const double c : centers) queries.push_back(oracle.QueryFrom(c));

  for (const RangeIndex* index : indexes) {
    SCOPED_TRACE(std::string(index->name()));
    int64_t expected_computations = 0;
    int64_t expected_results = 0;
    std::vector<std::vector<ObjectId>> expected;
    for (const auto& q : queries) {
      QueryStats qs;
      expected.push_back(index->RangeQuery(q, 5.0, &qs));
      expected_computations += qs.distance_computations;
      expected_results += qs.result_count;
    }
    StatsSink sink;
    const auto batched = index->BatchRangeQuery(
        queries, 5.0, ExecContext{8}, &sink);
    EXPECT_EQ(batched, expected);
    EXPECT_EQ(sink.distance_computations(), expected_computations);
    EXPECT_EQ(sink.results(), expected_results);
  }
}

}  // namespace
}  // namespace subseq
