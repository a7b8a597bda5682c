// Routed vs monolithic determinism: a SubsequenceMatcher built with
// exec.routing_cells = K must return element-wise identical matches —
// and identical pipeline stats (segments, hits, chains, verifications)
// — to the monolithic matcher, for every IndexKind, on PROTEINS and
// SONGS, at thread budgets 1 and 8 and cell counts 1, 4 and 7.
//
// filter_computations is the deliberate exception: routing bills one
// pivot distance per cell per query and skips the members of far cells
// entirely, so the computation count is allowed to differ (shrinking is
// the point — the CI routing gates measure exactly that saving). The
// observable pipeline (matches, verify stats, budget-exceeded errors,
// serving-cache billing) must not move at all.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "subseq/data/protein_gen.h"
#include "subseq/data/song_gen.h"
#include "subseq/distance/dtw.h"
#include "subseq/distance/frechet.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/frame/matcher.h"
#include "subseq/serve/coalescer.h"
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

template <typename T>
struct PipelineOutcome {
  std::vector<SubsequenceMatch> range;
  Status range_status;
  std::optional<SubsequenceMatch> longest;
  MatchQueryStats range_stats;
  MatchQueryStats longest_stats;
  std::string index_name;
};

template <typename T>
PipelineOutcome<T> RunPipeline(const SequenceDatabase<T>& db,
                               const SequenceDistance<T>& dist,
                               std::span<const T> query, IndexKind kind,
                               double epsilon, int32_t num_threads,
                               int32_t routing_cells,
                               int64_t max_verifications = 5'000'000) {
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = kind;
  options.max_verifications = max_verifications;
  options.exec.num_threads = num_threads;
  options.exec.routing_cells = routing_cells;
  auto matcher =
      std::move(SubsequenceMatcher<T>::Build(db, dist, options)).ValueOrDie();

  PipelineOutcome<T> out;
  out.index_name = std::string(matcher->index().name());
  auto range = matcher->RangeSearch(query, epsilon, &out.range_stats);
  out.range_status = range.status();
  if (range.ok()) out.range = std::move(range).ValueOrDie();
  auto longest = matcher->LongestMatch(query, epsilon, &out.longest_stats);
  EXPECT_TRUE(longest.ok()) << longest.status().ToString();
  if (longest.ok()) out.longest = std::move(longest).ValueOrDie();
  return out;
}

void ExpectPipelineStatsEqual(const MatchQueryStats& routed,
                              const MatchQueryStats& baseline,
                              bool expect_same_filter_cost,
                              const char* where) {
  EXPECT_EQ(routed.segments, baseline.segments) << where;
  EXPECT_EQ(routed.hits, baseline.hits) << where;
  EXPECT_EQ(routed.chains, baseline.chains) << where;
  EXPECT_EQ(routed.verifications, baseline.verifications) << where;
  if (expect_same_filter_cost) {
    EXPECT_EQ(routed.filter_computations, baseline.filter_computations)
        << where;
  }
}

template <typename T>
void ExpectRoutedEqualsMonolithic(const SequenceDatabase<T>& db,
                                  const SequenceDistance<T>& dist,
                                  std::span<const T> query, double epsilon) {
  for (const IndexKind kind : kAllKinds) {
    SCOPED_TRACE(KindName(kind));
    const PipelineOutcome<T> baseline =
        RunPipeline(db, dist, query, kind, epsilon, /*num_threads=*/1,
                    /*routing_cells=*/0);
    EXPECT_EQ(baseline.index_name.rfind("routed", 0), std::string::npos);
    // Sanity: the workload exercises the pipeline.
    EXPECT_GT(baseline.range_stats.segments, 0);
    EXPECT_GT(baseline.range_stats.hits, 0);

    for (const int32_t cells : {1, 4, 7}) {
      for (const int32_t threads : {1, 8}) {
        SCOPED_TRACE("cells=" + std::to_string(cells) +
                     " threads=" + std::to_string(threads));
        const PipelineOutcome<T> routed =
            RunPipeline(db, dist, query, kind, epsilon, threads, cells);
        if (cells > 1) {
          EXPECT_EQ(routed.index_name.rfind("routed[", 0), 0u)
              << routed.index_name;
        }

        EXPECT_EQ(routed.range, baseline.range);
        EXPECT_EQ(routed.longest.has_value(), baseline.longest.has_value());
        if (routed.longest.has_value() && baseline.longest.has_value()) {
          EXPECT_EQ(*routed.longest, *baseline.longest);
          EXPECT_EQ(routed.longest->distance, baseline.longest->distance);
        }
        const bool same_filter_cost = cells <= 1;
        ExpectPipelineStatsEqual(routed.range_stats, baseline.range_stats,
                                 same_filter_cost, "RangeSearch");
        ExpectPipelineStatsEqual(routed.longest_stats,
                                 baseline.longest_stats, same_filter_cost,
                                 "LongestMatch");
      }
    }
  }
}

template <typename T>
std::vector<T> QueryFromDatabase(const SequenceDatabase<T>& db,
                                 int32_t length) {
  const Sequence<T>& seq = db.at(0);
  EXPECT_GE(seq.size(), length);
  const auto view = seq.Subsequence(Interval{0, length});
  return std::vector<T>(view.begin(), view.end());
}

TEST(RoutedDeterminismTest, ProteinsAllIndexKinds) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 601});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const LevenshteinDistance<char> dist;
  const std::vector<char> query = QueryFromDatabase(db, 26);
  ExpectRoutedEqualsMonolithic<char>(db, dist, std::span<const char>(query),
                                     1.0);
}

TEST(RoutedDeterminismTest, SongsAllIndexKinds) {
  SongGenerator gen(SongGenOptions{.mean_length = 80, .seed = 602});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const FrechetDistance1D dist;
  const std::vector<double> query = QueryFromDatabase(db, 26);
  ExpectRoutedEqualsMonolithic<double>(
      db, dist, std::span<const double>(query), 0.5);
}

TEST(RoutedDeterminismTest, NearestMatchIdenticalOnRoutedIndex) {
  // Type III re-runs the filter many times at varying epsilon — each
  // pass routes independently (cell skipping depends on epsilon), yet
  // the epsilon search must be steered identically.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 603});
  const auto db = gen.GenerateDatabaseWithWindows(40, 10);
  const LevenshteinDistance<char> dist;
  const std::vector<char> query = QueryFromDatabase(db, 26);

  auto run = [&](int32_t routing_cells) {
    MatcherOptions options;
    options.lambda = 20;
    options.lambda0 = 2;
    options.index_kind = IndexKind::kReferenceNet;
    options.exec.num_threads = 8;
    options.exec.routing_cells = routing_cells;
    auto matcher =
        std::move(SubsequenceMatcher<char>::Build(db, dist, options))
            .ValueOrDie();
    MatchQueryStats stats;
    auto found = matcher->NearestMatch(std::span<const char>(query), 3.0,
                                       0.5, &stats);
    EXPECT_TRUE(found.ok()) << found.status().ToString();
    return std::move(found).ValueOrDie();
  };

  const auto baseline = run(0);
  const auto routed = run(4);
  ASSERT_EQ(baseline.has_value(), routed.has_value());
  if (baseline.has_value()) {
    EXPECT_EQ(*baseline, *routed);
    EXPECT_EQ(baseline->distance, routed->distance);
  }
}

TEST(RoutedDeterminismTest, BudgetExceededIdenticalRoutedAndUnrouted) {
  // Routing changes which filter distances run, never which candidates
  // reach step 5: a budget trip must raise the identical status with
  // identical verify accounting whether the filter was routed or not.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 604});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const LevenshteinDistance<char> dist;
  const std::vector<char> query = QueryFromDatabase(db, 34);

  const PipelineOutcome<char> baseline = RunPipeline(
      db, dist, std::span<const char>(query), IndexKind::kReferenceNet, 1.0,
      /*num_threads=*/1, /*routing_cells=*/0, /*max_verifications=*/64);
  ASSERT_EQ(baseline.range_status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(baseline.range_stats.verifications, 64);

  for (const int32_t cells : {1, 4, 7}) {
    for (const int32_t threads : {1, 8}) {
      SCOPED_TRACE("cells=" + std::to_string(cells) +
                   " threads=" + std::to_string(threads));
      const PipelineOutcome<char> routed = RunPipeline(
          db, dist, std::span<const char>(query), IndexKind::kReferenceNet,
          1.0, threads, cells, /*max_verifications=*/64);
      EXPECT_EQ(routed.range_status.code(), baseline.range_status.code());
      EXPECT_EQ(routed.range_status.ToString(),
                baseline.range_status.ToString());
      EXPECT_EQ(routed.range_stats.verifications,
                baseline.range_stats.verifications);
      EXPECT_EQ(routed.range_stats.segments, baseline.range_stats.segments);
      EXPECT_EQ(routed.range_stats.hits, baseline.range_stats.hits);
    }
  }
}

TEST(RoutedDeterminismTest, CoalescerUnchangedOnRoutedIndex) {
  // The serving coalescer issues one shared BatchRangeQuery for a whole
  // admission group; against a RoutedIndex that call routes each member
  // query independently under the hood. Each member's demuxed hits and
  // billed stats must still equal its stand-alone FilterSegments — the
  // per-query split contract routing has to preserve.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 605});
  const auto db = gen.GenerateDatabaseWithWindows(40, 10);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = IndexKind::kCoverTree;
  options.exec.num_threads = 8;
  options.exec.routing_cells = 4;
  auto matcher = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                     .ValueOrDie();

  std::vector<std::vector<char>> queries;
  for (int32_t i = 0; i < 3; ++i) {
    const auto view = db.at(i).Subsequence(Interval{0, 26});
    queries.emplace_back(view.begin(), view.end());
  }
  // Duplicate the first query: cross-query segment dedup must still bill
  // both owners their full stand-alone cost.
  queries.push_back(queries.front());
  std::vector<std::span<const char>> views(queries.begin(), queries.end());

  const CoalescedFilter shared = CoalescedFilterSegments<char>(
      *matcher, std::span<const std::span<const char>>(views), 1.0);
  ASSERT_EQ(shared.hits.size(), queries.size());
  for (size_t m = 0; m < queries.size(); ++m) {
    MatchQueryStats solo_stats;
    const std::vector<SegmentHit> solo =
        matcher->FilterSegments(views[m], 1.0, &solo_stats);
    ASSERT_EQ(shared.hits[m].size(), solo.size()) << "member " << m;
    for (size_t h = 0; h < solo.size(); ++h) {
      EXPECT_EQ(shared.hits[m][h].window, solo[h].window);
      EXPECT_EQ(shared.hits[m][h].query_segment, solo[h].query_segment);
      EXPECT_EQ(shared.hits[m][h].distance, solo[h].distance);
    }
    EXPECT_EQ(shared.stats[m].segments, solo_stats.segments);
    EXPECT_EQ(shared.stats[m].filter_computations,
              solo_stats.filter_computations);
    EXPECT_EQ(shared.stats[m].hits, solo_stats.hits);
  }
  EXPECT_GT(shared.segments_total, shared.segments_unique);
}

TEST(RoutedDeterminismTest, NonMetricDistanceRejectsRouting) {
  // Cell skipping is the triangle inequality; DTW does not satisfy it,
  // so routing must be refused outright (even over linear-scan cells,
  // where an unrouted build is fine).
  SongGenerator gen(SongGenOptions{.mean_length = 80, .seed = 606});
  const auto db = gen.GenerateDatabaseWithWindows(20, 10);
  const DtwDistance1D dist;
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = IndexKind::kLinearScan;

  options.exec.routing_cells = 0;
  EXPECT_TRUE(SubsequenceMatcher<double>::Build(db, dist, options).ok());

  options.exec.routing_cells = 4;
  const auto routed = SubsequenceMatcher<double>::Build(db, dist, options);
  ASSERT_FALSE(routed.ok());
  EXPECT_EQ(routed.status().code(), StatusCode::kInvalidArgument);
}

TEST(RoutedDeterminismTest, ShardsAndCellsAreMutuallyExclusive) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 607});
  const auto db = gen.GenerateDatabaseWithWindows(20, 10);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = IndexKind::kLinearScan;
  options.exec.num_shards = 2;
  options.exec.routing_cells = 2;
  const auto built = SubsequenceMatcher<char>::Build(db, dist, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Snapshots.

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

TEST(RoutedDeterminismTest, SnapshotRoundTripMatchesFreshRoutedBuild) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 608});
  const auto db = gen.GenerateDatabaseWithWindows(40, 10);
  const LevenshteinDistance<char> dist;
  const std::vector<char> query = QueryFromDatabase(db, 26);
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = IndexKind::kReferenceNet;
  options.exec.routing_cells = 4;
  auto fresh = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                   .ValueOrDie();

  const std::string path = TempPath("routed_matcher.snap");
  ASSERT_TRUE(fresh->SaveIndex(path).ok());
  auto loaded = SubsequenceMatcher<char>::LoadIndex(db, dist, options, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->index().name(), fresh->index().name());

  MatchQueryStats fresh_stats;
  MatchQueryStats loaded_stats;
  const auto expected =
      std::move(fresh->RangeSearch(std::span<const char>(query), 1.0,
                                   &fresh_stats))
          .ValueOrDie();
  const auto actual =
      std::move(loaded.value()->RangeSearch(std::span<const char>(query),
                                            1.0, &loaded_stats))
          .ValueOrDie();
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(loaded_stats.segments, fresh_stats.segments);
  EXPECT_EQ(loaded_stats.filter_computations,
            fresh_stats.filter_computations);
  EXPECT_EQ(loaded_stats.hits, fresh_stats.hits);
  EXPECT_EQ(loaded_stats.verifications, fresh_stats.verifications);

  // Canonical encoding: the loaded matcher saves back byte-identically.
  const std::string resaved = TempPath("routed_matcher_resave.snap");
  ASSERT_TRUE(loaded.value()->SaveIndex(resaved).ok());
  EXPECT_EQ(ReadFileBytes(resaved), ReadFileBytes(path));

  // The stored cell count is part of the index identity: loading under a
  // different routing_cells must be refused.
  MatcherOptions other = options;
  other.exec.routing_cells = 7;
  EXPECT_FALSE(
      SubsequenceMatcher<char>::LoadIndex(db, dist, other, path).ok());
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(RoutedDeterminismTest, BuildToSnapshotMatchesInCoreRoutedBuild) {
  // The out-of-core builder computes the routing layout once (that pass
  // needs the whole catalog), then builds and serializes ONE CELL AT A
  // TIME. The file must be byte-identical to Build + SaveIndex — the
  // same out-of-core == in-core bar the sharded path meets.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 609});
  const auto db = gen.GenerateDatabaseWithWindows(20, 10);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.exec.routing_cells = 4;
  for (const IndexKind kind : kAllKinds) {
    options.index_kind = kind;
    auto fresh =
        std::move(SubsequenceMatcher<char>::Build(db, dist, options))
            .ValueOrDie();
    const std::string in_core = TempPath("routed_incore.snap");
    ASSERT_TRUE(fresh->SaveIndex(in_core).ok());

    const std::string streamed = TempPath("routed_oocore.snap");
    const Status status = SubsequenceMatcher<char>::BuildToSnapshot(
        db, dist, options, streamed);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(ReadFileBytes(streamed), ReadFileBytes(in_core))
        << "kind " << static_cast<int>(kind);

    auto loaded =
        SubsequenceMatcher<char>::LoadIndex(db, dist, options, streamed);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->index().name(), fresh->index().name());
    std::remove(in_core.c_str());
    std::remove(streamed.c_str());
  }
}

}  // namespace
}  // namespace subseq
