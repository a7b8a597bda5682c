// Sharded vs unsharded determinism: a SubsequenceMatcher built with
// exec.num_shards = K must return element-wise identical matches — and
// identical pipeline stats (segments, hits, chains, verifications) — to
// the monolithic (unsharded) matcher, for every IndexKind, on PROTEINS
// and SONGS, at thread budgets 1 and 8 and shard counts 1, 4 and 7 (the
// catalog sizes are not divisible by either, exercising uneven shards).
//
// filter_computations is the one deliberate exception: K small indexes
// prune differently than one large one. LinearScan has no pruning, so
// there the computation counts must agree exactly too.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "subseq/data/protein_gen.h"
#include "subseq/data/song_gen.h"
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
                               int32_t num_shards) {
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = kind;
  options.exec.num_threads = num_threads;
  options.exec.num_shards = num_shards;
  auto matcher =
      std::move(SubsequenceMatcher<T>::Build(db, dist, options)).ValueOrDie();

  PipelineOutcome<T> out;
  out.index_name = std::string(matcher->index().name());
  auto range = matcher->RangeSearch(query, epsilon, &out.range_stats);
  EXPECT_TRUE(range.ok()) << range.status().ToString();
  if (range.ok()) out.range = std::move(range).ValueOrDie();
  auto longest = matcher->LongestMatch(query, epsilon, &out.longest_stats);
  EXPECT_TRUE(longest.ok()) << longest.status().ToString();
  if (longest.ok()) out.longest = std::move(longest).ValueOrDie();
  return out;
}

void ExpectPipelineStatsEqual(const MatchQueryStats& sharded,
                              const MatchQueryStats& baseline,
                              bool expect_same_filter_cost,
                              const char* where) {
  EXPECT_EQ(sharded.segments, baseline.segments) << where;
  EXPECT_EQ(sharded.hits, baseline.hits) << where;
  EXPECT_EQ(sharded.chains, baseline.chains) << where;
  EXPECT_EQ(sharded.verifications, baseline.verifications) << where;
  if (expect_same_filter_cost) {
    EXPECT_EQ(sharded.filter_computations, baseline.filter_computations)
        << where;
  }
}

template <typename T>
void ExpectShardedEqualsUnsharded(const SequenceDatabase<T>& db,
                                  const SequenceDistance<T>& dist,
                                  std::span<const T> query, double epsilon) {
  for (const IndexKind kind : kAllKinds) {
    SCOPED_TRACE(KindName(kind));
    const PipelineOutcome<T> baseline =
        RunPipeline(db, dist, query, kind, epsilon, /*num_threads=*/1,
                    /*num_shards=*/0);
    EXPECT_EQ(baseline.index_name.rfind("sharded", 0), std::string::npos);
    // Sanity: the workload exercises the pipeline.
    EXPECT_GT(baseline.range_stats.segments, 0);
    EXPECT_GT(baseline.range_stats.hits, 0);

    for (const int32_t shards : {1, 4, 7}) {
      for (const int32_t threads : {1, 8}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        const PipelineOutcome<T> sharded =
            RunPipeline(db, dist, query, kind, epsilon, threads, shards);
        if (shards > 1) {
          EXPECT_EQ(sharded.index_name.rfind("sharded[", 0), 0u)
              << sharded.index_name;
        }

        EXPECT_EQ(sharded.range, baseline.range);
        EXPECT_EQ(sharded.longest.has_value(), baseline.longest.has_value());
        if (sharded.longest.has_value() && baseline.longest.has_value()) {
          EXPECT_EQ(*sharded.longest, *baseline.longest);
          EXPECT_EQ(sharded.longest->distance, baseline.longest->distance);
        }
        const bool same_filter_cost =
            shards == 1 || kind == IndexKind::kLinearScan;
        ExpectPipelineStatsEqual(sharded.range_stats, baseline.range_stats,
                                 same_filter_cost, "RangeSearch");
        ExpectPipelineStatsEqual(sharded.longest_stats,
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

TEST(ShardedDeterminismTest, ProteinsAllIndexKinds) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 401});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const LevenshteinDistance<char> dist;
  const std::vector<char> query = QueryFromDatabase(db, 26);
  ExpectShardedEqualsUnsharded<char>(db, dist, std::span<const char>(query),
                                     1.0);
}

TEST(ShardedDeterminismTest, SongsAllIndexKinds) {
  SongGenerator gen(SongGenOptions{.mean_length = 80, .seed = 402});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const FrechetDistance1D dist;
  const std::vector<double> query = QueryFromDatabase(db, 26);
  ExpectShardedEqualsUnsharded<double>(
      db, dist, std::span<const double>(query), 0.5);
}

TEST(ShardedDeterminismTest, NearestMatchIdenticalOnShardedIndex) {
  // Type III re-runs the filter many times at varying epsilon; the
  // sharded filter must steer the epsilon search identically.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 403});
  const auto db = gen.GenerateDatabaseWithWindows(40, 10);
  const LevenshteinDistance<char> dist;
  const std::vector<char> query = QueryFromDatabase(db, 26);

  auto run = [&](int32_t num_shards) {
    MatcherOptions options;
    options.lambda = 20;
    options.lambda0 = 2;
    options.index_kind = IndexKind::kReferenceNet;
    options.exec.num_threads = 8;
    options.exec.num_shards = num_shards;
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
  const auto sharded = run(4);
  ASSERT_EQ(baseline.has_value(), sharded.has_value());
  if (baseline.has_value()) {
    EXPECT_EQ(*baseline, *sharded);
    EXPECT_EQ(baseline->distance, sharded->distance);
  }
}

TEST(ShardedDeterminismTest, CoalescerUnchangedOnShardedIndex) {
  // The serving coalescer issues one shared BatchRangeQuery for a whole
  // admission group; against a ShardedIndex that call fans across shards
  // under the hood. Each member's demuxed hits and billed stats must
  // still equal its stand-alone FilterSegments.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 404});
  const auto db = gen.GenerateDatabaseWithWindows(40, 10);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = IndexKind::kCoverTree;
  options.exec.num_threads = 8;
  options.exec.num_shards = 4;
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

}  // namespace
}  // namespace subseq
