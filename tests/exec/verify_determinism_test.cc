// Step-5 verification determinism: parallel verification is pure
// wall-clock. For every IndexKind, on PROTEINS and SONGS, the matcher
// must return element-wise identical Type I / II / III matches AND
// pipeline stats (segments, filter_computations, hits, chains,
// verifications) across num_threads 1 vs 8 and shard counts 1 vs 4 —
// num_threads = 1 being the sequential reference algorithm Type I's
// parallel region verification is defined against. Budget exhaustion
// is part of the contract: a query that trips max_verifications must
// error with the identical status AND identical stats at every thread
// count (Type I charges every region's full count before work, so
// exhaustion is schedule-independent).

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "subseq/data/protein_gen.h"
#include "subseq/data/song_gen.h"
#include "subseq/distance/frechet.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/frame/matcher.h"
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

struct RunConfig {
  int32_t num_threads = 1;
  int32_t shards = 0;
  int64_t max_verifications = 5'000'000;
};

template <typename T>
struct Outcome {
  std::vector<SubsequenceMatch> range;
  Status range_status;
  MatchQueryStats range_stats;

  std::optional<SubsequenceMatch> longest;
  Status longest_status;
  MatchQueryStats longest_stats;

  std::optional<SubsequenceMatch> nearest;
  Status nearest_status;
  MatchQueryStats nearest_stats;
};

template <typename T>
Outcome<T> RunPipeline(const SequenceDatabase<T>& db,
                       const SequenceDistance<T>& dist,
                       std::span<const T> query, IndexKind kind,
                       double epsilon, const RunConfig& config) {
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = kind;
  options.max_verifications = config.max_verifications;
  options.exec.num_threads = config.num_threads;
  options.exec.num_shards = config.shards;
  auto matcher =
      std::move(SubsequenceMatcher<T>::Build(db, dist, options)).ValueOrDie();

  Outcome<T> out;
  auto range = matcher->RangeSearch(query, epsilon, &out.range_stats);
  out.range_status = range.status();
  if (range.ok()) out.range = std::move(range).ValueOrDie();

  auto longest = matcher->LongestMatch(query, epsilon, &out.longest_stats);
  out.longest_status = longest.status();
  if (longest.ok()) out.longest = std::move(longest).ValueOrDie();

  auto nearest = matcher->NearestMatch(query, /*epsilon_max=*/epsilon * 2.0,
                                       /*epsilon_increment=*/epsilon / 2.0,
                                       &out.nearest_stats);
  out.nearest_status = nearest.status();
  if (nearest.ok()) out.nearest = std::move(nearest).ValueOrDie();
  return out;
}

void ExpectStatsEqual(const MatchQueryStats& got, const MatchQueryStats& want,
                      bool expect_same_filter_cost, const char* where) {
  EXPECT_EQ(got.segments, want.segments) << where;
  EXPECT_EQ(got.hits, want.hits) << where;
  EXPECT_EQ(got.chains, want.chains) << where;
  EXPECT_EQ(got.verifications, want.verifications) << where;
  if (expect_same_filter_cost) {
    EXPECT_EQ(got.filter_computations, want.filter_computations) << where;
  }
}

void ExpectStatusEqual(const Status& got, const Status& want,
                       const char* where) {
  EXPECT_EQ(got.code(), want.code()) << where;
  EXPECT_EQ(got.ToString(), want.ToString()) << where;
}

template <typename T>
void ExpectOutcomesEqual(const Outcome<T>& got, const Outcome<T>& want,
                         bool expect_same_filter_cost) {
  ExpectStatusEqual(got.range_status, want.range_status, "RangeSearch");
  EXPECT_EQ(got.range, want.range);
  for (size_t i = 0; i < std::min(got.range.size(), want.range.size()); ++i) {
    EXPECT_EQ(got.range[i].distance, want.range[i].distance) << i;
  }
  ExpectStatsEqual(got.range_stats, want.range_stats,
                   expect_same_filter_cost, "RangeSearch");

  ExpectStatusEqual(got.longest_status, want.longest_status, "LongestMatch");
  ASSERT_EQ(got.longest.has_value(), want.longest.has_value());
  if (got.longest.has_value()) {
    EXPECT_EQ(*got.longest, *want.longest);
    EXPECT_EQ(got.longest->distance, want.longest->distance);
  }
  ExpectStatsEqual(got.longest_stats, want.longest_stats,
                   expect_same_filter_cost, "LongestMatch");

  ExpectStatusEqual(got.nearest_status, want.nearest_status, "NearestMatch");
  ASSERT_EQ(got.nearest.has_value(), want.nearest.has_value());
  if (got.nearest.has_value()) {
    EXPECT_EQ(*got.nearest, *want.nearest);
    EXPECT_EQ(got.nearest->distance, want.nearest->distance);
  }
  ExpectStatsEqual(got.nearest_stats, want.nearest_stats,
                   expect_same_filter_cost, "NearestMatch");
}

template <typename T>
void ExpectVerifyDeterminism(const SequenceDatabase<T>& db,
                             const SequenceDistance<T>& dist,
                             std::span<const T> query, double epsilon) {
  for (const IndexKind kind : kAllKinds) {
    SCOPED_TRACE(KindName(kind));
    // The baseline is fully sequential: one thread, one index.
    const Outcome<T> baseline = RunPipeline(
        db, dist, query, kind, epsilon,
        RunConfig{/*num_threads=*/1, /*shards=*/0});
    EXPECT_TRUE(baseline.range_status.ok())
        << baseline.range_status.ToString();
    // Sanity: the workload exercises verification, not just the filter.
    EXPECT_GT(baseline.range_stats.hits, 0);
    EXPECT_GT(baseline.range_stats.verifications, 0);

    for (const int32_t num_threads : {1, 8}) {
      for (const int32_t shards : {1, 4}) {
        SCOPED_TRACE("num_threads=" + std::to_string(num_threads) +
                     " shards=" + std::to_string(shards));
        const Outcome<T> got = RunPipeline(db, dist, query, kind, epsilon,
                                           RunConfig{num_threads, shards});
        // K small indexes prune differently than one large one; only
        // the unsharded runs (and LinearScan, which never prunes) must
        // agree on filter_computations. Everything else is
        // element-wise exact.
        const bool same_filter_cost =
            shards <= 1 || kind == IndexKind::kLinearScan;
        ExpectOutcomesEqual(got, baseline, same_filter_cost);
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

TEST(VerifyDeterminismTest, ProteinsAllIndexKinds) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 501});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const LevenshteinDistance<char> dist;
  const std::vector<char> query = QueryFromDatabase(db, 34);
  ExpectVerifyDeterminism<char>(db, dist, std::span<const char>(query), 1.0);
}

TEST(VerifyDeterminismTest, SongsAllIndexKinds) {
  SongGenerator gen(SongGenOptions{.mean_length = 80, .seed = 502});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const FrechetDistance1D dist;
  const std::vector<double> query = QueryFromDatabase(db, 34);
  ExpectVerifyDeterminism<double>(db, dist, std::span<const double>(query),
                                  0.5);
}

TEST(VerifyDeterminismTest, BudgetExceededErrorsIdenticallyAtAllSettings) {
  // A Type I budget trip must be raised at every thread/shard setting
  // with the identical status AND identical stats: the serial walk burns
  // exactly max_verifications computations before raising, and the
  // parallel path must report the same accounting.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 503});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const LevenshteinDistance<char> dist;
  const std::vector<char> query = QueryFromDatabase(db, 34);

  const Outcome<char> baseline = RunPipeline(
      db, dist, std::span<const char>(query), IndexKind::kReferenceNet, 1.0,
      RunConfig{/*num_threads=*/1, /*shards=*/0, /*max_verifications=*/64});
  ASSERT_EQ(baseline.range_status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(baseline.range_stats.verifications, 64);

  for (const int32_t num_threads : {1, 8}) {
    for (const int32_t shards : {1, 4}) {
      SCOPED_TRACE("num_threads=" + std::to_string(num_threads) +
                   " shards=" + std::to_string(shards));
      const Outcome<char> got = RunPipeline(
          db, dist, std::span<const char>(query), IndexKind::kReferenceNet,
          1.0, RunConfig{num_threads, shards, /*max_verifications=*/64});
      ExpectOutcomesEqual(got, baseline, shards <= 1);
    }
  }
}

TEST(VerifyDeterminismTest, TypeIIBudgetExceededIdenticalAcrossThreads) {
  // LongestMatch trips its budget mid-walk (the count depends on the
  // search's early exits, not a closed form); the walk must raise
  // identically at every thread count. A random query at a generous
  // epsilon gives the chain search many hits but no early verified
  // pair, so a small budget reliably trips.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 504});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const LevenshteinDistance<char> dist;
  Rng rng(77);
  const std::vector<char> query =
      testing::RandomString(&rng, 34, "ACDEFGHIKLMNPQRSTVWY");

  const Outcome<char> baseline = RunPipeline(
      db, dist, std::span<const char>(query), IndexKind::kLinearScan, 8.0,
      RunConfig{/*num_threads=*/1, /*shards=*/0, /*max_verifications=*/16});
  ASSERT_EQ(baseline.longest_status.code(), StatusCode::kOutOfRange);

  for (const int32_t num_threads : {1, 8}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
    const Outcome<char> got = RunPipeline(
        db, dist, std::span<const char>(query), IndexKind::kLinearScan, 8.0,
        RunConfig{num_threads, /*shards=*/0, /*max_verifications=*/16});
    ExpectOutcomesEqual(got, baseline, /*expect_same_filter_cost=*/true);
  }
}

}  // namespace
}  // namespace subseq
