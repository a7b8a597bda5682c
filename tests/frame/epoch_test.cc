// Epoch-versioned live ingest: the determinism contract.
//
// A matcher derived through a chain of WithAppended / WithRetired ops
// (shared base index + LinearScan delta + tombstone mask) must answer
// every query element-wise identically — matches AND verification
// stats — to a COLD Build over the final epoch's database. The matrix
// covers every index backend, exec thread budgets 1 and 8, and the
// partitioned builds (contiguous shards or routed cells) whose base
// indexes the live matcher shares. Compact() additionally promises a
// byte-identical index file to the cold build — merge output and cold
// output are THE SAME bytes, which is what lets the serving layer swap
// a merged epoch in without any behavioral seam.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "subseq/data/protein_gen.h"
#include "subseq/data/song_gen.h"
#include "subseq/distance/dtw.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/exec/stats_sink.h"
#include "subseq/frame/matcher.h"

namespace subseq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

const std::vector<IndexKind> kAllKinds = {
    IndexKind::kReferenceNet, IndexKind::kCoverTree, IndexKind::kMvIndex,
    IndexKind::kLinearScan};

/// A query cut from sequence `seq` of the database (length 26).
template <typename T>
std::vector<T> CutQuery(const SequenceDatabase<T>& db, SeqId seq,
                        int32_t offset) {
  const Sequence<T>& s = db.at(seq);
  EXPECT_GE(s.size(), offset + 26);
  const auto view = s.Subsequence(Interval{offset, offset + 26});
  return std::vector<T>(view.begin(), view.end());
}

void ExpectStatsEqual(const MatchQueryStats& live,
                      const MatchQueryStats& cold, bool full,
                      const std::string& where) {
  EXPECT_EQ(live.segments, cold.segments) << where;
  EXPECT_EQ(live.hits, cold.hits) << where;
  EXPECT_EQ(live.chains, cold.chains) << where;
  EXPECT_EQ(live.verifications, cold.verifications) << where;
  if (full) {
    // LinearScan bills every candidate it is responsible for, so the
    // base + delta split sums to exactly the monolithic bill; the tree
    // backends' filter_computations may legitimately move between the
    // delta scan and the merged index (the same sanctioned freedom
    // sharding and routing have).
    EXPECT_EQ(live.filter_computations, cold.filter_computations) << where;
  }
}

/// Runs both query types against `live` and `cold` and asserts
/// element-wise equality (matches and stats).
template <typename T>
void ExpectAnswersIdentical(const SubsequenceMatcher<T>& live,
                            const SubsequenceMatcher<T>& cold,
                            const std::vector<std::vector<T>>& queries,
                            double epsilon, bool full_stats,
                            const std::string& where) {
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string at = where + " query " + std::to_string(q);
    MatchQueryStats live_stats, cold_stats;
    auto live_range = live.RangeSearch(queries[q], epsilon, &live_stats);
    auto cold_range = cold.RangeSearch(queries[q], epsilon, &cold_stats);
    ASSERT_TRUE(live_range.ok() && cold_range.ok()) << at;
    EXPECT_EQ(live_range.value(), cold_range.value()) << at;
    ExpectStatsEqual(live_stats, cold_stats, full_stats, at + " (range)");

    live_stats = {};
    cold_stats = {};
    auto live_best = live.LongestMatch(queries[q], epsilon, &live_stats);
    auto cold_best = cold.LongestMatch(queries[q], epsilon, &cold_stats);
    ASSERT_TRUE(live_best.ok() && cold_best.ok()) << at;
    ASSERT_EQ(live_best.value().has_value(), cold_best.value().has_value())
        << at;
    if (live_best.value().has_value()) {
      EXPECT_EQ(*live_best.value(), *cold_best.value()) << at;
    }
    ExpectStatsEqual(live_stats, cold_stats, full_stats, at + " (longest)");
  }
}

/// The op chain under test: two appends, a retire of a seed sequence, a
/// third append, then a retire of the FIRST APPENDED sequence (so the
/// tombstone mask reaches into the delta, not just the base). Returns
/// the live matcher after every op applied in order.
template <typename T, typename Generator>
std::unique_ptr<SubsequenceMatcher<T>> ApplyOps(
    const SubsequenceMatcher<T>& start, Generator* gen,
    const std::vector<std::vector<T>>& queries, double epsilon,
    bool full_stats, bool check_intermediate) {
  const SeqId first_appended = start.database().size();
  std::unique_ptr<SubsequenceMatcher<T>> live;
  const auto step = [&](auto&& derive, const std::string& what) {
    const SubsequenceMatcher<T>& from = live ? *live : start;
    const uint64_t before = from.epoch();
    auto next = derive(from);
    ASSERT_TRUE(next.ok()) << what << ": " << next.status().ToString();
    live = std::move(next).ValueOrDie();
    EXPECT_EQ(live->epoch(), before + 1) << what;
    if (check_intermediate) {
      auto cold = SubsequenceMatcher<T>::Build(
          live->database(), live->distance(), live->options());
      ASSERT_TRUE(cold.ok()) << what;
      ExpectAnswersIdentical(*live, *cold.value(), queries, epsilon,
                             full_stats, what);
    }
  };
  step([&](const auto& m) { return m.WithAppended(gen->GenerateWithLength(60)); },
       "append#1");
  step([&](const auto& m) { return m.WithAppended(gen->GenerateWithLength(44)); },
       "append#2");
  step([&](const auto& m) { return m.WithRetired(1); }, "retire seed 1");
  step([&](const auto& m) { return m.WithAppended(gen->GenerateWithLength(52)); },
       "append#3");
  step([&](const auto& m) { return m.WithRetired(first_appended); },
       "retire appended");
  return live;
}

TEST(EpochDeterminismTest, LiveOpsMatchColdBuildAcrossKindsThreadsPartitions) {
  ProteinGenerator seed_gen(ProteinGenOptions{.mean_length = 60, .seed = 71});
  const SequenceDatabase<char> db = seed_gen.GenerateDatabaseWithWindows(36, 10);
  const LevenshteinDistance<char> dist;
  const double epsilon = 2.0;

  const std::vector<std::vector<char>> queries = {
      CutQuery(db, 0, 0), CutQuery(db, 0, 9), CutQuery(db, 1, 4)};

  for (const IndexKind kind : kAllKinds) {
    for (const int32_t threads : {1, 8}) {
      MatcherOptions options;
      options.lambda = 20;
      options.lambda0 = 5;
      options.index_kind = kind;
      options.exec.num_threads = threads;
      // Partitioned bases: the routed metric backends split by distance
      // cells, the rest by contiguous shards — the live delta and the
      // tombstone mask sit on top of either identically.
      if (kind == IndexKind::kReferenceNet || kind == IndexKind::kCoverTree) {
        options.exec.routing_cells = 2;
      } else {
        options.exec.num_shards = 2;
      }
      const bool full_stats = kind == IndexKind::kLinearScan;
      const std::string where =
          "kind " + std::to_string(static_cast<int>(kind)) + " threads " +
          std::to_string(threads);

      auto start = SubsequenceMatcher<char>::Build(db, dist, options);
      ASSERT_TRUE(start.ok()) << where << ": " << start.status().ToString();

      // A fresh generator per configuration so every (kind, threads)
      // cell applies the IDENTICAL op chain.
      ProteinGenerator op_gen(
          ProteinGenOptions{.mean_length = 60, .seed = 72});
      auto live = ApplyOps(*start.value(), &op_gen, queries, epsilon,
                           full_stats, /*check_intermediate=*/false);
      ASSERT_NE(live, nullptr) << where;
      EXPECT_GT(live->delta_windows(), 0) << where;
      EXPECT_GT(live->num_tombstoned_windows(), 0) << where;

      auto cold = SubsequenceMatcher<char>::Build(
          live->database(), live->distance(), live->options());
      ASSERT_TRUE(cold.ok()) << where;
      ExpectAnswersIdentical(*live, *cold.value(), queries, epsilon,
                             full_stats, where);
    }
  }
}

TEST(EpochDeterminismTest, EveryIntermediateEpochMatchesItsColdBuild) {
  // The chain is exact at EVERY epoch, not just the final one — each op
  // derives from an already-derived matcher (delta on delta, tombstone
  // into delta), which is the compounding the serving layer relies on
  // between merges.
  ProteinGenerator seed_gen(ProteinGenOptions{.mean_length = 60, .seed = 73});
  const SequenceDatabase<char> db = seed_gen.GenerateDatabaseWithWindows(24, 10);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 5;
  options.index_kind = IndexKind::kLinearScan;
  const std::vector<std::vector<char>> queries = {CutQuery(db, 0, 0),
                                                  CutQuery(db, 1, 3)};
  auto start = SubsequenceMatcher<char>::Build(db, dist, options);
  ASSERT_TRUE(start.ok());
  ProteinGenerator op_gen(ProteinGenOptions{.mean_length = 60, .seed = 74});
  auto live = ApplyOps(*start.value(), &op_gen, queries, 2.0,
                       /*full_stats=*/true, /*check_intermediate=*/true);
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->epoch(), 5u);
}

TEST(EpochDeterminismTest, DtwLinearScanChainMatchesColdBuildAtEveryEpoch) {
  // SONGS under unconstrained DTW through a linear scan — the paper's
  // non-metric configuration, whose delta scan runs the cascade and the
  // vertical DTW ComputeMany kernel through the delta's id remap (the
  // PROTEINS chains above use Levenshtein, whose batched path is the
  // per-pair default). Every intermediate epoch must answer like its cold
  // build, stats included, monolithic and sharded, at one thread and at
  // the machine's.
  SongGenerator seed_gen(SongGenOptions{.mean_length = 60, .seed = 80});
  const SequenceDatabase<double> db =
      seed_gen.GenerateDatabaseWithWindows(20, 10);
  const DtwDistance1D dtw;
  const double epsilon = 0.5;
  // The op chain's first append, regenerated from the same seed: a cut
  // of it hits the delta at distance 0 until the chain retires it.
  SequenceDatabase<double> first_appended;
  first_appended.Add(
      SongGenerator(SongGenOptions{.mean_length = 60, .seed = 81})
          .GenerateWithLength(60));
  const std::vector<std::vector<double>> queries = {
      CutQuery(db, 0, 0), CutQuery(db, 1, 7), CutQuery(first_appended, 0, 5)};
  const int32_t nproc = static_cast<int32_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  {
    // Exact cuts match at distance 0, in the base and in the delta.
    MatcherOptions options;
    options.lambda = 20;
    options.lambda0 = 5;
    options.index_kind = IndexKind::kLinearScan;
    auto start = std::move(SubsequenceMatcher<double>::Build(db, dtw, options))
                     .ValueOrDie();
    auto appended = std::move(start->WithAppended(first_appended.at(0)))
                        .ValueOrDie();
    ASSERT_GT(appended->delta_windows(), 0);
    EXPECT_FALSE(start->RangeSearch(queries[0], epsilon).value().empty());
    EXPECT_FALSE(appended->RangeSearch(queries[2], epsilon).value().empty());
  }

  for (const int32_t threads : {1, nproc}) {
    for (const int32_t shards : {1, 2}) {
      MatcherOptions options;
      options.lambda = 20;
      options.lambda0 = 5;
      options.index_kind = IndexKind::kLinearScan;
      options.exec.num_threads = threads;
      options.exec.num_shards = shards;
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " shards=" << shards);
      auto start = SubsequenceMatcher<double>::Build(db, dtw, options);
      ASSERT_TRUE(start.ok()) << start.status().ToString();
      SongGenerator op_gen(SongGenOptions{.mean_length = 60, .seed = 81});
      auto live = ApplyOps(*start.value(), &op_gen, queries, epsilon,
                           /*full_stats=*/true, /*check_intermediate=*/true);
      ASSERT_NE(live, nullptr);
      EXPECT_EQ(live->epoch(), 5u);
      EXPECT_GT(live->delta_windows(), 0);
      EXPECT_GT(live->num_tombstoned_windows(), 0);
    }
  }
}

TEST(EpochDeterminismTest, DeltaAndTombstoneCountersAreObservable) {
  // delta_windows_probed bills the delta scan per query;
  // tombstones_masked counts masked hits WITHOUT billing them (the
  // result_count reflects the post-mask hit list). The exact-repeat
  // query guarantees the retired sequence's windows would have hit.
  ProteinGenerator seed_gen(ProteinGenOptions{.mean_length = 60, .seed = 75});
  const SequenceDatabase<char> db = seed_gen.GenerateDatabaseWithWindows(16, 10);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 5;
  options.index_kind = IndexKind::kLinearScan;
  auto start = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                   .ValueOrDie();

  ProteinGenerator op_gen(ProteinGenOptions{.mean_length = 60, .seed = 76});
  auto appended = std::move(start->WithAppended(op_gen.GenerateWithLength(48)))
                      .ValueOrDie();
  auto live = std::move(appended->WithRetired(0)).ValueOrDie();
  ASSERT_GT(live->delta_windows(), 0);
  ASSERT_GT(live->num_tombstoned_windows(), 0);

  const std::vector<char> query = CutQuery(db, 0, 0);
  const SegmentQueryBatch batch = live->MakeSegmentQueries(query);
  ASSERT_FALSE(batch.queries.empty());
  StatsSink sink;
  std::vector<QueryStats> per_query(batch.queries.size());
  const auto results = live->BatchFilterWindows(
      batch.queries, /*epsilon=*/0.0, live->options().exec, &sink,
      per_query.data());

  int64_t probed = 0;
  int64_t masked = 0;
  int64_t returned = 0;
  for (size_t q = 0; q < per_query.size(); ++q) {
    probed += per_query[q].delta_windows_probed;
    masked += per_query[q].tombstones_masked;
    returned += per_query[q].result_count;
    // The per-query split's result_count is the post-mask hit count.
    EXPECT_EQ(per_query[q].result_count,
              static_cast<int64_t>(results[q].size()));
    // Every delta window is scanned (LinearScan delta), none skipped.
    EXPECT_EQ(per_query[q].delta_windows_probed, live->delta_windows());
  }
  EXPECT_GT(probed, 0);
  EXPECT_GT(masked, 0) << "the retired sequence's exact windows must have "
                          "been masked out of the epsilon=0 self-hit";
  EXPECT_EQ(sink.results(), returned);
  EXPECT_EQ(sink.delta_windows_probed(), probed);
  EXPECT_EQ(sink.tombstones_masked(), masked);
  // No tombstoned window may ever surface in a result list.
  for (const auto& hits : results) {
    for (const ObjectId id : hits) {
      const WindowRef& ref = live->catalog().at(id);
      EXPECT_FALSE(live->database().is_retired(ref.seq)) << "window " << id;
    }
  }
}

TEST(EpochDeterminismTest, CompactIsByteIdenticalToColdBuild) {
  // Compact (the serving layer's background merge) must produce the
  // SAME index file a cold Build over the same epoch's database writes:
  // merge output has no identity of its own.
  ProteinGenerator seed_gen(ProteinGenOptions{.mean_length = 60, .seed = 77});
  const SequenceDatabase<char> db = seed_gen.GenerateDatabaseWithWindows(20, 10);
  const LevenshteinDistance<char> dist;
  const std::vector<std::vector<char>> queries = {CutQuery(db, 0, 0)};

  for (const IndexKind kind : kAllKinds) {
    MatcherOptions options;
    options.lambda = 20;
    options.lambda0 = 5;
    options.index_kind = kind;
    const std::string where = "kind " + std::to_string(static_cast<int>(kind));
    auto start = SubsequenceMatcher<char>::Build(db, dist, options);
    ASSERT_TRUE(start.ok()) << where;
    ProteinGenerator op_gen(ProteinGenOptions{.mean_length = 60, .seed = 78});
    auto live = ApplyOps(*start.value(), &op_gen, queries, 2.0,
                         /*full_stats=*/false, /*check_intermediate=*/false);
    ASSERT_NE(live, nullptr) << where;

    auto compacted = live->Compact();
    ASSERT_TRUE(compacted.ok()) << where << ": "
                                << compacted.status().ToString();
    EXPECT_EQ(compacted.value()->epoch(), live->epoch()) << where;
    EXPECT_EQ(compacted.value()->delta_windows(), 0) << where;

    auto cold = SubsequenceMatcher<char>::Build(
        live->database(), live->distance(), live->options());
    ASSERT_TRUE(cold.ok()) << where;

    const std::string merged_path =
        TempPath("epoch_merge_" + std::to_string(static_cast<int>(kind)));
    const std::string cold_path =
        TempPath("epoch_cold_" + std::to_string(static_cast<int>(kind)));
    ASSERT_TRUE(compacted.value()->SaveIndex(merged_path).ok()) << where;
    ASSERT_TRUE(cold.value()->SaveIndex(cold_path).ok()) << where;
    EXPECT_EQ(ReadFileBytes(merged_path), ReadFileBytes(cold_path))
        << where << ": merge output must be byte-identical to a cold build";

    // And the compacted matcher answers like the live one (same epoch,
    // merged billing — full stats only where LinearScan guarantees it).
    ExpectAnswersIdentical(*live, *compacted.value(), queries, 2.0,
                           kind == IndexKind::kLinearScan, where);
  }
}

TEST(EpochDeterminismTest, MidIngestSnapshotRoundTripsByteStably) {
  // A live matcher (delta + tombstones) saved mid-ingest must reload
  // over the same epoch's database into an identically-answering
  // matcher — same base/delta split, so the billing agrees too — and
  // re-save to the identical bytes. Loading over the wrong epoch is
  // refused. Covers every kind over sharded and routed bases (the
  // epoch.meta sections resolve shard/cell counts against the BASE
  // window count, not the grown catalog).
  ProteinGenerator seed_gen(ProteinGenOptions{.mean_length = 60, .seed = 90});
  const SequenceDatabase<char> db = seed_gen.GenerateDatabaseWithWindows(24, 10);
  const LevenshteinDistance<char> dist;
  const std::vector<std::vector<char>> queries = {CutQuery(db, 0, 0),
                                                  CutQuery(db, 1, 2)};
  for (const IndexKind kind : kAllKinds) {
    MatcherOptions options;
    options.lambda = 20;
    options.lambda0 = 5;
    options.index_kind = kind;
    if (kind == IndexKind::kReferenceNet || kind == IndexKind::kCoverTree) {
      options.exec.routing_cells = 2;
    } else {
      options.exec.num_shards = 2;
    }
    const std::string where = "kind " + std::to_string(static_cast<int>(kind));
    auto start = SubsequenceMatcher<char>::Build(db, dist, options);
    ASSERT_TRUE(start.ok()) << where;
    ProteinGenerator op_gen(ProteinGenOptions{.mean_length = 60, .seed = 91});
    auto live = ApplyOps(*start.value(), &op_gen, queries, 2.0,
                         /*full_stats=*/false, /*check_intermediate=*/false);
    ASSERT_NE(live, nullptr) << where;
    ASSERT_GT(live->delta_windows(), 0) << where;
    ASSERT_GT(live->num_tombstoned_windows(), 0) << where;

    const std::string tag = std::to_string(static_cast<int>(kind));
    const std::string saved = TempPath("epoch_live_" + tag);
    const std::string resaved = TempPath("epoch_live_resaved_" + tag);
    ASSERT_TRUE(live->SaveIndex(saved).ok()) << where;

    auto loaded = SubsequenceMatcher<char>::LoadIndex(
        live->database(), live->distance(), live->options(), saved);
    ASSERT_TRUE(loaded.ok()) << where << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->epoch(), live->epoch()) << where;
    EXPECT_EQ(loaded.value()->delta_windows(), live->delta_windows()) << where;
    EXPECT_EQ(loaded.value()->num_tombstoned_windows(),
              live->num_tombstoned_windows())
        << where;
    ASSERT_TRUE(loaded.value()->SaveIndex(resaved).ok()) << where;
    EXPECT_EQ(ReadFileBytes(saved), ReadFileBytes(resaved))
        << where << ": mid-ingest save -> load -> save must be byte-stable";
    // Same epoch, same base/delta split: FULL stats equality, all kinds.
    ExpectAnswersIdentical(*live, *loaded.value(), queries, 2.0,
                           /*full_stats=*/true, where);

    // The epoch id in the snapshot is validated against the database
    // the caller supplies, never trusted.
    EXPECT_FALSE(SubsequenceMatcher<char>::LoadIndex(db, dist, live->options(),
                                                     saved)
                     .ok())
        << where;
  }
}

TEST(EpochDeterminismTest, RetireValidatesItsArgument) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 60, .seed = 79});
  const SequenceDatabase<char> db = gen.GenerateDatabaseWithWindows(12, 10);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 5;
  options.index_kind = IndexKind::kLinearScan;
  auto m = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
               .ValueOrDie();
  EXPECT_EQ(m->WithRetired(-1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(m->WithRetired(db.size()).status().code(),
            StatusCode::kOutOfRange);
  auto retired = std::move(m->WithRetired(0)).ValueOrDie();
  EXPECT_EQ(retired->WithRetired(0).status().code(),
            StatusCode::kAlreadyExists);
  // ObjectIds are never renumbered by a retire.
  EXPECT_EQ(retired->catalog().num_windows(), m->catalog().num_windows());
}

}  // namespace
}  // namespace subseq
