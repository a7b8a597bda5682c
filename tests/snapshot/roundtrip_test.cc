// Round-trip property battery for the snapshot subsystem: for every
// index kind, shard count, dataset, and load mode, a matcher loaded from
// a snapshot must be indistinguishable from the fresh build it replaces
// — element-wise equal matches AND stats — and the encoding must be
// canonical (save -> load -> save reproduces the file byte for byte).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "subseq/data/protein_gen.h"
#include "subseq/data/song_gen.h"
#include "subseq/distance/frechet.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/frame/matcher.h"
#include "subseq/serve/match_server.h"
#include "subseq/snapshot/reader.h"

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

const char* KindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kReferenceNet: return "rn";
    case IndexKind::kCoverTree: return "ct";
    case IndexKind::kMvIndex: return "mv";
    case IndexKind::kLinearScan: return "ls";
  }
  return "??";
}

const char* ModeName(SnapshotLoadMode mode) {
  return mode == SnapshotLoadMode::kEager ? "eager" : "mmap";
}

void ExpectStatsEqual(const MatchQueryStats& fresh,
                      const MatchQueryStats& loaded, const std::string& tag) {
  EXPECT_EQ(fresh.segments, loaded.segments) << tag;
  EXPECT_EQ(fresh.filter_computations, loaded.filter_computations) << tag;
  EXPECT_EQ(fresh.hits, loaded.hits) << tag;
  EXPECT_EQ(fresh.chains, loaded.chains) << tag;
  EXPECT_EQ(fresh.verifications, loaded.verifications) << tag;
}

// The property itself: fresh build vs snapshot round-trip, one
// configuration. Checks canonical bytes, restored build/space counters,
// and query-observable equality (matches with distances, stats) for a
// Type I and a Type II query per query string.
template <typename T>
void CheckRoundTrip(const SequenceDatabase<T>& db,
                    const SequenceDistance<T>& dist, MatcherOptions options,
                    const std::vector<std::vector<T>>& queries, double epsilon,
                    SnapshotLoadMode mode, const std::string& tag) {
  SCOPED_TRACE(tag);
  options.snapshot_load_mode = mode;

  auto fresh_result = SubsequenceMatcher<T>::Build(db, dist, options);
  ASSERT_TRUE(fresh_result.ok()) << fresh_result.status().message();
  const auto fresh = std::move(fresh_result).ValueOrDie();

  const std::string path = TempPath("rt_" + tag + ".snap");
  ASSERT_TRUE(fresh->SaveIndex(path).ok());

  auto loaded_result =
      SubsequenceMatcher<T>::LoadIndex(db, dist, options, path);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status().message();
  const auto loaded = std::move(loaded_result).ValueOrDie();

  // Canonical encoding: re-saving the loaded matcher is byte-identical.
  const std::string resaved = TempPath("rt_" + tag + ".resaved.snap");
  ASSERT_TRUE(loaded->SaveIndex(resaved).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(resaved))
      << "save -> load -> save must reproduce the file byte for byte";

  // Build-time counters and space accounting are part of the state.
  EXPECT_EQ(fresh->index().build_stats().distance_computations,
            loaded->index().build_stats().distance_computations);
  EXPECT_EQ(fresh->index().size(), loaded->index().size());
  EXPECT_EQ(fresh->index().name(), loaded->index().name());
  const SpaceStats fresh_space = fresh->index().ComputeSpaceStats();
  const SpaceStats loaded_space = loaded->index().ComputeSpaceStats();
  EXPECT_EQ(fresh_space.num_nodes, loaded_space.num_nodes);
  EXPECT_EQ(fresh_space.num_list_entries, loaded_space.num_list_entries);
  EXPECT_EQ(fresh_space.num_levels, loaded_space.num_levels);

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::span<const T> query(queries[qi]);
    MatchQueryStats fresh_stats, loaded_stats;
    auto fresh_matches = fresh->RangeSearch(query, epsilon, &fresh_stats);
    auto loaded_matches = loaded->RangeSearch(query, epsilon, &loaded_stats);
    ASSERT_EQ(fresh_matches.ok(), loaded_matches.ok());
    if (fresh_matches.ok()) {
      const auto& fm = fresh_matches.value();
      const auto& lm = loaded_matches.value();
      ASSERT_EQ(fm.size(), lm.size()) << "query " << qi;
      for (size_t m = 0; m < fm.size(); ++m) {
        EXPECT_EQ(fm[m], lm[m]) << "query " << qi << " match " << m;
        EXPECT_EQ(fm[m].distance, lm[m].distance)
            << "query " << qi << " match " << m;
      }
    }
    ExpectStatsEqual(fresh_stats, loaded_stats,
                     "RangeSearch query " + std::to_string(qi));

    MatchQueryStats fresh_l, loaded_l;
    auto fresh_best = fresh->LongestMatch(query, epsilon, &fresh_l);
    auto loaded_best = loaded->LongestMatch(query, epsilon, &loaded_l);
    ASSERT_EQ(fresh_best.ok(), loaded_best.ok());
    if (fresh_best.ok()) {
      ASSERT_EQ(fresh_best.value().has_value(),
                loaded_best.value().has_value());
      if (fresh_best.value().has_value()) {
        EXPECT_EQ(*fresh_best.value(), *loaded_best.value());
        EXPECT_EQ(fresh_best.value()->distance,
                  loaded_best.value()->distance);
      }
    }
    ExpectStatsEqual(fresh_l, loaded_l,
                     "LongestMatch query " + std::to_string(qi));
  }

  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

// PROTEINS-like: strings under Levenshtein.
struct ProteinFixture {
  ProteinFixture() {
    ProteinGenOptions gen_options;
    gen_options.mean_length = 30;
    gen_options.seed = 11;
    ProteinGenerator gen(gen_options);
    db = gen.GenerateDatabaseWithWindows(/*num_windows=*/60,
                                         /*window_length=*/4);
    // Queries: slices of database content (guaranteed matches) plus the
    // sequences' own prefixes.
    for (int32_t s = 0; s < 3 && s < db.size(); ++s) {
      const auto view = db.at(s).view();
      const size_t len = std::min<size_t>(view.size(), 14);
      queries.emplace_back(view.begin(), view.begin() + len);
    }
  }
  SequenceDatabase<char> db;
  std::vector<std::vector<char>> queries;
  LevenshteinDistance<char> dist;
};

// SONGS-like: pitch series under the discrete Frechet distance.
struct SongFixture {
  SongFixture() {
    SongGenOptions gen_options;
    gen_options.mean_length = 40;
    gen_options.seed = 12;
    SongGenerator gen(gen_options);
    db = gen.GenerateDatabaseWithWindows(/*num_windows=*/60,
                                         /*window_length=*/4);
    for (int32_t s = 0; s < 3 && s < db.size(); ++s) {
      const auto view = db.at(s).view();
      const size_t len = std::min<size_t>(view.size(), 14);
      queries.emplace_back(view.begin(), view.begin() + len);
    }
  }
  SequenceDatabase<double> db;
  std::vector<std::vector<double>> queries;
  FrechetDistance1D dist;
};

MatcherOptions SmallOptions(IndexKind kind, int32_t shards) {
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 1;
  options.index_kind = kind;
  options.exec.num_shards = shards;
  // Small catalogs: keep the MV sample within bounds and builds quick.
  options.mv_index.sample_size = 32;
  return options;
}

class SnapshotRoundtripTest : public ::testing::Test {};

TEST_F(SnapshotRoundtripTest, ProteinsAllKindsMonolithic) {
  const ProteinFixture fx;
  for (const IndexKind kind : kAllKinds) {
    for (const SnapshotLoadMode mode :
         {SnapshotLoadMode::kEager, SnapshotLoadMode::kMmap}) {
      CheckRoundTrip<char>(fx.db, fx.dist, SmallOptions(kind, 1), fx.queries,
                           /*epsilon=*/1.0, mode,
                           std::string("prot_") + KindName(kind) + "_s1_" +
                               ModeName(mode));
    }
  }
}

TEST_F(SnapshotRoundtripTest, ProteinsAllKindsSharded) {
  const ProteinFixture fx;
  for (const IndexKind kind : kAllKinds) {
    for (const SnapshotLoadMode mode :
         {SnapshotLoadMode::kEager, SnapshotLoadMode::kMmap}) {
      CheckRoundTrip<char>(fx.db, fx.dist, SmallOptions(kind, 4), fx.queries,
                           /*epsilon=*/1.0, mode,
                           std::string("prot_") + KindName(kind) + "_s4_" +
                               ModeName(mode));
    }
  }
}

TEST_F(SnapshotRoundtripTest, SongsAllKindsMonolithic) {
  const SongFixture fx;
  for (const IndexKind kind : kAllKinds) {
    for (const SnapshotLoadMode mode :
         {SnapshotLoadMode::kEager, SnapshotLoadMode::kMmap}) {
      CheckRoundTrip<double>(fx.db, fx.dist, SmallOptions(kind, 1),
                             fx.queries, /*epsilon=*/1.0, mode,
                             std::string("song_") + KindName(kind) + "_s1_" +
                                 ModeName(mode));
    }
  }
}

TEST_F(SnapshotRoundtripTest, SongsAllKindsSharded) {
  const SongFixture fx;
  for (const IndexKind kind : kAllKinds) {
    for (const SnapshotLoadMode mode :
         {SnapshotLoadMode::kEager, SnapshotLoadMode::kMmap}) {
      CheckRoundTrip<double>(fx.db, fx.dist, SmallOptions(kind, 4),
                             fx.queries, /*epsilon=*/1.0, mode,
                             std::string("song_") + KindName(kind) + "_s4_" +
                                 ModeName(mode));
    }
  }
}

// Loading against the wrong database, options, or kind must fail with a
// precise status, never answer wrongly.
TEST_F(SnapshotRoundtripTest, RejectsMismatchedLoads) {
  const ProteinFixture fx;
  const MatcherOptions options = SmallOptions(IndexKind::kReferenceNet, 1);
  auto fresh =
      std::move(SubsequenceMatcher<char>::Build(fx.db, fx.dist, options))
          .ValueOrDie();
  const std::string path = TempPath("rt_mismatch.snap");
  ASSERT_TRUE(fresh->SaveIndex(path).ok());

  // Different lambda -> different window partition.
  MatcherOptions other = options;
  other.lambda = 12;
  EXPECT_EQ(SubsequenceMatcher<char>::LoadIndex(fx.db, fx.dist, other, path)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // A kind the snapshot does not hold.
  other = SmallOptions(IndexKind::kMvIndex, 1);
  EXPECT_EQ(SubsequenceMatcher<char>::LoadIndex(fx.db, fx.dist, other, path)
                .status()
                .code(),
            StatusCode::kNotFound);

  // A kind value no index has (3 was the retired vp-tree's): Build and
  // LoadIndex refuse the options by value, not as a kind the file lacks.
  other = SmallOptions(static_cast<IndexKind>(3), 1);
  for (const Status& status :
       {SubsequenceMatcher<char>::Build(fx.db, fx.dist, other).status(),
        SubsequenceMatcher<char>::LoadIndex(fx.db, fx.dist, other, path)
            .status()}) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("index_kind 3"), std::string::npos)
        << status.message();
  }

  // A different shard count than the snapshot records.
  other = SmallOptions(IndexKind::kReferenceNet, 4);
  EXPECT_EQ(SubsequenceMatcher<char>::LoadIndex(fx.db, fx.dist, other, path)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Different backend tunables than the index was built with.
  other = SmallOptions(IndexKind::kReferenceNet, 1);
  other.reference_net.base_radius = 2.5;
  EXPECT_EQ(SubsequenceMatcher<char>::LoadIndex(fx.db, fx.dist, other, path)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // A database that differs from the one the snapshot was built over.
  SequenceDatabase<char> wrong_db;
  wrong_db.Add(MakeStringSequence("ACGTACGTACGTACGT"));
  EXPECT_FALSE(
      SubsequenceMatcher<char>::LoadIndex(wrong_db, fx.dist, options, path)
          .ok());

  std::remove(path.c_str());
}

// idx.<kind>.top stores the IndexKind value, so the values are part of
// the format: each kind still writes the value it always wrote.
TEST_F(SnapshotRoundtripTest, IndexBlocksRecordStableKindValues) {
  const ProteinFixture fx;
  const std::pair<IndexKind, int32_t> expected[] = {
      {IndexKind::kReferenceNet, 0},
      {IndexKind::kCoverTree, 1},
      {IndexKind::kMvIndex, 2},
      {IndexKind::kLinearScan, 4}};
  for (const auto& [kind, value] : expected) {
    SCOPED_TRACE(KindName(kind));
    auto built =
        SubsequenceMatcher<char>::Build(fx.db, fx.dist, SmallOptions(kind, 1));
    ASSERT_TRUE(built.ok()) << built.status().message();
    const std::string path = TempPath(std::string("rt_kind_") +
                                      KindName(kind) + ".snap");
    ASSERT_TRUE(built.value()->SaveIndex(path).ok());
    auto file = SnapshotFile::Open(path, SnapshotLoadMode::kEager);
    ASSERT_TRUE(file.ok()) << file.status().message();
    auto top = PodSectionView<int32_t>(
        *file.value(), std::string("idx.") + KindName(kind) + ".top");
    ASSERT_TRUE(top.ok()) << top.status().message();
    ASSERT_FALSE(top.value().empty());
    EXPECT_EQ(top.value()[0], value);
    std::remove(path.c_str());
  }
}

// The serving layer: a MatchServer started from a snapshot answers
// bit-identically to one that rebuilt its indexes, across every
// configured kind in one shared file.
// The acceptance-criteria check: a server booted from an mmap snapshot
// answers bit-identically (matches AND stats) to one started from a
// fresh in-RAM build — for all four kinds, monolithic and sharded.
TEST_F(SnapshotRoundtripTest, ServerFromSnapshotIsBitIdentical) {
  const ProteinFixture fx;
  for (const int32_t shards : {1, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    MatchServerOptions options;
    options.matcher = SmallOptions(IndexKind::kReferenceNet, shards);
    options.index_kinds.assign(std::begin(kAllKinds), std::end(kAllKinds));

    auto built =
        std::move(MatchServer<char>::Start(fx.db, fx.dist, options))
            .ValueOrDie();
    const std::string path = TempPath("rt_server.snap");
    ASSERT_TRUE(built->SaveSnapshot(path).ok());

    MatchServerOptions from_snap = options;
    from_snap.snapshot_path = path;
    from_snap.matcher.snapshot_load_mode = SnapshotLoadMode::kMmap;
    auto restored =
        std::move(MatchServer<char>::Start(fx.db, fx.dist, from_snap))
            .ValueOrDie();

    for (const IndexKind kind : options.index_kinds) {
      for (const auto& query : fx.queries) {
        MatchRequest<char> request;
        request.type = MatchQueryType::kRangeSearch;
        request.query = query;
        request.epsilon = 1.0;
        request.index_kind = kind;
        MatchRequest<char> request2 = request;
        const MatchResult a = built->Submit(std::move(request)).Get();
        const MatchResult b = restored->Submit(std::move(request2)).Get();
        ASSERT_EQ(a.status.ok(), b.status.ok());
        ASSERT_EQ(a.matches.size(), b.matches.size());
        for (size_t m = 0; m < a.matches.size(); ++m) {
          EXPECT_EQ(a.matches[m], b.matches[m]);
          EXPECT_EQ(a.matches[m].distance, b.matches[m].distance);
        }
        ExpectStatsEqual(a.stats, b.stats, "server query");
      }
    }

    restored->Shutdown();
    built->Shutdown();
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace subseq
