// Out-of-core build battery: BuildToSnapshot must (a) emit a file
// byte-identical to Build + SaveIndex at EVERY batch size — 1, an
// awkward 7, and 0 (whole parts at once) — for both insertion-built
// backends over monolithic, contiguous and k-center layouts, (b) keep
// peak residency at O(shard), not O(catalog), for contiguous layouts,
// which the ResidencyGauge proves, and (c) produce a file whose loaded
// index answers element-wise identically to the fresh build.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "subseq/data/protein_gen.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/exec/peak_gauge.h"
#include "subseq/frame/matcher.h"

namespace subseq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

class SnapshotOutOfCoreTest : public ::testing::Test {
 protected:
  SnapshotOutOfCoreTest() {
    ProteinGenOptions gen_options;
    gen_options.mean_length = 30;
    gen_options.seed = 31;
    ProteinGenerator gen(gen_options);
    db_ = gen.GenerateDatabaseWithWindows(/*num_windows=*/60,
                                         /*window_length=*/4);
  }

  static MatcherOptions Options(IndexKind kind, int32_t shards) {
    MatcherOptions options;
    options.lambda = 8;
    options.lambda0 = 1;
    options.index_kind = kind;
    options.exec.num_shards = shards;
    return options;
  }

  // Builds in core, saves, and returns the reference bytes.
  std::vector<char> ReferenceBytes(const MatcherOptions& options,
                                   const std::string& tag) {
    const std::string path = TempPath("oocore_ref_" + tag + ".snap");
    auto matcher = SubsequenceMatcher<char>::Build(db_, dist_, options);
    EXPECT_TRUE(matcher.ok()) << matcher.status().message();
    EXPECT_TRUE(matcher.value()->SaveIndex(path).ok());
    std::vector<char> bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    return bytes;
  }

  SequenceDatabase<char> db_;
  LevenshteinDistance<char> dist_;
};

TEST_F(SnapshotOutOfCoreTest, EveryBatchSizeIsByteIdentical) {
  // The generator treats num_windows as a floor; read the real count.
  int64_t n = 0;
  {
    auto probe = SubsequenceMatcher<char>::Build(
        db_, dist_, Options(IndexKind::kLinearScan, 1));
    ASSERT_TRUE(probe.ok());
    n = probe.value()->catalog().num_windows();
  }
  for (const IndexKind kind :
       {IndexKind::kReferenceNet, IndexKind::kCoverTree}) {
    // Monolithic, 4 contiguous shards, and 4 k-center cells.
    for (const auto& [shards, cells] :
         {std::pair{1, 0}, std::pair{4, 0}, std::pair{0, 4}}) {
      MatcherOptions options = Options(kind, shards);
      options.exec.routing_cells = cells;
      const std::string tag =
          std::to_string(static_cast<int>(kind)) + "_k" +
          std::to_string(shards) + "_c" + std::to_string(cells);
      const std::vector<char> reference = ReferenceBytes(options, tag);
      for (const int32_t batch : {1, 7, 0}) {
        SCOPED_TRACE("kind " + tag + " batch " + std::to_string(batch));
        const std::string path = TempPath("oocore_" + tag + ".snap");
        SnapshotBuildOptions build;
        build.batch_windows = batch;
        ResidencyGauge gauge;
        ASSERT_TRUE(SubsequenceMatcher<char>::BuildToSnapshot(
                        db_, dist_, options, path, build, &gauge)
                        .ok());
        EXPECT_EQ(ReadFileBytes(path), reference)
            << "out-of-core snapshot must be byte-identical to "
               "Build + SaveIndex";
        // Every charged window was released once its part hit disk.
        EXPECT_EQ(gauge.current(), 0);
        // Peak residency is exactly the largest shard — the streamed
        // build never holds more than one shard's windows alive. Only
        // k-center cell selection charges the whole catalog.
        const int64_t max_part = cells > 1 ? n : (n + shards - 1) / shards;
        EXPECT_EQ(gauge.peak(), max_part);
        if (shards > 1) {
          EXPECT_LT(gauge.peak(), n)
              << "sharded out-of-core build must stay under O(catalog)";
        }
        std::remove(path.c_str());
      }
    }
  }
}

TEST_F(SnapshotOutOfCoreTest, RejectsNegativeBatch) {
  SnapshotBuildOptions build;
  build.batch_windows = -3;
  const auto status = SubsequenceMatcher<char>::BuildToSnapshot(
      db_, dist_, Options(IndexKind::kReferenceNet, 1),
      TempPath("oocore_neg.snap"), build);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotOutOfCoreTest, LoadedOutOfCoreIndexAnswersLikeFresh) {
  const MatcherOptions options = Options(IndexKind::kCoverTree, 4);
  const std::string path = TempPath("oocore_load.snap");
  SnapshotBuildOptions build;
  build.batch_windows = 7;
  ASSERT_TRUE(SubsequenceMatcher<char>::BuildToSnapshot(db_, dist_, options,
                                                        path, build)
                  .ok());

  auto fresh = SubsequenceMatcher<char>::Build(db_, dist_, options);
  ASSERT_TRUE(fresh.ok());
  for (const SnapshotLoadMode mode :
       {SnapshotLoadMode::kEager, SnapshotLoadMode::kMmap}) {
    MatcherOptions load_options = options;
    load_options.snapshot_load_mode = mode;
    auto loaded =
        SubsequenceMatcher<char>::LoadIndex(db_, dist_, load_options, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    for (int32_t q = 0; q < 3; ++q) {
      const auto& seq = db_.at(q);
      const std::span<const char> query =
          seq.view().first(static_cast<size_t>(std::min(seq.size(), 12)));
      MatchQueryStats fresh_stats, loaded_stats;
      auto want = fresh.value()->RangeSearch(query, 1.0, &fresh_stats);
      auto got = loaded.value()->RangeSearch(query, 1.0, &loaded_stats);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(want.value().size(), got.value().size());
      for (size_t i = 0; i < want.value().size(); ++i) {
        EXPECT_EQ(want.value()[i], got.value()[i]);
        EXPECT_EQ(want.value()[i].distance, got.value()[i].distance);
      }
      EXPECT_EQ(fresh_stats.filter_computations,
                loaded_stats.filter_computations);
      EXPECT_EQ(fresh_stats.hits, loaded_stats.hits);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace subseq
