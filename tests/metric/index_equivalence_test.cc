// Parameterized cross-index equivalence: every index must return exactly
// the linear-scan result set, across data distributions, epsilon scales,
// and real sequence-window oracles (Levenshtein / ERP / DFD).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>

#include "subseq/core/rng.h"
#include "subseq/data/protein_gen.h"
#include "subseq/data/song_gen.h"
#include "subseq/distance/erp.h"
#include "subseq/distance/frechet.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/frame/window_oracle.h"
#include "subseq/frame/windowing.h"
#include "subseq/metric/cover_tree.h"
#include "subseq/metric/linear_scan.h"
#include "subseq/metric/mv_index.h"
#include "subseq/metric/reference_net.h"
#include "testing/helpers.h"

namespace subseq {
namespace {

using ::subseq::testing::ScalarPointOracle;

std::unique_ptr<RangeIndex> MakeIndex(const std::string& kind,
                                      const DistanceOracle& oracle) {
  if (kind == "reference-net") {
    auto net = std::make_unique<ReferenceNet>(oracle);
    for (ObjectId id = 0; id < oracle.size(); ++id) {
      EXPECT_TRUE(net->Insert(id).ok());
    }
    return net;
  }
  if (kind == "reference-net-5") {
    ReferenceNetOptions options;
    options.max_parents = 5;
    auto net = std::make_unique<ReferenceNet>(oracle, options);
    for (ObjectId id = 0; id < oracle.size(); ++id) {
      EXPECT_TRUE(net->Insert(id).ok());
    }
    return net;
  }
  if (kind == "cover-tree") {
    auto tree = std::make_unique<CoverTree>(oracle);
    for (ObjectId id = 0; id < oracle.size(); ++id) {
      EXPECT_TRUE(tree->Insert(id).ok());
    }
    return tree;
  }
  if (kind == "mv-index") {
    return std::make_unique<MvIndex>(oracle);
  }
  ADD_FAILURE() << "unknown index kind " << kind;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Scalar points, three distributions x every index.

class PointEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>> {};

TEST_P(PointEquivalence, MatchesLinearScan) {
  const auto& [index_kind, distribution] = GetParam();
  Rng rng(2024);
  std::vector<double> pts;
  const int n = 180;
  for (int i = 0; i < n; ++i) {
    if (distribution == "uniform") {
      pts.push_back(rng.NextDouble(0.0, 100.0));
    } else if (distribution == "gaussian") {
      pts.push_back(50.0 + 10.0 * rng.NextGaussian());
    } else {  // clustered
      const double center = 25.0 * static_cast<double>(rng.NextBounded(4));
      pts.push_back(center + rng.NextDouble(-0.5, 0.5));
    }
  }
  const ScalarPointOracle oracle(pts);
  const auto index = MakeIndex(index_kind, oracle);
  ASSERT_NE(index, nullptr);
  LinearScan scan(oracle.size());

  for (const double eps : {0.0, 0.5, 2.0, 10.0, 50.0, 200.0}) {
    for (int q = 0; q < 5; ++q) {
      const double query_point = rng.NextDouble(-20.0, 120.0);
      auto expected = scan.RangeQuery(oracle.QueryFrom(query_point), eps,
                                      nullptr);
      auto actual = index->RangeQuery(oracle.QueryFrom(query_point), eps,
                                      nullptr);
      std::sort(expected.begin(), expected.end());
      std::sort(actual.begin(), actual.end());
      EXPECT_EQ(actual, expected)
          << index_kind << "/" << distribution << " eps=" << eps;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexesAllDistributions, PointEquivalence,
    ::testing::Combine(::testing::Values("reference-net", "reference-net-5",
                                         "cover-tree", "mv-index"),
                       ::testing::Values("uniform", "gaussian", "clustered")),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) + "_" + std::get<1>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------------------------------
// Real window oracles: protein windows under Levenshtein, song windows
// under ERP and DFD — the paper's actual filter workloads.

class WindowEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(WindowEquivalence, ProteinWindowsLevenshtein) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 100, .seed = 77});
  const SequenceDatabase<char> db = gen.GenerateDatabaseWithWindows(120, 10);
  auto catalog = WindowCatalog::PartitionDatabase(db, 10);
  ASSERT_TRUE(catalog.ok());
  const LevenshteinDistance<char> dist;
  const WindowOracle<char> oracle(db, catalog.value(), dist);
  const auto index = MakeIndex(GetParam(), oracle);
  LinearScan scan(oracle.size());

  ProteinGenerator query_gen(ProteinGenOptions{.mean_length = 100,
                                               .seed = 78});
  for (const double eps : {1.0, 3.0, 6.0}) {
    const Sequence<char> q = query_gen.GenerateWithLength(10);
    auto expected =
        scan.RangeQuery(oracle.SegmentQuery(q.view()), eps, nullptr);
    auto actual =
        index->RangeQuery(oracle.SegmentQuery(q.view()), eps, nullptr);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << GetParam() << " eps=" << eps;
  }
}

TEST_P(WindowEquivalence, SongWindowsErpAndFrechet) {
  SongGenerator gen(SongGenOptions{.mean_length = 80, .seed = 99});
  const SequenceDatabase<double> db = gen.GenerateDatabaseWithWindows(100, 10);
  auto catalog = WindowCatalog::PartitionDatabase(db, 10);
  ASSERT_TRUE(catalog.ok());

  const ErpDistance1D erp;
  const FrechetDistance1D dfd;
  SongGenerator query_gen(SongGenOptions{.mean_length = 80, .seed = 100});
  const Sequence<double> q = query_gen.GenerateWithLength(10);

  {
    const WindowOracle<double> oracle(db, catalog.value(), erp);
    const auto index = MakeIndex(GetParam(), oracle);
    LinearScan scan(oracle.size());
    for (const double eps : {2.0, 8.0, 30.0}) {
      auto expected =
          scan.RangeQuery(oracle.SegmentQuery(q.view()), eps, nullptr);
      auto actual =
          index->RangeQuery(oracle.SegmentQuery(q.view()), eps, nullptr);
      std::sort(expected.begin(), expected.end());
      std::sort(actual.begin(), actual.end());
      EXPECT_EQ(actual, expected) << "erp eps=" << eps;
    }
  }
  {
    const WindowOracle<double> oracle(db, catalog.value(), dfd);
    const auto index = MakeIndex(GetParam(), oracle);
    LinearScan scan(oracle.size());
    for (const double eps : {1.0, 3.0, 6.0}) {
      auto expected =
          scan.RangeQuery(oracle.SegmentQuery(q.view()), eps, nullptr);
      auto actual =
          index->RangeQuery(oracle.SegmentQuery(q.view()), eps, nullptr);
      std::sort(expected.begin(), expected.end());
      std::sort(actual.begin(), actual.end());
      EXPECT_EQ(actual, expected) << "dfd eps=" << eps;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, WindowEquivalence,
                         ::testing::Values("reference-net",
                                           "reference-net-5", "cover-tree",
                                           "mv-index"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace subseq
