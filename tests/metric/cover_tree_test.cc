// The cover tree is the reference net capped at one parent per node
// (ReferenceNetOptions::max_parents = 1, IndexKind::kCoverTree); these
// cases hold that configuration to the cover tree's own contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "subseq/core/rng.h"
#include "subseq/metric/linear_scan.h"
#include "subseq/metric/reference_net.h"
#include "testing/helpers.h"

namespace subseq {
namespace {

using ::subseq::testing::ScalarPointOracle;

std::vector<double> RandomPoints(uint64_t seed, int n, double lo, double hi) {
  Rng rng(seed);
  std::vector<double> pts;
  for (int i = 0; i < n; ++i) pts.push_back(rng.NextDouble(lo, hi));
  return pts;
}

ReferenceNetOptions OneParent() {
  ReferenceNetOptions options;
  options.max_parents = 1;
  return options;
}

ReferenceNet BuildCoverTree(const DistanceOracle& oracle) {
  return ReferenceNet::BuildAll(oracle, OneParent());
}

TEST(CoverTreeTest, EmptyTree) {
  const ScalarPointOracle oracle({});
  ReferenceNet tree(oracle, OneParent());
  EXPECT_TRUE(tree.RangeQuery([](ObjectId) { return 0.0; }, 5.0, nullptr)
                  .empty());
  EXPECT_FALSE(tree.CheckInvariants().has_value());
}

TEST(CoverTreeTest, InsertRejectsDuplicateIds) {
  const ScalarPointOracle oracle({1.0});
  ReferenceNet tree(oracle, OneParent());
  EXPECT_TRUE(tree.Insert(0).ok());
  EXPECT_EQ(tree.Insert(0).code(), StatusCode::kAlreadyExists);
}

TEST(CoverTreeTest, InvariantsHoldAfterRandomInserts) {
  for (const uint64_t seed : {5u, 6u, 7u}) {
    const ScalarPointOracle oracle(RandomPoints(seed, 120, 0.0, 60.0));
    ReferenceNet tree = BuildCoverTree(oracle);
    const auto violation = tree.CheckInvariants();
    EXPECT_FALSE(violation.has_value()) << "seed " << seed << ": "
                                        << *violation;
  }
}

TEST(CoverTreeTest, HandlesExactDuplicates) {
  const ScalarPointOracle oracle({2.0, 2.0, 2.0, 7.0});
  ReferenceNet tree = BuildCoverTree(oracle);
  EXPECT_EQ(tree.size(), 4);
  auto hits = tree.RangeQuery(oracle.QueryFrom(2.0), 0.0, nullptr);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<ObjectId>{0, 1, 2}));
  EXPECT_FALSE(tree.CheckInvariants().has_value());
}

TEST(CoverTreeTest, RangeQueryMatchesLinearScan) {
  const ScalarPointOracle oracle(RandomPoints(11, 200, 0.0, 100.0));
  ReferenceNet tree = BuildCoverTree(oracle);
  LinearScan scan(oracle.size());
  Rng rng(12);
  for (int q = 0; q < 30; ++q) {
    const double query_point = rng.NextDouble(-10.0, 110.0);
    const double eps = rng.NextDouble(0.0, 20.0);
    auto expected = scan.RangeQuery(oracle.QueryFrom(query_point), eps,
                                    nullptr);
    auto actual = tree.RangeQuery(oracle.QueryFrom(query_point), eps,
                                  nullptr);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(CoverTreeTest, EveryNodeHasExactlyOneParent) {
  // In a tree, list entries == nodes - 1 (every non-root has one parent),
  // on spread-out and on tightly packed data alike.
  for (const std::vector<double>& points :
       {RandomPoints(13, 150, 0.0, 80.0), RandomPoints(19, 300, 0.0, 8.0)}) {
    const ScalarPointOracle oracle(points);
    const ReferenceNet tree = BuildCoverTree(oracle);
    EXPECT_EQ(tree.name(), "cover-tree");
    const SpaceStats s = tree.ComputeSpaceStats();
    EXPECT_EQ(s.num_list_entries, s.num_nodes - 1);
    EXPECT_DOUBLE_EQ(s.avg_parents, 1.0);
    // Any other cap is a reference net.
    EXPECT_EQ(ReferenceNet::BuildAll(oracle).name(), "reference-net");
    ReferenceNetOptions five;
    five.max_parents = 5;
    EXPECT_EQ(ReferenceNet::BuildAll(oracle, five).name(), "reference-net");
  }
}

TEST(CoverTreeTest, SmallerThanUnconstrainedReferenceNetOnSkewedData) {
  // The paper: the reference net is ~3-4x the cover tree (PROTEINS),
  // because of multi-parenting. On tightly packed data the effect shows.
  const ScalarPointOracle oracle(RandomPoints(19, 300, 0.0, 8.0));
  ReferenceNet tree = BuildCoverTree(oracle);
  EXPECT_FALSE(tree.CheckInvariants().has_value());
  EXPECT_EQ(tree.ComputeSpaceStats().avg_parents, 1.0);
  const ReferenceNet net = ReferenceNet::BuildAll(oracle);
  EXPECT_LE(tree.ComputeSpaceStats().num_list_entries,
            net.ComputeSpaceStats().num_list_entries);
}

TEST(CoverTreeTest, PrunesOnSmallRanges) {
  const ScalarPointOracle oracle(RandomPoints(21, 500, 0.0, 1000.0));
  ReferenceNet tree = BuildCoverTree(oracle);
  QueryStats stats;
  tree.RangeQuery(oracle.QueryFrom(500.0), 2.0, &stats);
  EXPECT_LT(stats.distance_computations, oracle.size() / 2);
}

}  // namespace
}  // namespace subseq
