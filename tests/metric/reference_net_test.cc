#include "subseq/metric/reference_net.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "subseq/core/rng.h"
#include "subseq/metric/linear_scan.h"
#include "testing/counting_oracle.h"
#include "testing/helpers.h"

namespace subseq {
namespace {

using ::subseq::testing::CountingOracle;
using ::subseq::testing::CountingQueryFn;
using ::subseq::testing::PlanePointOracle;
using ::subseq::testing::ScalarPointOracle;

std::vector<double> RandomPoints(uint64_t seed, int n, double lo, double hi) {
  Rng rng(seed);
  std::vector<double> pts;
  pts.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pts.push_back(rng.NextDouble(lo, hi));
  return pts;
}

TEST(ReferenceNetTest, EmptyNetAnswersEmpty) {
  const ScalarPointOracle oracle({});
  ReferenceNet net(oracle);
  QueryStats stats;
  EXPECT_TRUE(net.RangeQuery([](ObjectId) { return 0.0; }, 10.0, &stats)
                  .empty());
  EXPECT_EQ(stats.distance_computations, 0);
  EXPECT_FALSE(net.CheckInvariants().has_value());
}

TEST(ReferenceNetTest, SingleObject) {
  const ScalarPointOracle oracle({5.0});
  ReferenceNet net = ReferenceNet::BuildAll(oracle);
  EXPECT_EQ(net.size(), 1);
  auto hits = net.RangeQuery(oracle.QueryFrom(5.4), 0.5, nullptr);
  EXPECT_EQ(hits, (std::vector<ObjectId>{0}));
  EXPECT_TRUE(net.RangeQuery(oracle.QueryFrom(7.0), 0.5, nullptr).empty());
}

TEST(ReferenceNetTest, InsertRejectsDuplicateIds) {
  const ScalarPointOracle oracle({1.0, 2.0});
  ReferenceNet net(oracle);
  EXPECT_TRUE(net.Insert(0).ok());
  EXPECT_EQ(net.Insert(0).code(), StatusCode::kAlreadyExists);
}

TEST(ReferenceNetTest, InvariantsHoldAfterRandomInserts) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const ScalarPointOracle oracle(RandomPoints(seed, 120, 0.0, 50.0));
    ReferenceNet net = ReferenceNet::BuildAll(oracle);
    const auto violation = net.CheckInvariants();
    EXPECT_FALSE(violation.has_value()) << "seed " << seed << ": "
                                        << *violation;
  }
}

TEST(ReferenceNetTest, InvariantsHoldOnClusteredData) {
  // Tight clusters exercise deep (negative) levels.
  Rng rng(99);
  std::vector<double> pts;
  for (int c = 0; c < 5; ++c) {
    const double center = 100.0 * c;
    for (int i = 0; i < 20; ++i) {
      pts.push_back(center + rng.NextDouble(-0.01, 0.01));
    }
  }
  const ScalarPointOracle oracle(pts);
  ReferenceNet net = ReferenceNet::BuildAll(oracle);
  const auto violation = net.CheckInvariants();
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(ReferenceNetTest, HandlesExactDuplicates) {
  std::vector<double> pts = {1.0, 1.0, 1.0, 5.0, 5.0, 9.0};
  const ScalarPointOracle oracle(pts);
  ReferenceNet net = ReferenceNet::BuildAll(oracle);
  EXPECT_EQ(net.size(), 6);
  const auto violation = net.CheckInvariants();
  EXPECT_FALSE(violation.has_value()) << *violation;
  auto hits = net.RangeQuery(oracle.QueryFrom(1.0), 0.0, nullptr);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<ObjectId>{0, 1, 2}));
}

TEST(ReferenceNetTest, RangeQueryMatchesLinearScan) {
  const ScalarPointOracle oracle(RandomPoints(7, 200, 0.0, 100.0));
  ReferenceNet net = ReferenceNet::BuildAll(oracle);
  LinearScan scan(oracle.size());
  Rng rng(8);
  for (int q = 0; q < 30; ++q) {
    const double query_point = rng.NextDouble(-10.0, 110.0);
    const double eps = rng.NextDouble(0.0, 20.0);
    auto expected = scan.RangeQuery(oracle.QueryFrom(query_point), eps,
                                    nullptr);
    auto actual = net.RangeQuery(oracle.QueryFrom(query_point), eps,
                                 nullptr);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "q=" << query_point << " eps=" << eps;
  }
}

TEST(ReferenceNetTest, RangeQueryMatchesLinearScan2D) {
  Rng rng(17);
  std::vector<Point2d> pts;
  for (int i = 0; i < 150; ++i) {
    pts.push_back(Point2d{rng.NextDouble(0, 40), rng.NextDouble(0, 40)});
  }
  const PlanePointOracle oracle(pts);
  ReferenceNet net = ReferenceNet::BuildAll(oracle);
  LinearScan scan(oracle.size());
  for (int q = 0; q < 20; ++q) {
    const Point2d query{rng.NextDouble(0, 40), rng.NextDouble(0, 40)};
    const double eps = rng.NextDouble(0.0, 15.0);
    auto expected = scan.RangeQuery(oracle.QueryFrom(query), eps, nullptr);
    auto actual = net.RangeQuery(oracle.QueryFrom(query), eps, nullptr);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(ReferenceNetTest, PrunesComparedToLinearScanOnLargeRange) {
  // With points spread across a wide domain and a small query radius, the
  // net must evaluate far fewer distances than the scan.
  const ScalarPointOracle oracle(RandomPoints(23, 500, 0.0, 1000.0));
  ReferenceNet net = ReferenceNet::BuildAll(oracle);
  QueryStats stats;
  net.RangeQuery(oracle.QueryFrom(500.0), 2.0, &stats);
  EXPECT_LT(stats.distance_computations, oracle.size() / 2);
}

TEST(ReferenceNetTest, MaxParentsIsRespected) {
  const ScalarPointOracle oracle(RandomPoints(31, 150, 0.0, 10.0));
  ReferenceNetOptions options;
  options.max_parents = 3;
  ReferenceNet net = ReferenceNet::BuildAll(oracle, options);
  const auto violation = net.CheckInvariants();
  EXPECT_FALSE(violation.has_value()) << *violation;
  const SpaceStats s = net.ComputeSpaceStats();
  EXPECT_LE(s.avg_parents, 3.0 + 1e-9);
}

TEST(ReferenceNetTest, MaxParentsReducesSpace) {
  // Skewed (tightly packed) data inflates parent lists; the cap reins the
  // space in — the paper's DFD-5 experiment (Fig. 6).
  const ScalarPointOracle oracle(RandomPoints(37, 300, 0.0, 6.0));
  ReferenceNet unconstrained = ReferenceNet::BuildAll(oracle);
  ReferenceNetOptions capped_options;
  capped_options.max_parents = 2;
  ReferenceNet capped = ReferenceNet::BuildAll(oracle, capped_options);
  EXPECT_LE(capped.ComputeSpaceStats().num_list_entries,
            unconstrained.ComputeSpaceStats().num_list_entries);
}

TEST(ReferenceNetTest, CappedNetStillAnswersExactly) {
  const ScalarPointOracle oracle(RandomPoints(41, 200, 0.0, 30.0));
  ReferenceNetOptions options;
  options.max_parents = 1;
  ReferenceNet net = ReferenceNet::BuildAll(oracle, options);
  LinearScan scan(oracle.size());
  Rng rng(42);
  for (int q = 0; q < 20; ++q) {
    const double query_point = rng.NextDouble(0.0, 30.0);
    const double eps = rng.NextDouble(0.0, 5.0);
    auto expected = scan.RangeQuery(oracle.QueryFrom(query_point), eps,
                                    nullptr);
    auto actual = net.RangeQuery(oracle.QueryFrom(query_point), eps,
                                 nullptr);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(ReferenceNetTest, BaseRadiusVariantsStayCorrect) {
  const ScalarPointOracle oracle(RandomPoints(47, 150, 0.0, 60.0));
  for (const double eps_prime : {0.25, 1.0, 4.0}) {
    ReferenceNetOptions options;
    options.base_radius = eps_prime;
    ReferenceNet net = ReferenceNet::BuildAll(oracle, options);
    EXPECT_FALSE(net.CheckInvariants().has_value());
    LinearScan scan(oracle.size());
    auto expected = scan.RangeQuery(oracle.QueryFrom(30.0), 4.0, nullptr);
    auto actual = net.RangeQuery(oracle.QueryFrom(30.0), 4.0, nullptr);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(ReferenceNetTest, DeleteRemovesObject) {
  const ScalarPointOracle oracle(RandomPoints(53, 80, 0.0, 40.0));
  ReferenceNet net = ReferenceNet::BuildAll(oracle);
  EXPECT_TRUE(net.Delete(10).ok());
  EXPECT_FALSE(net.Contains(10));
  EXPECT_EQ(net.size(), 79);
  EXPECT_EQ(net.Delete(10).code(), StatusCode::kNotFound);
  const auto violation = net.CheckInvariants();
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(ReferenceNetTest, QueriesStayExactAfterManyDeletes) {
  const auto points = RandomPoints(59, 120, 0.0, 50.0);
  const ScalarPointOracle oracle(points);
  ReferenceNet net = ReferenceNet::BuildAll(oracle);
  Rng rng(60);
  std::vector<bool> present(points.size(), true);
  for (int k = 0; k < 40; ++k) {
    const ObjectId victim =
        static_cast<ObjectId>(rng.NextBounded(points.size()));
    if (!present[static_cast<size_t>(victim)]) continue;
    ASSERT_TRUE(net.Delete(victim).ok());
    present[static_cast<size_t>(victim)] = false;
  }
  const auto violation = net.CheckInvariants();
  EXPECT_FALSE(violation.has_value()) << *violation;

  for (int q = 0; q < 15; ++q) {
    const double query_point = rng.NextDouble(0.0, 50.0);
    const double eps = rng.NextDouble(0.0, 8.0);
    std::vector<ObjectId> expected;
    for (size_t i = 0; i < points.size(); ++i) {
      if (present[i] && std::fabs(points[i] - query_point) <= eps) {
        expected.push_back(static_cast<ObjectId>(i));
      }
    }
    auto actual = net.RangeQuery(oracle.QueryFrom(query_point), eps,
                                 nullptr);
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(ReferenceNetTest, DeleteRootRebuilds) {
  const ScalarPointOracle oracle({10.0, 20.0, 30.0, 40.0});
  ReferenceNet net(oracle);
  ASSERT_TRUE(net.Insert(0).ok());  // becomes root
  ASSERT_TRUE(net.Insert(1).ok());
  ASSERT_TRUE(net.Insert(2).ok());
  ASSERT_TRUE(net.Insert(3).ok());
  ASSERT_TRUE(net.Delete(0).ok());
  EXPECT_EQ(net.size(), 3);
  EXPECT_FALSE(net.CheckInvariants().has_value());
  auto hits = net.RangeQuery(oracle.QueryFrom(25.0), 100.0, nullptr);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<ObjectId>{1, 2, 3}));
}

TEST(ReferenceNetTest, DeleteDuplicateKeepsRepresentative) {
  const ScalarPointOracle oracle({3.0, 3.0, 3.0, 8.0});
  ReferenceNet net = ReferenceNet::BuildAll(oracle);
  ASSERT_TRUE(net.Delete(1).ok());
  EXPECT_EQ(net.size(), 3);
  auto hits = net.RangeQuery(oracle.QueryFrom(3.0), 0.0, nullptr);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<ObjectId>{0, 2}));
  EXPECT_FALSE(net.CheckInvariants().has_value());
}

TEST(ReferenceNetTest, SpaceGrowsLinearly) {
  // Nodes + list entries should scale ~linearly in n (Fig. 5's claim).
  const auto points = RandomPoints(61, 800, 0.0, 200.0);
  const ScalarPointOracle small_oracle(
      std::vector<double>(points.begin(), points.begin() + 400));
  const ScalarPointOracle big_oracle(points);
  const ReferenceNet small = ReferenceNet::BuildAll(small_oracle);
  const ReferenceNet big = ReferenceNet::BuildAll(big_oracle);
  const SpaceStats s_small = small.ComputeSpaceStats();
  const SpaceStats s_big = big.ComputeSpaceStats();
  EXPECT_EQ(s_small.num_objects, 400);
  EXPECT_EQ(s_big.num_objects, 800);
  // Allow generous slack; the point is sub-quadratic growth.
  EXPECT_LT(s_big.num_list_entries, 4 * s_small.num_list_entries + 64);
}

TEST(ReferenceNetTest, BuildStatsCountComputations) {
  const ScalarPointOracle base(RandomPoints(67, 100, 0.0, 50.0));
  const CountingOracle counting(base);
  ReferenceNet net = ReferenceNet::BuildAll(counting);
  EXPECT_EQ(net.build_stats().distance_computations, counting.count());
  EXPECT_GT(counting.count(), 0);
  // Far fewer than the quadratic worst case.
  EXPECT_LT(counting.count(), 100 * 99 / 2);
}

TEST(ReferenceNetTest, QueryStatsCountComputations) {
  const ScalarPointOracle oracle(RandomPoints(71, 150, 0.0, 100.0));
  ReferenceNet net = ReferenceNet::BuildAll(oracle);
  int64_t calls = 0;
  const QueryDistanceFn counted =
      CountingQueryFn(oracle.QueryFrom(42.0), &calls);
  QueryStats stats;
  net.RangeQuery(counted, 3.0, &stats);
  EXPECT_EQ(stats.distance_computations, calls);
}

// The tightest admissible bound: the exact distance itself, so the gate
// fires at every node its rule allows.
class ExactDistanceBound final : public QueryLowerBound {
 public:
  explicit ExactDistanceBound(QueryDistanceFn exact)
      : exact_(std::move(exact)) {}

  void LowerBoundBlock(ObjectId begin, int32_t count, double cutoff,
                       double* out) const override {
    (void)cutoff;
    for (int32_t i = 0; i < count; ++i) out[i] = exact_(begin + i);
  }

 private:
  QueryDistanceFn exact_;
};

// The node gate at its edge. With the exact distance as the bound, a
// node is gated iff its exact distance exceeds the padded cutoff of
// epsilon (no child lists) or of epsilon + Radius(L + 1) (highest list
// level L); anything looser drops hits or billed nodes, anything
// stricter gates nothing here. The walk must not notice: same hits in
// the same order, same billed computations, and exactly billed - gated
// executed calls.
template <typename Oracle, typename Point>
void ExpectExactBoundGateKeepsTheWalk(const Oracle& oracle,
                                      const std::vector<Point>& queries,
                                      const std::vector<double>& epsilons) {
  ReferenceNet net = ReferenceNet::BuildAll(oracle);
  int64_t gated = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const double eps = epsilons[q];
    QueryStats plain_stats;
    const std::vector<ObjectId> plain =
        net.RangeQuery(oracle.QueryFrom(queries[q]), eps, &plain_stats);
    int64_t calls = 0;
    PrunableQueryFn payload;
    payload.fn = CountingQueryFn(oracle.QueryFrom(queries[q]), &calls);
    payload.lower_bound =
        std::make_shared<ExactDistanceBound>(oracle.QueryFrom(queries[q]));
    QueryStats stats;
    const std::vector<ObjectId> hits =
        net.RangeQuery(QueryDistanceFn(std::move(payload)), eps, &stats);
    EXPECT_EQ(hits, plain) << "query " << q << " eps=" << eps;
    EXPECT_EQ(stats.distance_computations, plain_stats.distance_computations)
        << "query " << q << " eps=" << eps;
    EXPECT_EQ(calls, stats.distance_computations - stats.lower_bound_pruned)
        << "query " << q << " eps=" << eps;
    EXPECT_EQ(plain_stats.lower_bound_pruned, 0);
    gated += stats.lower_bound_pruned;
  }
  EXPECT_GT(gated, 0);
}

TEST(ReferenceNetTest, GateWithTheExactDistanceAsBoundKeepsTheWalk) {
  Rng rng(81);
  std::vector<double> scalar_queries;
  std::vector<Point2d> plane_queries;
  std::vector<double> epsilons;
  for (int q = 0; q < 60; ++q) {
    scalar_queries.push_back(rng.NextDouble(-10.0, 110.0));
    plane_queries.push_back(
        Point2d{rng.NextDouble(-5.0, 45.0), rng.NextDouble(-5.0, 45.0)});
    // Zero, tiny and wide radii: the gate's cutoff pad matters at 0.
    epsilons.push_back(q % 6 == 0 ? 0.0 : rng.NextDouble(0.0, 12.0));
  }
  std::vector<double> scalar = RandomPoints(82, 300, 0.0, 100.0);
  scalar.insert(scalar.end(), {5.0, 5.0, 50.0});  // exact duplicates
  ExpectExactBoundGateKeepsTheWalk(ScalarPointOracle(scalar), scalar_queries,
                                   epsilons);

  std::vector<Point2d> plane;
  for (int i = 0; i < 250; ++i) {
    plane.push_back(Point2d{rng.NextDouble(0, 40), rng.NextDouble(0, 40)});
  }
  ExpectExactBoundGateKeepsTheWalk(PlanePointOracle(plane), plane_queries,
                                   epsilons);
}

}  // namespace
}  // namespace subseq
