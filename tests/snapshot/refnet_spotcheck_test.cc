// The reference net's Export -> Import path, which its snapshot
// sections ride on (SaveSections flattens Export(); LoadSections feeds
// Import()).
//
// SnapshotRefNetSpotCheckTest is the regression battery for the
// load-time edge spot-check. The old check verified only the FIRST 16
// exported edges against the oracle, so a corrupted edge anywhere past
// the head of the export sailed through. The check now verifies every
// edge on small nets (<= 256 edges) and a deterministic seeded sample on
// large ones. The tests plant exactly one bad edge deep in the export
// and require Import to reject it.
//
// SerializationTest feeds the round trip further inputs: an empty net,
// duplicates with non-default options, protein windows, an imported net
// that keeps growing and shrinking, and a dataset that no longer matches
// the export.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <tuple>
#include <vector>

#include "subseq/core/rng.h"
#include "subseq/data/protein_gen.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/frame/window_oracle.h"
#include "subseq/metric/reference_net.h"
#include "testing/helpers.h"

namespace subseq {
namespace {

using ::subseq::testing::ScalarPointOracle;

std::vector<double> ScatteredPoints(int32_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(0.0, 100.0);
  std::vector<double> pts(static_cast<size_t>(n));
  for (double& p : pts) p = dist(rng);
  return pts;
}

int64_t TotalEdges(const std::vector<ReferenceNet::ExportedNode>& nodes) {
  int64_t total = 0;
  for (const auto& node : nodes) {
    total += static_cast<int64_t>(node.edges.size());
  }
  return total;
}

TEST(SnapshotRefNetSpotCheckTest, PlantedBadEdgePastOldWindowIsRejected) {
  const ScalarPointOracle oracle(ScatteredPoints(40, 77));
  const ReferenceNet net = ReferenceNet::BuildAll(oracle);
  std::vector<ReferenceNet::ExportedNode> nodes = net.Export();

  // The regression needs an edge beyond the old fixed 16-edge window but
  // within the all-edges regime (<= 256) where detection is guaranteed.
  const int64_t total = TotalEdges(nodes);
  ASSERT_GT(total, 16) << "fixture too small to exercise the regression";
  ASSERT_LE(total, 256) << "fixture too large for the all-edges regime";

  // Corrupt the LAST nonzero-distance edge in export order: shrinking a
  // stored distance keeps every radius bound satisfied, so only a
  // distance check against the live oracle can catch it.
  bool planted = false;
  for (auto node = nodes.rbegin(); node != nodes.rend() && !planted;
       ++node) {
    for (auto edge = node->edges.rbegin(); edge != node->edges.rend();
         ++edge) {
      double& stored = std::get<2>(*edge);
      if (stored > 1e-9) {
        stored *= 0.5;
        planted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(planted);

  auto imported = ReferenceNet::Import(oracle, ReferenceNetOptions{}, nodes);
  ASSERT_FALSE(imported.ok())
      << "a single corrupted edge distance must fail the load spot-check";
  EXPECT_EQ(imported.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotRefNetSpotCheckTest, CleanExportImportsIdentically) {
  const ScalarPointOracle oracle(ScatteredPoints(40, 77));
  const ReferenceNet net = ReferenceNet::BuildAll(oracle);
  auto imported = ReferenceNet::Import(oracle, ReferenceNetOptions{},
                                       net.Export());
  ASSERT_TRUE(imported.ok()) << imported.status().message();
  EXPECT_EQ(imported.value().size(), net.size());
  // Structure is reproduced exactly: re-export matches field for field.
  const auto again = imported.value().Export();
  const auto original = net.Export();
  ASSERT_EQ(again.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(again[i].object, original[i].object);
    EXPECT_EQ(again[i].top_level, original[i].top_level);
    EXPECT_EQ(again[i].duplicates, original[i].duplicates);
    EXPECT_EQ(again[i].edges, original[i].edges);
  }
}

TEST(SnapshotRefNetSpotCheckTest, LargeNetSampleIsDeterministic) {
  // Above 256 edges the check samples; the sample is seeded from the
  // edge count, so two imports of the same export behave identically
  // (both accept, or both reject the same corruption).
  const ScalarPointOracle oracle(ScatteredPoints(300, 99));
  const ReferenceNet net = ReferenceNet::BuildAll(oracle);
  const auto nodes = net.Export();
  ASSERT_GT(TotalEdges(nodes), 256);
  auto first = ReferenceNet::Import(oracle, ReferenceNetOptions{}, nodes);
  auto second = ReferenceNet::Import(oracle, ReferenceNetOptions{}, nodes);
  ASSERT_TRUE(first.ok()) << first.status().message();
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(first.value().size(), second.value().size());
}

// ---------------------------------------------------------------------------
// Export -> Import round trips.

std::vector<double> RandomPoints(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<double> pts;
  for (int i = 0; i < n; ++i) pts.push_back(rng.NextDouble(0.0, 80.0));
  return pts;
}

/// Export -> Import over `oracle`: the import must succeed, re-export
/// field for field, keep the options, and pass the structural
/// invariants.
ReferenceNet RoundTrip(const ReferenceNet& net, const DistanceOracle& oracle) {
  const auto exported = net.Export();
  auto imported = ReferenceNet::Import(oracle, net.options(), exported);
  EXPECT_TRUE(imported.ok()) << imported.status().message();
  ReferenceNet out = std::move(imported).ValueOrDie();
  EXPECT_EQ(out.size(), net.size());
  EXPECT_EQ(out.options().base_radius, net.options().base_radius);
  EXPECT_EQ(out.options().max_parents, net.options().max_parents);
  const auto again = out.Export();
  EXPECT_EQ(again.size(), exported.size());
  for (size_t i = 0; i < std::min(again.size(), exported.size()); ++i) {
    EXPECT_EQ(again[i].object, exported[i].object);
    EXPECT_EQ(again[i].top_level, exported[i].top_level);
    EXPECT_EQ(again[i].duplicates, exported[i].duplicates);
    EXPECT_EQ(again[i].edges, exported[i].edges);
  }
  EXPECT_FALSE(out.CheckInvariants().has_value());
  return out;
}

TEST(SerializationTest, RoundTripPreservesQueries) {
  const ScalarPointOracle oracle(RandomPoints(1, 150));
  const ReferenceNet original = ReferenceNet::BuildAll(oracle);
  const ReferenceNet loaded = RoundTrip(original, oracle);
  Rng rng(2);
  for (int q = 0; q < 20; ++q) {
    const double query_point = rng.NextDouble(0.0, 80.0);
    const double eps = rng.NextDouble(0.0, 10.0);
    auto expected =
        original.RangeQuery(oracle.QueryFrom(query_point), eps, nullptr);
    auto actual = loaded.RangeQuery(oracle.QueryFrom(query_point), eps,
                                    nullptr);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(SerializationTest, RoundTripWithDuplicatesAndOptions) {
  std::vector<double> pts = RandomPoints(3, 80);
  pts.push_back(pts[0]);
  pts.push_back(pts[0]);
  const ScalarPointOracle oracle(pts);
  ReferenceNetOptions options;
  options.base_radius = 0.5;
  options.max_parents = 3;
  const ReferenceNet original = ReferenceNet::BuildAll(oracle, options);
  const ReferenceNet loaded = RoundTrip(original, oracle);
  EXPECT_EQ(loaded.options().base_radius, 0.5);
  EXPECT_EQ(loaded.options().max_parents, 3);
}

TEST(SerializationTest, RoundTripOnProteinWindows) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 100, .seed = 5});
  const auto db = gen.GenerateDatabaseWithWindows(120, 10);
  auto catalog = WindowCatalog::PartitionDatabase(db, 10);
  ASSERT_TRUE(catalog.ok());
  const LevenshteinDistance<char> dist;
  const WindowOracle<char> oracle(db, catalog.value(), dist);
  const ReferenceNet loaded =
      RoundTrip(ReferenceNet::BuildAll(oracle), oracle);
  // Importing costs zero build distance computations.
  EXPECT_EQ(loaded.build_stats().distance_computations, 0);
}

TEST(SerializationTest, EmptyNetRoundTrips) {
  const ScalarPointOracle oracle({});
  const ReferenceNet net(oracle);
  EXPECT_EQ(RoundTrip(net, oracle).size(), 0);
}

TEST(SerializationTest, RejectsWrongDataset) {
  // Export against one dataset, import against the points reversed: the
  // edge distance spot-check must catch the mismatch.
  const auto pts = RandomPoints(7, 100);
  const ScalarPointOracle oracle(pts);
  const ReferenceNet net = ReferenceNet::BuildAll(oracle);
  const ScalarPointOracle other(std::vector<double>(pts.rbegin(), pts.rend()));
  const auto imported =
      ReferenceNet::Import(other, net.options(), net.Export());
  EXPECT_EQ(imported.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, LoadedNetSupportsInsertAndDelete) {
  const ScalarPointOracle oracle(RandomPoints(11, 100));
  ReferenceNet original(oracle);
  for (ObjectId id = 0; id < 80; ++id) {
    ASSERT_TRUE(original.Insert(id).ok());
  }
  ReferenceNet loaded = RoundTrip(original, oracle);
  // Keep inserting the remaining objects and delete a few.
  for (ObjectId id = 80; id < 100; ++id) {
    ASSERT_TRUE(loaded.Insert(id).ok());
  }
  ASSERT_TRUE(loaded.Delete(5).ok());
  ASSERT_TRUE(loaded.Delete(50).ok());
  EXPECT_EQ(loaded.size(), 98);
  EXPECT_FALSE(loaded.CheckInvariants().has_value());
}

}  // namespace
}  // namespace subseq
