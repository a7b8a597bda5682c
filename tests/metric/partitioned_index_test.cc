// PartitionedIndex unit tests. PartitionedIndexTest runs the contract
// both layouts share (equivalence with the monolithic scan, exact
// billing, batch == single stats splits, snapshot round-trip) over
// empty, single-object and small catalogs, and PartitionedLayoutTest
// runs it on larger catalogs, one row per layout. ShardedIndexTest pins
// the contiguous layout (even split, element-wise equality with the
// monolithic scan) and RoutedIndexTest the k-center one (cell layout
// invariants, triangle-inequality routing soundness, billing of routing
// distances plus probed cells, skew rebalancing, duplicate-driven early
// stop). PerQueryStatsContract* pins the enforced per-query stats split
// of RangeIndex::BatchRangeQuery.

#include "subseq/metric/partitioned_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "subseq/core/rng.h"
#include "subseq/exec/stats_sink.h"
#include "subseq/metric/linear_scan.h"
#include "subseq/metric/reference_net.h"
#include "subseq/snapshot/reader.h"
#include "subseq/snapshot/writer.h"
#include "testing/helpers.h"

namespace subseq {

// Names a layout kind in test names. It sits outside the anonymous
// namespace because gtest finds a parameter's printer by
// argument-dependent lookup, in PartitionKind's own namespace.
static void PrintTo(PartitionKind kind, std::ostream* os) {
  *os << (kind == PartitionKind::kKCenter ? "kcenter" : "contiguous");
}

namespace {

using ::subseq::testing::RandomSeries;
using ::subseq::testing::ScalarPointOracle;

PartIndexFactory LinearScanFactory() {
  return [](const DistanceOracle& oracle,
            int32_t) -> Result<std::unique_ptr<RangeIndex>> {
    return std::unique_ptr<RangeIndex>(
        std::make_unique<LinearScan>(oracle.size()));
  };
}

PartIndexFactory ReferenceNetFactory(int32_t max_parents = 0) {
  return [max_parents](const DistanceOracle& oracle,
                       int32_t) -> Result<std::unique_ptr<RangeIndex>> {
    ReferenceNetOptions options;
    options.max_parents = max_parents;
    auto net = std::make_unique<ReferenceNet>(oracle, options);
    for (ObjectId id = 0; id < oracle.size(); ++id) {
      SUBSEQ_RETURN_NOT_OK(net->Insert(id));
    }
    return std::unique_ptr<RangeIndex>(std::move(net));
  };
}

// The cover tree is the reference net capped at one parent per node.
PartIndexFactory CoverTreeFactory() { return ReferenceNetFactory(1); }

std::unique_ptr<PartitionedIndex> BuildPartitioned(
    const DistanceOracle& oracle, const PartIndexFactory& factory,
    PartitionKind kind, int32_t num_parts, int32_t num_threads = 1) {
  PartitionedIndexOptions options;
  options.kind = kind;
  options.num_parts = num_parts;
  options.exec.num_threads = num_threads;
  auto built = PartitionedIndex::Build(oracle, factory, options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).ValueOrDie();
}

std::unique_ptr<PartitionedIndex> BuildSharded(
    const DistanceOracle& oracle, const PartIndexFactory& factory,
    int32_t num_shards, int32_t num_threads = 1) {
  return BuildPartitioned(oracle, factory, PartitionKind::kContiguous,
                          num_shards, num_threads);
}

std::unique_ptr<PartitionedIndex> BuildRouted(
    const DistanceOracle& oracle, const PartIndexFactory& factory,
    int32_t num_cells, int32_t num_threads = 1) {
  return BuildPartitioned(oracle, factory, PartitionKind::kKCenter,
                          num_cells, num_threads);
}

std::vector<ObjectId> Sorted(std::vector<ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

/// LinearScan parts carry no state beyond their size (which the layout
/// already pins down), so the inner saver writes nothing and the loader
/// rebuilds a scan over the part oracle.
PartIndexSaver ScanSaver() {
  return [](const RangeIndex&, SnapshotWriter&, const std::string&) {
    return Status::OK();
  };
}

PartIndexLoader ScanLoader() {
  return [](const SnapshotFile&, const std::string&,
            const DistanceOracle& part_oracle,
            int32_t) -> Result<std::unique_ptr<RangeIndex>> {
    return std::unique_ptr<RangeIndex>(
        std::make_unique<LinearScan>(part_oracle.size()));
  };
}

Status SaveTo(const PartitionedIndex& index, const std::string& path) {
  auto writer = SnapshotWriter::Create(path);
  SUBSEQ_RETURN_NOT_OK(writer.status());
  SUBSEQ_RETURN_NOT_OK(
      index.SaveSections(*writer.value(), "idx.", ScanSaver()));
  return writer.value()->Finish();
}

Result<std::unique_ptr<PartitionedIndex>> LoadFrom(
    const std::string& path, const DistanceOracle& oracle,
    PartitionKind kind, int32_t expected_parts) {
  auto file = SnapshotFile::Open(path, SnapshotLoadMode::kEager);
  SUBSEQ_RETURN_NOT_OK(file.status());
  PartitionedIndexOptions expected;
  expected.kind = kind;
  expected.num_parts = expected_parts;
  return PartitionedIndex::LoadSections(*file.value(), "idx.", oracle,
                                        expected, ScanLoader());
}

/// Batched answers equal stand-alone RangeQuery answers slot for slot at
/// 1 and 8 threads, and the sink totals and per-query splits roll up
/// exactly — routing counters included.
void ExpectBatchMatchesSingleQueries(
    const PartitionedIndex& index,
    const std::vector<QueryDistanceFn>& queries, double epsilon) {
  std::vector<std::vector<ObjectId>> expected;
  std::vector<QueryStats> expected_stats(queries.size());
  QueryStats total;
  for (size_t q = 0; q < queries.size(); ++q) {
    expected.push_back(
        index.RangeQuery(queries[q], epsilon, &expected_stats[q]));
    total += expected_stats[q];
  }
  for (const int32_t threads : {1, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    StatsSink sink;
    std::vector<QueryStats> per_query(queries.size());
    EXPECT_EQ(index.BatchRangeQuery(queries, epsilon, ExecContext{threads},
                                    &sink, per_query.data()),
              expected);
    EXPECT_EQ(sink.distance_computations(), total.distance_computations);
    EXPECT_EQ(sink.results(), total.result_count);
    EXPECT_EQ(sink.cells_probed(), total.cells_probed);
    EXPECT_EQ(sink.cells_skipped(), total.cells_skipped);
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(per_query[q].distance_computations,
                expected_stats[q].distance_computations);
      EXPECT_EQ(per_query[q].result_count, expected_stats[q].result_count);
      EXPECT_EQ(per_query[q].cells_probed, expected_stats[q].cells_probed);
      EXPECT_EQ(per_query[q].cells_skipped,
                expected_stats[q].cells_skipped);
    }
  }
}

/// Parts 1 and 2 fail to build: Build reports part 1's status, the
/// first in part order, whatever order the pool ran them in.
void ExpectFirstPartErrorWins(PartitionKind kind, uint64_t seed,
                              const std::string& label) {
  Rng rng(seed);
  const ScalarPointOracle oracle(RandomSeries(&rng, 30, 0.0, 100.0));
  PartitionedIndexOptions options;
  options.kind = kind;
  options.num_parts = 3;
  const auto built = PartitionedIndex::Build(
      oracle,
      [&label](const DistanceOracle& part_oracle,
               int32_t part) -> Result<std::unique_ptr<RangeIndex>> {
        if (part >= 1) {
          return Status::Internal(label + " " + std::to_string(part) +
                                  " exploded");
        }
        return std::unique_ptr<RangeIndex>(
            std::make_unique<LinearScan>(part_oracle.size()));
      },
      options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInternal);
  EXPECT_EQ(built.status().message(), label + " 1 exploded");
}

// ---------------------------------------------------------------------------
// The contract both layouts share, over catalogs of 0, 1 and 37 objects.

struct LayoutCase {
  PartitionKind kind;
  int32_t n;
};

std::string LayoutCaseName(const LayoutCase& c) {
  return ::testing::PrintToString(c.kind) + "_n" + std::to_string(c.n);
}

void PrintTo(const LayoutCase& c, std::ostream* os) {
  *os << LayoutCaseName(c);
}

class PartitionedIndexTest : public ::testing::TestWithParam<LayoutCase> {
 protected:
  PartitionedIndexTest() : oracle_(Points()) {}

  static std::vector<double> Points() {
    Rng rng(static_cast<uint64_t>(50 + GetParam().n));
    return RandomSeries(&rng, GetParam().n, 0.0, 100.0);
  }

  std::unique_ptr<PartitionedIndex> Build(const PartIndexFactory& factory,
                                          int32_t num_threads = 1) const {
    return BuildPartitioned(oracle_, factory, GetParam().kind,
                            /*num_parts=*/4, num_threads);
  }

  /// A query that counts every distance it evaluates.
  QueryDistanceFn Counting(double center) const {
    return [this, fn = oracle_.QueryFrom(center)](ObjectId id) {
      calls_.fetch_add(1, std::memory_order_relaxed);
      return fn(id);
    };
  }

  ScalarPointOracle oracle_;
  mutable std::atomic<int64_t> calls_{0};
};

TEST_P(PartitionedIndexTest, LayoutCoversEveryObjectOnce) {
  const auto index = Build(LinearScanFactory());
  const PartitionLayout& layout = index->layout();
  const int32_t n = GetParam().n;
  EXPECT_EQ(layout.kind, GetParam().kind);
  EXPECT_EQ(layout.requested_parts, std::max(1, std::min(4, n)));
  EXPECT_EQ(index->size(), n);
  ASSERT_EQ(index->num_parts(), layout.num_parts());
  EXPECT_EQ(layout.begins.front(), 0);
  EXPECT_EQ(layout.begins.back(), n);
  for (int32_t p = 0; p < index->num_parts(); ++p) {
    EXPECT_EQ(index->part(p).size(),
              layout.begins[static_cast<size_t>(p) + 1] -
                  layout.begins[static_cast<size_t>(p)]);
  }
  if (GetParam().kind == PartitionKind::kContiguous) {
    EXPECT_TRUE(layout.members.empty());
    EXPECT_TRUE(layout.pivots.empty());
    EXPECT_EQ(index->name(), "sharded[" +
                                 std::to_string(index->num_parts()) +
                                 "]:linear-scan");
  } else {
    // An empty catalog has nothing to route: no pivot, no evaluation.
    EXPECT_EQ(layout.pivots.size(), n == 0 ? 0u : layout.radii.size());
    EXPECT_EQ(static_cast<int32_t>(layout.members.size()), n);
    EXPECT_EQ(index->name(), "routed[" +
                                 std::to_string(index->num_parts()) +
                                 "]:linear-scan");
  }
  EXPECT_EQ(index->build_stats().distance_computations,
            layout.computations);
}

TEST_P(PartitionedIndexTest, MatchesMonolithicScanAndBillsWhatItEvaluates) {
  const auto index = Build(LinearScanFactory());
  const LinearScan monolithic(oracle_.size());
  const bool kcenter = GetParam().kind == PartitionKind::kKCenter;
  for (const double center : {-5.0, 20.0, 63.0}) {
    for (const double eps : {0.0, 4.0, 200.0}) {
      SCOPED_TRACE(::testing::Message() << "center=" << center
                                        << " eps=" << eps);
      QueryStats mono_stats;
      const auto expected =
          monolithic.RangeQuery(oracle_.QueryFrom(center), eps, &mono_stats);
      calls_ = 0;
      QueryStats stats;
      const auto got = index->RangeQuery(Counting(center), eps, &stats);
      EXPECT_EQ(Sorted(got), expected);
      EXPECT_EQ(stats.result_count, static_cast<int64_t>(got.size()));
      // Linear-scan parts evaluate exactly what they bill, and routing
      // distances are billed like any other evaluation.
      EXPECT_EQ(stats.distance_computations, calls_.load());
      EXPECT_EQ(stats.cells_probed + stats.cells_skipped,
                kcenter && GetParam().n > 0 ? index->num_parts() : 0);
      if (!kcenter) {
        // Contiguous parts scan everything, like the monolithic scan.
        EXPECT_EQ(got, expected);
        EXPECT_EQ(stats.distance_computations,
                  mono_stats.distance_computations);
      }
    }
  }
}

TEST_P(PartitionedIndexTest, BatchEqualsSingleQueriesWithExactRollup) {
  Rng rng(77);
  std::vector<QueryDistanceFn> queries;
  for (int i = 0; i < 9; ++i) {
    queries.push_back(oracle_.QueryFrom(rng.NextDouble(-10.0, 110.0)));
  }
  ExpectBatchMatchesSingleQueries(*Build(ReferenceNetFactory()), queries,
                                  9.0);
}

TEST_P(PartitionedIndexTest, SnapshotRoundTripIsByteIdentical) {
  const auto original = Build(LinearScanFactory());
  const std::string tag = LayoutCaseName(GetParam());
  const std::string path = TempPath("partitioned_" + tag + ".snap");
  ASSERT_TRUE(SaveTo(*original, path).ok());
  auto loaded = LoadFrom(path, oracle_, GetParam().kind,
                         original->layout().requested_parts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PartitionedIndex& reborn = *loaded.value();
  EXPECT_EQ(reborn.name(), original->name());
  EXPECT_EQ(reborn.layout().begins, original->layout().begins);
  EXPECT_EQ(reborn.layout().members, original->layout().members);
  EXPECT_EQ(reborn.layout().pivots, original->layout().pivots);
  EXPECT_EQ(reborn.layout().radii, original->layout().radii);
  EXPECT_EQ(reborn.build_stats().distance_computations,
            original->build_stats().distance_computations);
  for (const double center : {10.0, 90.0}) {
    QueryStats want_stats, got_stats;
    EXPECT_EQ(reborn.RangeQuery(oracle_.QueryFrom(center), 6.0, &got_stats),
              original->RangeQuery(oracle_.QueryFrom(center), 6.0,
                                   &want_stats));
    EXPECT_EQ(got_stats.distance_computations,
              want_stats.distance_computations);
    EXPECT_EQ(got_stats.cells_probed, want_stats.cells_probed);
  }
  const std::string resaved = TempPath("partitioned_" + tag + "_re.snap");
  ASSERT_TRUE(SaveTo(reborn, resaved).ok());
  EXPECT_EQ(ReadFileBytes(resaved), ReadFileBytes(path));
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, PartitionedIndexTest,
    ::testing::Values(LayoutCase{PartitionKind::kContiguous, 0},
                      LayoutCase{PartitionKind::kContiguous, 1},
                      LayoutCase{PartitionKind::kContiguous, 37},
                      LayoutCase{PartitionKind::kKCenter, 0},
                      LayoutCase{PartitionKind::kKCenter, 1},
                      LayoutCase{PartitionKind::kKCenter, 37}),
    [](const ::testing::TestParamInfo<LayoutCase>& info) {
      return LayoutCaseName(info.param);
    });

// ---------------------------------------------------------------------------
// The shared contract on larger catalogs: one case per check, one row per
// layout. Each row keeps the seed, catalog size and part count of the
// layout-specific case it replaces.

class PartitionedLayoutTest
    : public ::testing::TestWithParam<PartitionKind> {
 protected:
  /// This row's value of an input that differs between the layouts.
  template <typename V>
  static V Row(V contiguous, V kcenter) {
    return GetParam() == PartitionKind::kKCenter ? kcenter : contiguous;
  }

  static std::unique_ptr<PartitionedIndex> Build(
      const DistanceOracle& oracle, const PartIndexFactory& factory,
      int32_t num_parts, int32_t num_threads = 1) {
    return BuildPartitioned(oracle, factory, GetParam(), num_parts,
                            num_threads);
  }
};

TEST_P(PartitionedLayoutTest, RangeQueryEquivalentToMonolithicIndex) {
  Rng rng(Row<uint64_t>(14, 34));
  const ScalarPointOracle oracle(RandomSeries(&rng, 90, 0.0, 100.0));
  const LinearScan monolithic(oracle.size());
  const bool contiguous = GetParam() == PartitionKind::kContiguous;
  for (const int32_t k :
       Row<std::vector<int32_t>>({2, 4, 7}, {1, 4, 7})) {
    const auto scan = Build(oracle, LinearScanFactory(), k);
    const auto ct = Build(oracle, CoverTreeFactory(), k);
    const auto rn = Build(oracle, ReferenceNetFactory(), k);
    for (const double center : Row<std::vector<double>>(
             {5.0, 37.5, 93.0}, {-3.0, 5.0, 37.5, 93.0, 140.0})) {
      const QueryDistanceFn query = oracle.QueryFrom(center);
      const auto expected =
          Sorted(monolithic.RangeQuery(query, 8.0, nullptr));
      const auto scanned = scan->RangeQuery(query, 8.0, nullptr);
      // LinearScan shards emit ascending ids per shard; shard-order
      // concatenation of contiguous ranges is the full ascending order —
      // element-wise equal to the monolithic scan, not just set-equal.
      EXPECT_EQ(contiguous ? scanned : Sorted(scanned), expected);
      EXPECT_EQ(Sorted(ct->RangeQuery(query, 8.0, nullptr)), expected);
      EXPECT_EQ(Sorted(rn->RangeQuery(query, 8.0, nullptr)), expected);
    }
  }
}

TEST_P(PartitionedLayoutTest, BatchMatchesSingleQueriesWithExactStatsRollup) {
  Rng rng(Row<uint64_t>(15, 38));
  const ScalarPointOracle oracle(RandomSeries(&rng, 120, 0.0, 100.0));
  const auto index = Build(oracle, ReferenceNetFactory(), 5);
  std::vector<QueryDistanceFn> queries;
  for (int i = 0; i < 17; ++i) {
    queries.push_back(oracle.QueryFrom(rng.NextDouble(0.0, 100.0)));
  }
  ExpectBatchMatchesSingleQueries(*index, queries, 6.0);
}

// Space stats sum over parts, and build work is the layout's own
// distances (k-center selection; none for contiguous parts) plus the
// parts' inner builds.
TEST_P(PartitionedLayoutTest, AggregateSpaceAndBuildStats) {
  Rng rng(Row<uint64_t>(18, 42));
  const ScalarPointOracle oracle(RandomSeries(&rng, 70, 0.0, 100.0));
  const auto index = Build(oracle, ReferenceNetFactory(), 4);
  const SpaceStats space = index->ComputeSpaceStats();
  EXPECT_EQ(space.num_objects, oracle.size());
  int64_t nodes = 0;
  int64_t inner_build = 0;
  for (int32_t p = 0; p < index->num_parts(); ++p) {
    nodes += index->part(p).ComputeSpaceStats().num_nodes;
    inner_build += index->part(p).build_stats().distance_computations;
  }
  EXPECT_EQ(space.num_nodes, nodes);
  EXPECT_EQ(index->build_stats().distance_computations,
            index->layout().computations + inner_build);
  EXPECT_GT(inner_build, 0);
  // Routing is never free; a contiguous split costs nothing.
  if (GetParam() == PartitionKind::kKCenter) {
    EXPECT_GT(index->layout().computations, 0);
  } else {
    EXPECT_EQ(index->layout().computations, 0);
  }
}

// Parts are independent closed problems and k-center selection is a
// serial argmax over exact distances: the thread budget must not change
// what gets built.
TEST_P(PartitionedLayoutTest, ParallelBuildMatchesSequentialBuild) {
  Rng rng(Row<uint64_t>(19, 41));
  const ScalarPointOracle oracle(RandomSeries(&rng, 100, 0.0, 100.0));
  const auto sequential =
      Build(oracle, ReferenceNetFactory(), 5, /*num_threads=*/1);
  const auto parallel =
      Build(oracle, ReferenceNetFactory(), 5, /*num_threads=*/8);
  ASSERT_EQ(parallel->num_parts(), sequential->num_parts());
  EXPECT_EQ(parallel->layout().begins, sequential->layout().begins);
  EXPECT_EQ(parallel->layout().members, sequential->layout().members);
  EXPECT_EQ(parallel->layout().pivots, sequential->layout().pivots);
  EXPECT_EQ(parallel->layout().radii, sequential->layout().radii);
  EXPECT_EQ(sequential->build_stats().distance_computations,
            parallel->build_stats().distance_computations);
  const QueryDistanceFn query = oracle.QueryFrom(33.0);
  EXPECT_EQ(sequential->RangeQuery(query, 7.0, nullptr),
            parallel->RangeQuery(query, 7.0, nullptr));
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, PartitionedLayoutTest,
    ::testing::Values(PartitionKind::kContiguous, PartitionKind::kKCenter),
    [](const ::testing::TestParamInfo<PartitionKind>& info) {
      return ::testing::PrintToString(info.param);
    });

// ---------------------------------------------------------------------------
// Contiguous layouts.

TEST(ShardedIndexTest, PartitionsAreContiguousAndBalanced) {
  Rng rng(11);
  const ScalarPointOracle oracle(RandomSeries(&rng, 23, 0.0, 100.0));
  for (const int32_t k : {1, 3, 7, 23}) {
    const auto sharded = BuildSharded(oracle, LinearScanFactory(), k);
    ASSERT_EQ(sharded->num_parts(), k);
    const std::vector<int32_t>& begins = sharded->layout().begins;
    EXPECT_EQ(sharded->size(), oracle.size());
    EXPECT_EQ(begins[0], 0);
    EXPECT_EQ(begins[static_cast<size_t>(k)], oracle.size());
    for (int32_t s = 0; s < k; ++s) {
      const int32_t len = begins[static_cast<size_t>(s) + 1] -
                          begins[static_cast<size_t>(s)];
      EXPECT_EQ(len, sharded->part(s).size());
      // Even split: sizes differ by at most one, larger shards first.
      EXPECT_GE(len, oracle.size() / k);
      EXPECT_LE(len, oracle.size() / k + 1);
    }
  }
}

TEST(ShardedIndexTest, ShardCountClampsToObjectCount) {
  Rng rng(12);
  const ScalarPointOracle oracle(RandomSeries(&rng, 5, 0.0, 100.0));
  const auto sharded = BuildSharded(oracle, LinearScanFactory(), 64);
  EXPECT_EQ(sharded->num_parts(), 5);
  EXPECT_EQ(sharded->size(), 5);
}

TEST(ShardedIndexTest, NameReflectsShardCountAndInnerBackend) {
  Rng rng(13);
  const ScalarPointOracle oracle(RandomSeries(&rng, 12, 0.0, 100.0));
  const auto sharded = BuildSharded(oracle, CoverTreeFactory(), 3);
  EXPECT_EQ(sharded->name(), "sharded[3]:cover-tree");
}

TEST(ShardedIndexTest, ShardedLinearScanBillsExactlyLikeMonolithic) {
  Rng rng(16);
  const ScalarPointOracle oracle(RandomSeries(&rng, 64, 0.0, 100.0));
  const LinearScan monolithic(oracle.size());
  const auto sharded = BuildSharded(oracle, LinearScanFactory(), 7);

  const QueryDistanceFn query = oracle.QueryFrom(42.0);
  QueryStats mono_stats;
  QueryStats shard_stats;
  const auto expected = monolithic.RangeQuery(query, 10.0, &mono_stats);
  EXPECT_EQ(sharded->RangeQuery(query, 10.0, &shard_stats), expected);
  // A scan computes every object's distance regardless of partitioning,
  // so even the computation counts agree exactly.
  EXPECT_EQ(shard_stats.distance_computations,
            mono_stats.distance_computations);
  EXPECT_EQ(shard_stats.result_count, mono_stats.result_count);
}

TEST(ShardedIndexTest, BuildFailurePropagatesFirstShardError) {
  ExpectFirstPartErrorWins(PartitionKind::kContiguous, 20, "shard");
}

// ---------------------------------------------------------------------------
// k-center layouts.

/// Every member of every cell sits within the cell's covering radius of
/// its pivot, the pivot lives in its own cell, and the member map is a
/// permutation of [0, n) ascending within each cell. These are the
/// invariants the skip rule's soundness proof leans on.
void CheckCellLayout(const PartitionedIndex& routed,
                     const ScalarPointOracle& oracle) {
  const PartitionLayout& layout = routed.layout();
  std::vector<int> seen(static_cast<size_t>(oracle.size()), 0);
  for (int32_t c = 0; c < routed.num_parts(); ++c) {
    const auto members = layout.members_of(c);
    const ObjectId pivot = layout.pivots[static_cast<size_t>(c)];
    const double radius = layout.radii[static_cast<size_t>(c)];
    ASSERT_FALSE(members.empty()) << "cell " << c;
    EXPECT_EQ(static_cast<int32_t>(members.size()), routed.part(c).size());
    EXPECT_GE(radius, 0.0);
    bool pivot_in_cell = false;
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(members[i - 1], members[i]);
      }
      ++seen[static_cast<size_t>(members[i])];
      if (members[i] == pivot) pivot_in_cell = true;
      EXPECT_LE(oracle.Distance(pivot, members[i]), radius)
          << "cell " << c << " member " << members[i];
    }
    EXPECT_TRUE(pivot_in_cell) << "cell " << c;
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "object " << i;
  }
}

TEST(RoutedIndexTest, CellLayoutInvariantsHold) {
  Rng rng(31);
  const ScalarPointOracle oracle(RandomSeries(&rng, 60, 0.0, 100.0));
  for (const int32_t k : {1, 4, 7}) {
    const auto routed = BuildRouted(oracle, LinearScanFactory(), k);
    EXPECT_EQ(routed->layout().requested_parts, k);
    EXPECT_GE(routed->num_parts(), 1);
    EXPECT_EQ(routed->size(), oracle.size());
    CheckCellLayout(*routed, oracle);
  }
}

TEST(RoutedIndexTest, CellCountClampsToObjectCount) {
  Rng rng(32);
  const ScalarPointOracle oracle(RandomSeries(&rng, 5, 0.0, 100.0));
  const auto routed = BuildRouted(oracle, LinearScanFactory(), 64);
  EXPECT_EQ(routed->layout().requested_parts, 5);
  EXPECT_LE(routed->num_parts(), 5);
  EXPECT_EQ(routed->size(), 5);
  CheckCellLayout(*routed, oracle);
}

TEST(RoutedIndexTest, NameReflectsCellCountAndInnerBackend) {
  Rng rng(33);
  const ScalarPointOracle oracle(RandomSeries(&rng, 24, 0.0, 100.0));
  const auto routed = BuildRouted(oracle, CoverTreeFactory(), 3);
  EXPECT_EQ(routed->name(), "routed[" +
                                std::to_string(routed->num_parts()) +
                                "]:cover-tree");
}

TEST(RoutedIndexTest, NeverSkipsACellContainingATrueHit) {
  // Property test: for random queries and epsilons, the routed hit set
  // must equal brute force exactly — in particular the skip rule
  // d(q, pivot) > r_c + cutoff(eps) must never drop a cell that holds a
  // true hit.
  Rng rng(35);
  const ScalarPointOracle oracle(RandomSeries(&rng, 150, 0.0, 100.0));
  const auto routed = BuildRouted(oracle, CoverTreeFactory(), 6);
  for (int trial = 0; trial < 200; ++trial) {
    const double q = rng.NextDouble(-20.0, 120.0);
    const double eps = rng.NextDouble(0.0, 15.0);
    std::vector<ObjectId> expected;
    for (ObjectId id = 0; id < oracle.size(); ++id) {
      if (std::fabs(q - oracle.points()[static_cast<size_t>(id)]) <= eps) {
        expected.push_back(id);
      }
    }
    EXPECT_EQ(Sorted(routed->RangeQuery(oracle.QueryFrom(q), eps, nullptr)),
              expected)
        << "q=" << q << " eps=" << eps;
  }
}

TEST(RoutedIndexTest, BillsRoutingPlusProbedCellsExactly) {
  Rng rng(36);
  const ScalarPointOracle oracle(RandomSeries(&rng, 80, 0.0, 100.0));
  const auto routed = BuildRouted(oracle, LinearScanFactory(), 5);
  const int32_t cells = routed->num_parts();
  const PartitionLayout& layout = routed->layout();

  for (const double center : {2.0, 48.0, 97.0}) {
    const double eps = 4.0;
    // Recompute the routing decision from the published layout: a cell
    // is probed iff d(q, pivot) <= r_c + cutoff(eps).
    int64_t expected_computations = cells;  // one routing distance/cell
    int64_t expected_probed = 0;
    for (int32_t c = 0; c < cells; ++c) {
      const double pd = std::fabs(
          center - oracle.points()[static_cast<size_t>(
                       layout.pivots[static_cast<size_t>(c)])]);
      if (pd <= layout.radii[static_cast<size_t>(c)] +
                    LowerBoundPruneCutoff(eps)) {
        ++expected_probed;
        // LinearScan cells compute every member's distance.
        expected_computations += routed->part(c).size();
      }
    }
    QueryStats stats;
    routed->RangeQuery(oracle.QueryFrom(center), eps, &stats);
    EXPECT_EQ(stats.distance_computations, expected_computations);
    EXPECT_EQ(stats.cells_probed, expected_probed);
    EXPECT_EQ(stats.cells_skipped, cells - expected_probed);
  }
}

TEST(RoutedIndexTest, TightEpsilonSkipsCellsAndSavesComputations) {
  // The point of routing: at a selective epsilon, some cells are
  // skipped, and the routed scan performs strictly fewer distance
  // computations than the monolithic scan.
  Rng rng(37);
  std::vector<double> points;
  for (int i = 0; i < 40; ++i) points.push_back(rng.NextDouble(0.0, 10.0));
  for (int i = 0; i < 40; ++i) points.push_back(rng.NextDouble(90.0, 100.0));
  const ScalarPointOracle oracle(points);
  const LinearScan monolithic(oracle.size());
  const auto routed = BuildRouted(oracle, LinearScanFactory(), 4);

  const QueryDistanceFn query = oracle.QueryFrom(5.0);
  QueryStats mono_stats;
  QueryStats routed_stats;
  const auto expected = Sorted(monolithic.RangeQuery(query, 2.0, &mono_stats));
  EXPECT_EQ(Sorted(routed->RangeQuery(query, 2.0, &routed_stats)), expected);
  EXPECT_GT(routed_stats.cells_skipped, 0);
  EXPECT_LT(routed_stats.distance_computations,
            mono_stats.distance_computations);
}

TEST(RoutedIndexTest, RebalancingSplitsOversizedCell) {
  // 97 points in a tight cluster plus 3 far outliers: farthest-point
  // pivots land on the outliers, leaving the cluster as one cell of 97
  // members — far beyond twice the mean — so the rebalance pass must
  // split it into additional cells, and answers must stay exact.
  Rng rng(40);
  std::vector<double> points = RandomSeries(&rng, 97, 0.0, 1.0);
  points.push_back(100.0);
  points.push_back(200.0);
  points.push_back(300.0);
  const ScalarPointOracle oracle(points);
  const auto routed = BuildRouted(oracle, LinearScanFactory(), 4);
  EXPECT_EQ(routed->layout().requested_parts, 4);
  EXPECT_GT(routed->num_parts(), 4);
  CheckCellLayout(*routed, oracle);

  const LinearScan monolithic(oracle.size());
  for (const double center : {0.5, 100.0, 250.0}) {
    const QueryDistanceFn query = oracle.QueryFrom(center);
    EXPECT_EQ(Sorted(routed->RangeQuery(query, 5.0, nullptr)),
              Sorted(monolithic.RangeQuery(query, 5.0, nullptr)));
  }
}

TEST(RoutedIndexTest, DuplicateHeavyCatalogStopsEarly) {
  // Every object at the same point: after the first pivot, every
  // remaining object sits at distance 0, so pivot selection stops at one
  // cell instead of manufacturing empty ones.
  const ScalarPointOracle oracle(std::vector<double>(20, 7.0));
  const auto routed = BuildRouted(oracle, LinearScanFactory(), 4);
  EXPECT_EQ(routed->num_parts(), 1);
  EXPECT_EQ(routed->layout().radii[0], 0.0);
  CheckCellLayout(*routed, oracle);
  EXPECT_EQ(routed->RangeQuery(oracle.QueryFrom(7.0), 0.5, nullptr).size(),
            20u);
  EXPECT_TRUE(
      routed->RangeQuery(oracle.QueryFrom(30.0), 0.5, nullptr).empty());
}

TEST(RoutedIndexTest, BuildFailurePropagatesFirstCellError) {
  ExpectFirstPartErrorWins(PartitionKind::kKCenter, 43, "cell");
}

// ---------------------------------------------------------------------------
// k-center snapshot round-trip.

TEST(RoutedIndexSnapshotTest, RoundTripPreservesLayoutAndQueries) {
  Rng rng(44);
  const ScalarPointOracle oracle(RandomSeries(&rng, 75, 0.0, 100.0));
  const auto original = BuildRouted(oracle, LinearScanFactory(), 4);
  const std::string path = TempPath("routed_roundtrip.snap");
  ASSERT_TRUE(SaveTo(*original, path).ok());

  auto loaded = LoadFrom(path, oracle, PartitionKind::kKCenter,
                         original->layout().requested_parts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const PartitionedIndex& reborn = *loaded.value();
  ASSERT_EQ(reborn.num_parts(), original->num_parts());
  EXPECT_EQ(reborn.layout().requested_parts,
            original->layout().requested_parts);
  EXPECT_EQ(reborn.name(), original->name());
  EXPECT_EQ(reborn.layout().pivots, original->layout().pivots);
  EXPECT_EQ(reborn.layout().radii, original->layout().radii);
  EXPECT_EQ(reborn.layout().begins, original->layout().begins);
  EXPECT_EQ(reborn.layout().members, original->layout().members);
  EXPECT_EQ(reborn.build_stats().distance_computations,
            original->build_stats().distance_computations);

  Rng qrng(45);
  for (int q = 0; q < 20; ++q) {
    const double center = qrng.NextDouble(-10.0, 110.0);
    const double eps = qrng.NextDouble(0.0, 12.0);
    QueryStats orig_stats;
    QueryStats load_stats;
    EXPECT_EQ(reborn.RangeQuery(oracle.QueryFrom(center), eps, &load_stats),
              original->RangeQuery(oracle.QueryFrom(center), eps,
                                   &orig_stats));
    EXPECT_EQ(load_stats.distance_computations,
              orig_stats.distance_computations);
    EXPECT_EQ(load_stats.cells_probed, orig_stats.cells_probed);
  }

  // Canonical encoding: saving the loaded index reproduces the file
  // byte for byte.
  const std::string resaved = TempPath("routed_roundtrip_resave.snap");
  ASSERT_TRUE(SaveTo(reborn, resaved).ok());
  EXPECT_EQ(ReadFileBytes(resaved), ReadFileBytes(path));
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(RoutedIndexSnapshotTest, LoadRejectsCellCountMismatch) {
  Rng rng(46);
  const ScalarPointOracle oracle(RandomSeries(&rng, 40, 0.0, 100.0));
  const auto original = BuildRouted(oracle, LinearScanFactory(), 4);
  const std::string path = TempPath("routed_mismatch.snap");
  ASSERT_TRUE(SaveTo(*original, path).ok());
  // Asking for a different cell count (or the other layout kind) than
  // the file was built with must fail loudly: a loaded index must be
  // what a fresh build under the caller's options would produce.
  EXPECT_FALSE(LoadFrom(path, oracle, PartitionKind::kKCenter, 7).ok());
  EXPECT_FALSE(LoadFrom(path, oracle, PartitionKind::kContiguous, 4).ok());
  std::remove(path.c_str());
}

TEST(RoutedIndexSnapshotTest, LoadRejectsOracleSizeMismatch) {
  Rng rng(47);
  const ScalarPointOracle oracle(RandomSeries(&rng, 40, 0.0, 100.0));
  const auto original = BuildRouted(oracle, LinearScanFactory(), 3);
  const std::string path = TempPath("routed_wrong_oracle.snap");
  ASSERT_TRUE(SaveTo(*original, path).ok());
  const ScalarPointOracle smaller(RandomSeries(&rng, 30, 0.0, 100.0));
  EXPECT_FALSE(LoadFrom(path, smaller, PartitionKind::kKCenter, 3).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The enforced per-query stats-split contract (the roll-up depends on it).

/// A broken backend: returns correct results but misreports result_count
/// in its per-query stats — exactly the corruption the CHECK in
/// RangeIndex::BatchRangeQuery exists to catch before it poisons
/// MatchServer billing or a partition roll-up.
class MisbilledScan final : public RangeIndex {
 public:
  explicit MisbilledScan(int32_t num_objects) : num_objects_(num_objects) {}

  std::string_view name() const override { return "misbilled-scan"; }
  int32_t size() const override { return num_objects_; }

  std::vector<ObjectId> RangeQuery(const QueryDistanceFn& query,
                                   double epsilon,
                                   QueryStats* stats) const override {
    std::vector<ObjectId> results;
    for (ObjectId id = 0; id < num_objects_; ++id) {
      if (query(id) <= epsilon) results.push_back(id);
    }
    if (stats != nullptr) {
      stats->distance_computations = num_objects_;
      stats->result_count = static_cast<int64_t>(results.size()) + 1;  // lie
    }
    return results;
  }

  SpaceStats ComputeSpaceStats() const override { return {}; }
  BuildStats build_stats() const override { return {}; }

 private:
  int32_t num_objects_;
};

TEST(PerQueryStatsContractDeathTest, MisreportedResultCountAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(21);
  const ScalarPointOracle oracle(RandomSeries(&rng, 25, 0.0, 100.0));
  const MisbilledScan broken(oracle.size());
  std::vector<QueryDistanceFn> queries = {oracle.QueryFrom(10.0)};
  std::vector<QueryStats> per_query(queries.size());
  EXPECT_DEATH(
      broken.BatchRangeQuery(queries, 5.0, SequentialExec(), nullptr,
                             per_query.data()),
      "CHECK failed");
}

TEST(PerQueryStatsContractTest, HonestBackendsPassTheCheck) {
  // The positive side of the death test: every real backend satisfies
  // the enforced split (this would abort otherwise).
  Rng rng(22);
  const ScalarPointOracle oracle(RandomSeries(&rng, 40, 0.0, 100.0));
  const LinearScan scan(oracle.size());
  std::vector<QueryDistanceFn> queries = {oracle.QueryFrom(20.0),
                                          oracle.QueryFrom(80.0)};
  std::vector<QueryStats> per_query(queries.size());
  const auto results = scan.BatchRangeQuery(queries, 5.0, SequentialExec(),
                                            nullptr, per_query.data());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(per_query[q].result_count,
              static_cast<int64_t>(results[q].size()));
  }
}

}  // namespace
}  // namespace subseq
