// The step-4 prunable-query plumbing: a LinearScan given a
// PrunableQueryFn skips exact evaluations the lower bound rules out
// while returning identical results, billing the full scan, and
// reporting the saved work in lower_bound_pruned — monolithic, sharded,
// single and batched alike. A payload's batched evaluator takes over
// every surviving evaluation without changing a hit or a count, through
// block boundaries and the offset remap the shards and the live delta
// share.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "subseq/core/rng.h"
#include "subseq/exec/stats_sink.h"
#include "subseq/metric/linear_scan.h"
#include "subseq/metric/oracle.h"
#include "subseq/metric/partitioned_index.h"
#include "testing/helpers.h"

namespace subseq {
namespace {

using ::subseq::testing::ScalarPointOracle;

constexpr int32_t kNumPoints = 400;

// Admissible bound over 1-D points: half the true |p - q| distance.
// Indexed by GLOBAL id — the scan adds lb_offset before calling, so
// this also pins the shard-offset composition.
class HalfDistanceBound final : public QueryLowerBound {
 public:
  HalfDistanceBound(std::shared_ptr<const std::vector<double>> points,
                    double q)
      : points_(std::move(points)), q_(q) {}

  void LowerBoundBlock(ObjectId begin, int32_t count, double cutoff,
                       double* out) const override {
    (void)cutoff;  // exact bounds; no abandoning needed
    for (int32_t i = 0; i < count; ++i) {
      out[i] =
          0.5 * std::fabs((*points_)[static_cast<size_t>(begin + i)] - q_);
    }
  }

 private:
  std::shared_ptr<const std::vector<double>> points_;
  double q_;
};

// Evaluations per GLOBAL id, one counter per point.
using IdCounts = std::vector<std::atomic<int64_t>>;

std::vector<int64_t> Snapshot(IdCounts* counts) {
  std::vector<int64_t> out;
  for (std::atomic<int64_t>& c : *counts) out.push_back(c.exchange(0));
  return out;
}

struct PrefilterFixture {
  PrefilterFixture() {
    Rng rng(91);
    auto pts = std::make_shared<std::vector<double>>();
    for (int32_t i = 0; i < kNumPoints; ++i) {
      pts->push_back(rng.NextDouble(0.0, 100.0));
    }
    points = pts;
    executed = std::make_shared<std::atomic<int64_t>>(0);
    per_id = std::make_shared<IdCounts>(kNumPoints);
    batched = std::make_shared<IdCounts>(kNumPoints);
  }

  // The exact query function; every invocation is counted.
  std::function<double(ObjectId)> ExactFn(double q) const {
    auto pts = points;
    auto counter = executed;
    auto counts = per_id;
    return [pts, counter, counts, q](ObjectId id) {
      counter->fetch_add(1, std::memory_order_relaxed);
      (*counts)[static_cast<size_t>(id)].fetch_add(1,
                                                   std::memory_order_relaxed);
      return std::fabs((*pts)[static_cast<size_t>(id)] - q);
    };
  }

  // The batched evaluator of ExactFn(q): the same expression per id,
  // every id it is handed counted in `batched`.
  QueryDistanceManyFn ManyFn(double q) const {
    auto pts = points;
    auto counts = batched;
    return [pts, counts, q](std::span<const ObjectId> ids, double* out) {
      for (size_t i = 0; i < ids.size(); ++i) {
        const auto id = static_cast<size_t>(ids[i]);
        (*counts)[id].fetch_add(1, std::memory_order_relaxed);
        out[i] = std::fabs((*pts)[id] - q);
      }
    };
  }

  // The per-id reference (pruned by the half-distance bound when
  // `bound`), or the same query carrying the batched evaluator.
  QueryDistanceFn ScanQuery(double q, bool bound, bool many) const {
    PrunableQueryFn p;
    p.fn = ExactFn(q);
    if (bound) p.lower_bound = std::make_shared<HalfDistanceBound>(points, q);
    if (many) p.many = ManyFn(q);
    return QueryDistanceFn(std::move(p));
  }

  QueryDistanceFn PrunableQuery(double q) const {
    return ScanQuery(q, /*bound=*/true, /*many=*/false);
  }

  QueryDistanceFn PlainQuery(double q) const {
    return QueryDistanceFn(ExactFn(q));
  }


  std::shared_ptr<const std::vector<double>> points;
  std::shared_ptr<std::atomic<int64_t>> executed;
  std::shared_ptr<IdCounts> per_id;
  std::shared_ptr<IdCounts> batched;
};

void ExpectStatsEqual(const QueryStats& got, const QueryStats& want,
                      const std::string& where) {
  EXPECT_EQ(got.distance_computations, want.distance_computations) << where;
  EXPECT_EQ(got.result_count, want.result_count) << where;
  EXPECT_EQ(got.lower_bound_pruned, want.lower_bound_pruned) << where;
  EXPECT_EQ(got.lb_kim_pruned, want.lb_kim_pruned) << where;
  EXPECT_EQ(got.lb_erp_pruned, want.lb_erp_pruned) << where;
}

TEST(PrefilterTest, IdenticalResultsFullBillingFewerExecutions) {
  PrefilterFixture f;
  const LinearScan scan(kNumPoints);
  const double q = 50.0, epsilon = 5.0;

  QueryStats plain_stats;
  const std::vector<ObjectId> plain =
      scan.RangeQuery(f.PlainQuery(q), epsilon, &plain_stats);
  const int64_t plain_executed = f.executed->exchange(0);

  QueryStats pruned_stats;
  const std::vector<ObjectId> pruned =
      scan.RangeQuery(f.PrunableQuery(q), epsilon, &pruned_stats);
  const int64_t pruned_executed = f.executed->exchange(0);

  EXPECT_EQ(plain, pruned);
  ASSERT_FALSE(plain.empty());
  // Billing is identical — pruned candidates stay billed — while the
  // executed count actually drops and the saving is reported.
  EXPECT_EQ(plain_stats.distance_computations, kNumPoints);
  EXPECT_EQ(pruned_stats.distance_computations, kNumPoints);
  EXPECT_EQ(plain_stats.lower_bound_pruned, 0);
  EXPECT_GT(pruned_stats.lower_bound_pruned, 0);
  EXPECT_EQ(plain_executed, kNumPoints);
  EXPECT_EQ(pruned_executed, kNumPoints - pruned_stats.lower_bound_pruned);
  EXPECT_LT(pruned_executed, plain_executed);
  EXPECT_EQ(plain_stats.result_count, pruned_stats.result_count);
}

TEST(PrefilterTest, NeverPrunesWithinEpsilon) {
  // With an exact-distance bound (not halved) every non-result would be
  // prunable; the padded cutoff must still keep every true result.
  PrefilterFixture f;
  const LinearScan scan(kNumPoints);
  for (const double epsilon : {0.0, 0.5, 3.0, 25.0}) {
    QueryStats plain_stats, pruned_stats;
    const std::vector<ObjectId> plain =
        scan.RangeQuery(f.PlainQuery(33.0), epsilon, &plain_stats);
    PrunableQueryFn p;
    p.fn = f.ExactFn(33.0);
    // Bound == exact distance: the tightest admissible bound.
    class ExactBound final : public QueryLowerBound {
     public:
      ExactBound(std::shared_ptr<const std::vector<double>> pts, double q)
          : pts_(std::move(pts)), q_(q) {}
      void LowerBoundBlock(ObjectId begin, int32_t count, double /*cutoff*/,
                           double* out) const override {
        for (int32_t i = 0; i < count; ++i) {
          out[i] = std::fabs((*pts_)[static_cast<size_t>(begin + i)] - q_);
        }
      }

     private:
      std::shared_ptr<const std::vector<double>> pts_;
      double q_;
    };
    p.lower_bound = std::make_shared<ExactBound>(f.points, 33.0);
    const std::vector<ObjectId> pruned =
        scan.RangeQuery(QueryDistanceFn(std::move(p)), epsilon,
                        &pruned_stats);
    EXPECT_EQ(plain, pruned) << "epsilon=" << epsilon;
  }
}

TEST(PrefilterTest, ShardedMatchesMonolithic) {
  PrefilterFixture f;
  const double q = 42.0, epsilon = 6.0;

  const LinearScan mono(kNumPoints);
  QueryStats mono_stats;
  const std::vector<ObjectId> mono_ids =
      mono.RangeQuery(f.PrunableQuery(q), epsilon, &mono_stats);
  const int64_t mono_executed = f.executed->exchange(0);

  const ScalarPointOracle oracle(*f.points);
  PartitionedIndexOptions options;
  options.num_parts = 4;
  auto sharded = PartitionedIndex::Build(
      oracle,
      [](const DistanceOracle& shard_oracle, int32_t) {
        return Result<std::unique_ptr<RangeIndex>>(
            std::make_unique<LinearScan>(shard_oracle.size()));
      },
      options);
  ASSERT_TRUE(sharded.ok());
  QueryStats sharded_stats;
  const std::vector<ObjectId> sharded_ids =
      sharded.value()->RangeQuery(f.PrunableQuery(q), epsilon,
                                  &sharded_stats);
  const int64_t sharded_executed = f.executed->exchange(0);

  // Pruning decisions are block- and shard-invariant, so everything —
  // ids, billing, pruned count, and even the executed call count —
  // matches the monolithic scan exactly.
  EXPECT_EQ(mono_ids, sharded_ids);
  EXPECT_EQ(mono_stats.distance_computations,
            sharded_stats.distance_computations);
  EXPECT_EQ(mono_stats.result_count, sharded_stats.result_count);
  EXPECT_EQ(mono_stats.lower_bound_pruned, sharded_stats.lower_bound_pruned);
  EXPECT_GT(mono_stats.lower_bound_pruned, 0);
  EXPECT_EQ(mono_executed, sharded_executed);
}

TEST(PrefilterTest, BatchMatchesSingleAndFeedsSink) {
  PrefilterFixture f;
  const LinearScan scan(kNumPoints);
  const double epsilon = 4.0;
  const std::vector<double> qs = {10.0, 50.0, 90.0};

  // References: one RangeQuery per query.
  std::vector<std::vector<ObjectId>> single(qs.size());
  std::vector<QueryStats> single_stats(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    single[i] =
        scan.RangeQuery(f.PrunableQuery(qs[i]), epsilon, &single_stats[i]);
  }

  for (const int32_t threads : {1, 8}) {
    // threads=8 > 3 queries exercises the intra-query range-sharded
    // scan path; threads=1 the per-query path. Both must agree with
    // the single-query reference exactly.
    std::vector<QueryDistanceFn> queries;
    for (const double q : qs) queries.push_back(f.PrunableQuery(q));
    ExecContext exec;
    exec.num_threads = threads;
    StatsSink sink;
    std::vector<QueryStats> per_query(qs.size());
    const std::vector<std::vector<ObjectId>> batched =
        scan.BatchRangeQuery(queries, epsilon, exec, &sink,
                             per_query.data());
    ASSERT_EQ(batched.size(), qs.size());
    int64_t total_pruned = 0;
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(batched[i], single[i]) << "threads=" << threads;
      EXPECT_EQ(per_query[i].distance_computations,
                single_stats[i].distance_computations);
      EXPECT_EQ(per_query[i].result_count, single_stats[i].result_count);
      EXPECT_EQ(per_query[i].lower_bound_pruned,
                single_stats[i].lower_bound_pruned);
      total_pruned += per_query[i].lower_bound_pruned;
    }
    EXPECT_GT(total_pruned, 0);
    EXPECT_EQ(sink.lower_bound_pruned(), total_pruned);
    EXPECT_EQ(sink.distance_computations(),
              static_cast<int64_t>(qs.size()) * kNumPoints);
  }
}

TEST(PrefilterTest, PayloadWithoutProviderScansUnpruned) {
  PrefilterFixture f;
  const LinearScan scan(kNumPoints);
  PrunableQueryFn p;
  p.fn = f.ExactFn(20.0);
  p.lower_bound = nullptr;  // payload present, provider absent
  QueryStats stats;
  scan.RangeQuery(QueryDistanceFn(std::move(p)), 3.0, &stats);
  EXPECT_EQ(stats.lower_bound_pruned, 0);
  EXPECT_EQ(f.executed->load(), kNumPoints);
}

TEST(PrefilterTest, BatchedEvaluatorMatchesPerIdScanAcrossBlocks) {
  // Scan sizes straddle the scan's 256-id block; threads=8 also splits
  // the single query's range into chunks whose blocks start mid-range.
  PrefilterFixture f;
  const double q = 37.0, epsilon = 6.0;
  for (const int32_t n : {1, 255, 256, 257, kNumPoints}) {
    const LinearScan scan(n);
    for (const bool bound : {false, true}) {
      const std::string where = "n=" + std::to_string(n) +
                                " bound=" + std::to_string(bound);
      QueryStats want_stats;
      const std::vector<ObjectId> want =
          scan.RangeQuery(f.ScanQuery(q, bound, /*many=*/false), epsilon,
                          &want_stats);
      const std::vector<int64_t> want_calls = Snapshot(f.per_id.get());
      ASSERT_EQ(Snapshot(f.batched.get()), std::vector<int64_t>(kNumPoints))
          << where;

      for (const int32_t threads : {1, 8}) {
        ExecContext exec;
        exec.num_threads = threads;
        const std::vector<QueryDistanceFn> queries = {
            f.ScanQuery(q, bound, /*many=*/true)};
        StatsSink sink;
        QueryStats got_stats;
        const std::vector<std::vector<ObjectId>> got =
            scan.BatchRangeQuery(queries, epsilon, exec, &sink, &got_stats);
        const std::string at = where + " threads=" + std::to_string(threads);
        EXPECT_EQ(got.front(), want) << at;
        ExpectStatsEqual(got_stats, want_stats, at);
        EXPECT_EQ(sink.lower_bound_pruned(), want_stats.lower_bound_pruned)
            << at;
        // Every candidate the per-id scan evaluated is evaluated exactly
        // once, and only through the batched evaluator.
        EXPECT_EQ(Snapshot(f.batched.get()), want_calls) << at;
        EXPECT_EQ(Snapshot(f.per_id.get()), std::vector<int64_t>(kNumPoints))
            << at;
      }
    }
  }
  EXPECT_GT(f.executed->load(), 0);
}

TEST(PrefilterTest, BatchedEvaluatorRidesThroughShardAndOffsetRemaps) {
  // The shard remap and the live delta's remap are the same OffsetQuery:
  // the evaluator's ids translate with the function's, the bound's
  // offset advances, and nothing observable moves.
  PrefilterFixture f;
  const double q = 61.0, epsilon = 5.0;
  const LinearScan mono(kNumPoints);
  for (const bool bound : {false, true}) {
    const std::string where = "bound=" + std::to_string(bound);
    QueryStats want_stats;
    const std::vector<ObjectId> want = mono.RangeQuery(
        f.ScanQuery(q, bound, /*many=*/false), epsilon, &want_stats);
    const std::vector<int64_t> want_calls = Snapshot(f.per_id.get());

    const ScalarPointOracle oracle(*f.points);
    PartitionedIndexOptions options;
    options.num_parts = 3;  // 134 + 133 + 133 ids: no shard is block-aligned
    auto sharded = PartitionedIndex::Build(
        oracle,
        [](const DistanceOracle& shard_oracle, int32_t) {
          return Result<std::unique_ptr<RangeIndex>>(
              std::make_unique<LinearScan>(shard_oracle.size()));
        },
        options);
    ASSERT_TRUE(sharded.ok());
    QueryStats sharded_stats;
    const std::vector<ObjectId> sharded_ids = sharded.value()->RangeQuery(
        f.ScanQuery(q, bound, /*many=*/true), epsilon, &sharded_stats);
    EXPECT_EQ(sharded_ids, want) << where;
    ExpectStatsEqual(sharded_stats, want_stats, where + " sharded");
    EXPECT_EQ(Snapshot(f.batched.get()), want_calls) << where;
    EXPECT_EQ(Snapshot(f.per_id.get()), std::vector<int64_t>(kNumPoints))
        << where;

    // A delta-style split: the base scans [0, 300), a second scan the
    // remaining ids through OffsetQuery.
    const int32_t split = 300;
    const QueryDistanceFn query = f.ScanQuery(q, bound, /*many=*/true);
    QueryStats base_stats, tail_stats;
    std::vector<ObjectId> got =
        LinearScan(split).RangeQuery(query, epsilon, &base_stats);
    for (const ObjectId id :
         LinearScan(kNumPoints - split)
             .RangeQuery(OffsetQuery(query, split), epsilon, &tail_stats)) {
      got.push_back(id + split);
    }
    EXPECT_EQ(got, want) << where;
    EXPECT_EQ(base_stats.lower_bound_pruned + tail_stats.lower_bound_pruned,
              want_stats.lower_bound_pruned)
        << where;
    EXPECT_EQ(base_stats.distance_computations +
                  tail_stats.distance_computations,
              want_stats.distance_computations)
        << where;
    EXPECT_EQ(Snapshot(f.batched.get()), want_calls) << where;
    EXPECT_EQ(Snapshot(f.per_id.get()), std::vector<int64_t>(kNumPoints))
        << where;
  }
}

}  // namespace
}  // namespace subseq
