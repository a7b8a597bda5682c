// The staged lower-bound pruning cascade (frame/lb_prefilter.h): every
// stage is admissible (no false dismissals, pinned by a 200-trial
// battery; LB_Kim and the 1-D / 2-D ERP sum bounds at any pair of
// lengths; the sum bounds also under the rounding of large, nearly
// cancelling sums), stage order is by cost — NOT tightness (LB_Kim can
// exceed LB_Keogh; the counterexample is pinned here) — pruned
// candidates stay billed with per-stage attribution, the matcher
// pipeline is invariant under the knob across threads, shards and routed
// cells, and a payload-bound cascade collapses a routed cell's scattered
// members into one memory-adjacent run without changing any bound value.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "subseq/core/rng.h"
#include "subseq/distance/dtw.h"
#include "subseq/distance/erp.h"
#include "subseq/distance/lb_erp.h"
#include "subseq/distance/lb_keogh.h"
#include "subseq/distance/lb_kim.h"
#include "subseq/frame/lb_prefilter.h"
#include "subseq/frame/matcher.h"
#include "subseq/frame/window_oracle.h"
#include "subseq/frame/windowing.h"
#include "subseq/metric/linear_scan.h"
#include "subseq/metric/oracle.h"
#include "subseq/metric/partitioned_index.h"
#include "testing/helpers.h"

namespace subseq {
namespace {

using ::subseq::testing::RandomSeries;
using ::subseq::testing::RandomTrack;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Evaluations per window id, one counter per window.
using IdCounts = std::vector<std::atomic<int64_t>>;

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

#define EXPECT_BITEQ(a, b) EXPECT_EQ(Bits(a), Bits(b))
#define ASSERT_BITEQ(a, b) ASSERT_EQ(Bits(a), Bits(b))

// Floating-point admissibility margin: the exact distance is itself a
// rounded sum, so a mathematically-valid bound may exceed it by a few
// ulps. The scan absorbs exactly this with LowerBoundPruneCutoff.
double Padded(double d) { return d * (1.0 + 1e-9) + 1e-12; }

// ---------------------------------------------------------------------------
// Admissibility of the individual stages.

TEST(CascadeAdmissibilityTest, KimIsALowerBoundOfDtw) {
  Rng rng(811);
  const DtwDistance1D dtw;
  for (int trial = 0; trial < 200; ++trial) {
    const int32_t n = static_cast<int32_t>(rng.NextInt(1, 32));
    const std::vector<double> q = RandomSeries(&rng, n, -10.0, 10.0);
    const std::vector<double> c = RandomSeries(&rng, n, -10.0, 10.0);
    const LbKimBound kim(q);
    EXPECT_LE(kim.LowerBound(c), Padded(dtw.Compute(q, c)))
        << "trial=" << trial << " n=" << n;
  }
}

TEST(CascadeAdmissibilityTest, ErpSumIsALowerBoundOfErp) {
  // Valid for ANY candidate length: gaps cost the full element under
  // ErpDistance1D's zero gap element, so the bound needs no length gate.
  Rng rng(822);
  const ErpDistance1D erp;
  for (int trial = 0; trial < 200; ++trial) {
    const int32_t n = static_cast<int32_t>(rng.NextInt(1, 32));
    const int32_t m = static_cast<int32_t>(rng.NextInt(1, 32));
    const std::vector<double> q = RandomSeries(&rng, n, -10.0, 10.0);
    const std::vector<double> c = RandomSeries(&rng, m, -10.0, 10.0);
    const LbErpSumBound bound(q);
    EXPECT_LE(bound.LowerBound(c), Padded(erp.Compute(q, c)))
        << "trial=" << trial << " n=" << n << " m=" << m;
  }
}

TEST(CascadeAdmissibilityTest, KimIsALowerBoundOfDtwAtAnyLengths) {
  // The endpoint and extrema couplings exist for any n and m, and
  // n != m implies n + m > 2, so the endpoint SUM stays admissible.
  Rng rng(812);
  const DtwDistance1D dtw;
  for (int trial = 0; trial < 400; ++trial) {
    const int32_t n = static_cast<int32_t>(rng.NextInt(1, 16));
    const int32_t m = static_cast<int32_t>(rng.NextInt(1, 16));
    const std::vector<double> q = RandomSeries(&rng, n, -10.0, 10.0);
    const std::vector<double> c = RandomSeries(&rng, m, -10.0, 10.0);
    const LbKimBound kim(q);
    const double bound = kim.LowerBound(c);
    EXPECT_LE(bound, Padded(dtw.Compute(q, c)))
        << "trial=" << trial << " n=" << n << " m=" << m;
    // The batched path over the candidate's features agrees bitwise.
    const double first = c.front();
    const double last = c.back();
    const double cmin = *std::min_element(c.begin(), c.end());
    const double cmax = *std::max_element(c.begin(), c.end());
    double many = 0.0;
    kim.LowerBoundMany(&first, &last, &cmin, &cmax, 1, m, &many);
    EXPECT_BITEQ(many, bound);
  }
}

TEST(CascadeAdmissibilityTest, Erp2dSumIsALowerBoundOfErp2d) {
  // ||sum(Q) - sum(C)||_2 telescopes the Euclidean ground's triangle
  // inequality with the gap at the origin; any lengths.
  Rng rng(823);
  const ErpDistance2D erp;
  for (int trial = 0; trial < 200; ++trial) {
    const int32_t n = static_cast<int32_t>(rng.NextInt(1, 24));
    const int32_t m = static_cast<int32_t>(rng.NextInt(1, 24));
    std::vector<Point2d> q = RandomTrack(&rng, n, 20.0);
    std::vector<Point2d> c = RandomTrack(&rng, m, 20.0);
    for (Point2d& p : q) p = Point2d{p.x - 10.0, p.y - 10.0};
    const LbErpSumBound bound(q);
    EXPECT_LE(bound.LowerBound(c), Padded(erp.Compute(q, c)))
        << "trial=" << trial << " n=" << n << " m=" << m;
  }
  // Tight on a translate: Q = C + (3, 4) per element gives a sum
  // difference of 5 per element while every match costs exactly 5.
  const std::vector<Point2d> c = {{1.0, 2.0}, {-4.0, 0.5}, {2.0, 2.0}};
  std::vector<Point2d> q = c;
  for (Point2d& p : q) p = Point2d{p.x + 3.0, p.y + 4.0};
  EXPECT_NEAR(LbErpSumBound(q).LowerBound(c), 15.0, 1e-12);
  EXPECT_NEAR(erp.Compute(q, c), 15.0, 1e-12);
}

// A copy of `base` with one element moved up by `ulps` representable
// values: the exact ERP is a few ulps of that element.
template <typename T>
std::vector<T> NudgedCopy(const std::vector<T>& base, Rng* rng) {
  std::vector<T> out = base;
  const size_t at = rng->NextBounded(out.size());
  const int ulps = 1 + static_cast<int>(rng->NextBounded(4));
  for (int k = 0; k < ulps; ++k) {
    if constexpr (std::is_same_v<T, double>) {
      out[at] = std::nextafter(out[at], kInf);
    } else {
      out[at].x = std::nextafter(out[at].x, kInf);
    }
  }
  return out;
}

TEST(CascadeAdmissibilityTest, ErpSumBoundsSurviveRoundingOfLargeSums) {
  // Sums of signed values err absolutely: at |values| ~ 1e6 the computed
  // |sum(Q) - sum(C)| of two operands a few ulps apart is several ulps
  // of the SUM. Without the bound's slack it exceeded the padded cutoff
  // of the pair's own ERP in 4,785 of these 20,000 1-D pairs, i.e. a
  // scan at any epsilon >= that ERP would drop a true match; at 1e2 it
  // never did. 1-D and 2-D, both magnitudes.
  Rng rng(834);
  const ErpDistance1D erp;
  const ErpDistance2D erp2d;
  for (const double magnitude : {1e2, 1e6}) {
    int64_t violations = 0;
    std::string first;
    for (int trial = 0; trial < 20000; ++trial) {
      const std::vector<double> q =
          RandomSeries(&rng, 10, magnitude / 2.0, magnitude);
      const std::vector<double> c = NudgedCopy(q, &rng);
      const double bound = LbErpSumBound(q).LowerBound(c);
      const double cutoff = LowerBoundPruneCutoff(erp.Compute(q, c));
      if (bound > cutoff && violations++ == 0) {
        first = "1-D trial " + std::to_string(trial);
      }
      const std::vector<Point2d> tq =
          RandomTrack(&rng, 10, magnitude);
      const std::vector<Point2d> tc = NudgedCopy(tq, &rng);
      const double bound2d = LbErpSumBound(tq).LowerBound(tc);
      const double cutoff2d = LowerBoundPruneCutoff(erp2d.Compute(tq, tc));
      if (bound2d > cutoff2d && violations++ == 0) {
        first = "2-D trial " + std::to_string(trial);
      }
    }
    EXPECT_EQ(violations, 0) << "magnitude " << magnitude << ", first at "
                             << first;
  }
}

TEST(CascadeAdmissibilityTest, KimCanExceedKeoghSoOrderIsByCostNotTightness) {
  // The pinned counterexample from distance/lb_kim.h: C sits strictly
  // inside Q's envelope (Keogh = 0) while its endpoints are far from
  // Q's (Kim = 10 = the exact DTW). A "tightness-ordered" cascade would
  // have to run Keogh first and could never justify Kim; the real
  // ordering criterion is per-candidate cost.
  const std::vector<double> q = {0.0, 10.0};
  const std::vector<double> c = {5.0, 5.0};
  const LbKeoghEnvelope env(q, /*band=*/-1);
  const LbKimBound kim(q);
  const DtwDistance1D dtw;
  EXPECT_EQ(env.LowerBound(c), 0.0);
  EXPECT_EQ(kim.LowerBound(c), 10.0);
  EXPECT_EQ(dtw.Compute(q, c), 10.0);
}

// ---------------------------------------------------------------------------
// Window fixture shared by the scan / stage / routed suites.

class CascadeWindowTest : public ::testing::Test {
 protected:
  void Init(uint64_t seed, int32_t num_seqs, int32_t seq_len, int32_t l) {
    Rng rng(seed);
    for (int32_t s = 0; s < num_seqs; ++s) {
      db_.Add(Sequence<double>(RandomSeries(&rng, seq_len, 0.0, 10.0)));
    }
    catalog_ = std::make_unique<WindowCatalog>(
        std::move(WindowCatalog::PartitionDatabase(db_, l)).ValueOrDie());
    features_ = BuildLbFeatureTable(db_, *catalog_);
    executed_ = std::make_shared<std::atomic<int64_t>>(0);
    per_id_ = std::make_shared<IdCounts>(catalog_->num_windows());
    batched_ = std::make_shared<IdCounts>(catalog_->num_windows());
  }

  int32_t num_windows() const { return catalog_->num_windows(); }

  std::span<const double> Window(ObjectId id) const {
    const WindowRef& ref = catalog_->at(id);
    return db_.at(ref.seq).Subsequence(ref.span);
  }

  // The exact segment-vs-window function; every invocation is counted,
  // in total and per window.
  std::function<double(ObjectId)> ExactFn(
      const SequenceDistance<double>& dist,
      std::span<const double> segment) const {
    auto counter = executed_;
    auto counts = per_id_;
    return [this, &dist, segment, counter, counts](ObjectId id) {
      counter->fetch_add(1, std::memory_order_relaxed);
      (*counts)[static_cast<size_t>(id)].fetch_add(
          1, std::memory_order_relaxed);
      return dist.Compute(segment, Window(id));
    };
  }

  // WindowOracle::SegmentQueryMany — the evaluator the matcher attaches —
  // with every window it is handed counted per window.
  QueryDistanceManyFn CountingMany(const SequenceDistance<double>& dist,
                                   std::span<const double> segment) const {
    auto oracle =
        std::make_shared<const WindowOracle<double>>(db_, *catalog_, dist);
    auto counts = batched_;
    return [oracle, many = oracle->SegmentQueryMany(segment), counts](
               std::span<const ObjectId> ids, double* out) {
      for (const ObjectId id : ids) {
        (*counts)[static_cast<size_t>(id)].fetch_add(
            1, std::memory_order_relaxed);
      }
      many(ids, out);
    };
  }

  // The scan payload: the cascade (with or without the Kim features)
  // when `bound`, the batched evaluator when `many`.
  QueryDistanceFn PayloadQuery(const SequenceDistance<double>& dist,
                               std::span<const double> segment, bool bound,
                               bool with_features, bool many) const {
    PrunableQueryFn p;
    p.fn = ExactFn(dist, segment);
    if (bound) {
      p.lower_bound = MakeSegmentLowerBound(
          db_, *catalog_, dist, segment, with_features ? features_ : nullptr);
      EXPECT_NE(p.lower_bound, nullptr);
    }
    if (many) p.many = CountingMany(dist, segment);
    return QueryDistanceFn(std::move(p));
  }

  QueryDistanceFn CascadeQuery(const SequenceDistance<double>& dist,
                               std::span<const double> segment,
                               bool with_features = true) const {
    return PayloadQuery(dist, segment, /*bound=*/true, with_features,
                        /*many=*/false);
  }

  // Per-window evaluation counts since the last call, then reset.
  static std::vector<int64_t> Take(IdCounts* counts) {
    std::vector<int64_t> out;
    for (std::atomic<int64_t>& c : *counts) out.push_back(c.exchange(0));
    return out;
  }

  QueryDistanceFn PlainQuery(const SequenceDistance<double>& dist,
                             std::span<const double> segment) const {
    return QueryDistanceFn(ExactFn(dist, segment));
  }


  SequenceDatabase<double> db_;
  std::unique_ptr<WindowCatalog> catalog_;
  std::shared_ptr<const LbFeatureTable> features_;
  std::shared_ptr<std::atomic<int64_t>> executed_;
  std::shared_ptr<IdCounts> per_id_;
  std::shared_ptr<IdCounts> batched_;
};

void ExpectScanStatsEqual(const QueryStats& got, const QueryStats& want) {
  EXPECT_EQ(got.distance_computations, want.distance_computations);
  EXPECT_EQ(got.result_count, want.result_count);
  EXPECT_EQ(got.lower_bound_pruned, want.lower_bound_pruned);
  EXPECT_EQ(got.lb_kim_pruned, want.lb_kim_pruned);
  EXPECT_EQ(got.lb_erp_pruned, want.lb_erp_pruned);
  EXPECT_EQ(got.cells_probed, want.cells_probed);
  EXPECT_EQ(got.cells_skipped, want.cells_skipped);
}

// ---------------------------------------------------------------------------
// Stage mechanics: values, attribution, and the survivor tail.

using CascadeStageTest = CascadeWindowTest;

TEST_F(CascadeStageTest, KimSurvivorsGetExactEnvelopeValuesIncludingTail) {
  // 3 sequences x 3 windows = 9 candidates: at an infinite cutoff every
  // candidate survives LB_Kim, so the Keogh stage covers two full
  // lb_keogh_block4 groups AND a 1-wide LowerBoundAbandoning tail. All
  // three paths — block4 gather, abandoning tail, and the no-Kim strided
  // LowerBoundMany — must produce the envelope's exact value bitwise.
  Init(/*seed=*/91, /*num_seqs=*/3, /*seq_len=*/26, /*l=*/8);
  ASSERT_EQ(num_windows(), 9);
  Rng rng(92);
  const std::vector<double> segment = RandomSeries(&rng, 8, 0.0, 10.0);
  const LbKeoghEnvelope env(segment, /*band=*/-1);

  const DtwDistance1D dtw;
  const std::span<const double> seg_view(segment);
  const auto with_kim =
      MakeSegmentLowerBound(db_, *catalog_, dtw, seg_view, features_);
  const auto keogh_only =
      MakeSegmentLowerBound(db_, *catalog_, dtw, seg_view, nullptr);
  ASSERT_NE(with_kim, nullptr);
  ASSERT_NE(keogh_only, nullptr);

  std::vector<double> staged(9), strided(9);
  with_kim->LowerBoundBlock(0, 9, kInf, staged.data());
  keogh_only->LowerBoundBlock(0, 9, kInf, strided.data());
  for (int32_t i = 0; i < 9; ++i) {
    ASSERT_BITEQ(staged[static_cast<size_t>(i)],
                 strided[static_cast<size_t>(i)]);
    ASSERT_BITEQ(staged[static_cast<size_t>(i)], env.LowerBound(Window(i)));
  }
}

TEST_F(CascadeStageTest, StagedCountsAttributeEveryPrune) {
  Init(/*seed=*/93, /*num_seqs=*/6, /*seq_len=*/80, /*l=*/8);
  Rng rng(94);
  const std::vector<double> segment = RandomSeries(&rng, 8, 0.0, 10.0);
  const DtwDistance1D dtw;
  const auto cascade = MakeSegmentLowerBound(
      db_, *catalog_, dtw, std::span<const double>(segment), features_);
  ASSERT_NE(cascade, nullptr);
  const int32_t n = num_windows();
  std::vector<double> out(static_cast<size_t>(n));
  for (const double epsilon : {0.5, 2.0, 8.0}) {
    const double cutoff = LowerBoundPruneCutoff(epsilon);
    LbBlockCounts counts;
    cascade->LowerBoundBlockStaged(0, n, cutoff, out.data(), &counts);
    int64_t pruned = 0;
    for (int32_t i = 0; i < n; ++i) {
      if (out[static_cast<size_t>(i)] > cutoff) ++pruned;
    }
    // Every prune is attributed to exactly one stage; a DTW cascade
    // never books ERP prunes.
    EXPECT_EQ(counts.kim_pruned + counts.envelope_pruned, pruned)
        << "epsilon=" << epsilon;
    EXPECT_EQ(counts.erp_pruned, 0);
  }
}

// ---------------------------------------------------------------------------
// Scan-level: identical results, full billing, per-stage stats.

using CascadeScanTest = CascadeWindowTest;

// For every window of `catalog`, the ERP bound built without a feature
// table equals the table-backed one bit for bit — one id at a time (the
// reference-net walk's access) and over the whole catalog in one block.
template <typename T>
void ExpectTablelessErpBoundEqualsTable(const SequenceDatabase<T>& db,
                                        const WindowCatalog& catalog,
                                        const SequenceDistance<T>& dist,
                                        std::span<const T> segment) {
  const auto tableless =
      MakeSegmentLowerBound(db, catalog, dist, segment, nullptr);
  const auto tabled = MakeSegmentLowerBound(db, catalog, dist, segment,
                                            BuildLbFeatureTable(db, catalog));
  ASSERT_NE(tableless, nullptr);
  ASSERT_NE(tabled, nullptr);
  const int32_t n = catalog.num_windows();
  std::vector<double> want(static_cast<size_t>(n));
  std::vector<double> block(static_cast<size_t>(n));
  tabled->LowerBoundBlock(0, n, kInf, want.data());
  tableless->LowerBoundBlock(0, n, kInf, block.data());
  for (ObjectId w = 0; w < n; ++w) {
    double one = 0.0;
    tableless->LowerBoundBlock(w, 1, kInf, &one);
    EXPECT_BITEQ(one, want[static_cast<size_t>(w)]) << "window " << w;
    EXPECT_BITEQ(block[static_cast<size_t>(w)], want[static_cast<size_t>(w)])
        << "window " << w;
  }
}

TEST_F(CascadeScanTest, DtwCascadePrunesWithoutChangingResultsOrBilling) {
  Init(/*seed=*/95, /*num_seqs=*/6, /*seq_len=*/80, /*l=*/8);
  const LinearScan scan(num_windows());
  const DtwDistance1D dtw;
  // A real window as the segment guarantees at least one true hit.
  const std::span<const double> segment = Window(3);
  const double epsilon = 1.5;

  QueryStats plain_stats;
  const std::vector<ObjectId> plain =
      scan.RangeQuery(PlainQuery(dtw, segment), epsilon, &plain_stats);
  const int64_t plain_executed = executed_->exchange(0);

  QueryStats pruned_stats;
  const std::vector<ObjectId> pruned =
      scan.RangeQuery(CascadeQuery(dtw, segment), epsilon, &pruned_stats);
  const int64_t pruned_executed = executed_->exchange(0);

  EXPECT_EQ(plain, pruned);
  ASSERT_FALSE(plain.empty());
  // Billing is knob-invariant; the saving shows only in the pruned
  // counters and the executed call count.
  EXPECT_EQ(plain_stats.distance_computations, num_windows());
  EXPECT_EQ(pruned_stats.distance_computations, num_windows());
  EXPECT_EQ(plain_executed, num_windows());
  EXPECT_EQ(pruned_executed, num_windows() - pruned_stats.lower_bound_pruned);
  // Per-stage attribution: the O(1) Kim stage fires, prunes are split
  // Kim-then-envelope, and the ERP counter stays silent under DTW.
  EXPECT_GT(pruned_stats.lower_bound_pruned, 0);
  EXPECT_GT(pruned_stats.lb_kim_pruned, 0);
  EXPECT_LE(pruned_stats.lb_kim_pruned, pruned_stats.lower_bound_pruned);
  EXPECT_EQ(pruned_stats.lb_erp_pruned, 0);
}

TEST_F(CascadeScanTest, ErpSumBoundPrunesAndBooksItsOwnCounter) {
  Init(/*seed=*/96, /*num_seqs=*/6, /*seq_len=*/80, /*l=*/8);
  const LinearScan scan(num_windows());
  const ErpDistance1D erp;
  const std::span<const double> segment = Window(11);
  const double epsilon = 2.0;

  // The ERP cascade needs no feature table: a window no table covers
  // gets its sums from its elements, bit for bit the table's row.
  ExpectTablelessErpBoundEqualsTable(db_, *catalog_, erp, segment);
  Rng rng(961);
  SequenceDatabase<Point2d> tracks;
  for (int32_t s = 0; s < 6; ++s) {
    tracks.Add(Sequence<Point2d>(RandomTrack(&rng, 80, 20.0)));
  }
  const WindowCatalog track_catalog =
      std::move(WindowCatalog::PartitionDatabase(tracks, 8)).ValueOrDie();
  const ErpDistance2D erp2d;
  const std::vector<Point2d> track_segment = RandomTrack(&rng, 9, 20.0);
  ExpectTablelessErpBoundEqualsTable(tracks, track_catalog, erp2d,
                                     std::span<const Point2d>(track_segment));

  QueryStats plain_stats;
  const std::vector<ObjectId> plain =
      scan.RangeQuery(PlainQuery(erp, segment), epsilon, &plain_stats);
  executed_->exchange(0);

  QueryStats pruned_stats;
  const std::vector<ObjectId> pruned =
      scan.RangeQuery(CascadeQuery(erp, segment), epsilon, &pruned_stats);
  const int64_t pruned_executed = executed_->exchange(0);

  EXPECT_EQ(plain, pruned);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(pruned_stats.distance_computations, num_windows());
  EXPECT_EQ(pruned_executed, num_windows() - pruned_stats.lower_bound_pruned);
  // The sum bound is the whole cascade: every prune is an ERP prune.
  EXPECT_GT(pruned_stats.lower_bound_pruned, 0);
  EXPECT_EQ(pruned_stats.lb_erp_pruned, pruned_stats.lower_bound_pruned);
  EXPECT_EQ(pruned_stats.lb_kim_pruned, 0);
}

TEST_F(CascadeScanTest, NoFalseDismissalsIn200RandomTrials) {
  // Property battery: across random segments and epsilons — including
  // near-zero epsilons where rounding at the cutoff would show — the
  // cascaded scan returns exactly the plain scan's hit set, for both
  // distances.
  Init(/*seed=*/97, /*num_seqs=*/5, /*seq_len=*/48, /*l=*/8);
  const LinearScan scan(num_windows());
  const DtwDistance1D dtw;
  const ErpDistance1D erp;
  Rng rng(98);
  for (int trial = 0; trial < 200; ++trial) {
    // Half the segments are perturbed database windows, so true hits
    // exist right at the decision boundary.
    std::vector<double> segment;
    if (rng.NextBool(0.5)) {
      const std::span<const double> donor = Window(static_cast<ObjectId>(
          rng.NextBounded(static_cast<uint64_t>(num_windows()))));
      segment.assign(donor.begin(), donor.end());
      for (double& v : segment) v += rng.NextDouble(-0.3, 0.3);
    } else {
      segment = RandomSeries(&rng, 8, 0.0, 10.0);
    }
    const double epsilon = rng.NextDouble(0.0, 6.0);
    const SequenceDistance<double>& dist =
        (trial % 2 == 0) ? static_cast<const SequenceDistance<double>&>(dtw)
                         : erp;
    const std::vector<ObjectId> plain =
        scan.RangeQuery(PlainQuery(dist, segment), epsilon, nullptr);
    const std::vector<ObjectId> pruned =
        scan.RangeQuery(CascadeQuery(dist, segment), epsilon, nullptr);
    ASSERT_EQ(plain, pruned) << "trial=" << trial << " epsilon=" << epsilon;
  }
}

TEST_F(CascadeScanTest, BatchedEvaluatorMatchesPerIdScanAcrossBlocks) {
  // 20 sequences x 15 windows = 300: scans over the first n windows
  // straddle the scan's 256-id block. For DTW (vertical SIMD kernel) and
  // ERP, with no bound, the envelope-only cascade and the full cascade,
  // the batched payload must return the per-id scan's hits and stats and
  // evaluate exactly the windows it evaluated — once each, only through
  // the batch path.
  Init(/*seed=*/102, /*num_seqs=*/20, /*seq_len=*/120, /*l=*/8);
  ASSERT_EQ(num_windows(), 300);
  const DtwDistance1D dtw;
  const ErpDistance1D erp;
  const std::span<const double> segment = Window(41);
  const std::vector<const SequenceDistance<double>*> dists = {&dtw, &erp};

  // The evaluator's contract value by value: bitwise the per-id
  // function, over more ids than one gather chunk holds.
  for (const SequenceDistance<double>* dist : dists) {
    const WindowOracle<double> oracle(db_, *catalog_, *dist);
    const QueryDistanceFn fn = oracle.SegmentQuery(segment);
    std::vector<ObjectId> ids;
    for (ObjectId id = num_windows() - 1; id >= 0; --id) ids.push_back(id);
    std::vector<double> out(ids.size());
    oracle.SegmentQueryMany(segment)(ids, out.data());
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_BITEQ(out[i], fn(ids[i])) << dist->name() << " window " << ids[i];
    }
  }

  // epsilon 0 admits only the segment's own window, at distance exactly
  // 0: a batched value off by one ulp would drop it.
  for (const double epsilon : {0.0, 2.0}) {
    for (const int32_t n : {1, 255, 256, 257, 300}) {
      const LinearScan scan(n);
      for (const SequenceDistance<double>* dist : dists) {
        // {bound, with_features}; ERP has no bound without features.
        for (const auto& [bound, features] :
             {std::pair{false, false}, std::pair{true, false},
              std::pair{true, true}}) {
          if (dist == &erp && bound && !features) continue;
          SCOPED_TRACE(::testing::Message()
                       << "epsilon=" << epsilon << " n=" << n
                       << " dist=" << dist->name() << " bound=" << bound
                       << " features=" << features);
          QueryStats want_stats;
          const std::vector<ObjectId> want = scan.RangeQuery(
              PayloadQuery(*dist, segment, bound, features, /*many=*/false),
              epsilon, &want_stats);
          const std::vector<int64_t> want_calls = Take(per_id_.get());
          if (n > 41) EXPECT_FALSE(want.empty());  // the segment's own window
          if (n > 1 && bound) EXPECT_GT(want_stats.lower_bound_pruned, 0);

          QueryStats got_stats;
          const std::vector<ObjectId> got = scan.RangeQuery(
              PayloadQuery(*dist, segment, bound, features, /*many=*/true),
              epsilon, &got_stats);
          EXPECT_EQ(got, want);
          ExpectScanStatsEqual(got_stats, want_stats);
          EXPECT_EQ(Take(batched_.get()), want_calls);
          EXPECT_EQ(Take(per_id_.get()),
                    std::vector<int64_t>(static_cast<size_t>(num_windows())));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Routed cells: payload rebinding keeps pruning live and collapses the
// scattered member set into one adjacent run.

using CascadeRoutedTest = CascadeWindowTest;

TEST_F(CascadeRoutedTest, RebindingKeepsPruningLiveInsideProbedCells) {
  Init(/*seed=*/99, /*num_seqs=*/6, /*seq_len=*/80, /*l=*/8);
  const ErpDistance1D erp;  // routing needs a metric distance
  const WindowOracle<double> oracle(db_, *catalog_, erp);
  PartitionedIndexOptions options;
  options.kind = PartitionKind::kKCenter;
  options.num_parts = 4;
  auto routed = PartitionedIndex::Build(
      oracle,
      [](const DistanceOracle& cell_oracle, int32_t) {
        return Result<std::unique_ptr<RangeIndex>>(
            std::make_unique<LinearScan>(cell_oracle.size()));
      },
      options);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();

  const LinearScan monolithic(num_windows());
  const std::span<const double> segment = Window(17);
  const double epsilon = 2.0;

  const std::vector<ObjectId> expected =
      monolithic.RangeQuery(PlainQuery(erp, segment), epsilon, nullptr);
  ASSERT_FALSE(expected.empty());

  QueryStats stats;
  std::vector<ObjectId> got = routed.value()->RangeQuery(
      CascadeQuery(erp, segment), epsilon, &stats);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  // The cascade was rebound to each probed cell's payload, so pruning —
  // with its ERP attribution — stays live under routing.
  EXPECT_GT(stats.lower_bound_pruned, 0);
  EXPECT_EQ(stats.lb_erp_pruned, stats.lower_bound_pruned);
}

TEST_F(CascadeRoutedTest, BatchedEvaluatorRidesThroughCellMemberMaps) {
  // A routed cell's scan sees scattered members through MemberQuery: the
  // evaluator's ids translate like the function's, with and without the
  // rebound cascade, and nothing observable moves. Routing distances to
  // the pivots stay per-id calls, so each window's total evaluations —
  // per-id plus batched — must match the per-id run.
  Init(/*seed=*/103, /*num_seqs=*/24, /*seq_len=*/120, /*l=*/8);
  const ErpDistance1D erp;
  const WindowOracle<double> oracle(db_, *catalog_, erp);
  PartitionedIndexOptions options;
  options.kind = PartitionKind::kKCenter;
  options.num_parts = 4;
  auto routed = PartitionedIndex::Build(
      oracle,
      [](const DistanceOracle& cell_oracle, int32_t) {
        return Result<std::unique_ptr<RangeIndex>>(
            std::make_unique<LinearScan>(cell_oracle.size()));
      },
      options);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  const std::span<const double> segment = Window(57);
  const double epsilon = 2.0;
  for (const bool bound : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "bound=" << bound);
    QueryStats want_stats;
    std::vector<ObjectId> want = routed.value()->RangeQuery(
        PayloadQuery(erp, segment, bound, /*with_features=*/true,
                     /*many=*/false),
        epsilon, &want_stats);
    const std::vector<int64_t> want_calls = Take(per_id_.get());

    QueryStats got_stats;
    std::vector<ObjectId> got = routed.value()->RangeQuery(
        PayloadQuery(erp, segment, bound, /*with_features=*/true,
                     /*many=*/true),
        epsilon, &got_stats);
    EXPECT_EQ(got, want);
    ASSERT_FALSE(got.empty());
    ExpectScanStatsEqual(got_stats, want_stats);
    EXPECT_GT(got_stats.cells_probed, 0);
    const std::vector<int64_t> batched = Take(batched_.get());
    const std::vector<int64_t> per_id = Take(per_id_.get());
    int64_t batched_total = 0;
    for (size_t w = 0; w < batched.size(); ++w) {
      EXPECT_EQ(batched[w] + per_id[w], want_calls[w]) << "window " << w;
      EXPECT_LE(batched[w], 1) << "window " << w;
      batched_total += batched[w];
    }
    EXPECT_GT(batched_total, 0);
  }
}

TEST_F(CascadeRoutedTest, BoundCloneCollapsesScatteredMembersToOneRun) {
  Init(/*seed=*/100, /*num_seqs=*/4, /*seq_len=*/40, /*l=*/8);
  Rng rng(101);
  const std::vector<double> segment = RandomSeries(&rng, 8, 0.0, 10.0);
  const auto parent =
      LbCascade::MakeDtw(db_, *catalog_, segment, features_);

  // A routed-cell-like member set: every other window, ascending —
  // scattered, so the global catalog decomposes it into one run per
  // member rather than one per sequence.
  std::vector<ObjectId> members;
  for (ObjectId id = 0; id < num_windows(); id += 2) members.push_back(id);
  const auto count = static_cast<int32_t>(members.size());
  ASSERT_GT(count, 4);

  const auto payload = MakeWindowLbPayloads(db_, *catalog_, members);
  const auto bound = std::dynamic_pointer_cast<const LbCascade>(
      parent->BindTo(payload));
  ASSERT_NE(bound, nullptr);

  // The regression observable: the payload permutation makes the whole
  // block ONE memory-adjacent strided run, while the unbound cascade
  // over the full catalog still decomposes into one run per sequence.
  EXPECT_EQ(bound->AdjacentRuns(0, count), 1);
  EXPECT_EQ(parent->AdjacentRuns(0, num_windows()), 4);

  // And the permutation is value-invisible: the clone's bound for local
  // id i is bitwise the parent's bound for members[i].
  std::vector<double> local(static_cast<size_t>(count));
  bound->LowerBoundBlock(0, count, kInf, local.data());
  for (int32_t i = 0; i < count; ++i) {
    double global = 0.0;
    parent->LowerBoundBlock(members[static_cast<size_t>(i)], 1, kInf,
                            &global);
    ASSERT_BITEQ(local[static_cast<size_t>(i)], global);
  }
}

// ---------------------------------------------------------------------------
// Matcher pipeline: the knob is invisible in matches AND stats across
// threads, shards and routed cells.

struct CascadeRun {
  std::vector<SubsequenceMatch> matches;
  MatchQueryStats stats;
};

CascadeRun RunMatcher(const SequenceDatabase<double>& db,
                      const SequenceDistance<double>& dist,
                      const std::vector<double>& query, double epsilon,
                      bool prefilter, int32_t threads, int32_t shards,
                      int32_t cells) {
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 1;
  options.index_kind = IndexKind::kLinearScan;
  options.lb_prefilter = prefilter;
  options.exec.num_threads = threads;
  options.exec.num_shards = shards;
  options.exec.routing_cells = cells;
  auto matcher = SubsequenceMatcher<double>::Build(db, dist, options);
  EXPECT_TRUE(matcher.ok()) << matcher.status().message();
  CascadeRun run;
  auto result = matcher.value()->RangeSearch(query, epsilon, &run.stats);
  EXPECT_TRUE(result.ok()) << result.status().message();
  run.matches = std::move(result).ValueOrDie();
  return run;
}

void ExpectRunsEqual(const CascadeRun& run, const CascadeRun& reference) {
  ASSERT_EQ(run.matches.size(), reference.matches.size());
  for (size_t i = 0; i < run.matches.size(); ++i) {
    EXPECT_EQ(run.matches[i], reference.matches[i]);
    EXPECT_BITEQ(run.matches[i].distance, reference.matches[i].distance);
  }
  EXPECT_EQ(run.stats.segments, reference.stats.segments);
  EXPECT_EQ(run.stats.filter_computations,
            reference.stats.filter_computations);
  EXPECT_EQ(run.stats.hits, reference.stats.hits);
  EXPECT_EQ(run.stats.chains, reference.stats.chains);
  EXPECT_EQ(run.stats.verifications, reference.stats.verifications);
}

SequenceDatabase<double> CascadePipelineDb(Rng* rng) {
  SequenceDatabase<double> db;
  for (int s = 0; s < 6; ++s) {
    db.Add(Sequence<double>(RandomSeries(rng, 80)));
  }
  return db;
}

std::vector<double> CascadePipelineQuery(Rng* rng,
                                         const SequenceDatabase<double>& db) {
  // Stitched from database material so real matches exist.
  std::vector<double> query = RandomSeries(rng, 10);
  const std::span<const double> donor = db.at(1).view();
  query.insert(query.end(), donor.begin(), donor.begin() + 24);
  return query;
}

TEST(CascadeMatcherTest, DtwKnobInvisibleAcrossThreadsAndShards) {
  Rng rng(505);
  const SequenceDatabase<double> db = CascadePipelineDb(&rng);
  const std::vector<double> query = CascadePipelineQuery(&rng, db);
  const DtwDistance1D dtw;
  const double epsilon = 2.5;

  const CascadeRun reference =
      RunMatcher(db, dtw, query, epsilon, /*prefilter=*/false,
                 /*threads=*/1, /*shards=*/1, /*cells=*/0);
  ASSERT_FALSE(reference.matches.empty());
  for (const bool prefilter : {false, true}) {
    for (const int32_t threads : {1, 8}) {
      for (const int32_t shards : {1, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << "prefilter=" << prefilter << " threads=" << threads
                     << " shards=" << shards);
        ExpectRunsEqual(RunMatcher(db, dtw, query, epsilon, prefilter,
                                   threads, shards, /*cells=*/0),
                        reference);
      }
    }
  }
}

TEST(CascadeMatcherTest, ErpKnobInvisibleAcrossThreadsAndRoutedCells) {
  // ERP is a metric, so the same pipeline also runs routed — where the
  // knob must stay invisible at FIXED cell count (routing itself is the
  // one sanctioned filter_computations change, so runs are compared
  // against a reference with the same cells).
  Rng rng(606);
  const SequenceDatabase<double> db = CascadePipelineDb(&rng);
  const std::vector<double> query = CascadePipelineQuery(&rng, db);
  const ErpDistance1D erp;
  const double epsilon = 2.5;

  for (const int32_t cells : {0, 4}) {
    const CascadeRun reference =
        RunMatcher(db, erp, query, epsilon, /*prefilter=*/false,
                   /*threads=*/1, /*shards=*/1, cells);
    ASSERT_FALSE(reference.matches.empty());
    for (const bool prefilter : {false, true}) {
      for (const int32_t threads : {1, 8}) {
        SCOPED_TRACE(::testing::Message()
                     << "cells=" << cells << " prefilter=" << prefilter
                     << " threads=" << threads);
        ExpectRunsEqual(RunMatcher(db, erp, query, epsilon, prefilter,
                                   threads, /*shards=*/1, cells),
                        reference);
      }
    }
  }
}

TEST(CascadeMatcherTest, ErpSumBoundKeepsTrueHitsOfLargeNearlyCancellingSums) {
  // 1-D ERP over a linear scan (lambda 20, lambda0 2): one sequence of
  // 40 values uniform in [5e5, 1e6], and as the query that sequence with
  // one element raised by 3 ulps. The true hits lie a few ulps away, so
  // epsilon 1e-9 keeps them, yet the sums' rounding put the unslackened
  // sum bound past the padded cutoff of some of them: without the slack,
  // 11 of these 100 trials returned 3 segment hits instead of 4 with the
  // prefilter on, and RangeSearch 67 matches instead of 131 in 6.
  const ErpDistance1D erp;
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = IndexKind::kLinearScan;
  options.exec.num_threads = 1;
  MatcherOptions plain = options;
  plain.lb_prefilter = false;
  const double epsilon = 1e-9;
  for (uint64_t trial = 0; trial < 100; ++trial) {
    Rng rng(9000 + trial);
    const std::vector<double> x = RandomSeries(&rng, 40, 5e5, 1e6);
    std::vector<double> query = x;
    double& raised = query[rng.NextBounded(query.size())];
    for (int k = 0; k < 3; ++k) raised = std::nextafter(raised, kInf);
    SequenceDatabase<double> db;
    db.Add(Sequence<double>(x));
    auto pruned = SubsequenceMatcher<double>::Build(db, erp, options);
    auto unpruned = SubsequenceMatcher<double>::Build(db, erp, plain);
    ASSERT_TRUE(pruned.ok() && unpruned.ok());
    const std::vector<SegmentHit> want =
        unpruned.value()->FilterSegments(query, epsilon);
    const std::vector<SegmentHit> got =
        pruned.value()->FilterSegments(query, epsilon);
    ASSERT_FALSE(want.empty());
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].window, want[i].window) << "trial " << trial;
      ASSERT_EQ(got[i].query_segment, want[i].query_segment)
          << "trial " << trial;
      ASSERT_BITEQ(got[i].distance, want[i].distance);
    }
  }
}

}  // namespace
}  // namespace subseq
