// Differential sweep of the step-4 filter against brute force: the
// independent ground truth for the scan's lower-bound cascade and for the
// tree indexes' walks.
//
// For unconstrained 1-D DTW, 1-D ERP and 2-D ERP, lambda in {8, 20},
// lambda0 in {0, 1, 3} and every segment of seeded mutated cuts,
// FilterSegments must return exactly the live windows whose exact
// distance to the segment is <= epsilon, with those distances, with the
// prefilter on and off alike. The layouts: a monolithic linear scan, 4
// contiguous shards, 4 routed cells (ERP only: routing needs a metric),
// and a live delta over a reference-net base (a linear-scan base for
// DTW, which no metric index accepts) after WithAppended, WithRetired
// and Compact. Off-length segments (length != l) must see pruning
// wherever a scan runs, so the sweep fails if no bound gets attached to
// them.
//
// The tree suite runs the same check over the reference net, the cover
// tree and the MV index, each monolithic, in 4 shards and in 4 routed
// cells, plus a live delta over each. 1-D and 2-D ERP carry the sum
// bound, so every reference-net layout must also gate base nodes — the
// bound must reach the walk through a shard offset and through a routed
// cell's rebinding. Levenshtein and weighted edit over PROTEINS-like
// strings and 1-D / 2-D discrete Frechet have no bound and serve as
// controls: without a delta they must prune nothing. Every tree layout
// also runs step 4 twice, through BatchFilterWindows' per-start units
// (a prefix memo answers their node calls) and through a direct,
// memo-free call of the base index: the two must agree on live hits and
// on per-segment billing, and the memo must answer calls wherever
// lambda0 > 0 and none at lambda0 = 0.
//
// A last suite pins the feature tables to the epochs: a derived epoch
// shares its base's table and builds one over its delta windows only.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "subseq/core/rng.h"
#include "subseq/data/protein_gen.h"
#include "subseq/data/song_gen.h"
#include "subseq/data/trajectory_gen.h"
#include "subseq/distance/dtw.h"
#include "subseq/distance/erp.h"
#include "subseq/distance/frechet.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/distance/weighted_edit.h"
#include "subseq/exec/stats_sink.h"
#include "subseq/frame/lb_prefilter.h"
#include "subseq/frame/matcher.h"

namespace subseq {
namespace {

template <typename T>
using MatcherPtr = std::unique_ptr<SubsequenceMatcher<T>>;

template <typename T>
MatcherPtr<T> OrDie(Result<MatcherPtr<T>> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

double Mutate(Rng* rng, double x) { return x + rng->NextDouble(-1.5, 1.5); }

Point2d Mutate(Rng* rng, Point2d p) {
  return Point2d{p.x + rng->NextDouble(-1.5, 1.5),
                 p.y + rng->NextDouble(-1.5, 1.5)};
}

char Mutate(Rng* rng, char) {
  constexpr std::string_view kAminoAcids = "ACDEFGHIKLMNPQRSTVWY";
  return kAminoAcids[rng->NextBounded(kAminoAcids.size())];
}

// A cut of `length` elements from sequence `seq`, every fifth element
// (on average) perturbed.
template <typename T>
std::vector<T> MutatedCut(const SequenceDatabase<T>& db, SeqId seq,
                          int32_t length, Rng* rng) {
  const Sequence<T>& s = db.at(seq);
  const int32_t offset = static_cast<int32_t>(
      rng->NextBounded(static_cast<uint64_t>(s.size() - length + 1)));
  const auto view = s.Subsequence(Interval{offset, offset + length});
  std::vector<T> cut(view.begin(), view.end());
  for (int32_t e = 0; e < length / 5; ++e) {
    T& x = cut[rng->NextBounded(static_cast<uint64_t>(length))];
    x = Mutate(rng, x);
  }
  return cut;
}

// Every live window within epsilon of each segment, by exact distance,
// in FilterSegments' canonical order (segment order, ascending window).
template <typename T>
std::vector<SegmentHit> BruteForceHits(const SubsequenceMatcher<T>& matcher,
                                       std::span<const T> query,
                                       double epsilon) {
  const WindowCatalog& catalog = matcher.catalog();
  const SequenceDatabase<T>& db = matcher.database();
  const int32_t l = catalog.window_length();
  std::vector<SegmentHit> out;
  for (const Interval& seg :
       ExtractQuerySegments(static_cast<int32_t>(query.size()),
                            l - matcher.options().lambda0,
                            l + matcher.options().lambda0)) {
    const auto view = query.subspan(static_cast<size_t>(seg.begin),
                                    static_cast<size_t>(seg.length()));
    for (ObjectId w = 0; w < catalog.num_windows(); ++w) {
      const WindowRef& ref = catalog.at(w);
      if (db.is_retired(ref.seq)) continue;
      const double d = matcher.distance().Compute(
          view, db.at(ref.seq).Subsequence(ref.span));
      if (d <= epsilon) out.push_back(SegmentHit{seg, w, d});
    }
  }
  return out;
}

void ExpectHitsEqual(const std::vector<SegmentHit>& got,
                     const std::vector<SegmentHit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].query_segment, want[i].query_segment) << "hit " << i;
    ASSERT_EQ(got[i].window, want[i].window) << "hit " << i;
    ASSERT_EQ(got[i].distance, want[i].distance) << "hit " << i;
  }
}

// The scan's prunes on the segments whose length is not the window
// length — the segments that had no bound before LB_Kim and the sum
// bounds covered every length.
template <typename T>
int64_t OffLengthPrunes(const SubsequenceMatcher<T>& matcher,
                        std::span<const T> query, double epsilon) {
  const SegmentQueryBatch batch = matcher.MakeSegmentQueries(query);
  std::vector<QueryStats> per_query(batch.queries.size());
  matcher.BatchFilterWindows(batch.queries, epsilon, matcher.options().exec,
                             nullptr, per_query.data());
  int64_t pruned = 0;
  for (size_t s = 0; s < batch.segments.size(); ++s) {
    if (batch.segments[s].length() != matcher.window_length()) {
      pruned += per_query[s].lower_bound_pruned;
    }
  }
  return pruned;
}

// One layout's pair of matchers, the prefilter on and off.
template <typename T>
struct Pair {
  std::string name;
  MatcherPtr<T> on;
  MatcherPtr<T> off;
  bool scanned;  // a linear scan runs, so off-length prunes must show
};

template <typename T>
struct SweepCase {
  SequenceDatabase<T> db;
  std::vector<Sequence<T>> appended;  // ingested by the live layouts
  const SequenceDistance<T>* dist;
  bool metric;
  std::vector<double> epsilons;
};

// The layouts of one sweep over base index `kind`: monolithic, 4
// contiguous shards, 4 routed cells (metric distances only: routing needs
// a metric), then a live delta — appends, a retire of a base sequence,
// and the merge. A linear-scan sweep over a metric distance runs its live
// layouts over a reference-net base, so only the delta is scanned there.
template <typename T>
std::vector<Pair<T>> Layouts(const SweepCase<T>& c, int32_t lambda,
                             int32_t lambda0,
                             IndexKind kind = IndexKind::kLinearScan) {
  MatcherOptions base;
  base.lambda = lambda;
  base.lambda0 = lambda0;
  base.index_kind = kind;
  base.exec.num_threads = 2;
  const auto both = [&](const std::string& name, MatcherOptions options,
                        bool scanned) {
    MatcherOptions off = options;
    off.lb_prefilter = false;
    return Pair<T>{name, OrDie(SubsequenceMatcher<T>::Build(c.db, *c.dist,
                                                            options)),
                   OrDie(SubsequenceMatcher<T>::Build(c.db, *c.dist, off)),
                   scanned};
  };
  const bool scan_base = kind == IndexKind::kLinearScan;
  std::vector<Pair<T>> out;
  out.push_back(both("monolithic", base, scan_base));
  MatcherOptions shards = base;
  shards.exec.num_shards = 4;
  out.push_back(both("shards=4", shards, scan_base));
  if (c.metric) {
    MatcherOptions routed = base;
    routed.exec.routing_cells = 4;
    out.push_back(both("routing_cells=4", routed, scan_base));
  }

  MatcherOptions live = base;
  if (scan_base && c.metric) live.index_kind = IndexKind::kReferenceNet;
  Pair<T> appended = both("appended", live, true);
  for (const Sequence<T>& seq : c.appended) {
    appended.on = OrDie(appended.on->WithAppended(seq));
    appended.off = OrDie(appended.off->WithAppended(seq));
  }
  Pair<T> retired{"retired", OrDie(appended.on->WithRetired(1)),
                  OrDie(appended.off->WithRetired(1)), true};
  Pair<T> compacted{"compacted", OrDie(retired.on->Compact()),
                    OrDie(retired.off->Compact()),
                    live.index_kind == IndexKind::kLinearScan};
  out.push_back(std::move(retired));
  out.push_back(std::move(compacted));
  out.push_back(std::move(appended));
  return out;
}

// FilterSegments with the prefilter on and off must both return the
// brute-force hits of `query`, and bill the same filter work. Returns the
// number of hits.
template <typename T>
int64_t ExpectBruteForceHits(const Pair<T>& layout, std::span<const T> query,
                             double epsilon) {
  const std::vector<SegmentHit> want =
      BruteForceHits(*layout.on, query, epsilon);
  MatchQueryStats on_stats;
  MatchQueryStats off_stats;
  ExpectHitsEqual(layout.on->FilterSegments(query, epsilon, &on_stats), want);
  ExpectHitsEqual(layout.off->FilterSegments(query, epsilon, &off_stats),
                  want);
  EXPECT_EQ(on_stats.filter_computations, off_stats.filter_computations);
  return static_cast<int64_t>(want.size());
}

template <typename T>
void Sweep(const SweepCase<T>& c, uint64_t seed) {
  Rng rng(seed);
  for (const int32_t lambda : {8, 20}) {
    for (const int32_t lambda0 : {0, 1, 3}) {
      std::vector<Pair<T>> layouts = Layouts(c, lambda, lambda0);
      // Cuts from a base sequence and from an appended one, so hits land
      // in the base and in the live delta.
      const SequenceDatabase<T>& all = layouts.back().on->database();
      const int32_t length = lambda + 2 * lambda0 + 6;
      const std::vector<std::vector<T>> queries = {
          MutatedCut(all, 0, length, &rng),
          MutatedCut(all, all.size() - 1, length, &rng)};
      for (Pair<T>& layout : layouts) {
        int64_t off_length_prunes = 0;
        int64_t hits = 0;
        for (const std::vector<T>& query : queries) {
          for (const double epsilon : c.epsilons) {
            SCOPED_TRACE(::testing::Message()
                         << c.dist->name() << " lambda=" << lambda
                         << " lambda0=" << lambda0 << " " << layout.name
                         << " epsilon=" << epsilon);
            const std::span<const T> q(query);
            hits += ExpectBruteForceHits(layout, q, epsilon);
            off_length_prunes += OffLengthPrunes(*layout.on, q, epsilon);
          }
        }
        EXPECT_GT(hits, 0) << layout.name;
        if (lambda0 > 0 && layout.scanned) {
          EXPECT_GT(off_length_prunes, 0)
              << c.dist->name() << " lambda=" << lambda
              << " lambda0=" << lambda0 << " " << layout.name;
        }
      }
    }
  }
}

SweepCase<double> SeriesCase(const SequenceDistance<double>& dist,
                             bool metric, std::vector<double> epsilons) {
  SongGenerator gen(SongGenOptions{.mean_length = 80, .seed = 4101});
  SweepCase<double> c{gen.GenerateDatabase(10), {}, &dist, metric,
                      std::move(epsilons)};
  for (int i = 0; i < 2; ++i) c.appended.push_back(gen.Generate());
  return c;
}

TEST(CascadeDifferentialTest, UnconstrainedDtwMatchesBruteForce) {
  const DtwDistance1D dtw;
  Sweep(SeriesCase(dtw, /*metric=*/false, {1.0, 3.0}), 4102);
}

TEST(CascadeDifferentialTest, Erp1dMatchesBruteForce) {
  const ErpDistance1D erp;
  Sweep(SeriesCase(erp, /*metric=*/true, {2.0, 5.0}), 4103);
}

TEST(CascadeDifferentialTest, Erp2dMatchesBruteForce) {
  const ErpDistance2D erp;
  TrajectoryGenerator gen(
      TrajectoryGenOptions{.mean_length = 80, .seed = 4104});
  SweepCase<Point2d> c{gen.GenerateDatabase(10), {}, &erp, true, {3.0, 8.0}};
  for (int i = 0; i < 2; ++i) c.appended.push_back(gen.Generate());
  Sweep(c, 4105);
}

// ---------------------------------------------------------------------------
// Step 4 over the tree indexes.

// Step 4 over `query`'s segments, through BatchFilterWindows (one unit
// per query start, answered from a prefix memo) and through a direct,
// memo-free call of the base index on the same batch. The direct call's
// live hits must equal the filter's base hits, and its billing the
// filter's base billing, per segment. Over a tree base only a live delta
// is scanned.
struct TreeStep4 {
  int64_t base_gates = 0;      // gated nodes of the direct call
  int64_t filter_prunes = 0;   // lower_bound_pruned of the whole filter
  int64_t memo_hits = 0;       // prefix_memo_hits of the filter
};

template <typename T>
TreeStep4 CompareWithDirectCall(const SubsequenceMatcher<T>& matcher,
                                std::span<const T> query, double epsilon) {
  const SegmentQueryBatch batch = matcher.MakeSegmentQueries(query);
  std::vector<QueryStats> direct(batch.queries.size());
  std::vector<std::vector<ObjectId>> want = matcher.index().BatchRangeQuery(
      batch.queries, epsilon, matcher.options().exec, nullptr, direct.data());
  std::vector<QueryStats> filter(batch.queries.size());
  StatsSink sink;
  std::vector<std::vector<ObjectId>> got = matcher.BatchFilterWindows(
      batch.queries, epsilon, matcher.options().exec, &sink, filter.data());
  const auto live_base = [&matcher](std::vector<ObjectId> ids) {
    std::erase_if(ids, [&matcher](ObjectId w) {
      return w >= matcher.base_windows() ||
             matcher.database().is_retired(matcher.catalog().at(w).seq);
    });
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  TreeStep4 out;
  for (size_t s = 0; s < batch.queries.size(); ++s) {
    SCOPED_TRACE(::testing::Message() << "segment " << s);
    EXPECT_EQ(live_base(got[s]), live_base(want[s]));
    EXPECT_EQ(direct[s].prefix_memo_hits, 0);
    EXPECT_EQ(filter[s].distance_computations -
                  filter[s].delta_windows_probed,
              direct[s].distance_computations);
    EXPECT_EQ(filter[s].cells_probed, direct[s].cells_probed);
    EXPECT_EQ(filter[s].cells_skipped, direct[s].cells_skipped);
    if (matcher.delta_windows() == 0) {
      EXPECT_EQ(filter[s].lower_bound_pruned, direct[s].lower_bound_pruned);
      EXPECT_EQ(filter[s].lb_erp_pruned, direct[s].lb_erp_pruned);
    }
    out.base_gates += direct[s].lower_bound_pruned;
    out.filter_prunes += filter[s].lower_bound_pruned;
    out.memo_hits += filter[s].prefix_memo_hits;
  }
  EXPECT_EQ(sink.prefix_memo_hits(), out.memo_hits);
  return out;
}

template <typename T>
void TreeSweep(const SweepCase<T>& c, IndexKind kind, bool bounded,
               uint64_t seed) {
  Rng rng(seed);
  for (const auto& [lambda, lambda0] :
       {std::pair<int32_t, int32_t>{8, 1}, {20, 0}, {20, 2}}) {
    std::vector<Pair<T>> layouts = Layouts(c, lambda, lambda0, kind);
    const SequenceDatabase<T>& all = layouts.back().on->database();
    const int32_t length = lambda + 2 * lambda0 + 6;
    const std::vector<std::vector<T>> queries = {
        MutatedCut(all, 0, length, &rng),
        MutatedCut(all, all.size() - 1, length, &rng)};
    for (const Pair<T>& layout : layouts) {
      SCOPED_TRACE(::testing::Message()
                   << c.dist->name() << " lambda=" << lambda
                   << " lambda0=" << lambda0 << " " << layout.name);
      int64_t base_gates = 0;
      int64_t memo_hits = 0;
      int64_t hits = 0;
      for (const std::vector<T>& query : queries) {
        for (const double epsilon : c.epsilons) {
          SCOPED_TRACE(::testing::Message() << "epsilon=" << epsilon);
          const std::span<const T> q(query);
          hits += ExpectBruteForceHits(layout, q, epsilon);
          const TreeStep4 on = CompareWithDirectCall(*layout.on, q, epsilon);
          memo_hits += on.memo_hits;
          memo_hits += CompareWithDirectCall(*layout.off, q, epsilon).memo_hits;
          if (!bounded && !layout.scanned) {
            EXPECT_EQ(on.filter_prunes, 0);
          }
          base_gates += on.base_gates;
        }
      }
      EXPECT_GT(hits, 0);
      if (bounded && kind == IndexKind::kReferenceNet) {
        EXPECT_GT(base_gates, 0) << "the sum bound never reached the walk";
      }
      // Segments that share a start share one DP per window.
      if (lambda0 > 0) {
        EXPECT_GT(memo_hits, 0);
      } else {
        EXPECT_EQ(memo_hits, 0);
      }
    }
  }
}

constexpr IndexKind kTreeKinds[] = {IndexKind::kReferenceNet,
                                    IndexKind::kCoverTree,
                                    IndexKind::kMvIndex};

TEST(CascadeTreeDifferentialTest, Erp1dMatchesBruteForceOnEveryTree) {
  const ErpDistance1D erp;
  const SweepCase<double> c = SeriesCase(erp, /*metric=*/true, {2.0, 5.0});
  for (const IndexKind kind : kTreeKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    TreeSweep(c, kind, /*bounded=*/true, 4111);
  }
}

TEST(CascadeTreeDifferentialTest, Erp2dMatchesBruteForceOnEveryTree) {
  const ErpDistance2D erp;
  TrajectoryGenerator gen(
      TrajectoryGenOptions{.mean_length = 80, .seed = 4112});
  SweepCase<Point2d> c{gen.GenerateDatabase(10), {}, &erp, true, {3.0, 8.0}};
  for (int i = 0; i < 2; ++i) c.appended.push_back(gen.Generate());
  for (const IndexKind kind : kTreeKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    TreeSweep(c, kind, /*bounded=*/true, 4113);
  }
}

// Levenshtein over PROTEINS-like strings and 2-D discrete Frechet have no
// bound: controls for the gate, which must prune nothing without a delta.
TEST(CascadeTreeDifferentialTest, UnboundedControlsOverEveryTree) {
  const LevenshteinDistance<char> lev;
  ProteinGenerator proteins(ProteinGenOptions{.mean_length = 80, .seed = 4114});
  SweepCase<char> strings{proteins.GenerateDatabase(10), {}, &lev, true,
                          {1.0, 3.0}};
  for (int i = 0; i < 2; ++i) strings.appended.push_back(proteins.Generate());

  const FrechetDistance2D dfd;
  TrajectoryGenerator tracks(
      TrajectoryGenOptions{.mean_length = 80, .seed = 4116});
  SweepCase<Point2d> planar{tracks.GenerateDatabase(10), {}, &dfd, true,
                            {1.0, 3.0}};
  for (int i = 0; i < 2; ++i) planar.appended.push_back(tracks.Generate());
  for (const IndexKind kind : kTreeKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    TreeSweep(strings, kind, /*bounded=*/false, 4115);
    TreeSweep(planar, kind, /*bounded=*/false, 4117);
  }
}

TEST(CascadeTreeDifferentialTest, Frechet1dMatchesBruteForceOnEveryTree) {
  const FrechetDistance1D dfd;
  const SweepCase<double> c = SeriesCase(dfd, /*metric=*/true, {1.0, 2.0});
  for (const IndexKind kind : kTreeKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    TreeSweep(c, kind, /*bounded=*/false, 4118);
  }
}

TEST(CascadeTreeDifferentialTest, WeightedEditMatchesBruteForceOnEveryTree) {
  const WeightedEditDistance edit(SubstitutionCostModel::ProteinClasses());
  ProteinGenerator proteins(ProteinGenOptions{.mean_length = 80, .seed = 4119});
  SweepCase<char> c{proteins.GenerateDatabase(10), {}, &edit, true,
                    {1.0, 2.5}};
  for (int i = 0; i < 2; ++i) c.appended.push_back(proteins.Generate());
  for (const IndexKind kind : kTreeKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    TreeSweep(c, kind, /*bounded=*/false, 4120);
  }
}

// ---------------------------------------------------------------------------
// Feature tables follow the epochs.

template <typename T>
void ExpectTablesFollowEpochs(const SequenceDatabase<T>& db,
                              const std::vector<Sequence<T>>& appended,
                              const SequenceDistance<T>& dist,
                              IndexKind kind) {
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = kind;
  const bool scanned_base = kind == IndexKind::kLinearScan;
  const auto base = OrDie(SubsequenceMatcher<T>::Build(db, dist, options));
  ASSERT_EQ(base->delta_lb_features(), nullptr);
  const LbFeatureTable* base_table = base->base_lb_features();
  if (scanned_base) {
    ASSERT_NE(base_table, nullptr);
    EXPECT_EQ(base_table->first_window, 0);
    EXPECT_EQ(base_table->rows(),
              static_cast<size_t>(base->base_windows()));
  } else {
    EXPECT_EQ(base_table, nullptr);  // a tree never reads one
  }

  MatcherPtr<T> epoch = OrDie(base->WithAppended(appended[0]));
  for (int step = 0; step < 3; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    EXPECT_EQ(epoch->base_lb_features(), base_table);  // shared, not copied
    const LbFeatureTable* delta = epoch->delta_lb_features();
    ASSERT_NE(delta, nullptr);
    EXPECT_EQ(delta->first_window, epoch->base_windows());
    EXPECT_EQ(delta->rows(), static_cast<size_t>(epoch->delta_windows()));
    // Row 0 describes the first delta window.
    const WindowRef& ref = epoch->catalog().at(delta->first_window);
    const std::span<const T> window =
        epoch->database().at(ref.seq).Subsequence(ref.span);
    EXPECT_EQ(delta->sum[0], ComputeErpSumFeatures(window).x);
    epoch = step == 0 ? OrDie(epoch->WithAppended(appended[1]))
                      : OrDie(epoch->WithRetired(step));
  }

  // The merge is a cold build: a new base table iff the base is scanned.
  const auto merged = OrDie(epoch->Compact());
  EXPECT_EQ(merged->delta_lb_features(), nullptr);
  if (scanned_base) {
    ASSERT_NE(merged->base_lb_features(), nullptr);
    EXPECT_NE(merged->base_lb_features(), base_table);
    EXPECT_EQ(merged->base_lb_features()->rows(),
              static_cast<size_t>(merged->catalog().num_windows()));
  } else {
    EXPECT_EQ(merged->base_lb_features(), nullptr);
  }
}

TEST(CascadeEpochTableTest, DerivedEpochsShareTheBaseTableAndOwnTheirDelta) {
  SongGenerator songs(SongGenOptions{.mean_length = 60, .seed = 4106});
  const SequenceDatabase<double> series = songs.GenerateDatabase(12);
  const std::vector<Sequence<double>> more = {songs.Generate(),
                                              songs.Generate()};
  ExpectTablesFollowEpochs(series, more, DtwDistance1D(),
                           IndexKind::kLinearScan);
  ExpectTablesFollowEpochs(series, more, ErpDistance1D(),
                           IndexKind::kLinearScan);
  ExpectTablesFollowEpochs(series, more, ErpDistance1D(),
                           IndexKind::kReferenceNet);

  TrajectoryGenerator tracks(
      TrajectoryGenOptions{.mean_length = 60, .seed = 4107});
  const SequenceDatabase<Point2d> planar = tracks.GenerateDatabase(12);
  const std::vector<Sequence<Point2d>> more_tracks = {tracks.Generate(),
                                                      tracks.Generate()};
  ExpectTablesFollowEpochs(planar, more_tracks, ErpDistance2D(),
                           IndexKind::kLinearScan);
  ExpectTablesFollowEpochs(planar, more_tracks, ErpDistance2D(),
                           IndexKind::kReferenceNet);
}

TEST(CascadeEpochTableTest, NoTableWithoutACascadeOrWithThePrefilterOff) {
  TrajectoryGenerator tracks(
      TrajectoryGenOptions{.mean_length = 60, .seed = 4108});
  const SequenceDatabase<Point2d> planar = tracks.GenerateDatabase(8);
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = IndexKind::kLinearScan;
  // 2-D DTW has no bound, so nothing reads a table.
  const DtwDistance2D dtw;
  auto no_bound =
      OrDie(SubsequenceMatcher<Point2d>::Build(planar, dtw, options));
  EXPECT_EQ(no_bound->base_lb_features(), nullptr);
  EXPECT_EQ(OrDie(no_bound->WithAppended(tracks.Generate()))
                ->delta_lb_features(),
            nullptr);
  options.lb_prefilter = false;
  const ErpDistance2D erp;
  auto off = OrDie(SubsequenceMatcher<Point2d>::Build(planar, erp, options));
  EXPECT_EQ(off->base_lb_features(), nullptr);
  EXPECT_EQ(OrDie(off->WithAppended(tracks.Generate()))->delta_lb_features(),
            nullptr);
}

}  // namespace
}  // namespace subseq
