// The step-4 lower-bound pruning cascade: ordered admissible per-window
// bounds that let step 4 skip most exact DTW/ERP evaluations. Every query
// segment — all 2*lambda0 + 1 segment lengths l - lambda0 .. l + lambda0,
// against windows of length l — gets one wherever its distance has a
// bound. Two readers use it: the linear scan skips candidates (blocks of
// window ids), and the reference-net walk skips the exact call at nodes
// the bound proves inert (one id at a time; metric/reference_net.h).
//
// Stage order (by per-candidate cost, cheapest first — NOT by
// tightness; see distance/lb_kim.h for the counterexample showing
// LB_Kim can exceed LB_Keogh):
//   unconstrained 1-D DTW: LB_Kim (O(1) over precomputed window
//         features, when a feature table is supplied; any segment
//         length) -> LB_Keogh envelope over Kim survivors (l-length
//         segments only: the envelope needs equal lengths);
//   1-D ERP: |sum(Q) - sum(C)| over the window sums (the only stage —
//         LB_Kim and LB_Keogh bound DTW, not ERP);
//   2-D ERP: ||sum(Q) - sum(C)||_2 over the per-window (sum x, sum y).
// Other distances, banded DTW, and element types without a bound
// (strings) get none.
//
// Soundness chain (no false dismissals anywhere): every stage is an
// admissible lower bound of the exact distance — LB_Keogh(c) <=
// DTW_band(q, c) for any band r and equal-length c (Keogh, VLDB 2002;
// r = |q| - 1 covers the matcher's unconstrained DTW), LB_Kim's terms
// each bound DTW at any pair of lengths (distance/lb_kim.h), and the ERP
// sum bound telescopes the triangle inequality of the ground norm
// (distance/lb_erp.h). A reader prunes only when a bound >
// LowerBoundPruneCutoff(t) > t for its threshold t (epsilon for the
// scan); that relative pad absorbs the rounding of the DTW bounds, which
// sum non-negative terms, and the ERP bounds subtract their own
// summation-error slack first, because sums of signed values err
// absolutely, not relatively.
//
// Feature tables follow the epochs (frame/epoch_base.h): a table covers
// one contiguous window-id range [first_window, first_window + rows). A
// base table exists only when the base index is itself a linear scan
// and is shared by every epoch derived from that base; each derived
// epoch builds a table of its own delta windows only. The delta is its
// own LinearScan (ids offset by the base width), so a scan block never
// spans the two and picks its table once. A tree base builds no table:
// the ERP stage computes the sums of a window no table covers from its
// elements, O(l) against the DP's O(l^2), and bitwise equal to the row a
// table would hold. Routed cells read their materialized payloads.
//
// Billing: pruned windows and gated nodes stay counted in
// distance_computations whichever stage cut them (the scan bills every
// candidate it is responsible for, the walk every node it dequeues), so
// the matcher's filter_computations and every determinism invariant —
// sharded == unsharded, cache-on == cache-off, cascade-on == cascade-off
// — hold bit-exactly; QueryStats::lower_bound_pruned reports the work
// actually saved and lb_kim_pruned / lb_erp_pruned attribute it per
// stage.

#ifndef SUBSEQ_FRAME_LB_PREFILTER_H_
#define SUBSEQ_FRAME_LB_PREFILTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "subseq/core/sequence.h"
#include "subseq/distance/distance.h"
#include "subseq/distance/lb_erp.h"
#include "subseq/distance/lb_keogh.h"
#include "subseq/distance/lb_kim.h"
#include "subseq/frame/windowing.h"
#include "subseq/metric/oracle.h"

namespace subseq {

/// Per-window candidate features feeding the cascade's O(1) stages,
/// SoA over a contiguous window-id range of a catalog (or, inside a
/// WindowLbPayloads, over one cell's members). Each array is
/// accumulated element-sequentially per window, the same order
/// LbKimBound / LbErpSumBound use on the query side, so feature
/// arithmetic rounds identically.
struct LbFeatureTable {
  /// Window id of row 0: row i describes window first_window + i.
  ObjectId first_window = 0;
  /// LB_Kim features (scalar series only).
  std::vector<double> first;
  std::vector<double> last;
  std::vector<double> min;
  std::vector<double> max;
  /// ERP sum-bound features (distance/lb_erp.h): the coordinate sums —
  /// sum_y for planar trajectories only — and the absolute-coordinate
  /// sums the rounding slack scales with.
  std::vector<double> sum;
  std::vector<double> sum_y;
  std::vector<double> abs_sum;

  size_t rows() const { return sum.size(); }
};

/// Whether MakeSegmentLowerBound reads a feature table for `dist`:
/// unconstrained 1-D DTW (LB_Kim) and 1-D / 2-D ERP (the sum bound).
/// Callers build tables only when it does. The generic overload says no.
template <typename T>
bool LbFeaturesApply(const SequenceDistance<T>& dist) {
  (void)dist;
  return false;
}
template <>
bool LbFeaturesApply<double>(const SequenceDistance<double>& dist);
template <>
bool LbFeaturesApply<Point2d>(const SequenceDistance<Point2d>& dist);

/// Builds the feature table of windows [begin, end): one O(elements)
/// sequential pass, query-independent, meant to be built once per
/// (db, window range) and shared across queries. Scalar series get the
/// LB_Kim and ERP features, planar trajectories the ERP ones.
std::shared_ptr<const LbFeatureTable> BuildLbFeatureTable(
    const SequenceDatabase<double>& db, const WindowCatalog& catalog,
    ObjectId begin, ObjectId end);
std::shared_ptr<const LbFeatureTable> BuildLbFeatureTable(
    const SequenceDatabase<Point2d>& db, const WindowCatalog& catalog,
    ObjectId begin, ObjectId end);

/// The feature table of every window in the catalog.
template <typename T>
std::shared_ptr<const LbFeatureTable> BuildLbFeatureTable(
    const SequenceDatabase<T>& db, const WindowCatalog& catalog) {
  return BuildLbFeatureTable(db, catalog, 0, catalog.num_windows());
}

/// Cell-contiguous materialization of a member subset's windows: local
/// id i holds members[i]'s features at index i of every feature array
/// and, for scalar series, its window elements at
/// elems[i * window_length]. A cascade bound to this payload sees ONE
/// dense strided run per block — the memory-adjacent-run decomposition
/// that scattered routed-cell ids would otherwise break into per-window
/// fragments.
class WindowLbPayloads final : public LowerBoundPayloads {
 public:
  int32_t count = 0;
  int32_t window_length = 0;
  std::vector<double> elems;  // count * window_length; scalar series only
  LbFeatureTable features;    // per local id
};

/// Materializes the payload of `members` (global window ids, ascending).
std::shared_ptr<const WindowLbPayloads> MakeWindowLbPayloads(
    const SequenceDatabase<double>& db, const WindowCatalog& catalog,
    std::span<const ObjectId> members);
std::shared_ptr<const WindowLbPayloads> MakeWindowLbPayloads(
    const SequenceDatabase<Point2d>& db, const WindowCatalog& catalog,
    std::span<const ObjectId> members);

/// QueryLowerBound over a window catalog: the staged cascade of one
/// query segment against the catalog's fixed-length windows.
///
/// Tables: `features` and the optional `delta_features` cover disjoint
/// window-id ranges (the base epoch's and the live delta's); a block
/// reads the one holding its first id and must lie inside it.
///
/// Candidate access: consecutive window ids of one sequence are
/// memory-adjacent with stride window_length (windows align at offsets
/// 0, l, 2l, ...), so a block of ids decomposes into a few contiguous
/// strided runs and each run feeds the batched envelope kernel directly
/// — no per-window gather. Kim survivors are gathered in groups of four
/// through the same lb_keogh_block4 kernel, with
/// LbKeoghEnvelope::LowerBoundAbandoning as the survivor tail — both
/// bitwise-consistent with the strided path, so pruning decisions are
/// independent of block grouping AND of whether the Kim stage ran.
class LbCascade final : public QueryLowerBound {
 public:
  /// DTW cascade for an unconstrained-DTW segment of any length: LB_Kim
  /// when a table is supplied, then — for a segment of exactly
  /// catalog.window_length() elements — the LB_Keogh envelope, built at
  /// full width. Any other length needs a table (Kim is then the whole
  /// cascade). A block no table covers runs the envelope alone. The
  /// database and catalog must outlive this object.
  static std::shared_ptr<const LbCascade> MakeDtw(
      const SequenceDatabase<double>& db, const WindowCatalog& catalog,
      std::span<const double> segment,
      std::shared_ptr<const LbFeatureTable> features,
      std::shared_ptr<const LbFeatureTable> delta_features = nullptr);

  /// ERP cascade (1-D or 2-D, per the segment's element type): the sum
  /// bound only, at any segment length. A block that starts inside a
  /// table must lie in it and reads its precomputed sums. A block no
  /// table covers computes each window's sums from its elements — O(l)
  /// per window against the DP's O(l^2), bitwise equal to a table row
  /// because the accumulation is the same; that is how a tree base,
  /// which builds no table, gets its bound. The database and catalog
  /// must outlive this object.
  static std::shared_ptr<const LbCascade> MakeErp(
      const SequenceDatabase<double>& db, const WindowCatalog& catalog,
      std::span<const double> segment,
      std::shared_ptr<const LbFeatureTable> features = nullptr,
      std::shared_ptr<const LbFeatureTable> delta_features = nullptr);
  static std::shared_ptr<const LbCascade> MakeErp(
      const SequenceDatabase<Point2d>& db, const WindowCatalog& catalog,
      std::span<const Point2d> segment,
      std::shared_ptr<const LbFeatureTable> features = nullptr,
      std::shared_ptr<const LbFeatureTable> delta_features = nullptr);

  void LowerBoundBlock(ObjectId begin, int32_t count, double cutoff,
                       double* out) const override;

  void LowerBoundBlockStaged(ObjectId begin, int32_t count, double cutoff,
                             double* out,
                             LbBlockCounts* counts) const override;

  /// Rebinds to a routed cell's WindowLbPayloads (window_length must
  /// match; nullptr otherwise). The bound cascade runs the SAME stages
  /// over the payload's local ids and produces the same bound values
  /// the parent produces for the corresponding global ids.
  std::shared_ptr<const QueryLowerBound> BindTo(
      std::shared_ptr<const LowerBoundPayloads> payloads) const override;

  /// Number of memory-adjacent strided runs the block [begin,
  /// begin + count) decomposes into — 1 when bound to a payload
  /// (cell-contiguous by construction), the catalog run count
  /// otherwise. Observability for the routed-permutation regression
  /// test; does not affect bounds.
  int64_t AdjacentRuns(ObjectId begin, int32_t count) const;

 private:
  /// Query-side precomputation, shared between a cascade and its
  /// payload-bound clones (BindTo), so clones stay cheap and bitwise
  /// consistent with the parent. A DTW cascade has a Kim stage, an
  /// envelope, or both; an ERP cascade has `erp` alone.
  struct QuerySide {
    std::optional<LbKeoghEnvelope> envelope;
    std::optional<LbKimBound> kim;
    std::optional<LbErpSumBound> erp;
  };

  LbCascade() = default;

  /// An ERP cascade over global ids; MakeErp sets its database.
  static std::shared_ptr<LbCascade> NewErp(
      const WindowCatalog& catalog, const LbErpSumBound& bound,
      std::shared_ptr<const LbFeatureTable> features,
      std::shared_ptr<const LbFeatureTable> delta_features);

  /// Base pointer of candidate window `id` (payload-local or global).
  const double* WindowBase(ObjectId id) const;
  /// The ERP sum features of global window `id`, from its elements in
  /// whichever database (scalar or planar) this cascade reads.
  ErpSumFeatures WindowSums(ObjectId id) const;
  /// The features of the block [begin, begin + count) — the payload's
  /// when bound, else the table holding `begin` — with *row set to
  /// begin's row in it; nullptr when no table holds the block.
  const LbFeatureTable* FeaturesFor(ObjectId begin, int32_t count,
                                    size_t* row) const;

  void DtwBlockStaged(ObjectId begin, int32_t count, double cutoff,
                      double* out, LbBlockCounts* counts) const;

  std::shared_ptr<const QuerySide> query_;
  // Global candidate source (unbound cascades): scalar windows, or the
  // planar ones of a 2-D ERP cascade...
  const SequenceDatabase<double>* db_ = nullptr;
  const SequenceDatabase<Point2d>* planar_db_ = nullptr;
  const WindowCatalog* catalog_ = nullptr;
  std::shared_ptr<const LbFeatureTable> features_;
  std::shared_ptr<const LbFeatureTable> delta_features_;
  // ...or one cell's materialized windows (payload-bound clones).
  std::shared_ptr<const WindowLbPayloads> payload_;
  int32_t window_length_ = 0;
};

/// Builds an admissible per-window lower bound for `segment` under
/// `dist`, or nullptr when no sound bound applies. The generic overload
/// declines: prefilters exist per (element type, distance) pair and
/// must each prove admissibility. `features` / `delta_features`
/// (optional; see LbCascade for their ranges) enable the O(1) stages.
template <typename T>
std::shared_ptr<const QueryLowerBound> MakeSegmentLowerBound(
    const SequenceDatabase<T>& db, const WindowCatalog& catalog,
    const SequenceDistance<T>& dist, std::span<const T> segment,
    std::shared_ptr<const LbFeatureTable> features = nullptr,
    std::shared_ptr<const LbFeatureTable> delta_features = nullptr) {
  (void)db;
  (void)catalog;
  (void)dist;
  (void)segment;
  (void)features;
  (void)delta_features;
  return nullptr;
}

/// Scalar series: unconstrained DTW gets the DTW cascade — LB_Kim
/// whenever a table is supplied, plus LB_Keogh on a window-length
/// segment; without a table only the window-length segment has a bound
/// (the envelope). 1-D ERP (gap element 0, making the sum bound
/// admissible) gets the sum bound at any segment length, with or
/// without a table (LbCascade::MakeErp).
template <>
std::shared_ptr<const QueryLowerBound> MakeSegmentLowerBound<double>(
    const SequenceDatabase<double>& db, const WindowCatalog& catalog,
    const SequenceDistance<double>& dist, std::span<const double> segment,
    std::shared_ptr<const LbFeatureTable> features,
    std::shared_ptr<const LbFeatureTable> delta_features);

/// Planar trajectories: 2-D ERP (gap element the origin) gets the
/// ||sum(Q) - sum(C)||_2 bound at any segment length, with or without a
/// table; every other 2-D distance gets none.
template <>
std::shared_ptr<const QueryLowerBound> MakeSegmentLowerBound<Point2d>(
    const SequenceDatabase<Point2d>& db, const WindowCatalog& catalog,
    const SequenceDistance<Point2d>& dist, std::span<const Point2d> segment,
    std::shared_ptr<const LbFeatureTable> features,
    std::shared_ptr<const LbFeatureTable> delta_features);

}  // namespace subseq

#endif  // SUBSEQ_FRAME_LB_PREFILTER_H_
