// WindowOracle<T> — step 2's glue: presents the database windows plus a
// SequenceDistance as a DistanceOracle, so any metric index (reference
// net, cover tree, MV pivots) can index them unchanged.

#ifndef SUBSEQ_FRAME_WINDOW_ORACLE_H_
#define SUBSEQ_FRAME_WINDOW_ORACLE_H_

#include <span>

#include "subseq/core/sequence.h"
#include "subseq/core/types.h"
#include "subseq/distance/distance.h"
#include "subseq/frame/windowing.h"
#include "subseq/metric/oracle.h"

namespace subseq {

template <typename T>
class WindowOracle;

/// The function WindowOracle::SegmentQuery returns: the exact distance of
/// one query segment to database windows. A named type so step 4 can
/// read the segment back out of a QueryDistanceFn
/// (SubsequenceMatcher::BatchFilterWindows groups segments by start).
/// Keep it at 24 bytes: std::function allocates one per segment, and a
/// 32-byte function made MakeSegmentQueries about 1.6x slower on
/// 125-segment queries.
template <typename T>
struct SegmentQueryFn {
  const WindowOracle<T>* oracle = nullptr;
  std::span<const T> segment;

  double operator()(ObjectId window) const;
};

/// Adapts (database, catalog, distance) to the metric layer. The three
/// referenced objects must outlive the oracle. Also a
/// LowerBoundPayloadSource: the routed index asks it to materialize a
/// cell's member windows cell-contiguously so the scan prefilter's
/// cascade keeps pruning inside probed cells — the window features (and,
/// for scalar series, the elements) of 1-D DTW and 1-D / 2-D ERP; other
/// distances and strings have no cascade features and yield nullptr.
template <typename T>
class WindowOracle final : public DistanceOracle,
                           public LowerBoundPayloadSource {
 public:
  WindowOracle(const SequenceDatabase<T>& db, const WindowCatalog& catalog,
               const SequenceDistance<T>& dist)
      : db_(db), catalog_(catalog), dist_(dist) {}

  int32_t size() const override { return catalog_.num_windows(); }

  double Distance(ObjectId a, ObjectId b) const override {
    return dist_.Compute(WindowView(a), WindowView(b));
  }

  double DistanceBounded(ObjectId a, ObjectId b,
                         double upper_bound) const override {
    return dist_.ComputeBounded(WindowView(a), WindowView(b), upper_bound);
  }

  /// The elements of a window.
  std::span<const T> WindowView(ObjectId window) const {
    const WindowRef& ref = catalog_.at(window);
    return db_.at(ref.seq).Subsequence(ref.span);
  }

  /// A query-side distance function measuring a query segment against
  /// database windows (it holds a SegmentQueryFn<T>). The segment view
  /// must stay valid while the function is in use.
  QueryDistanceFn SegmentQuery(std::span<const T> segment) const {
    return SegmentQueryFn<T>{this, segment};
  }

  /// The batched companion of SegmentQuery: many(ids, out) sets out[i]
  /// to exactly SegmentQuery(segment)(ids[i]) through one
  /// SequenceDistance::ComputeMany per chunk of gathered window views —
  /// bit-identical to the per-id loop by ComputeMany's contract, and
  /// through the vertical SIMD kernels where the distance has them. The
  /// segment view must stay valid while the function is in use.
  QueryDistanceManyFn SegmentQueryMany(std::span<const T> segment) const;

  /// Cell-contiguous cascade features (and scalar window elements) of
  /// `members` (see frame/lb_prefilter.h); nullptr when the distance
  /// reads no features (LbFeaturesApply).
  std::shared_ptr<const LowerBoundPayloads> MaterializeLbPayloads(
      std::span<const ObjectId> members) const override;

  const SequenceDistance<T>& distance() const { return dist_; }
  const WindowCatalog& catalog() const { return catalog_; }
  const SequenceDatabase<T>& database() const { return db_; }

 private:
  const SequenceDatabase<T>& db_;
  const WindowCatalog& catalog_;
  const SequenceDistance<T>& dist_;
};

template <typename T>
double SegmentQueryFn<T>::operator()(ObjectId window) const {
  return oracle->distance().Compute(segment, oracle->WindowView(window));
}

extern template class WindowOracle<char>;
extern template class WindowOracle<double>;
extern template class WindowOracle<Point2d>;

}  // namespace subseq

#endif  // SUBSEQ_FRAME_WINDOW_ORACLE_H_
