// ERP — Edit distance with Real Penalty (Chen & Ng, VLDB 2004).
//
// ERP "marries" Lp-norms and edit distance: unmatched elements are aligned
// against a constant gap element g and charged their ground distance to g.
// Unlike DTW it satisfies the triangle inequality, so it is both metric and
// consistent — one of the two time-series distances used in the paper's
// evaluation (Figs. 4, 6, 7, 10).

#ifndef SUBSEQ_DISTANCE_ERP_H_
#define SUBSEQ_DISTANCE_ERP_H_

#include <span>

#include "subseq/core/types.h"
#include "subseq/distance/alignment.h"
#include "subseq/distance/distance.h"
#include "subseq/distance/ground.h"

namespace subseq {

/// ERP distance with gap element Ground::GapElement().
template <typename T, typename Ground>
class ErpDistance final : public SequenceDistance<T> {
 public:
  ErpDistance() = default;

  double Compute(std::span<const T> a, std::span<const T> b) const override;

  double ComputeBounded(std::span<const T> a, std::span<const T> b,
                        double upper_bound) const override;

  /// One row DP of a against b, every prefix read off its row, for every
  /// pair: where Compute takes the wavefront kernel (min(n, m) at or above
  /// the anti-diagonal threshold), its cells equal the rows' bit for bit.
  void ComputePrefixes(std::span<const T> a, std::span<const T> b,
                       size_t min_len, double* out) const override;

  /// Computes the distance together with an optimal alignment; kGapA /
  /// kGapB couplings carge the ground distance of the skipped element to
  /// the gap element.
  Alignment ComputeWithPath(std::span<const T> a, std::span<const T> b) const;

  std::string_view name() const override { return "erp"; }
  bool is_metric() const override { return true; }
  bool is_consistent() const override { return true; }
};

/// ERP over scalar time series (gap element 0).
using ErpDistance1D = ErpDistance<double, ScalarGround>;
/// ERP over planar trajectories (gap element the origin).
using ErpDistance2D = ErpDistance<Point2d, Point2dGround>;

extern template class ErpDistance<double, ScalarGround>;
extern template class ErpDistance<Point2d, Point2dGround>;

}  // namespace subseq

#endif  // SUBSEQ_DISTANCE_ERP_H_
