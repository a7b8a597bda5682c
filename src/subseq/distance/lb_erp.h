// LB_ERP (Chen & Ng, VLDB 2004) — the sum lower bound for ERP with the
// gap element at the origin. Every ERP path cost term is either
// g(q_i, c_j) (a match) or g(q_i, 0) / g(c_j, 0) (a gap), where the
// ground distance g(a, b) = ||a - b|| is a norm. Summing the triangle
// inequality of the norm over any path telescopes to
//   ||sum(Q) - sum(C)|| <= ERP(Q, C):
// |sum(Q) - sum(C)| for scalar series (ground |a - b|) and
// ||(sum_x(Q) - sum_x(C), sum_y(Q) - sum_y(C))||_2 for planar
// trajectories (Euclidean ground). The bound needs no equal lengths —
// gaps align any n against any m — and reads only O(1) per-window
// features (the coordinate sums), so batched evaluation over a feature
// table is one element-wise row: cheaper even than LB_Kim, and the ONLY
// cascade stage for ERP (LB_Kim and LB_Keogh are DTW bounds and are not
// admissible here). Admissibility requires the gap element to be
// exactly the origin; the cascade wiring in frame/lb_prefilter.cc gates
// on that.
//
// Rounding. The proof holds in real arithmetic, but the scan compares a
// COMPUTED bound with a COMPUTED distance. Summing k signed values
// sequentially errs by up to gamma_{k-1} * sum|v| (gamma_k = k u /
// (1 - k u), u = 2^-53; Higham, Accuracy and Stability, Sec. 4.2): an
// absolute error that does not shrink with the bound, so when large
// sums nearly cancel it dwarfs the scan's cutoff pad (relative 1e-9
// plus absolute 1e-12). The computed ERP is a rounded sum of
// non-negative path costs, with relative error only, which that pad
// does cover. So every bound here subtracts a slack
//   (n + m) * 2u * (A(Q) + A(C)),  A = sum of absolute coordinates,
// at least twice the summation error of both operands (the 2-D error
// vector's norm is at most the sum of its coordinate errors), and the
// cascade prunes only when the bound minus that slack still exceeds the
// cutoff. At |values| ~ 1e6 two 10-element operands that differ by a
// few ulps otherwise produced bounds up to 32x past the cutoff of a
// true match; at trajectory magnitudes (~1e2) the slack is ~1e-11 and
// moves no prune decision.

#ifndef SUBSEQ_DISTANCE_LB_ERP_H_
#define SUBSEQ_DISTANCE_LB_ERP_H_

#include <cstdint>
#include <span>

#include "subseq/core/types.h"

namespace subseq {

/// The O(1) features the sum bound reads from one sequence: its
/// coordinate sums (y = 0 for scalar series) and the sum of its absolute
/// coordinates, each accumulated sequentially in ascending element
/// order — the order the feature table uses for candidate windows, so
/// both sides round identically.
struct ErpSumFeatures {
  double x = 0.0;
  double y = 0.0;
  double abs = 0.0;
};

ErpSumFeatures ComputeErpSumFeatures(std::span<const double> seq);
ErpSumFeatures ComputeErpSumFeatures(std::span<const Point2d> seq);

/// The sum bound of one query sequence against candidates of any length.
class LbErpSumBound {
 public:
  /// Scalar series: |sum(Q) - sum(C)|.
  explicit LbErpSumBound(std::span<const double> query);
  /// Planar trajectories: ||sum(Q) - sum(C)||_2.
  explicit LbErpSumBound(std::span<const Point2d> query);

  /// Scalar reference bound for one candidate of the query's element
  /// type; bitwise identical to LowerBoundMany over the candidate's
  /// features.
  double LowerBound(std::span<const double> candidate) const;
  double LowerBound(std::span<const Point2d> candidate) const;

  /// Batched bounds over `count` candidates of `candidate_length`
  /// elements each, given their precomputed features: the norm of the
  /// sum difference minus the rounding slack (header comment), so
  /// out[i] may be negative. `sums_y` is read only by a planar query.
  /// Element-wise — values are identical across any regrouping into
  /// blocks.
  void LowerBoundMany(const double* sums, const double* sums_y,
                      const double* abs_sums, size_t count,
                      int32_t candidate_length, double* out) const;

 private:
  ErpSumFeatures query_;
  int32_t length_;
  bool planar_;
};

}  // namespace subseq

#endif  // SUBSEQ_DISTANCE_LB_ERP_H_
