// Discrete Frechet distance (Eiter & Mannila 1994).
//
// The "dog-leash" distance on sampled curves: the minimum over monotone
// couplings of the *maximum* ground cost of any coupling. Metric and
// consistent; one of the two time-series distances in the paper's
// evaluation (DFD in Figs. 4, 6, 7, 9, 11). On small bounded alphabets
// (the SONGS pitch data) its distribution is strongly skewed, which drives
// the space-overhead findings of Fig. 6.

#ifndef SUBSEQ_DISTANCE_FRECHET_H_
#define SUBSEQ_DISTANCE_FRECHET_H_

#include <span>

#include "subseq/core/types.h"
#include "subseq/distance/alignment.h"
#include "subseq/distance/distance.h"
#include "subseq/distance/ground.h"

namespace subseq {

/// Discrete Frechet distance: min over warping paths of the max ground cost.
template <typename T, typename Ground>
class FrechetDistance final : public SequenceDistance<T> {
 public:
  FrechetDistance() = default;

  double Compute(std::span<const T> a, std::span<const T> b) const override;

  double ComputeBounded(std::span<const T> a, std::span<const T> b,
                        double upper_bound) const override;

  /// One row DP of a against b, every prefix read off its row.
  void ComputePrefixes(std::span<const T> a, std::span<const T> b,
                       size_t min_len, double* out) const override;

  /// Computes the distance together with an optimal coupling sequence.
  Alignment ComputeWithPath(std::span<const T> a, std::span<const T> b) const;

  std::string_view name() const override { return "frechet"; }
  bool is_metric() const override { return true; }
  bool is_consistent() const override { return true; }
};

/// Discrete Frechet distance over scalar time series.
using FrechetDistance1D = FrechetDistance<double, ScalarGround>;
/// Discrete Frechet distance over planar trajectories.
using FrechetDistance2D = FrechetDistance<Point2d, Point2dGround>;

extern template class FrechetDistance<double, ScalarGround>;
extern template class FrechetDistance<Point2d, Point2dGround>;

}  // namespace subseq

#endif  // SUBSEQ_DISTANCE_FRECHET_H_
