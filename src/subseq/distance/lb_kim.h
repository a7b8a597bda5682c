// LB_Kim (Kim/Park/Chu, ICDE 2001) — the O(1) first/last/min/max lower
// bound for DTW, the cheapest stage of the pruning cascade. Any warping
// path couples (1,1) and (n,m), for any n and m, so |q_first - c_first|
// and |q_last - c_last| each bound the distance, and when the DP has
// more than one matched pair (n + m > 2, which always holds when
// n != m) the two couplings are distinct cells, making their SUM
// admissible. The extrema terms are admissible because the larger
// sequence maximum (resp. smaller minimum) must be coupled to SOME
// element of the other sequence:
//   |max(Q) - max(C)| <= DTW(Q, C),  |min(Q) - min(C)| <= DTW(Q, C).
// None of this needs equal lengths, so the cascade bounds every query
// segment length l - lambda0 .. l + lambda0 against the l-length
// windows with it (LB_Keogh, which does need equal lengths, runs only
// on the l-length segments).
//
// NOTE: LB_Kim is NOT uniformly below LB_Keogh. Counterexample
// (pinned in tests/distance/lb_cascade_test.cc): Q = [0, 10],
// C = [5, 5] — the full-width Keogh envelope is [0, 10] so
// LB_Keogh = 0, while LB_Kim = 5 + 5 = 10 = DTW. The cascade runs Kim
// first because it is O(1) per candidate, not because it is looser.
//
// LB_Kim is DTW-only: ERP's gap alignments can leave the endpoints
// uncoupled, so none of these terms bound ERP.

#ifndef SUBSEQ_DISTANCE_LB_KIM_H_
#define SUBSEQ_DISTANCE_LB_KIM_H_

#include <cstdint>
#include <span>

namespace subseq {

/// Precomputed LB_Kim features of one query sequence.
class LbKimBound {
 public:
  /// Captures the query's first/last/min/max. An empty query yields the
  /// trivial bound 0 everywhere.
  explicit LbKimBound(std::span<const double> query);

  /// Scalar reference bound for one candidate of any length; 0 when
  /// either side is empty. Bitwise identical to the batched path (same
  /// operations in the same order).
  double LowerBound(std::span<const double> candidate) const;

  /// Batched bounds over `count` candidates of `candidate_length`
  /// elements each, described by parallel feature arrays (first/last/
  /// min/max element of each candidate). No cutoff: each output is O(1)
  /// and exact, so values — not just decisions — are identical across
  /// dispatch levels and any regrouping into blocks.
  void LowerBoundMany(const double* first, const double* last,
                      const double* cmin, const double* cmax, size_t count,
                      int32_t candidate_length, double* out) const;

  int32_t length() const { return length_; }
  double query_first() const { return q_first_; }
  double query_last() const { return q_last_; }
  double query_min() const { return q_min_; }
  double query_max() const { return q_max_; }

 private:
  int32_t length_;
  double q_first_;
  double q_last_;
  double q_min_;
  double q_max_;
};

}  // namespace subseq

#endif  // SUBSEQ_DISTANCE_LB_KIM_H_
