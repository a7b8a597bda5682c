// Levenshtein (edit) distance with unit costs (Levenshtein 1966).
//
// The string distance used throughout the paper's PROTEINS experiments
// (Figs. 4, 5, 8, 12). Metric and consistent. On length-l windows the
// maximum possible distance is l, which is how the paper expresses query
// ranges as a percentage of the maximum distance (l = 20 there).

#ifndef SUBSEQ_DISTANCE_LEVENSHTEIN_H_
#define SUBSEQ_DISTANCE_LEVENSHTEIN_H_

#include <span>

#include "subseq/distance/alignment.h"
#include "subseq/distance/distance.h"

namespace subseq {

/// Unit-cost edit distance over any equality-comparable element type.
///
/// The `char` instance computes every pair whose shorter operand has at
/// most 64 elements with Myers' bit-vector algorithm (one machine word
/// per DP column), and returns the same value as the DP; longer pairs,
/// other element types and ComputeWithPath run the row DP.
template <typename T>
class LevenshteinDistance final : public SequenceDistance<T> {
 public:
  LevenshteinDistance() = default;

  double Compute(std::span<const T> a, std::span<const T> b) const override;

  double ComputeBounded(std::span<const T> a, std::span<const T> b,
                        double upper_bound) const override;

  /// The `char` instance with 1 <= |b| <= 64 runs Myers' kernel with b as
  /// the pattern and reads each prefix's score after its text column;
  /// everything else runs one row DP and reads each prefix off its row.
  void ComputePrefixes(std::span<const T> a, std::span<const T> b,
                       size_t min_len, double* out) const override;

  /// Computes the distance together with an optimal edit script
  /// (kMatch couplings carry cost 0 or 1 for substitutions; kGapA / kGapB
  /// are deletions / insertions with cost 1).
  Alignment ComputeWithPath(std::span<const T> a, std::span<const T> b) const;

  std::string_view name() const override { return "levenshtein"; }
  bool is_metric() const override { return true; }
  bool is_consistent() const override { return true; }
};

extern template class LevenshteinDistance<char>;
extern template class LevenshteinDistance<double>;

}  // namespace subseq

#endif  // SUBSEQ_DISTANCE_LEVENSHTEIN_H_
