// SequenceDistance<T>: the abstract interface all distance measures
// implement, plus the property flags the framework relies on.
//
// The paper's framework (Sections 4-6) needs to know two things about a
// distance:
//   * is_consistent(): Definition 1 holds, so the window filter (Lemma 2/3)
//     has no false dismissals;
//   * is_metric(): the triangle inequality holds, so metric indexes
//     (reference net, cover tree, MV pivots) may be used for the filter.
//
// Of the shipped distances: Euclidean, Hamming, ERP, discrete Frechet and
// Levenshtein are metric + consistent; DTW is consistent but NOT metric.

#ifndef SUBSEQ_DISTANCE_DISTANCE_H_
#define SUBSEQ_DISTANCE_DISTANCE_H_

#include <cstddef>
#include <limits>
#include <span>
#include <string_view>

namespace subseq {

/// Sentinel for "no similarity" / length-mismatch for rigid distances.
inline constexpr double kInfiniteDistance =
    std::numeric_limits<double>::infinity();

/// Signed view of a container index for band arithmetic. Always use
/// this (never `long`, which is 32-bit on LLP64 targets such as 64-bit
/// Windows and would overflow for sequences past 2^31 elements).
inline constexpr std::ptrdiff_t SignedIndex(size_t i) {
  return static_cast<std::ptrdiff_t>(i);
}

/// a - b as a signed quantity, safe for any size_t operands.
inline constexpr std::ptrdiff_t IndexDiff(size_t a, size_t b) {
  return SignedIndex(a) - SignedIndex(b);
}

/// Abstract distance measure between two element sequences.
///
/// Implementations are immutable and thread-compatible: Compute() has no
/// side effects beyond scratch buffers local to the call.
template <typename T>
class SequenceDistance {
 public:
  virtual ~SequenceDistance() = default;

  /// The distance between sequences a and b.
  virtual double Compute(std::span<const T> a, std::span<const T> b) const = 0;

  /// Early-abandoning variant: must return the exact distance if it is
  /// <= upper_bound, and may return any value > upper_bound otherwise
  /// (implementations typically return +infinity once every DP state in a
  /// row exceeds the bound). The default forwards to Compute().
  virtual double ComputeBounded(std::span<const T> a, std::span<const T> b,
                                double upper_bound) const {
    (void)upper_bound;
    return Compute(a, b);
  }

  /// Batched distances: out[k] = Compute(a, bs[k]) for every candidate.
  /// The contract is BIT-IDENTITY with the per-pair path: each out[k]
  /// equals the corresponding Compute() result exactly, so callers may
  /// batch or not without changing any observable result or statistic.
  /// SIMD overrides honor this with vertical lanes that preserve each
  /// candidate's scalar operation order (see distance/simd/kernels.h).
  /// The default is the per-pair loop.
  virtual void ComputeMany(std::span<const T> a,
                           std::span<const std::span<const T>> bs,
                           double* out) const {
    for (size_t k = 0; k < bs.size(); ++k) out[k] = Compute(a, bs[k]);
  }

  /// Prefix distances: out[i] = Compute(a.first(min_len + i), b) for
  /// every i in [0, |a| - min_len], so `out` must hold
  /// |a| - min_len + 1 values; requires min_len <= |a|. The contract is
  /// BIT-IDENTITY with Compute, +inf included. Step 4 answers every
  /// segment length cut at one query start from one such call per
  /// touched window (SubsequenceMatcher::BatchFilterWindows). The
  /// default is the per-length loop; a tree-indexed distance without an
  /// override therefore pays 2 * lambda0 + 1 Compute calls per touched
  /// (start, window), so every DP distance a tree serves overrides it
  /// with one DP of the longest prefix, reading each shorter prefix's
  /// distance off its row (ERP, discrete Frechet, Levenshtein, weighted
  /// edit). Rigid distances keep the default: their off-length calls
  /// return at once.
  virtual void ComputePrefixes(std::span<const T> a, std::span<const T> b,
                               size_t min_len, double* out) const {
    for (size_t len = min_len; len <= a.size(); ++len) {
      out[len - min_len] = Compute(a.first(len), b);
    }
  }

  /// Short stable identifier ("erp", "dtw", "levenshtein", ...).
  virtual std::string_view name() const = 0;

  /// True if the distance obeys symmetry + triangle inequality.
  virtual bool is_metric() const = 0;

  /// True if the distance obeys the paper's consistency property
  /// (Definition 1): for all Q, X and every subsequence SX of X there is a
  /// subsequence SQ of Q with d(SQ, SX) <= d(Q, X).
  virtual bool is_consistent() const = 0;
};

}  // namespace subseq

#endif  // SUBSEQ_DISTANCE_DISTANCE_H_
