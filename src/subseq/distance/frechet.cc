#include "subseq/distance/frechet.h"

#include <algorithm>
#include <vector>

#include "subseq/distance/simd/ground_rows.h"
#include "subseq/distance/simd/kernels.h"

namespace subseq {

namespace {

// The row DP behind ComputeBounded and ComputePrefixes over the n x m
// grid (n, m >= 1): D(i,j) = max(ground(i,j),
//   min(D(i-1,j-1), D(i-1,j), D(i,j-1))).
// Rows run over a, so after row i the last column holds the distance of
// a.first(i + 1) to b; when `prefixes` is non-null, prefixes[len -
// min_len] receives it for every non-empty prefix length len >= min_len
// (the empty prefix has no row). Cost rows and the row combine run
// through the dispatched kernels (bit-identical at every level). Returns
// +inf once a row minimum exceeds upper_bound, else the distance of the
// whole of a.
template <typename T, typename Ground>
double FrechetRows(std::span<const T> a, std::span<const T> b,
                   double upper_bound, size_t min_len, double* prefixes) {
  const size_t n = a.size();
  const size_t m = b.size();
  const simd::Kernels& kernels = simd::GetKernels();
  std::vector<double> prev(m, 0.0);
  std::vector<double> curr(m, 0.0);
  std::vector<double> cost(m, 0.0);
  simd::CostRowFrom<T, Ground>(kernels, a[0], b.data(), cost.data(), m);
  prev[0] = cost[0];
  for (size_t j = 1; j < m; ++j) {
    prev[j] = std::max(prev[j - 1], cost[j]);
  }
  if (prefixes != nullptr && min_len <= 1) prefixes[1 - min_len] = prev[m - 1];
  for (size_t i = 1; i < n; ++i) {
    simd::CostRowFrom<T, Ground>(kernels, a[i], b.data(), cost.data(), m);
    const double row_min = kernels.frechet_combine_row(
        prev.data(), curr.data(), cost.data(), m);
    // D values are non-decreasing along any remaining path (max-compose),
    // so the row minimum lower-bounds the final value.
    if (row_min > upper_bound) return kInfiniteDistance;
    std::swap(prev, curr);
    if (prefixes != nullptr && i + 1 >= min_len) {
      prefixes[i + 1 - min_len] = prev[m - 1];
    }
  }
  return prev[m - 1];
}

}  // namespace

template <typename T, typename Ground>
double FrechetDistance<T, Ground>::Compute(std::span<const T> a,
                                           std::span<const T> b) const {
  return ComputeBounded(a, b, kInfiniteDistance);
}

template <typename T, typename Ground>
double FrechetDistance<T, Ground>::ComputeBounded(std::span<const T> a,
                                                  std::span<const T> b,
                                                  double upper_bound) const {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 && m == 0) return 0.0;
  if (n == 0 || m == 0) return kInfiniteDistance;
  return FrechetRows<T, Ground>(a, b, upper_bound, 0, nullptr);
}

template <typename T, typename Ground>
void FrechetDistance<T, Ground>::ComputePrefixes(std::span<const T> a,
                                                 std::span<const T> b,
                                                 size_t min_len,
                                                 double* out) const {
  // The empty prefix (and any empty operand) has no row.
  if (a.empty() || b.empty()) {
    SequenceDistance<T>::ComputePrefixes(a, b, min_len, out);
    return;
  }
  if (min_len == 0) out[0] = Compute(a.first(0), b);
  FrechetRows<T, Ground>(a, b, kInfiniteDistance, min_len, out);
}

template <typename T, typename Ground>
Alignment FrechetDistance<T, Ground>::ComputeWithPath(
    std::span<const T> a, std::span<const T> b) const {
  const size_t n = a.size();
  const size_t m = b.size();
  Alignment result;
  if (n == 0 || m == 0) {
    result.distance = (n == 0 && m == 0) ? 0.0 : kInfiniteDistance;
    return result;
  }

  std::vector<double> dp(n * m, 0.0);
  auto at = [&](size_t i, size_t j) -> double& { return dp[i * m + j]; };
  at(0, 0) = Ground::Between(a[0], b[0]);
  for (size_t j = 1; j < m; ++j) {
    at(0, j) = std::max(at(0, j - 1), Ground::Between(a[0], b[j]));
  }
  for (size_t i = 1; i < n; ++i) {
    at(i, 0) = std::max(at(i - 1, 0), Ground::Between(a[i], b[0]));
    for (size_t j = 1; j < m; ++j) {
      const double reach =
          std::min({at(i - 1, j - 1), at(i - 1, j), at(i, j - 1)});
      at(i, j) = std::max(reach, Ground::Between(a[i], b[j]));
    }
  }
  result.distance = at(n - 1, m - 1);

  // Backtrack: move to the predecessor with the smallest reach value.
  size_t i = n - 1;
  size_t j = m - 1;
  for (;;) {
    result.couplings.push_back(
        Coupling{static_cast<int32_t>(i), static_cast<int32_t>(j),
                 AlignOp::kMatch, Ground::Between(a[i], b[j])});
    if (i == 0 && j == 0) break;
    if (i == 0) {
      --j;
    } else if (j == 0) {
      --i;
    } else {
      const double diag = at(i - 1, j - 1);
      const double up = at(i - 1, j);
      const double left = at(i, j - 1);
      if (diag <= up && diag <= left) {
        --i;
        --j;
      } else if (up <= left) {
        --i;
      } else {
        --j;
      }
    }
  }
  std::reverse(result.couplings.begin(), result.couplings.end());
  return result;
}

template class FrechetDistance<double, ScalarGround>;
template class FrechetDistance<Point2d, Point2dGround>;

}  // namespace subseq
