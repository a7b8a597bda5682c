#include "subseq/distance/erp.h"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "subseq/distance/simd/cpu_features.h"
#include "subseq/distance/simd/ground_rows.h"
#include "subseq/distance/simd/kernels.h"

namespace subseq {

namespace {

// The row DP behind ComputeBounded and ComputePrefixes: rows run over a,
// columns over b, so after row i the last column holds the distance of
// a.first(i) to b. When `prefixes` is non-null, prefixes[i - min_len]
// receives it for every i >= min_len. Returns +inf once a row minimum
// exceeds upper_bound, else the distance of the whole of a.
template <typename T, typename Ground>
double ErpRows(std::span<const T> a, std::span<const T> b, double upper_bound,
               size_t min_len, double* prefixes) {
  const size_t n = a.size();
  const size_t m = b.size();
  const T gap = Ground::GapElement();
  const simd::Kernels& kernels = simd::GetKernels();

  // prev/curr are rows of the (n+1) x (m+1) table. The per-row cost
  // rows (substitution against b, gap against b) and the row combine
  // run through the dispatched kernels (bit-identical at every level).
  std::vector<double> prev(m + 1, 0.0);
  std::vector<double> curr(m + 1, 0.0);
  std::vector<double> sub(m + 1, 0.0);
  std::vector<double> gap_b(m + 1, 0.0);
  simd::CostRowTo<T, Ground>(kernels, b.data(), gap, gap_b.data() + 1, m);
  for (size_t j = 1; j <= m; ++j) {
    prev[j] = prev[j - 1] + gap_b[j];
  }
  if (prefixes != nullptr && min_len == 0) prefixes[0] = prev[m];
  for (size_t i = 1; i <= n; ++i) {
    const double gap_a = Ground::Between(a[i - 1], gap);
    simd::CostRowFrom<T, Ground>(kernels, a[i - 1], b.data(),
                                 sub.data() + 1, m);
    const double row_min = kernels.gap_combine_row(
        prev.data(), curr.data(), sub.data(), gap_a, gap_b.data(), m);
    // Costs are non-negative, so the row minimum lower-bounds the result.
    if (row_min > upper_bound) return kInfiniteDistance;
    std::swap(prev, curr);
    if (prefixes != nullptr && i >= min_len) prefixes[i - min_len] = prev[m];
  }
  return prev[m];
}

}  // namespace

template <typename T, typename Ground>
double ErpDistance<T, Ground>::Compute(std::span<const T> a,
                                       std::span<const T> b) const {
  return ComputeBounded(a, b, kInfiniteDistance);
}

template <typename T, typename Ground>
double ErpDistance<T, Ground>::ComputeBounded(std::span<const T> a,
                                              std::span<const T> b,
                                              double upper_bound) const {
  const size_t n = a.size();
  const size_t m = b.size();

  // Long single-pair calls take the anti-diagonal wavefront kernel
  // (bit-identical to the row path per kernels.h; the threshold knob
  // trades wall-clock only). The kernel requires n, m >= 1.
  if (n >= 1 && m >= 1) {
    const int wavefront = simd::AntidiagThreshold();
    if (wavefront >= 0 &&
        std::min(n, m) >= static_cast<size_t>(wavefront)) {
      const simd::Kernels& kernels = simd::GetKernels();
      const T gap = Ground::GapElement();
      if constexpr (std::is_same_v<T, double> &&
                    std::is_same_v<Ground, ScalarGround>) {
        return kernels.erp_antidiag_f64(a.data(), n, b.data(), m, gap,
                                        upper_bound);
      } else if constexpr (std::is_same_v<T, Point2d> &&
                           std::is_same_v<Ground, Point2dGround>) {
        return kernels.erp_antidiag_p2d(a.data(), n, b.data(), m, gap,
                                        upper_bound);
      }
    }
  }
  return ErpRows<T, Ground>(a, b, upper_bound, 0, nullptr);
}

template <typename T, typename Ground>
void ErpDistance<T, Ground>::ComputePrefixes(std::span<const T> a,
                                             std::span<const T> b,
                                             size_t min_len,
                                             double* out) const {
  // The row path serves every pair, also those whose longer prefixes
  // Compute hands to the wavefront kernel: the kernel's cells equal the
  // rows' bit for bit (kernels.h).
  ErpRows<T, Ground>(a, b, kInfiniteDistance, min_len, out);
}

template <typename T, typename Ground>
Alignment ErpDistance<T, Ground>::ComputeWithPath(std::span<const T> a,
                                                  std::span<const T> b) const {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t stride = m + 1;
  const T gap = Ground::GapElement();

  std::vector<double> dp((n + 1) * stride, 0.0);
  for (size_t j = 1; j <= m; ++j) {
    dp[j] = dp[j - 1] + Ground::Between(b[j - 1], gap);
  }
  for (size_t i = 1; i <= n; ++i) {
    dp[i * stride] = dp[(i - 1) * stride] + Ground::Between(a[i - 1], gap);
    for (size_t j = 1; j <= m; ++j) {
      const double match =
          dp[(i - 1) * stride + (j - 1)] + Ground::Between(a[i - 1], b[j - 1]);
      const double gap_a =
          dp[(i - 1) * stride + j] + Ground::Between(a[i - 1], gap);
      const double gap_b =
          dp[i * stride + (j - 1)] + Ground::Between(b[j - 1], gap);
      dp[i * stride + j] = std::min({match, gap_a, gap_b});
    }
  }

  Alignment result;
  result.distance = dp[n * stride + m];

  // Backtrack.
  size_t i = n;
  size_t j = m;
  while (i > 0 || j > 0) {
    const double here = dp[i * stride + j];
    if (i > 0 && j > 0) {
      const double match_cost = Ground::Between(a[i - 1], b[j - 1]);
      if (dp[(i - 1) * stride + (j - 1)] + match_cost == here) {
        result.couplings.push_back(Coupling{static_cast<int32_t>(i - 1),
                                            static_cast<int32_t>(j - 1),
                                            AlignOp::kMatch, match_cost});
        --i;
        --j;
        continue;
      }
    }
    if (i > 0) {
      const double gap_cost = Ground::Between(a[i - 1], gap);
      if (dp[(i - 1) * stride + j] + gap_cost == here) {
        result.couplings.push_back(Coupling{static_cast<int32_t>(i - 1),
                                            static_cast<int32_t>(j),
                                            AlignOp::kGapA, gap_cost});
        --i;
        continue;
      }
    }
    // Must be a gap on b.
    const double gap_cost = Ground::Between(b[j - 1], gap);
    result.couplings.push_back(Coupling{static_cast<int32_t>(i),
                                        static_cast<int32_t>(j - 1),
                                        AlignOp::kGapB, gap_cost});
    --j;
  }
  std::reverse(result.couplings.begin(), result.couplings.end());
  return result;
}

template class ErpDistance<double, ScalarGround>;
template class ErpDistance<Point2d, Point2dGround>;

}  // namespace subseq
