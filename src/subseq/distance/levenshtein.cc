#include "subseq/distance/levenshtein.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <vector>

namespace subseq {

namespace {

// A pattern of up to one 64-bit word takes the bit-parallel kernel.
constexpr size_t kBitParallelMaxPattern = 64;

// Myers' bit-vector edit distance (JACM 1999) in Hyyro's global form
// (2003): one word holds a whole DP column, bit i of Pv / Mv meaning
// D[i+1][j] - D[i][j] = +1 / -1, so a column costs a few word operations
// instead of m cells. The score after text column j is the DP's integer
// distance of the pattern to text.first(j), hence the same double bit
// for bit; when `prefixes` is non-null, prefixes[j - min_len] receives
// it for every j >= min_len. Requires 1 <= pattern.size() <= 64, and
// either a bound that never cuts (upper_bound >= text.size(), or NaN) or
// text.size() - pattern.size() <= upper_bound.
double BitParallelBounded(std::span<const char> pattern,
                          std::span<const char> text, double upper_bound,
                          size_t min_len = 0, double* prefixes = nullptr) {
  const size_t m = pattern.size();
  const size_t n = text.size();
  // Match masks: peq[c] has bit i set iff pattern[i] == c. Only the
  // entries of bytes that occur in either operand are ever read, so only
  // those are written; unsigned char keeps '\0' and bytes >= 0x80 (negative
  // as char) inside the table.
  uint64_t peq[256];
  for (const char c : text) peq[static_cast<unsigned char>(c)] = 0;
  for (const char c : pattern) peq[static_cast<unsigned char>(c)] = 0;
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(pattern[i])] |= uint64_t{1} << i;
  }

  // The bottom-row score D[m][j] moves by at most 1 per column, so
  // D[m][n] >= D[m][j] - (n - j): once that exceeds the bound, so does
  // the distance. Integer scores make "> upper_bound" the same test as
  // "> floor(upper_bound)"; a bound of n or more (or NaN) never cuts.
  int64_t cut = std::numeric_limits<int64_t>::max();
  if (upper_bound < static_cast<double>(n)) {
    cut = static_cast<int64_t>(upper_bound) + static_cast<int64_t>(n);
  }

  const uint64_t last = uint64_t{1} << (m - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  int64_t score = static_cast<int64_t>(m);
  if (prefixes != nullptr && min_len == 0) {
    prefixes[0] = static_cast<double>(score);
  }
  for (size_t j = 0; j < n; ++j) {
    const uint64_t eq = peq[static_cast<unsigned char>(text[j])];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    score += static_cast<int64_t>((ph & last) != 0) -
             static_cast<int64_t>((mh & last) != 0);
    // score - (n - (j + 1)) > floor(upper_bound).
    if (score + static_cast<int64_t>(j + 1) > cut) return kInfiniteDistance;
    if (prefixes != nullptr && j + 1 >= min_len) {
      prefixes[j + 1 - min_len] = static_cast<double>(score);
    }
    // Row 0 is D[0][j] = j: its horizontal delta is always +1.
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return static_cast<double>(score);
}

// The row DP behind ComputeBounded and ComputePrefixes: rows run over a,
// so after row i the last column holds the distance of a.first(i) to b;
// when `prefixes` is non-null, prefixes[i - min_len] receives it for
// every i >= min_len. Returns +inf once a row minimum exceeds
// upper_bound, else the distance of the whole of a.
template <typename T>
double LevenshteinRows(std::span<const T> a, std::span<const T> b,
                       double upper_bound, size_t min_len,
                       double* prefixes) {
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<double> prev(m + 1, 0.0);
  std::vector<double> curr(m + 1, 0.0);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<double>(j);
  if (prefixes != nullptr && min_len == 0) prefixes[0] = prev[m];
  for (size_t i = 1; i <= n; ++i) {
    curr[0] = static_cast<double>(i);
    double row_min = curr[0];
    for (size_t j = 1; j <= m; ++j) {
      const double subst_cost = (a[i - 1] == b[j - 1]) ? 0.0 : 1.0;
      curr[j] = std::min({prev[j - 1] + subst_cost,  // match / substitute
                          prev[j] + 1.0,             // delete from a
                          curr[j - 1] + 1.0});       // insert from b
      row_min = std::min(row_min, curr[j]);
    }
    if (row_min > upper_bound) return kInfiniteDistance;
    std::swap(prev, curr);
    if (prefixes != nullptr && i >= min_len) prefixes[i - min_len] = prev[m];
  }
  return prev[m];
}

}  // namespace

template <typename T>
double LevenshteinDistance<T>::Compute(std::span<const T> a,
                                       std::span<const T> b) const {
  return ComputeBounded(a, b, kInfiniteDistance);
}

template <typename T>
double LevenshteinDistance<T>::ComputeBounded(std::span<const T> a,
                                              std::span<const T> b,
                                              double upper_bound) const {
  const size_t n = a.size();
  const size_t m = b.size();
  // The length difference lower-bounds the edit distance.
  const double len_diff =
      static_cast<double>(n > m ? n - m : m - n);
  if (len_diff > upper_bound) return kInfiniteDistance;

  if constexpr (std::is_same_v<T, char>) {
    // The distance is symmetric: the shorter operand is the pattern.
    if (std::min(n, m) == 0) return static_cast<double>(std::max(n, m));
    if (std::min(n, m) <= kBitParallelMaxPattern) {
      return n <= m ? BitParallelBounded(a, b, upper_bound)
                    : BitParallelBounded(b, a, upper_bound);
    }
  }

  return LevenshteinRows(a, b, upper_bound, 0, nullptr);
}

template <typename T>
void LevenshteinDistance<T>::ComputePrefixes(std::span<const T> a,
                                             std::span<const T> b,
                                             size_t min_len,
                                             double* out) const {
  if constexpr (std::is_same_v<T, char>) {
    // The window is the pattern and the segment the text: the score
    // after each text column is one prefix's distance.
    if (!b.empty() && b.size() <= kBitParallelMaxPattern) {
      BitParallelBounded(b, a, kInfiniteDistance, min_len, out);
      return;
    }
  }
  // Integer distances: the DP's rows equal what Compute returns through
  // either path.
  LevenshteinRows(a, b, kInfiniteDistance, min_len, out);
}

template <typename T>
Alignment LevenshteinDistance<T>::ComputeWithPath(std::span<const T> a,
                                                  std::span<const T> b) const {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t stride = m + 1;
  std::vector<double> dp((n + 1) * stride, 0.0);
  for (size_t j = 0; j <= m; ++j) dp[j] = static_cast<double>(j);
  for (size_t i = 1; i <= n; ++i) {
    dp[i * stride] = static_cast<double>(i);
    for (size_t j = 1; j <= m; ++j) {
      const double subst_cost = (a[i - 1] == b[j - 1]) ? 0.0 : 1.0;
      dp[i * stride + j] = std::min({dp[(i - 1) * stride + (j - 1)] + subst_cost,
                                     dp[(i - 1) * stride + j] + 1.0,
                                     dp[i * stride + (j - 1)] + 1.0});
    }
  }

  Alignment result;
  result.distance = dp[n * stride + m];

  size_t i = n;
  size_t j = m;
  while (i > 0 || j > 0) {
    const double here = dp[i * stride + j];
    if (i > 0 && j > 0) {
      const double subst_cost = (a[i - 1] == b[j - 1]) ? 0.0 : 1.0;
      if (dp[(i - 1) * stride + (j - 1)] + subst_cost == here) {
        result.couplings.push_back(Coupling{static_cast<int32_t>(i - 1),
                                            static_cast<int32_t>(j - 1),
                                            AlignOp::kMatch, subst_cost});
        --i;
        --j;
        continue;
      }
    }
    if (i > 0 && dp[(i - 1) * stride + j] + 1.0 == here) {
      result.couplings.push_back(Coupling{static_cast<int32_t>(i - 1),
                                          static_cast<int32_t>(j),
                                          AlignOp::kGapA, 1.0});
      --i;
      continue;
    }
    result.couplings.push_back(Coupling{static_cast<int32_t>(i),
                                        static_cast<int32_t>(j - 1),
                                        AlignOp::kGapB, 1.0});
    --j;
  }
  std::reverse(result.couplings.begin(), result.couplings.end());
  return result;
}

template class LevenshteinDistance<char>;
template class LevenshteinDistance<double>;

}  // namespace subseq
