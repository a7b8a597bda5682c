#include "subseq/distance/lb_kim.h"

#include <algorithm>
#include <cmath>

#include "subseq/distance/simd/kernels.h"

namespace subseq {

LbKimBound::LbKimBound(std::span<const double> query) {
  length_ = static_cast<int32_t>(query.size());
  if (length_ == 0) {
    q_first_ = q_last_ = q_min_ = q_max_ = 0.0;
    return;
  }
  q_first_ = query.front();
  q_last_ = query.back();
  // Sequential accumulation in ascending order — the same order the
  // feature table uses — so query and candidate features round
  // identically.
  double mn = query[0];
  double mx = query[0];
  for (size_t i = 1; i < query.size(); ++i) {
    mn = std::min(mn, query[i]);
    mx = std::max(mx, query[i]);
  }
  q_min_ = mn;
  q_max_ = mx;
}

namespace {

// The two endpoint couplings (1,1) and (n,m) are distinct DP cells, so
// their costs add, unless both sequences have one element.
int UseEndpointSum(int32_t n, int32_t m) { return n + m > 2 ? 1 : 0; }

}  // namespace

double LbKimBound::LowerBound(std::span<const double> candidate) const {
  if (candidate.empty() || length_ == 0) return 0.0;
  double cmin = candidate[0];
  double cmax = candidate[0];
  for (size_t i = 1; i < candidate.size(); ++i) {
    cmin = std::min(cmin, candidate[i]);
    cmax = std::max(cmax, candidate[i]);
  }
  double out;
  simd::GetKernels().lb_kim_block(
      q_first_, q_last_, q_min_, q_max_,
      UseEndpointSum(length_, static_cast<int32_t>(candidate.size())),
      &candidate.front(), &candidate.back(), &cmin, &cmax, 1, &out);
  return out;
}

void LbKimBound::LowerBoundMany(const double* first, const double* last,
                                const double* cmin, const double* cmax,
                                size_t count, int32_t candidate_length,
                                double* out) const {
  if (length_ == 0 || candidate_length == 0) {
    std::fill(out, out + count, 0.0);
    return;
  }
  simd::GetKernels().lb_kim_block(q_first_, q_last_, q_min_, q_max_,
                                  UseEndpointSum(length_, candidate_length),
                                  first, last, cmin, cmax, count, out);
}

}  // namespace subseq
