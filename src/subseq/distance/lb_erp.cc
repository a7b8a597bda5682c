#include "subseq/distance/lb_erp.h"

#include <cmath>

#include "subseq/core/check.h"

namespace subseq {

ErpSumFeatures ComputeErpSumFeatures(std::span<const double> seq) {
  ErpSumFeatures f;
  for (const double v : seq) {
    f.x += v;
    f.abs += std::abs(v);
  }
  return f;
}

ErpSumFeatures ComputeErpSumFeatures(std::span<const Point2d> seq) {
  ErpSumFeatures f;
  for (const Point2d& p : seq) {
    f.x += p.x;
    f.y += p.y;
    f.abs += std::abs(p.x) + std::abs(p.y);
  }
  return f;
}

LbErpSumBound::LbErpSumBound(std::span<const double> query)
    : query_(ComputeErpSumFeatures(query)),
      length_(static_cast<int32_t>(query.size())),
      planar_(false) {}

LbErpSumBound::LbErpSumBound(std::span<const Point2d> query)
    : query_(ComputeErpSumFeatures(query)),
      length_(static_cast<int32_t>(query.size())),
      planar_(true) {}

double LbErpSumBound::LowerBound(std::span<const double> candidate) const {
  SUBSEQ_CHECK(!planar_);
  const ErpSumFeatures c = ComputeErpSumFeatures(candidate);
  double out;
  LowerBoundMany(&c.x, nullptr, &c.abs, 1,
                 static_cast<int32_t>(candidate.size()), &out);
  return out;
}

double LbErpSumBound::LowerBound(std::span<const Point2d> candidate) const {
  SUBSEQ_CHECK(planar_);
  const ErpSumFeatures c = ComputeErpSumFeatures(candidate);
  double out;
  LowerBoundMany(&c.x, &c.y, &c.abs, 1,
                 static_cast<int32_t>(candidate.size()), &out);
  return out;
}

void LbErpSumBound::LowerBoundMany(const double* sums, const double* sums_y,
                                   const double* abs_sums, size_t count,
                                   int32_t candidate_length,
                                   double* out) const {
  // (n + m) * 2u per unit of absolute sum: at least twice either
  // operand's summation error factor (header comment).
  const double slack = std::ldexp(static_cast<double>(length_) +
                                      static_cast<double>(candidate_length),
                                  -52);
  if (!planar_) {
    for (size_t i = 0; i < count; ++i) {
      out[i] = std::abs(query_.x - sums[i]) -
               slack * (query_.abs + abs_sums[i]);
    }
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    const double dx = query_.x - sums[i];
    const double dy = query_.y - sums_y[i];
    out[i] = std::sqrt(dx * dx + dy * dy) - slack * (query_.abs + abs_sums[i]);
  }
}

}  // namespace subseq
