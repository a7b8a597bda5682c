#include "subseq/distance/weighted_edit.h"

#include <algorithm>
#include <cstdio>

#include "subseq/core/check.h"
#include "subseq/distance/simd/kernels.h"

namespace subseq {

namespace {

size_t Idx(size_t row, size_t col, size_t stride) {
  return row * stride + col;
}

}  // namespace

Result<SubstitutionCostModel> SubstitutionCostModel::Create(
    std::string alphabet, std::vector<double> substitution,
    std::vector<double> gap) {
  const size_t n = alphabet.size();
  if (n == 0) return Status::InvalidArgument("alphabet must not be empty");
  if (substitution.size() != n * n) {
    return Status::InvalidArgument("substitution matrix must be |A| x |A|");
  }
  if (gap.size() != n) {
    return Status::InvalidArgument("gap vector must have |A| entries");
  }
  char buf[128];
  for (size_t i = 0; i < n; ++i) {
    if (substitution[Idx(i, i, n)] != 0.0) {
      return Status::InvalidArgument("substitution diagonal must be zero");
    }
    if (gap[i] <= 0.0) {
      return Status::InvalidArgument("gap costs must be positive");
    }
    for (size_t j = 0; j < n; ++j) {
      if (i != j && substitution[Idx(i, j, n)] <= 0.0) {
        return Status::InvalidArgument(
            "off-diagonal substitution costs must be positive");
      }
      if (substitution[Idx(i, j, n)] != substitution[Idx(j, i, n)]) {
        return Status::InvalidArgument(
            "substitution matrix must be symmetric");
      }
    }
  }
  // Triangle inequalities over the alphabet extended with the gap symbol.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      for (size_t k = 0; k < n; ++k) {
        if (substitution[Idx(i, k, n)] >
            substitution[Idx(i, j, n)] + substitution[Idx(j, k, n)] + 1e-12) {
          std::snprintf(buf, sizeof(buf),
                        "triangle violated: sub(%c,%c) > sub(%c,%c)+sub(%c,%c)",
                        alphabet[i], alphabet[k], alphabet[i], alphabet[j],
                        alphabet[j], alphabet[k]);
          return Status::InvalidArgument(buf);
        }
      }
      if (substitution[Idx(i, j, n)] > gap[i] + gap[j] + 1e-12) {
        return Status::InvalidArgument(
            "triangle violated: sub(a,b) > gap(a) + gap(b)");
      }
      if (gap[i] > substitution[Idx(i, j, n)] + gap[j] + 1e-12) {
        return Status::InvalidArgument(
            "triangle violated: gap(a) > sub(a,b) + gap(b)");
      }
    }
  }

  SubstitutionCostModel model;
  model.alphabet_ = std::move(alphabet);
  model.symbol_index_.fill(-1);
  for (size_t i = 0; i < model.alphabet_.size(); ++i) {
    model.symbol_index_[static_cast<unsigned char>(model.alphabet_[i])] =
        static_cast<int16_t>(i);
  }
  model.substitution_ = std::move(substitution);
  model.gap_ = std::move(gap);
  return model;
}

SubstitutionCostModel SubstitutionCostModel::UnitCosts(std::string alphabet) {
  const size_t n = alphabet.size();
  std::vector<double> sub(n * n, 1.0);
  for (size_t i = 0; i < n; ++i) sub[Idx(i, i, n)] = 0.0;
  std::vector<double> gap(n, 1.0);
  auto result = Create(std::move(alphabet), std::move(sub), std::move(gap));
  SUBSEQ_CHECK(result.ok());
  return std::move(result).ValueOrDie();
}

SubstitutionCostModel SubstitutionCostModel::ProteinClasses() {
  const std::string alphabet = "ACDEFGHIKLMNPQRSTVWY";
  // Physicochemical groups: aliphatic/hydrophobic, aromatic, polar,
  // positive, negative, special.
  auto group = [](char c) -> int {
    switch (c) {
      case 'A': case 'I': case 'L': case 'M': case 'V':
        return 0;  // hydrophobic
      case 'F': case 'W': case 'Y':
        return 1;  // aromatic
      case 'N': case 'Q': case 'S': case 'T':
        return 2;  // polar
      case 'H': case 'K': case 'R':
        return 3;  // positive
      case 'D': case 'E':
        return 4;  // negative
      default:
        return 5;  // C, G, P — special conformations
    }
  };
  const size_t n = alphabet.size();
  std::vector<double> sub(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      sub[Idx(i, j, n)] =
          group(alphabet[i]) == group(alphabet[j]) ? 0.5 : 1.0;
    }
  }
  std::vector<double> gap(n, 0.8);
  auto result = Create(alphabet, std::move(sub), std::move(gap));
  SUBSEQ_CHECK(result.ok());
  return std::move(result).ValueOrDie();
}

double SubstitutionCostModel::Substitution(char a, char b) const {
  const int16_t ia = symbol_index_[static_cast<unsigned char>(a)];
  const int16_t ib = symbol_index_[static_cast<unsigned char>(b)];
  SUBSEQ_DCHECK(ia >= 0 && ib >= 0);
  return substitution_[Idx(static_cast<size_t>(ia), static_cast<size_t>(ib),
                           alphabet_.size())];
}

double SubstitutionCostModel::Gap(char a) const {
  const int16_t ia = symbol_index_[static_cast<unsigned char>(a)];
  SUBSEQ_DCHECK(ia >= 0);
  return gap_[static_cast<size_t>(ia)];
}

bool SubstitutionCostModel::Admits(char c) const {
  return symbol_index_[static_cast<unsigned char>(c)] >= 0;
}

double WeightedEditDistance::Compute(std::span<const char> a,
                                     std::span<const char> b) const {
  return ComputeBounded(a, b, kInfiniteDistance);
}

double WeightedEditDistance::ComputeBounded(std::span<const char> a,
                                            std::span<const char> b,
                                            double upper_bound) const {
  return Rows(a, b, upper_bound, 0, nullptr);
}

void WeightedEditDistance::ComputePrefixes(std::span<const char> a,
                                           std::span<const char> b,
                                           size_t min_len,
                                           double* out) const {
  Rows(a, b, kInfiniteDistance, min_len, out);
}

double WeightedEditDistance::Rows(std::span<const char> a,
                                  std::span<const char> b, double upper_bound,
                                  size_t min_len, double* prefixes) const {
  const size_t n = a.size();
  const size_t m = b.size();
  // Resolve b's symbol indices once; per row, the substitution and gap
  // cost rows become table gathers and the combine goes through the
  // dispatched kernel (bit-identical to the per-cell formulation —
  // gathers load the very same table entries).
  const simd::Kernels& kernels = simd::GetKernels();
  std::vector<double> prev(m + 1, 0.0);
  std::vector<double> curr(m + 1, 0.0);
  std::vector<double> sub(m + 1, 0.0);
  std::vector<double> gap_b(m + 1, 0.0);
  std::vector<int32_t> ib(m + 1, 0);
  for (size_t j = 1; j <= m; ++j) {
    const int16_t idx = model_.IndexOf(b[j - 1]);
    SUBSEQ_DCHECK(idx >= 0);
    ib[j] = idx;
  }
  kernels.gather_row(model_.gap_data(), ib.data() + 1, gap_b.data() + 1, m);
  for (size_t j = 1; j <= m; ++j) {
    prev[j] = prev[j - 1] + gap_b[j];
  }
  if (prefixes != nullptr && min_len == 0) prefixes[0] = prev[m];
  for (size_t i = 1; i <= n; ++i) {
    const int16_t ia = model_.IndexOf(a[i - 1]);
    SUBSEQ_DCHECK(ia >= 0);
    const double gap_a = model_.gap_data()[static_cast<size_t>(ia)];
    kernels.gather_row(model_.SubstitutionRow(ia), ib.data() + 1,
                       sub.data() + 1, m);
    const double row_min = kernels.gap_combine_row(
        prev.data(), curr.data(), sub.data(), gap_a, gap_b.data(), m);
    if (row_min > upper_bound) return kInfiniteDistance;
    std::swap(prev, curr);
    if (prefixes != nullptr && i >= min_len) prefixes[i - min_len] = prev[m];
  }
  return prev[m];
}

Alignment WeightedEditDistance::ComputeWithPath(std::span<const char> a,
                                                std::span<const char> b) const {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t stride = m + 1;
  std::vector<double> dp((n + 1) * stride, 0.0);
  for (size_t j = 1; j <= m; ++j) {
    dp[j] = dp[j - 1] + model_.Gap(b[j - 1]);
  }
  for (size_t i = 1; i <= n; ++i) {
    dp[i * stride] = dp[(i - 1) * stride] + model_.Gap(a[i - 1]);
    for (size_t j = 1; j <= m; ++j) {
      dp[i * stride + j] = std::min(
          {dp[(i - 1) * stride + (j - 1)] +
               model_.Substitution(a[i - 1], b[j - 1]),
           dp[(i - 1) * stride + j] + model_.Gap(a[i - 1]),
           dp[i * stride + (j - 1)] + model_.Gap(b[j - 1])});
    }
  }

  Alignment result;
  result.distance = dp[n * stride + m];
  size_t i = n;
  size_t j = m;
  while (i > 0 || j > 0) {
    const double here = dp[i * stride + j];
    if (i > 0 && j > 0) {
      const double cost = model_.Substitution(a[i - 1], b[j - 1]);
      if (dp[(i - 1) * stride + (j - 1)] + cost == here) {
        result.couplings.push_back(Coupling{static_cast<int32_t>(i - 1),
                                            static_cast<int32_t>(j - 1),
                                            AlignOp::kMatch, cost});
        --i;
        --j;
        continue;
      }
    }
    if (i > 0) {
      const double cost = model_.Gap(a[i - 1]);
      if (dp[(i - 1) * stride + j] + cost == here) {
        result.couplings.push_back(Coupling{static_cast<int32_t>(i - 1),
                                            static_cast<int32_t>(j),
                                            AlignOp::kGapA, cost});
        --i;
        continue;
      }
    }
    result.couplings.push_back(Coupling{static_cast<int32_t>(i),
                                        static_cast<int32_t>(j - 1),
                                        AlignOp::kGapB,
                                        model_.Gap(b[j - 1])});
    --j;
  }
  std::reverse(result.couplings.begin(), result.couplings.end());
  return result;
}

}  // namespace subseq
