#include "subseq/distance/levenshtein.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "subseq/core/rng.h"
#include "subseq/distance/alignment.h"

namespace subseq {
namespace {

std::vector<char> Str(std::string_view s) {
  return std::vector<char>(s.begin(), s.end());
}

TEST(LevenshteinTest, ClassicExamples) {
  LevenshteinDistance<char> d;
  EXPECT_DOUBLE_EQ(d.Compute(Str("kitten"), Str("sitting")), 3.0);
  EXPECT_DOUBLE_EQ(d.Compute(Str("flaw"), Str("lawn")), 2.0);
  EXPECT_DOUBLE_EQ(d.Compute(Str("intention"), Str("execution")), 5.0);
}

TEST(LevenshteinTest, EmptyAgainstString) {
  LevenshteinDistance<char> d;
  EXPECT_DOUBLE_EQ(d.Compute(Str(""), Str("abc")), 3.0);
  EXPECT_DOUBLE_EQ(d.Compute(Str("abc"), Str("")), 3.0);
  EXPECT_DOUBLE_EQ(d.Compute(Str(""), Str("")), 0.0);
}

TEST(LevenshteinTest, IdenticalAtZero) {
  LevenshteinDistance<char> d;
  EXPECT_DOUBLE_EQ(d.Compute(Str("PROTEIN"), Str("PROTEIN")), 0.0);
}

TEST(LevenshteinTest, BoundedByLongerLength) {
  LevenshteinDistance<char> d;
  Rng rng(61);
  const std::string_view alphabet = "ACGT";
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<char> a;
    std::vector<char> b;
    const size_t na = 1 + rng.NextBounded(12);
    const size_t nb = 1 + rng.NextBounded(12);
    for (size_t i = 0; i < na; ++i) {
      a.push_back(alphabet[rng.NextBounded(4)]);
    }
    for (size_t i = 0; i < nb; ++i) {
      b.push_back(alphabet[rng.NextBounded(4)]);
    }
    const double dist = d.Compute(a, b);
    EXPECT_LE(dist, static_cast<double>(std::max(na, nb)));
    EXPECT_GE(dist, static_cast<double>(na > nb ? na - nb : nb - na));
  }
}

TEST(LevenshteinTest, BoundedShortCircuitsOnLengthGap) {
  LevenshteinDistance<char> d;
  EXPECT_GT(d.ComputeBounded(Str("AAAAAAAAAA"), Str("A"), 3.0), 3.0);
}

TEST(LevenshteinTest, BoundedExactWithinBound) {
  LevenshteinDistance<char> d;
  EXPECT_DOUBLE_EQ(d.ComputeBounded(Str("kitten"), Str("sitting"), 3.0),
                   3.0);
  EXPECT_GT(d.ComputeBounded(Str("kitten"), Str("sitting"), 2.0), 2.0);
}

TEST(LevenshteinTest, EditScriptMatchesDistance) {
  LevenshteinDistance<char> d;
  const auto a = Str("kitten");
  const auto b = Str("sitting");
  const Alignment al = d.ComputeWithPath(a, b);
  EXPECT_DOUBLE_EQ(al.distance, 3.0);
  double sum = 0.0;
  for (const Coupling& c : al.couplings) sum += c.cost;
  EXPECT_DOUBLE_EQ(sum, 3.0);
  const auto err = ValidateAlignment(al, 6, 7, /*allow_gaps=*/true);
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST(LevenshteinTest, EditScriptOnRandomPairs) {
  LevenshteinDistance<char> d;
  Rng rng(67);
  const std::string_view alphabet = "ACGT";
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<char> a;
    std::vector<char> b;
    const int na = 1 + static_cast<int>(rng.NextBounded(10));
    const int nb = 1 + static_cast<int>(rng.NextBounded(10));
    for (int i = 0; i < na; ++i) a.push_back(alphabet[rng.NextBounded(4)]);
    for (int i = 0; i < nb; ++i) b.push_back(alphabet[rng.NextBounded(4)]);
    const Alignment al = d.ComputeWithPath(a, b);
    EXPECT_DOUBLE_EQ(al.distance, d.Compute(a, b));
    const auto err = ValidateAlignment(al, na, nb, /*allow_gaps=*/true);
    EXPECT_FALSE(err.has_value()) << *err;
  }
}

TEST(LevenshteinTest, TriangleInequalityOnRandomTriples) {
  LevenshteinDistance<char> d;
  Rng rng(71);
  const std::string_view alphabet = "AC";
  auto make = [&]() {
    std::vector<char> v;
    const int n = 1 + static_cast<int>(rng.NextBounded(8));
    for (int i = 0; i < n; ++i) v.push_back(alphabet[rng.NextBounded(2)]);
    return v;
  };
  for (int trial = 0; trial < 60; ++trial) {
    const auto x = make();
    const auto y = make();
    const auto z = make();
    EXPECT_LE(d.Compute(x, z), d.Compute(x, y) + d.Compute(y, z));
  }
}

TEST(LevenshteinTest, WorksOnDoubles) {
  LevenshteinDistance<double> d;
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(d.Compute(a, b), 1.0);
}

// Letters of a 2-, 4- or 20-letter alphabet; 256 draws every byte value,
// so '\0' and bytes >= 0x80 (negative as char) occur too.
char RandomSymbol(Rng& rng, int alphabet) {
  if (alphabet == 256) return static_cast<char>(rng.NextBounded(256));
  return "ACDEFGHIKLMNPQRSTVWY"[rng.NextBounded(
      static_cast<uint64_t>(alphabet))];
}

std::vector<char> RandomString(Rng& rng, size_t length, int alphabet) {
  std::vector<char> s;
  for (size_t i = 0; i < length; ++i) s.push_back(RandomSymbol(rng, alphabet));
  return s;
}

// `s` after `edits` random substitutions, insertions and deletions,
// kept within 80 elements.
std::vector<char> Mutate(Rng& rng, std::vector<char> s, int edits,
                         int alphabet) {
  for (int e = 0; e < edits; ++e) {
    const uint64_t op = rng.NextBounded(3);
    if (op == 0 && !s.empty()) {
      s[rng.NextBounded(s.size())] = RandomSymbol(rng, alphabet);
    } else if (op == 1 && s.size() < 80) {
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                               rng.NextBounded(s.size() + 1)),
               RandomSymbol(rng, alphabet));
    } else if (!s.empty()) {
      s.erase(s.begin() +
              static_cast<std::ptrdiff_t>(rng.NextBounded(s.size())));
    }
  }
  return s;
}

std::vector<double> Widen(const std::vector<char>& s) {
  return std::vector<double>(s.begin(), s.end());
}

TEST(LevenshteinTest, CharKernelMatchesDpOnSeededSweep) {
  // The char instance takes the bit-parallel kernel whenever the shorter
  // operand has at most 64 elements; the double instance always runs the
  // row DP, so on the same bytes widened it is the reference. Lengths
  // 0..80 on each side cross both operand orders and the 64/65 dispatch
  // boundary; half the pairs are random, half a few edits apart.
  const LevenshteinDistance<char> kernel;
  const LevenshteinDistance<double> dp;
  const double bounds[] = {-1.0, 0.0, 0.5, 1.0, 2.0,
                           3.0,  7.5, 64.0, kInfiniteDistance};
  Rng rng(1999);
  int pairs = 0;
  for (const int alphabet : {2, 4, 20, 256}) {
    for (int trial = 0; trial < 12500; ++trial) {
      const std::vector<char> a = RandomString(rng, rng.NextBounded(81),
                                               alphabet);
      const std::vector<char> b =
          trial % 2 == 0
              ? RandomString(rng, rng.NextBounded(81), alphabet)
              : Mutate(rng, a, 1 + static_cast<int>(rng.NextBounded(4)),
                       alphabet);
      const std::string where = "alphabet " + std::to_string(alphabet) +
                                " trial " + std::to_string(trial) +
                                " lengths " + std::to_string(a.size()) +
                                "/" + std::to_string(b.size());
      const double expected = dp.Compute(Widen(a), Widen(b));
      ASSERT_EQ(kernel.Compute(a, b), expected) << where;
      for (const double bound : bounds) {
        const double got = kernel.ComputeBounded(a, b, bound);
        if (expected <= bound) {
          ASSERT_EQ(got, expected) << where << " bound " << bound;
        } else if (std::min(a.size(), b.size()) <= 64) {
          // The kernel's cut-off is exact: by the last column it has
          // abandoned every pair whose distance exceeds the bound.
          ASSERT_EQ(got, kInfiniteDistance) << where << " bound " << bound;
        } else {
          ASSERT_GT(got, bound) << where << " bound " << bound;
        }
      }
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 50000);
}

TEST(LevenshteinTest, PropertyFlags) {
  LevenshteinDistance<char> d;
  EXPECT_TRUE(d.is_metric());
  EXPECT_TRUE(d.is_consistent());
  EXPECT_EQ(d.name(), "levenshtein");
}

}  // namespace
}  // namespace subseq
