// SequenceDistance::ComputePrefixes must equal Compute on every prefix,
// bit for bit and +inf included, for every shipped distance instance:
// step 4 answers each segment length cut at one query start from one
// such call per window, so any difference would change a hit or a hit
// distance. The sweep crosses both 64-element limits — the Levenshtein
// kernel's pattern word and the anti-diagonal threshold — with |a| and
// |b| from 0 to 70 and every min_len <= |a|, and ERP runs it once more
// with the wavefront kernel forced on every pair Compute may hand it. A
// canary past the last slot catches a write beyond |a| - min_len + 1
// values.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "subseq/core/rng.h"
#include "subseq/distance/dtw.h"
#include "subseq/distance/erp.h"
#include "subseq/distance/euclidean.h"
#include "subseq/distance/frechet.h"
#include "subseq/distance/hamming.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/distance/lp.h"
#include "subseq/distance/simd/cpu_features.h"
#include "subseq/distance/weighted_edit.h"
#include "testing/helpers.h"

namespace subseq {
namespace {

using ::subseq::testing::RandomSeries;
using ::subseq::testing::RandomString;
using ::subseq::testing::RandomTrack;

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// Fixed lengths on both sides of each 64-element limit plus seeded ones.
std::vector<int32_t> SweepLengths(Rng* rng) {
  std::vector<int32_t> lengths = {0, 1, 2, 7, 31, 63, 64, 65, 70};
  for (int i = 0; i < 3; ++i) {
    lengths.push_back(static_cast<int32_t>(rng->NextBounded(71)));
  }
  return lengths;
}

// Every (|a|, |b|) pair of the sweep lengths and every min_len <= |a|:
// out[i] must be Compute(a.first(min_len + i), b) bitwise, and the slot
// after the last one must stay untouched.
template <typename T, typename Draw>
void ExpectPrefixesMatchCompute(const SequenceDistance<T>& dist,
                                uint64_t seed, const Draw& draw) {
  SCOPED_TRACE(std::string(dist.name()));
  Rng rng(seed);
  const std::vector<int32_t> lengths = SweepLengths(&rng);
  constexpr double kCanary = -1.0;  // no distance is negative
  for (const int32_t na : lengths) {
    for (const int32_t nb : lengths) {
      const std::vector<T> a = draw(&rng, na);
      const std::vector<T> b = draw(&rng, nb);
      const std::span<const T> as(a);
      const std::span<const T> bs(b);
      std::vector<double> want(a.size() + 1);
      for (size_t len = 0; len <= a.size(); ++len) {
        want[len] = dist.Compute(as.first(len), bs);
      }
      for (size_t min_len = 0; min_len <= a.size(); ++min_len) {
        const size_t count = a.size() - min_len + 1;
        std::vector<double> out(count + 1, kCanary);
        dist.ComputePrefixes(as, bs, min_len, out.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(Bits(out[i]), Bits(want[min_len + i]))
              << "|a|=" << na << " |b|=" << nb << " min_len=" << min_len
              << " prefix " << min_len + i << ": " << out[i] << " vs "
              << want[min_len + i];
        }
        ASSERT_EQ(Bits(out[count]), Bits(kCanary))
            << "write past the last prefix: |a|=" << na << " |b|=" << nb
            << " min_len=" << min_len;
      }
    }
  }
}

// Draws with repeated elements, so the edit distances see matches.
std::vector<char> Protein(Rng* rng, int32_t n) {
  return RandomString(rng, n, "ACDEFGHIKLMNPQRSTVWY");
}
std::vector<char> Dna(Rng* rng, int32_t n) { return RandomString(rng, n); }
std::vector<double> Series(Rng* rng, int32_t n) {
  return RandomSeries(rng, n);
}
std::vector<double> Levels(Rng* rng, int32_t n) {
  std::vector<double> out;
  for (int32_t i = 0; i < n; ++i) {
    out.push_back(static_cast<double>(rng->NextBounded(4)));
  }
  return out;
}
std::vector<Point2d> Track(Rng* rng, int32_t n) { return RandomTrack(rng, n); }

TEST(PrefixDistanceTest, StringPrefixesMatchComputeBitForBit) {
  ExpectPrefixesMatchCompute(LevenshteinDistance<char>(), 701, Dna);
  ExpectPrefixesMatchCompute(LevenshteinDistance<char>(), 702, Protein);
  ExpectPrefixesMatchCompute(HammingDistance<char>(), 703, Dna);
  ExpectPrefixesMatchCompute(
      WeightedEditDistance(SubstitutionCostModel::ProteinClasses()), 704,
      Protein);
  ExpectPrefixesMatchCompute(
      WeightedEditDistance(SubstitutionCostModel::UnitCosts("ACGT")), 705,
      Dna);
}

TEST(PrefixDistanceTest, SeriesPrefixesMatchComputeBitForBit) {
  ExpectPrefixesMatchCompute(ErpDistance1D(), 711, Series);
  ExpectPrefixesMatchCompute(FrechetDistance1D(), 712, Series);
  ExpectPrefixesMatchCompute(DtwDistance1D(), 713, Series);
  ExpectPrefixesMatchCompute(DtwDistance1D(/*band=*/3), 714, Series);
  ExpectPrefixesMatchCompute(EuclideanDistance1D(), 715, Series);
  ExpectPrefixesMatchCompute(L1Distance1D(1.0), 716, Series);
  ExpectPrefixesMatchCompute(LInfDistance1D(kLInfinity), 717, Series);
  ExpectPrefixesMatchCompute(LevenshteinDistance<double>(), 718, Levels);
  ExpectPrefixesMatchCompute(HammingDistance<double>(), 719, Levels);
}

TEST(PrefixDistanceTest, TrackPrefixesMatchComputeBitForBit) {
  ExpectPrefixesMatchCompute(ErpDistance2D(), 721, Track);
  ExpectPrefixesMatchCompute(FrechetDistance2D(), 722, Track);
  ExpectPrefixesMatchCompute(DtwDistance2D(), 723, Track);
  ExpectPrefixesMatchCompute(EuclideanDistance2D(), 724, Track);
  ExpectPrefixesMatchCompute(MinkowskiDistance2D(1.0), 725, Track);
}

// Forces the anti-diagonal kernel for a scope (threshold 1: every pair
// with two non-empty operands), restoring the default on exit.
class ScopedWavefront {
 public:
  ScopedWavefront() { simd::SetAntidiagThresholdForTesting(1); }
  ~ScopedWavefront() { simd::ClearAntidiagThresholdForTesting(); }
};

// Only ERP and DTW take the wavefront kernel, and only ERP overrides
// ComputePrefixes: its one row DP must still equal what Compute returns
// through the anti-diagonal kernel.
TEST(PrefixDistanceTest, ErpPrefixesMatchComputeWithTheWavefrontForced) {
  const ScopedWavefront wavefront;
  ExpectPrefixesMatchCompute(ErpDistance1D(), 731, Series);
  ExpectPrefixesMatchCompute(ErpDistance2D(), 732, Track);
}

}  // namespace
}  // namespace subseq
