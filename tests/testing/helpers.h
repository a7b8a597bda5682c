// Shared test utilities: random element vectors, simple metric-space
// oracles, a distance that counts its evaluations, and a brute-force
// subsequence searcher used as ground truth.

#ifndef SUBSEQ_TESTS_TESTING_HELPERS_H_
#define SUBSEQ_TESTS_TESTING_HELPERS_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <string_view>
#include <vector>

#include "subseq/core/rng.h"
#include "subseq/core/sequence.h"
#include "subseq/core/types.h"
#include "subseq/distance/distance.h"
#include "subseq/frame/matcher.h"
#include "subseq/metric/oracle.h"

namespace subseq::testing {

inline std::vector<char> RandomString(Rng* rng, int32_t length,
                                      std::string_view alphabet = "ACGT") {
  std::vector<char> out;
  out.reserve(static_cast<size_t>(length));
  for (int32_t i = 0; i < length; ++i) {
    out.push_back(alphabet[static_cast<size_t>(
        rng->NextBounded(alphabet.size()))]);
  }
  return out;
}

inline std::vector<double> RandomSeries(Rng* rng, int32_t length,
                                        double lo = 0.0, double hi = 10.0) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(length));
  for (int32_t i = 0; i < length; ++i) out.push_back(rng->NextDouble(lo, hi));
  return out;
}

inline std::vector<Point2d> RandomTrack(Rng* rng, int32_t length,
                                        double extent = 10.0) {
  std::vector<Point2d> out;
  out.reserve(static_cast<size_t>(length));
  for (int32_t i = 0; i < length; ++i) {
    out.push_back(Point2d{rng->NextDouble(0.0, extent),
                          rng->NextDouble(0.0, extent)});
  }
  return out;
}

/// 1-D points under |a - b|: the simplest metric space for index tests.
class ScalarPointOracle final : public DistanceOracle {
 public:
  explicit ScalarPointOracle(std::vector<double> points)
      : points_(std::move(points)) {}

  int32_t size() const override {
    return static_cast<int32_t>(points_.size());
  }
  double Distance(ObjectId a, ObjectId b) const override {
    return std::fabs(points_[static_cast<size_t>(a)] -
                     points_[static_cast<size_t>(b)]);
  }
  QueryDistanceFn QueryFrom(double q) const {
    return [this, q](ObjectId id) {
      return std::fabs(q - points_[static_cast<size_t>(id)]);
    };
  }
  const std::vector<double>& points() const { return points_; }

 private:
  std::vector<double> points_;
};

/// 2-D points under the Euclidean distance.
class PlanePointOracle final : public DistanceOracle {
 public:
  explicit PlanePointOracle(std::vector<Point2d> points)
      : points_(std::move(points)) {}

  int32_t size() const override {
    return static_cast<int32_t>(points_.size());
  }
  double Distance(ObjectId a, ObjectId b) const override {
    return PointDistance(points_[static_cast<size_t>(a)],
                         points_[static_cast<size_t>(b)]);
  }
  QueryDistanceFn QueryFrom(Point2d q) const {
    return [this, q](ObjectId id) {
      return PointDistance(q, points_[static_cast<size_t>(id)]);
    };
  }

 private:
  std::vector<Point2d> points_;
};

/// Counts every distance evaluation delegated to the wrapped measure —
/// index traversals, per-hit distance fills and step-5 verifications
/// alike — so tests can assert exactly how much distance work a code
/// path executed. Thread-safe.
template <typename T>
class CountingDistance : public SequenceDistance<T> {
 public:
  explicit CountingDistance(const SequenceDistance<T>& inner)
      : inner_(inner) {}

  double Compute(std::span<const T> a, std::span<const T> b) const override {
    computes_.fetch_add(1, std::memory_order_relaxed);
    return inner_.Compute(a, b);
  }
  double ComputeBounded(std::span<const T> a, std::span<const T> b,
                        double upper_bound) const override {
    computes_.fetch_add(1, std::memory_order_relaxed);
    return inner_.ComputeBounded(a, b, upper_bound);
  }
  std::string_view name() const override { return inner_.name(); }
  bool is_metric() const override { return inner_.is_metric(); }
  bool is_consistent() const override { return inner_.is_consistent(); }

  int64_t computes() const {
    return computes_.load(std::memory_order_relaxed);
  }

 private:
  const SequenceDistance<T>& inner_;
  mutable std::atomic<int64_t> computes_{0};
};

/// All subsequence pairs (SQ, SX) over the whole database satisfying the
/// Type I constraints — O(|Q|^2 |X|^2) distance calls; tiny inputs only.
template <typename T>
std::vector<SubsequenceMatch> BruteForceRangeSearch(
    const SequenceDatabase<T>& db, const SequenceDistance<T>& dist,
    std::span<const T> query, double epsilon, int32_t lambda,
    int32_t lambda0) {
  std::vector<SubsequenceMatch> out;
  const int32_t qn = static_cast<int32_t>(query.size());
  for (SeqId s = 0; s < db.size(); ++s) {
    const Sequence<T>& x = db.at(s);
    for (int32_t qb = 0; qb + lambda <= qn; ++qb) {
      for (int32_t qe = qb + lambda; qe <= qn; ++qe) {
        const auto sq = query.subspan(static_cast<size_t>(qb),
                                      static_cast<size_t>(qe - qb));
        for (int32_t xb = 0; xb + lambda <= x.size(); ++xb) {
          for (int32_t xe = xb + lambda; xe <= x.size(); ++xe) {
            if (std::abs((qe - qb) - (xe - xb)) > lambda0) continue;
            const auto sx = x.Subsequence(Interval{xb, xe});
            const double d = dist.Compute(sq, sx);
            if (d <= epsilon) {
              out.push_back(SubsequenceMatch{s, Interval{qb, qe},
                                             Interval{xb, xe}, d});
            }
          }
        }
      }
    }
  }
  return out;
}

/// Canonical ordering for match-set comparisons.
inline void SortMatches(std::vector<SubsequenceMatch>* matches) {
  std::sort(matches->begin(), matches->end(),
            [](const SubsequenceMatch& a, const SubsequenceMatch& b) {
              return std::tie(a.seq, a.query.begin, a.query.end, a.db.begin,
                              a.db.end) <
                     std::tie(b.seq, b.query.begin, b.query.end, b.db.begin,
                              b.db.end);
            });
}

}  // namespace subseq::testing

#endif  // SUBSEQ_TESTS_TESTING_HELPERS_H_
