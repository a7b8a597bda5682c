#include "subseq/frame/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "subseq/core/rng.h"
#include "subseq/data/protein_gen.h"
#include "subseq/data/song_gen.h"
#include "subseq/data/trajectory_gen.h"
#include "subseq/distance/dtw.h"
#include "subseq/distance/erp.h"
#include "subseq/distance/frechet.h"
#include "subseq/distance/levenshtein.h"
#include "testing/helpers.h"

namespace subseq {
namespace {

using ::subseq::testing::BruteForceRangeSearch;
using ::subseq::testing::CountingDistance;
using ::subseq::testing::RandomString;
using ::subseq::testing::SortMatches;

// ---------------------------------------------------------------------------
// Build validation.

TEST(MatcherBuildTest, RejectsOddLambda) {
  SequenceDatabase<char> db;
  db.Add(MakeStringSequence("ACGTACGTACGT"));
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 7;
  const auto result = SubsequenceMatcher<char>::Build(db, dist, options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatcherBuildTest, RejectsBadLambda0) {
  SequenceDatabase<char> db;
  db.Add(MakeStringSequence("ACGTACGTACGT"));
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 4;  // must be < lambda / 2
  EXPECT_EQ(SubsequenceMatcher<char>::Build(db, dist, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.lambda0 = -1;
  EXPECT_EQ(SubsequenceMatcher<char>::Build(db, dist, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(MatcherBuildTest, RejectsNonMetricDistanceWithMetricIndex) {
  SequenceDatabase<double> db;
  db.Add(Sequence<double>({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  const DtwDistance1D dtw;
  MatcherOptions options;
  options.lambda = 6;
  options.lambda0 = 1;
  options.index_kind = IndexKind::kReferenceNet;
  EXPECT_EQ(SubsequenceMatcher<double>::Build(db, dtw, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(MatcherBuildTest, AcceptsDtwWithLinearScan) {
  SequenceDatabase<double> db;
  db.Add(Sequence<double>({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  const DtwDistance1D dtw;
  MatcherOptions options;
  options.lambda = 6;
  options.lambda0 = 1;
  options.index_kind = IndexKind::kLinearScan;
  EXPECT_TRUE(SubsequenceMatcher<double>::Build(db, dtw, options).ok());
}

TEST(MatcherBuildTest, RejectsBandedDtwEvenWithLinearScan) {
  // A banded DTW is not consistent, so the filter would dismiss matches.
  SequenceDatabase<double> db;
  db.Add(Sequence<double>({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  const DtwDistance1D banded(2);
  MatcherOptions options;
  options.lambda = 6;
  options.lambda0 = 1;
  options.index_kind = IndexKind::kLinearScan;
  EXPECT_EQ(SubsequenceMatcher<double>::Build(db, banded, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(MatcherBuildTest, WindowLengthIsHalfLambda) {
  SequenceDatabase<char> db;
  db.Add(MakeStringSequence("ACGTACGTACGTACGTACGT"));
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 2;
  auto matcher = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                     .ValueOrDie();
  EXPECT_EQ(matcher->window_length(), 4);
  EXPECT_EQ(matcher->catalog().num_windows(), 5);
}

// ---------------------------------------------------------------------------
// Filter behaviour (steps 3-4).

TEST(MatcherFilterTest, IdenticalSubsequenceProducesHits) {
  // The database contains the query's middle verbatim, so segments must
  // hit at epsilon 0.
  const Sequence<char> query =
      MakeStringSequence("WWWWACGTACGTACGTWWWW");
  SequenceDatabase<char> db;
  db.Add(MakeStringSequence("KKKKKKKKACGTACGTACGTKKKKKKKK"));
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 2;
  auto matcher = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                     .ValueOrDie();
  MatchQueryStats stats;
  const auto hits = matcher->FilterSegments(query.view(), 0.0, &stats);
  EXPECT_FALSE(hits.empty());
  EXPECT_GT(stats.segments, 0);
  EXPECT_GT(stats.filter_computations, 0);
}

TEST(MatcherFilterTest, NoSpuriousHitsAtZeroEpsilonOnDisjointAlphabets) {
  const Sequence<char> query = MakeStringSequence("AAAAAAAAAAAAAAAA");
  SequenceDatabase<char> db;
  db.Add(MakeStringSequence("CCCCCCCCCCCCCCCCCCCCCCCC"));
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 2;
  auto matcher = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                     .ValueOrDie();
  EXPECT_TRUE(matcher->FilterSegments(query.view(), 0.0, nullptr).empty());
}

// Lemma 2/3 no-false-dismissal at the filter level: for every true match
// (found by brute force) with distance <= lambda0, some window fully inside
// its SX must be hit.
TEST(MatcherFilterTest, FilterNeverDismissesTrueMatches) {
  Rng rng(321);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 2;

  for (int trial = 0; trial < 5; ++trial) {
    SequenceDatabase<char> db;
    db.Add(Sequence<char>(RandomString(&rng, 40, "ACG")));
    const auto query_elems = RandomString(&rng, 24, "ACG");
    auto matcher =
        std::move(SubsequenceMatcher<char>::Build(db, dist, options))
            .ValueOrDie();

    const double eps = 2.0;  // == lambda0, the lossless regime
    const auto truth = BruteForceRangeSearch<char>(
        db, dist, query_elems, eps, options.lambda, options.lambda0);
    const auto hits = matcher->FilterSegments(query_elems, eps, nullptr);
    std::set<ObjectId> hit_windows;
    for (const auto& h : hits) hit_windows.insert(h.window);

    for (const auto& match : truth) {
      bool some_window_hit = false;
      for (ObjectId w = 0; w < matcher->catalog().num_windows(); ++w) {
        if (matcher->catalog().at(w).seq != match.seq) continue;
        if (!match.db.Contains(matcher->catalog().at(w).span)) continue;
        if (hit_windows.count(w) > 0) {
          some_window_hit = true;
          break;
        }
      }
      EXPECT_TRUE(some_window_hit)
          << "match SX=[" << match.db.begin << "," << match.db.end
          << ") d=" << match.distance << " dismissed by the filter";
    }
  }
}

// ---------------------------------------------------------------------------
// Type I.

TEST(MatcherTypeITest, ResultsAreSoundAndVerified) {
  Rng rng(654);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 2;
  SequenceDatabase<char> db;
  db.Add(Sequence<char>(RandomString(&rng, 36, "ACG")));
  const auto query_elems = RandomString(&rng, 20, "ACG");
  auto matcher = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                     .ValueOrDie();

  const double eps = 2.0;
  auto result = matcher->RangeSearch(query_elems, eps);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto truth = BruteForceRangeSearch<char>(
      db, dist, query_elems, eps, options.lambda, options.lambda0);
  std::set<std::array<int32_t, 5>> truth_keys;
  for (const auto& m : truth) {
    truth_keys.insert({m.seq, m.query.begin, m.query.end, m.db.begin,
                       m.db.end});
  }
  for (const auto& m : result.value()) {
    // Every reported match is a true match (correct distance, in truth).
    EXPECT_LE(m.distance, eps);
    EXPECT_DOUBLE_EQ(
        m.distance,
        dist.Compute(std::span<const char>(query_elems)
                         .subspan(static_cast<size_t>(m.query.begin),
                                  static_cast<size_t>(m.query.length())),
                     db.at(m.seq).Subsequence(m.db)));
    EXPECT_TRUE(truth_keys.count({m.seq, m.query.begin, m.query.end,
                                  m.db.begin, m.db.end}) > 0);
  }
  // No duplicates.
  std::set<std::array<int32_t, 5>> seen;
  for (const auto& m : result.value()) {
    EXPECT_TRUE(seen.insert({m.seq, m.query.begin, m.query.end, m.db.begin,
                             m.db.end})
                    .second);
  }
}

TEST(MatcherTypeITest, FindsPlantedExactCopy) {
  // Exact copies must be reported by Type I at epsilon 0.
  const std::string motif = "ACGTTGCAACGTTGCA";  // length 16
  SequenceDatabase<char> db;
  db.Add(MakeStringSequence("GGGGGGGG" + motif + "GGGGGGGG"));
  const Sequence<char> query =
      MakeStringSequence("TTTT" + motif + "TTTT");
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 16;
  options.lambda0 = 2;
  auto matcher = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                     .ValueOrDie();
  auto result = matcher->RangeSearch(query.view(), 0.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  bool found = false;
  for (const auto& m : result.value()) {
    if (m.query == (Interval{4, 20}) && m.db == (Interval{8, 24})) {
      found = true;
      EXPECT_DOUBLE_EQ(m.distance, 0.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MatcherOptionsTest, ZeroVerificationBudgetIsRejectedExplicitly) {
  // max_verifications = 0 is not "no limit": step 5 charges each
  // candidate pair before verifying it, so a zero budget would fail any
  // query with candidates. Build refuses it with a message saying so.
  Rng rng(31);
  SequenceDatabase<char> db;
  db.Add(Sequence<char>(RandomString(&rng, 40)));
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.max_verifications = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  const auto built = SubsequenceMatcher<char>::Build(db, dist, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().ToString().find("max_verifications = 0"),
            std::string::npos)
      << built.status().ToString();
}

TEST(MatcherOptionsTest, NegativeVerificationBudgetIsRejectedExplicitly) {
  Rng rng(32);
  SequenceDatabase<char> db;
  db.Add(Sequence<char>(RandomString(&rng, 40)));
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.max_verifications = -5;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  const auto built = SubsequenceMatcher<char>::Build(db, dist, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().ToString().find("negative"), std::string::npos)
      << built.status().ToString();
}

TEST(MatcherOptionsTest, NegativeExecKnobsAreRejected) {
  MatcherOptions options;
  options.exec.routing_cells = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.exec.routing_cells = 0;
  options.exec.num_threads = -2;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.exec.num_threads = 0;
  options.exec.num_shards = -3;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.exec.num_shards = 0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(MatcherTypeITest, VerificationCapReturnsOutOfRange) {
  Rng rng(987);
  SequenceDatabase<char> db;
  db.Add(Sequence<char>(RandomString(&rng, 60, "AC")));
  const auto query_elems = RandomString(&rng, 40, "AC");
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 2;
  options.max_verifications = 10;  // absurdly small
  auto matcher = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                     .ValueOrDie();
  const auto result = matcher->RangeSearch(query_elems, 4.0);
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// Type II.

TEST(MatcherTypeIITest, MatchesBruteForceOptimumInLosslessRegime) {
  Rng rng(111);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 2;

  for (int trial = 0; trial < 4; ++trial) {
    SequenceDatabase<char> db;
    db.Add(Sequence<char>(RandomString(&rng, 34, "ACG")));
    const auto query_elems = RandomString(&rng, 22, "ACG");
    auto matcher =
        std::move(SubsequenceMatcher<char>::Build(db, dist, options))
            .ValueOrDie();

    const double eps = 2.0;
    const auto truth = BruteForceRangeSearch<char>(
        db, dist, query_elems, eps, options.lambda, options.lambda0);
    int32_t best_len = 0;
    for (const auto& m : truth) {
      best_len = std::max(best_len, m.query.length());
    }

    auto result = matcher->LongestMatch(query_elems, eps);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (best_len == 0) {
      EXPECT_FALSE(result.value().has_value());
    } else {
      ASSERT_TRUE(result.value().has_value());
      EXPECT_EQ(result.value()->query.length(), best_len)
          << "trial " << trial;
      EXPECT_LE(result.value()->distance, eps);
    }
  }
}

TEST(MatcherTypeIITest, FindsLongPlantedMotif) {
  // A long shared region (3x lambda) with one substitution per half.
  const std::string motif = "ACGTTGCATGCAATGCACGTTGCA";  // length 24
  std::string mutated = motif;
  mutated[5] = 'A';
  mutated[17] = 'C';
  SequenceDatabase<char> db;
  db.Add(MakeStringSequence("GGGGGG" + mutated + "GGGGGGGG"));
  const Sequence<char> query = MakeStringSequence("TT" + motif + "TTTT");
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 2;
  auto matcher = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                     .ValueOrDie();
  auto result = matcher->LongestMatch(query.view(), 2.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.value().has_value());
  const SubsequenceMatch& m = *result.value();
  // The planted region is query [2, 26) vs db [6, 30).
  EXPECT_GE(m.query.length(), 20);
  EXPECT_TRUE(m.query.Overlaps(Interval{2, 26}));
  EXPECT_TRUE(m.db.Overlaps(Interval{6, 30}));
  EXPECT_LE(m.distance, 2.0);
}

TEST(MatcherTypeIITest, NoMatchBelowLambdaLength) {
  // The shared region is shorter than lambda, so Type II must return
  // nothing even though short similar fragments exist.
  SequenceDatabase<char> db;
  db.Add(MakeStringSequence("CCCCCCCCACGTCCCCCCCCCCCC"));
  const Sequence<char> query = MakeStringSequence("TTTTTTTTACGTTTTTTTTT");
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 12;
  options.lambda0 = 2;
  auto matcher = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                     .ValueOrDie();
  auto result = matcher->LongestMatch(query.view(), 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().has_value());
}

// ---------------------------------------------------------------------------
// Type III.

TEST(MatcherTypeIIITest, FindsNearMinimumDistanceMatch) {
  Rng rng(222);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 2;

  for (int trial = 0; trial < 3; ++trial) {
    SequenceDatabase<char> db;
    db.Add(Sequence<char>(RandomString(&rng, 30, "ACG")));
    const auto query_elems = RandomString(&rng, 20, "ACG");
    auto matcher =
        std::move(SubsequenceMatcher<char>::Build(db, dist, options))
            .ValueOrDie();

    // Brute-force minimum over the lossless regime.
    const auto truth = BruteForceRangeSearch<char>(
        db, dist, query_elems, 2.0, options.lambda, options.lambda0);
    double best = kInfiniteDistance;
    for (const auto& m : truth) best = std::min(best, m.distance);

    auto result = matcher->NearestMatch(query_elems, 2.0, 1.0);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (best == kInfiniteDistance) {
      EXPECT_FALSE(result.value().has_value());
    } else {
      ASSERT_TRUE(result.value().has_value());
      // Type III is exact up to the epsilon increment (Section 7).
      EXPECT_GE(result.value()->distance, best);
      EXPECT_LE(result.value()->distance, best + 1.0) << "trial " << trial;
    }
  }
}

TEST(MatcherTypeIIITest, FindsPairInLastPartialIncrement) {
  // Regression: the growth loop must always run a final round at
  // epsilon_max, even when (epsilon_max - hi) is not a near-multiple of
  // the increment. The awkward increment below makes the pre-fix
  // schedule overshoot epsilon_max and skip the clamped last round,
  // returning nullopt for pairs whose distance falls in the final
  // partial increment. The property: whenever the Type II search finds
  // a pair at epsilon_max, Type III must find one too.
  Rng rng(333);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 2;

  for (int trial = 0; trial < 4; ++trial) {
    SequenceDatabase<char> db;
    db.Add(Sequence<char>(RandomString(&rng, 40, "AC")));
    const auto query_elems = RandomString(&rng, 24, "AC");
    auto matcher =
        std::move(SubsequenceMatcher<char>::Build(db, dist, options))
            .ValueOrDie();

    const double eps_max = 5.0;
    auto longest = matcher->LongestMatch(query_elems, eps_max);
    ASSERT_TRUE(longest.ok()) << longest.status().ToString();
    auto nearest = matcher->NearestMatch(query_elems, eps_max, 0.7);
    ASSERT_TRUE(nearest.ok()) << nearest.status().ToString();
    EXPECT_EQ(nearest.value().has_value(), longest.value().has_value())
        << "trial " << trial;
    if (nearest.value().has_value()) {
      EXPECT_LE(nearest.value()->distance, eps_max);
    }
  }
}

TEST(MatcherTypeIIITest, ExactCopyGivesZeroDistance) {
  const std::string motif = "ACGTTGCAACGTTGCA";
  SequenceDatabase<char> db;
  db.Add(MakeStringSequence("GGGGGGGG" + motif + "GGGG"));
  const Sequence<char> query = MakeStringSequence("TT" + motif + "TT");
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 16;
  options.lambda0 = 2;
  auto matcher = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                     .ValueOrDie();
  auto result = matcher->NearestMatch(query.view(), 4.0, 1.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.value().has_value());
  EXPECT_DOUBLE_EQ(result.value()->distance, 0.0);
}

TEST(MatcherTypeIIITest, ReturnsNulloptWhenNothingWithinEpsilonMax) {
  SequenceDatabase<char> db;
  db.Add(MakeStringSequence("CCCCCCCCCCCCCCCCCCCCCCCC"));
  const Sequence<char> query = MakeStringSequence("AAAAAAAAAAAAAAAAAAAA");
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 2;
  auto matcher = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                     .ValueOrDie();
  auto result = matcher->NearestMatch(query.view(), 1.0, 0.5);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().has_value());
}

TEST(MatcherTypeIIITest, RejectsBadIncrement) {
  SequenceDatabase<char> db;
  db.Add(MakeStringSequence("ACGTACGTACGTACGT"));
  const Sequence<char> query = MakeStringSequence("ACGTACGTACGT");
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 8;
  options.lambda0 = 2;
  auto matcher = std::move(SubsequenceMatcher<char>::Build(db, dist, options))
                     .ValueOrDie();
  EXPECT_EQ(matcher->NearestMatch(query.view(), 2.0, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  // Non-finite schedules: the library applies the serving front door's
  // rule instead of answering from a degenerate schedule.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> bad_schedules[] = {
      {5.0, nan}, {5.0, inf}, {nan, 0.7}, {inf, 0.7}, {-inf, 0.7},
      {5.0, -inf}};
  for (const auto& [epsilon_max, epsilon_increment] : bad_schedules) {
    const std::string where = std::to_string(epsilon_max) + ", " +
                              std::to_string(epsilon_increment);
    EXPECT_EQ(matcher->NearestMatch(query.view(), epsilon_max,
                                    epsilon_increment)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << where;
    EXPECT_EQ(matcher->NearestMatchFromHits(query.view(), {}, epsilon_max,
                                            epsilon_increment)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << where;
  }
}

// ---------------------------------------------------------------------------
// Type III from one filter pass.

constexpr IndexKind kAllKinds[] = {
    IndexKind::kReferenceNet, IndexKind::kCoverTree, IndexKind::kMvIndex,
    IndexKind::kLinearScan};
constexpr IndexKind kScanOnly[] = {IndexKind::kLinearScan};

/// The Type III schedule as the paper states it, run serially with a
/// fresh filter pass at every probe: the reference that NearestMatch's
/// one-pass replay must reproduce. `stats` receives step 5's chains and
/// verifications only.
template <typename T>
Result<std::optional<SubsequenceMatch>> NearestMatchByProbing(
    const SubsequenceMatcher<T>& matcher, std::span<const T> query,
    double epsilon_max, double epsilon_increment, MatchQueryStats* stats) {
  if (matcher.FilterSegments(query, epsilon_max).empty()) {
    return std::optional<SubsequenceMatch>();
  }
  double lo = 0.0;
  double hi = epsilon_max;
  for (int iter = 0; iter < 48 && hi - lo > epsilon_increment / 2.0;
       ++iter) {
    const double mid = lo + (hi - lo) / 2.0;
    if (matcher.FilterSegments(query, mid).empty()) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  for (double eps = hi;; eps += epsilon_increment) {
    const double clamped = std::min(eps, epsilon_max);
    const std::vector<SegmentHit> hits =
        matcher.FilterSegments(query, clamped);
    auto found = matcher.LongestMatchFromHits(query, hits, clamped, stats);
    if (!found.ok() || found.value().has_value()) return found;
    if (clamped >= epsilon_max) break;
  }
  return std::optional<SubsequenceMatch>();
}

/// `count` cuts of database sequences, each with length / 5 elements
/// replaced by `mutate`: close to, but mostly not exactly, a database
/// region, so the minimum hit distance varies across queries.
template <typename T, typename Mutate>
std::vector<std::vector<T>> MutatedCuts(const SequenceDatabase<T>& db,
                                        int32_t count, int32_t length,
                                        uint64_t seed, Mutate mutate) {
  Rng rng(seed);
  std::vector<std::vector<T>> queries;
  while (static_cast<int32_t>(queries.size()) < count) {
    const Sequence<T>& seq =
        db.at(static_cast<SeqId>(rng.NextBounded(db.size())));
    if (seq.size() < length) continue;
    const int32_t offset = static_cast<int32_t>(
        rng.NextBounded(static_cast<uint64_t>(seq.size() - length + 1)));
    const auto view = seq.Subsequence(Interval{offset, offset + length});
    std::vector<T> query(view.begin(), view.end());
    for (int32_t e = 0; e < length / 5; ++e) {
      T& x = query[rng.NextBounded(static_cast<uint64_t>(length))];
      x = mutate(&rng, x);
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

struct Schedule {
  double epsilon_max;
  double epsilon_increment;
};

/// Over every kind in `kinds` at threads 1 and 4, every query and every
/// schedule: (a) the hit set at epsilon_max * k / 8 (k = 0..8) equals
/// the epsilon_max hit set restricted to distance <= epsilon, element
/// for element; (b) NearestMatch returns NearestMatchByProbing's match,
/// chains and verifications.
template <typename T>
void ExpectNearestMatchFromOnePass(const SequenceDatabase<T>& db,
                                   const SequenceDistance<T>& dist,
                                   std::span<const IndexKind> kinds,
                                   const std::vector<std::vector<T>>& queries,
                                   std::span<const Schedule> schedules) {
  int32_t found = 0;
  for (const IndexKind kind : kinds) {
    for (const int32_t threads : {1, 4}) {
      MatcherOptions options;
      options.lambda = 16;
      options.lambda0 = 1;
      options.index_kind = kind;
      options.exec.num_threads = threads;
      auto matcher =
          std::move(SubsequenceMatcher<T>::Build(db, dist, options))
              .ValueOrDie();
      for (size_t q = 0; q < queries.size(); ++q) {
        const std::span<const T> query(queries[q]);
        for (const Schedule& schedule : schedules) {
          SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                       " threads " + std::to_string(threads) + " query " +
                       std::to_string(q) + " schedule " +
                       std::to_string(schedule.epsilon_max) + "/" +
                       std::to_string(schedule.epsilon_increment));
          const std::vector<SegmentHit> all =
              matcher->FilterSegments(query, schedule.epsilon_max);
          for (int k = 0; k <= 8; ++k) {
            const double epsilon = schedule.epsilon_max * k / 8.0;
            const std::vector<SegmentHit> hits =
                matcher->FilterSegments(query, epsilon);
            std::vector<SegmentHit> restricted;
            for (const SegmentHit& hit : all) {
              if (hit.distance <= epsilon) restricted.push_back(hit);
            }
            ASSERT_EQ(hits.size(), restricted.size()) << "epsilon " << epsilon;
            for (size_t i = 0; i < hits.size(); ++i) {
              EXPECT_EQ(hits[i].query_segment, restricted[i].query_segment);
              EXPECT_EQ(hits[i].window, restricted[i].window);
              EXPECT_EQ(hits[i].distance, restricted[i].distance);
            }
          }

          MatchQueryStats got_stats;
          MatchQueryStats want_stats;
          auto got =
              matcher->NearestMatch(query, schedule.epsilon_max,
                                    schedule.epsilon_increment, &got_stats);
          auto want = NearestMatchByProbing(*matcher, query,
                                            schedule.epsilon_max,
                                            schedule.epsilon_increment,
                                            &want_stats);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_TRUE(want.ok()) << want.status().ToString();
          ASSERT_EQ(got.value().has_value(), want.value().has_value());
          if (got.value().has_value()) {
            EXPECT_EQ(*got.value(), *want.value());
            EXPECT_EQ(got.value()->distance, want.value()->distance);
            ++found;
          }
          EXPECT_EQ(got_stats.chains, want_stats.chains);
          EXPECT_EQ(got_stats.verifications, want_stats.verifications);
        }
      }
    }
  }
  EXPECT_GT(found, 0) << "no query found a pair; the sweep tests nothing";
}

char MutateResidue(Rng* rng, char) {
  constexpr std::string_view kResidues = "ACDEFGHIKLMNPQRSTVWY";
  return kResidues[rng->NextBounded(kResidues.size())];
}

double MutateSample(Rng* rng, double x) {
  return x + rng->NextDouble(-1.5, 1.5);
}

Point2d MutatePoint(Rng* rng, Point2d p) {
  return Point2d{p.x + rng->NextDouble(-1.5, 1.5),
                 p.y + rng->NextDouble(-1.5, 1.5)};
}

TEST(MatcherTypeIIITest, OnePassLevenshtein) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 60, .seed = 1701});
  const auto db = gen.GenerateDatabaseWithWindows(30, 8);
  const LevenshteinDistance<char> dist;
  const Schedule schedules[] = {{2.0, 1.0}, {4.0, 0.7}, {3.0, 0.25}};
  ExpectNearestMatchFromOnePass<char>(
      db, dist, kAllKinds, MutatedCuts(db, 10, 20, 1702, MutateResidue),
      schedules);
}

SequenceDatabase<double> SweepSeries() {
  SongGenerator gen(SongGenOptions{.mean_length = 60, .seed = 1703});
  return gen.GenerateDatabaseWithWindows(30, 8);
}

SequenceDatabase<Point2d> SweepTrajectories() {
  TrajectoryGenerator gen(
      TrajectoryGenOptions{.mean_length = 60, .seed = 1705});
  return gen.GenerateDatabaseWithWindows(30, 8);
}

// Schedules for the distances that sum ground costs (ERP, DTW) and for
// the one that takes their maximum (Frechet).
constexpr Schedule kSeriesSums[] = {{4.0, 1.0}, {8.0, 1.5}, {3.0, 0.4}};
constexpr Schedule kSeriesMaxima[] = {{1.5, 0.5}, {3.0, 0.7}, {1.0, 0.25}};
constexpr Schedule kTrajectorySums[] = {{5.0, 1.0}, {10.0, 1.5}, {3.0, 0.4}};
constexpr Schedule kTrajectoryMaxima[] = {
    {2.0, 0.5}, {4.0, 0.7}, {1.5, 0.25}};

TEST(MatcherTypeIIITest, OnePassErp1D) {
  const auto db = SweepSeries();
  ExpectNearestMatchFromOnePass<double>(
      db, ErpDistance1D(), kAllKinds,
      MutatedCuts(db, 10, 20, 1704, MutateSample), kSeriesSums);
}

TEST(MatcherTypeIIITest, OnePassFrechet1D) {
  const auto db = SweepSeries();
  ExpectNearestMatchFromOnePass<double>(
      db, FrechetDistance1D(), kAllKinds,
      MutatedCuts(db, 10, 20, 1704, MutateSample), kSeriesMaxima);
}

TEST(MatcherTypeIIITest, OnePassDtw1D) {
  const auto db = SweepSeries();
  ExpectNearestMatchFromOnePass<double>(
      db, DtwDistance1D(), kScanOnly,
      MutatedCuts(db, 10, 20, 1704, MutateSample), kSeriesSums);
}

TEST(MatcherTypeIIITest, OnePassErp2D) {
  const auto db = SweepTrajectories();
  ExpectNearestMatchFromOnePass<Point2d>(
      db, ErpDistance2D(), kAllKinds,
      MutatedCuts(db, 10, 20, 1706, MutatePoint), kTrajectorySums);
}

TEST(MatcherTypeIIITest, OnePassFrechet2D) {
  const auto db = SweepTrajectories();
  ExpectNearestMatchFromOnePass<Point2d>(
      db, FrechetDistance2D(), kAllKinds,
      MutatedCuts(db, 10, 20, 1706, MutatePoint), kTrajectoryMaxima);
}

TEST(MatcherTypeIIITest, OnePassDtw2D) {
  const auto db = SweepTrajectories();
  ExpectNearestMatchFromOnePass<Point2d>(
      db, DtwDistance2D(), kScanOnly,
      MutatedCuts(db, 10, 20, 1706, MutatePoint), kTrajectorySums);
}

TEST(MatcherTypeIIITest, BillsExactlyOneFilterPass) {
  // NearestMatch == FilterSegments at epsilon_max + NearestMatchFromHits:
  // the filter counters are one pass's, step 5's are the replay's.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 1707});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const LevenshteinDistance<char> dist;
  const std::vector<char> query =
      MutatedCuts(db, 1, 36, 1708, MutateResidue).front();
  const double epsilon_max = 4.0;
  const double epsilon_increment = 0.5;
  for (const IndexKind kind :
       {IndexKind::kReferenceNet, IndexKind::kLinearScan}) {
    for (const int32_t threads : {1, 4}) {
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                   " threads " + std::to_string(threads));
      MatcherOptions options;
      options.lambda = 20;
      options.lambda0 = 2;
      options.index_kind = kind;
      options.exec.num_threads = threads;
      auto matcher =
          std::move(SubsequenceMatcher<char>::Build(db, dist, options))
              .ValueOrDie();
      MatchQueryStats one_pass;
      const std::vector<SegmentHit> hits =
          matcher->FilterSegments(query, epsilon_max, &one_pass);
      MatchQueryStats from_hits;
      auto want = matcher->NearestMatchFromHits(
          query, hits, epsilon_max, epsilon_increment, &from_hits);
      MatchQueryStats stats;
      auto got = matcher->NearestMatch(query, epsilon_max,
                                       epsilon_increment, &stats);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(got.value().has_value());
      EXPECT_EQ(got.value(), want.value());
      EXPECT_GT(one_pass.hits, 0);
      EXPECT_EQ(stats.segments, one_pass.segments);
      EXPECT_EQ(stats.filter_computations, one_pass.filter_computations);
      EXPECT_EQ(stats.hits, one_pass.hits);
      EXPECT_EQ(stats.chains, from_hits.chains);
      EXPECT_EQ(stats.verifications, from_hits.verifications);
    }
  }
}

TEST(MatcherTypeIIITest, GrowthRoundsShareOneVerificationBudget) {
  // max_verifications caps the whole query, not each growth round. The
  // cap lies between the largest single round and the rounds' total:
  // the per-round reference (a fresh budget per round) fits under it,
  // so only a budget shared across rounds trips.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 1709});
  const auto db = gen.GenerateDatabaseWithWindows(300, 10);
  const LevenshteinDistance<char> dist;
  const std::vector<char> query =
      MutatedCuts(db, 1, 36, 1718, MutateResidue).front();
  const double epsilon_max = 6.0;
  const double epsilon_increment = 0.5;
  const int64_t cap = 9000;
  for (const int32_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    MatcherOptions options;
    options.lambda = 20;
    options.lambda0 = 2;
    options.max_verifications = cap;
    options.exec.num_threads = threads;
    auto matcher =
        std::move(SubsequenceMatcher<char>::Build(db, dist, options))
            .ValueOrDie();
    MatchQueryStats rounds;
    auto per_round = NearestMatchByProbing(
        *matcher, std::span<const char>(query), epsilon_max,
        epsilon_increment, &rounds);
    ASSERT_TRUE(per_round.ok()) << per_round.status().ToString();
    ASSERT_TRUE(per_round.value().has_value());
    ASSERT_GT(rounds.verifications, cap);

    MatchQueryStats stats;
    auto got = matcher->NearestMatch(query, epsilon_max, epsilon_increment,
                                     &stats);
    EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
    EXPECT_NE(got.status().ToString().find("NearestMatch"),
              std::string::npos)
        << got.status().ToString();
    EXPECT_EQ(stats.verifications, cap);

    const std::vector<SegmentHit> hits =
        matcher->FilterSegments(query, epsilon_max);
    MatchQueryStats from_hits;
    auto got_from_hits = matcher->NearestMatchFromHits(
        query, hits, epsilon_max, epsilon_increment, &from_hits);
    EXPECT_EQ(got_from_hits.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(from_hits.verifications, cap);
  }
}

TEST(MatcherTypeIIITest, QueryShorterThanLambdaRunsNoGrowthRound) {
  // No pair can satisfy |SQ| >= lambda when |Q| < lambda, so every
  // growth round would rebuild the chains and verify nothing — and
  // max_verifications never stops a round that verifies nothing. The
  // schedule must not run at all. Counted in chains, not time.
  SongGenerator gen(SongGenOptions{.mean_length = 80, .seed = 1719});
  const auto db = gen.GenerateDatabaseWithWindows(240, 10);
  const DtwDistance1D dist;
  const std::vector<double> query =
      MutatedCuts(db, 1, 12, 1720, MutateSample).front();
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = IndexKind::kLinearScan;
  auto matcher = std::move(SubsequenceMatcher<double>::Build(db, dist, options))
                     .ValueOrDie();
  const double epsilon_max = 100.0;
  const std::vector<SegmentHit> hits =
      matcher->FilterSegments(query, epsilon_max);
  ASSERT_FALSE(hits.empty());  // the filter alone cannot rule the query out

  MatchQueryStats from_hits;
  auto got = matcher->NearestMatchFromHits(query, hits, epsilon_max, 1.0,
                                           &from_hits);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got.value().has_value());
  EXPECT_EQ(from_hits.chains, 0);
  EXPECT_EQ(from_hits.verifications, 0);

  MatchQueryStats stats;
  auto direct = matcher->NearestMatch(query, epsilon_max, 1.0, &stats);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_FALSE(direct.value().has_value());
  EXPECT_EQ(stats.chains, 0);
}

// ---------------------------------------------------------------------------
// Step 5 computes exactly the distances it bills.

TEST(MatcherStep5Test, DistanceCallsEqualBilledVerifications) {
  // Every step-5 entry point, at any thread count, makes one distance
  // call per verification it bills and no other. The queries have at
  // least two chains, so a Type II search that computed distances for
  // chains the serial walk never reaches would show here.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 1709});
  const auto db = gen.GenerateDatabaseWithWindows(300, 10);
  const LevenshteinDistance<char> inner;
  const CountingDistance<char> dist(inner);
  const std::vector<std::vector<char>> queries =
      MutatedCuts(db, 2, 36, 1723, MutateResidue);
  const double epsilon = 2.0;
  const double epsilon_max = 3.0;
  const double epsilon_increment = 0.5;
  for (const IndexKind kind :
       {IndexKind::kReferenceNet, IndexKind::kLinearScan}) {
    for (const int32_t threads : {1, 4, 8}) {
      MatcherOptions options;
      options.lambda = 20;
      options.lambda0 = 2;
      options.index_kind = kind;
      options.exec.num_threads = threads;
      auto matcher =
          std::move(SubsequenceMatcher<char>::Build(db, dist, options))
              .ValueOrDie();
      for (size_t q = 0; q < queries.size(); ++q) {
        SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                     " threads " + std::to_string(threads) + " query " +
                     std::to_string(q));
        const std::span<const char> query(queries[q]);
        const std::vector<SegmentHit> hits =
            matcher->FilterSegments(query, epsilon);
        const std::vector<SegmentHit> hits_max =
            matcher->FilterSegments(query, epsilon_max);

        MatchQueryStats longest;
        int64_t before = dist.computes();
        ASSERT_TRUE(
            matcher->LongestMatchFromHits(query, hits, epsilon, &longest)
                .ok());
        ASSERT_GE(longest.chains, 2);
        EXPECT_EQ(dist.computes() - before, longest.verifications);

        MatchQueryStats nearest;
        before = dist.computes();
        ASSERT_TRUE(matcher
                        ->NearestMatchFromHits(query, hits_max, epsilon_max,
                                               epsilon_increment, &nearest)
                        .ok());
        EXPECT_EQ(dist.computes() - before, nearest.verifications);

        MatchQueryStats range;
        before = dist.computes();
        ASSERT_TRUE(
            matcher->RangeSearchFromHits(query, hits, epsilon, &range).ok());
        EXPECT_EQ(dist.computes() - before, range.verifications);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Index-backend independence: the pipeline must produce identical answers
// regardless of which index runs the filter.

TEST(MatcherBackendTest, AllIndexesGiveSameTypeIIAnswer) {
  Rng rng(333);
  SequenceDatabase<double> db;
  {
    std::vector<double> elems;
    for (int i = 0; i < 60; ++i) {
      elems.push_back(static_cast<double>(rng.NextBounded(6)));
    }
    db.Add(Sequence<double>(std::move(elems)));
  }
  std::vector<double> query_elems;
  for (int i = 0; i < 30; ++i) {
    query_elems.push_back(static_cast<double>(rng.NextBounded(6)));
  }
  const ErpDistance1D dist;

  std::optional<int32_t> reference_len;
  for (const IndexKind kind :
       {IndexKind::kReferenceNet, IndexKind::kCoverTree, IndexKind::kMvIndex,
        IndexKind::kLinearScan}) {
    MatcherOptions options;
    options.lambda = 10;
    options.lambda0 = 2;
    options.index_kind = kind;
    auto matcher =
        std::move(SubsequenceMatcher<double>::Build(db, dist, options))
            .ValueOrDie();
    auto result = matcher->LongestMatch(query_elems, 6.0);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const int32_t len =
        result.value().has_value() ? result.value()->query.length() : -1;
    if (!reference_len.has_value()) {
      reference_len = len;
    } else {
      EXPECT_EQ(len, *reference_len) << "index kind differs";
    }
  }
}

}  // namespace
}  // namespace subseq
