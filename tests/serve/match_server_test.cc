// Serving-layer tests. The headline is the cross-query determinism
// contract: N queries submitted concurrently to a MatchServer — where
// their segment filters are coalesced into shared BatchRangeQuery calls
// — produce element-wise identical MatchResults (matches AND stats) to
// the same queries run serially through a SubsequenceMatcher, per index
// backend, per domain, at exec thread budgets 1 and 8.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "subseq/data/protein_gen.h"
#include "subseq/data/song_gen.h"
#include "subseq/distance/frechet.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/serve/coalescer.h"
#include "subseq/serve/future.h"
#include "subseq/serve/match_server.h"
#include "subseq/serve/request_queue.h"
#include "subseq/serve/segment_cache.h"
#include "testing/helpers.h"

namespace subseq {
namespace {

using ::subseq::testing::CountingDistance;

void ExpectStatsEqual(const MatchQueryStats& a, const MatchQueryStats& b,
                      const std::string& where) {
  EXPECT_EQ(a.segments, b.segments) << where;
  EXPECT_EQ(a.filter_computations, b.filter_computations) << where;
  EXPECT_EQ(a.hits, b.hits) << where;
  EXPECT_EQ(a.chains, b.chains) << where;
  EXPECT_EQ(a.verifications, b.verifications) << where;
}

/// The serial ground truth: the same request answered by direct library
/// calls on a matcher built with the same options.
template <typename T>
MatchResult RunSerial(const SubsequenceMatcher<T>& m,
                      const MatchRequest<T>& request) {
  MatchResult result;
  const std::span<const T> query(request.query);
  switch (request.type) {
    case MatchQueryType::kRangeSearch: {
      auto r = m.RangeSearch(query, request.epsilon, &result.stats);
      result.status = r.status();
      if (r.ok()) result.matches = std::move(r).ValueOrDie();
      break;
    }
    case MatchQueryType::kLongestMatch: {
      auto r = m.LongestMatch(query, request.epsilon, &result.stats);
      result.status = r.status();
      if (r.ok()) result.best = std::move(r).ValueOrDie();
      break;
    }
    case MatchQueryType::kNearestMatch: {
      auto r = m.NearestMatch(query, request.epsilon_max,
                              request.epsilon_increment, &result.stats);
      result.status = r.status();
      if (r.ok()) result.best = std::move(r).ValueOrDie();
      break;
    }
  }
  return result;
}

/// A 24-element query cut from the first database sequence long enough.
template <typename T>
std::vector<T> ShortQuery(const SequenceDatabase<T>& db) {
  for (int32_t s = 0; s < db.size(); ++s) {
    if (db.at(s).size() >= 24) {
      const auto view = db.at(s).Subsequence(Interval{0, 24});
      return std::vector<T>(view.begin(), view.end());
    }
  }
  ADD_FAILURE() << "no sequence of length >= 24";
  return {};
}

/// A workload of mixed-type requests whose queries are (overlapping)
/// subsequences of database sequences, so every request has hits.
template <typename T>
std::vector<MatchRequest<T>> MakeWorkload(const SequenceDatabase<T>& db,
                                          double epsilon, int32_t count) {
  std::vector<MatchRequest<T>> requests;
  constexpr int32_t kQueryLength = 26;
  for (int32_t i = 0; i < count; ++i) {
    // Pick the next sequence long enough to cut a query from.
    int32_t s = i % db.size();
    while (db.at(s).size() <= kQueryLength) s = (s + 1) % db.size();
    const Sequence<T>& seq = db.at(s);
    const int32_t max_offset = seq.size() - kQueryLength;
    const int32_t offset = (i * 7) % max_offset;
    const auto view = seq.Subsequence(Interval{offset, offset + kQueryLength});
    MatchRequest<T> request;
    request.query.assign(view.begin(), view.end());
    switch (i % 3) {
      case 0:
        request.type = MatchQueryType::kRangeSearch;
        request.epsilon = epsilon;
        break;
      case 1:
        request.type = MatchQueryType::kLongestMatch;
        request.epsilon = epsilon;
        break;
      default:
        request.type = MatchQueryType::kNearestMatch;
        request.epsilon_max = 2.0 * epsilon + 1.0;
        request.epsilon_increment = 0.5;
        break;
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

template <typename T>
void ExpectServerMatchesSerial(const SequenceDatabase<T>& db,
                               const SequenceDistance<T>& dist,
                               double epsilon) {
  const IndexKind kinds[] = {IndexKind::kLinearScan, IndexKind::kCoverTree};
  const std::vector<MatchRequest<T>> workload = MakeWorkload(db, epsilon, 12);

  for (const IndexKind kind : kinds) {
    for (const int32_t threads : {1, 8}) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                   " threads=" + std::to_string(threads));
      MatcherOptions matcher_options;
      matcher_options.lambda = 20;
      matcher_options.lambda0 = 2;
      matcher_options.index_kind = kind;
      matcher_options.exec.num_threads = threads;
      auto matcher = std::move(SubsequenceMatcher<T>::Build(
                                   db, dist, matcher_options))
                         .ValueOrDie();
      std::vector<MatchResult> serial;
      for (const MatchRequest<T>& request : workload) {
        serial.push_back(RunSerial(*matcher, request));
      }

      MatchServerOptions server_options;
      server_options.matcher = matcher_options;
      server_options.index_kinds = {kind};
      auto server = std::move(MatchServer<T>::Start(db, dist,
                                                    server_options))
                        .ValueOrDie();
      // Submit every request concurrently, one client thread each, so
      // arrivals actually pile up and coalesce.
      std::vector<Future<MatchResult>> futures(workload.size());
      std::vector<std::thread> clients;
      for (size_t i = 0; i < workload.size(); ++i) {
        clients.emplace_back([&, i] {
          MatchRequest<T> request = workload[i];  // copy: workload is shared
          futures[i] = server->Submit(std::move(request));
        });
      }
      for (std::thread& t : clients) t.join();

      for (size_t i = 0; i < workload.size(); ++i) {
        MatchResult served = futures[i].Get();
        const MatchResult& expected = serial[i];
        const std::string where = "request " + std::to_string(i);
        EXPECT_EQ(served.status, expected.status) << where;
        EXPECT_EQ(served.matches, expected.matches) << where;
        ASSERT_EQ(served.best.has_value(), expected.best.has_value())
            << where;
        if (served.best.has_value()) {
          EXPECT_EQ(*served.best, *expected.best) << where;
          EXPECT_EQ(served.best->distance, expected.best->distance) << where;
        }
        ExpectStatsEqual(served.stats, expected.stats, where);
      }
      // Sanity: the run exercised the cross-query path, not N solo calls.
      const ServeStats stats = server->stats();
      EXPECT_EQ(stats.queries_admitted,
                static_cast<int64_t>(workload.size()));
      EXPECT_GT(stats.filter_calls, 0);
      server->Shutdown();
    }
  }
}

TEST(MatchServerDeterminismTest, ProteinsMatchSerialAcrossConcurrency) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 901});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const LevenshteinDistance<char> dist;
  ExpectServerMatchesSerial<char>(db, dist, 1.0);
}

TEST(MatchServerDeterminismTest, SongsMatchSerialAcrossConcurrency) {
  SongGenerator gen(SongGenOptions{.mean_length = 80, .seed = 902});
  const auto db = gen.GenerateDatabaseWithWindows(60, 10);
  const FrechetDistance1D dist;
  ExpectServerMatchesSerial<double>(db, dist, 0.5);
}

TEST(CoalescerTest, PlanGroupsByKindAndEpsilonInAdmissionOrder) {
  // A Type III request filters once, at its epsilon_max: keyed on it, it
  // shares a group with a Type I request at that epsilon.
  MatchRequest<char> nearest;
  nearest.type = MatchQueryType::kNearestMatch;
  nearest.epsilon_max = 1.0;
  nearest.epsilon_increment = 0.25;
  const std::vector<CoalesceKey> keys = {
      {IndexKind::kLinearScan, 1.0},                  // 0 -> group 0
      {IndexKind::kCoverTree, 1.0},                   // 1 -> group 1
      {IndexKind::kLinearScan, 1.0},                  // 2 -> group 0
      {IndexKind::kLinearScan, 2.0},                  // 3 -> group 2
      {IndexKind::kLinearScan, nearest.epsilon_max},  // 4 -> group 0
      {IndexKind::kLinearScan, 1.0},                  // 5 -> group 0
  };
  const std::vector<CoalesceGroup> groups = PlanCoalesce(keys);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].members, (std::vector<size_t>{0, 2, 4, 5}));
  EXPECT_EQ(groups[1].members, (std::vector<size_t>{1}));
  EXPECT_EQ(groups[2].members, (std::vector<size_t>{3}));
  size_t covered = 0;
  for (const CoalesceGroup& g : groups) covered += g.members.size();
  EXPECT_EQ(covered, keys.size());
}

TEST(CoalescerTest, SharedFilterEqualsPerQueryFilterSegments) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 903});
  const auto db = gen.GenerateDatabaseWithWindows(40, 8);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 20;
  options.lambda0 = 2;
  options.index_kind = IndexKind::kCoverTree;
  options.exec.num_threads = 8;
  auto matcher =
      std::move(SubsequenceMatcher<char>::Build(db, dist, options))
          .ValueOrDie();

  std::vector<std::vector<char>> queries;
  for (int32_t i = 0; i < 5; ++i) {
    int32_t s = i % db.size();
    while (db.at(s).size() < i + 24) s = (s + 1) % db.size();
    const auto view = db.at(s).Subsequence(Interval{i, i + 24});
    queries.emplace_back(view.begin(), view.end());
  }
  std::vector<std::span<const char>> views(queries.begin(), queries.end());

  const CoalescedFilter shared = CoalescedFilterSegments<char>(
      *matcher, std::span<const std::span<const char>>(views), 1.0);
  ASSERT_EQ(shared.hits.size(), queries.size());
  int64_t billed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    MatchQueryStats solo_stats;
    const std::vector<SegmentHit> solo =
        matcher->FilterSegments(views[i], 1.0, &solo_stats);
    ASSERT_EQ(shared.hits[i].size(), solo.size()) << "query " << i;
    for (size_t h = 0; h < solo.size(); ++h) {
      EXPECT_EQ(shared.hits[i][h].window, solo[h].window);
      EXPECT_EQ(shared.hits[i][h].query_segment, solo[h].query_segment);
      EXPECT_EQ(shared.hits[i][h].distance, solo[h].distance);
    }
    ExpectStatsEqual(shared.stats[i], solo_stats,
                     "query " + std::to_string(i));
    billed += shared.stats[i].filter_computations;
  }
  // Billing: every member is billed its stand-alone cost; the executed
  // total is smaller because the overlapping queries share bit-identical
  // segments, which are issued once.
  EXPECT_EQ(billed, shared.billed_filter_computations);
  EXPECT_GE(shared.billed_filter_computations,
            shared.total_filter_computations);
  EXPECT_EQ(shared.segments_total, 5 * shared.stats[0].segments);
  EXPECT_LT(shared.segments_unique, shared.segments_total)
      << "overlapping cuts of one sequence must share segments";
}

TEST(CoalescerTest, DuplicateQueriesShareTheWholeFilter) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 907});
  const auto db = gen.GenerateDatabaseWithWindows(40, 8);
  const LevenshteinDistance<char> dist;
  MatcherOptions options;
  options.lambda = 20;
  options.index_kind = IndexKind::kLinearScan;
  auto matcher =
      std::move(SubsequenceMatcher<char>::Build(db, dist, options))
          .ValueOrDie();

  const std::vector<char> query = ShortQuery(db);
  const std::vector<std::span<const char>> views(3,
                                                 std::span<const char>(query));
  const CoalescedFilter shared = CoalescedFilterSegments<char>(
      *matcher, std::span<const std::span<const char>>(views), 1.0);
  // Three identical queries: unique segments are at most one query's
  // worth (less if the query repeats internally), the executed work is
  // at most a third of the billed work, and every member is still
  // billed (and answered) exactly as if alone.
  EXPECT_LE(shared.segments_unique, shared.stats[0].segments);
  EXPECT_GE(shared.billed_filter_computations,
            3 * shared.total_filter_computations);
  MatchQueryStats solo_stats;
  const auto solo = matcher->FilterSegments(
      std::span<const char>(query), 1.0, &solo_stats);
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(shared.hits[m].size(), solo.size());
    ExpectStatsEqual(shared.stats[m], solo_stats,
                     "member " + std::to_string(m));
  }
}

TEST(CoalescerTest, DistanceWorkIsIndependentOfOwnerCount) {
  // The tentpole invariant for the shared per-hit distance pass: N
  // owners of one bit-identical segment cost exactly the same executed
  // distance work as one owner — index traversal once per unique
  // segment, per-hit distance fill once per unique segment.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 911});
  const auto db = gen.GenerateDatabaseWithWindows(40, 8);
  const LevenshteinDistance<char> inner;
  const CountingDistance<char> dist(inner);
  MatcherOptions options;
  options.lambda = 20;
  options.index_kind = IndexKind::kLinearScan;
  auto matcher =
      std::move(SubsequenceMatcher<char>::Build(db, dist, options))
          .ValueOrDie();

  const std::vector<char> query = ShortQuery(db);
  const auto run = [&](size_t owners) {
    const std::vector<std::span<const char>> views(
        owners, std::span<const char>(query));
    const int64_t before = dist.computes();
    const CoalescedFilter shared = CoalescedFilterSegments<char>(
        *matcher, std::span<const std::span<const char>>(views), 1.0);
    EXPECT_EQ(shared.hits.size(), owners);
    return dist.computes() - before;
  };
  const int64_t solo_work = run(1);
  EXPECT_GT(solo_work, 0);
  EXPECT_EQ(run(3), solo_work);
}

TEST(CoalescerTest, WarmCacheCallExecutesNothingAndIsBitIdentical) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 912});
  const auto db = gen.GenerateDatabaseWithWindows(40, 8);
  const LevenshteinDistance<char> inner;
  const CountingDistance<char> dist(inner);
  MatcherOptions options;
  options.lambda = 20;
  options.index_kind = IndexKind::kCoverTree;
  auto matcher =
      std::move(SubsequenceMatcher<char>::Build(db, dist, options))
          .ValueOrDie();

  std::vector<std::vector<char>> queries;
  for (int32_t i = 0; i < 3; ++i) {
    int32_t s = i % db.size();
    while (db.at(s).size() < i + 24) s = (s + 1) % db.size();
    const auto view = db.at(s).Subsequence(Interval{i, i + 24});
    queries.emplace_back(view.begin(), view.end());
  }
  const std::vector<std::span<const char>> views(queries.begin(),
                                                 queries.end());

  SegmentResultCache cache(1 << 20);
  const CoalescedFilter cold = CoalescedFilterSegments<char>(
      *matcher, std::span<const std::span<const char>>(views), 1.0, &cache);
  EXPECT_EQ(cold.segments_cache_hits, 0);
  EXPECT_EQ(cold.segments_cache_misses, cold.segments_unique);
  EXPECT_EQ(cold.cache_shared_computations, 0);

  const int64_t before_warm = dist.computes();
  const CoalescedFilter warm = CoalescedFilterSegments<char>(
      *matcher, std::span<const std::span<const char>>(views), 1.0, &cache);
  // A fully warm round executes zero distance work: no index traversal,
  // no per-hit distance fill — everything comes from the cache.
  EXPECT_EQ(dist.computes(), before_warm);
  EXPECT_EQ(warm.total_filter_computations, 0);
  EXPECT_EQ(warm.segments_cache_hits, warm.segments_unique);
  EXPECT_EQ(warm.segments_cache_misses, 0);
  // Billing is untouched by warmth; the cache's savings are surfaced
  // separately and cover every billed computation this round.
  EXPECT_EQ(warm.billed_filter_computations, cold.billed_filter_computations);
  EXPECT_GT(warm.cache_shared_computations, 0);

  // Bit-identical outcome: hits (windows, segments, distances) and every
  // member's stats equal the cold round's.
  ASSERT_EQ(warm.hits.size(), cold.hits.size());
  for (size_t m = 0; m < cold.hits.size(); ++m) {
    const std::string where = "member " + std::to_string(m);
    ASSERT_EQ(warm.hits[m].size(), cold.hits[m].size()) << where;
    for (size_t h = 0; h < cold.hits[m].size(); ++h) {
      EXPECT_EQ(warm.hits[m][h].window, cold.hits[m][h].window) << where;
      EXPECT_EQ(warm.hits[m][h].query_segment, cold.hits[m][h].query_segment)
          << where;
      EXPECT_EQ(warm.hits[m][h].distance, cold.hits[m][h].distance) << where;
    }
    ExpectStatsEqual(warm.stats[m], cold.stats[m], where);
  }
}

TEST(MatchServerValidationTest, MalformedRequestsFailFastAtSubmit) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 913});
  const auto db = gen.GenerateDatabaseWithWindows(30, 6);
  const LevenshteinDistance<char> dist;
  MatchServerOptions options;
  options.matcher.lambda = 20;
  options.index_kinds = {IndexKind::kLinearScan};
  auto server =
      std::move(MatchServer<char>::Start(db, dist, options)).ValueOrDie();

  const std::vector<char> query = ShortQuery(db);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  const auto expect_invalid = [&](MatchRequest<char> request,
                                  const std::string& what) {
    Future<MatchResult> future = server->Submit(std::move(request));
    // Fail-fast contract: the future is complete before Submit returns.
    ASSERT_TRUE(future.Ready()) << what;
    EXPECT_EQ(future.Get().status.code(), StatusCode::kInvalidArgument)
        << what;
  };

  MatchRequest<char> base;
  base.type = MatchQueryType::kRangeSearch;
  base.query = query;
  base.epsilon = 1.0;

  {
    MatchRequest<char> r = base;
    r.query.clear();
    expect_invalid(std::move(r), "empty query");
  }
  // Regression for the coalescer's exact double == epsilon grouping (and
  // the cache key): a NaN epsilon must never be admitted.
  for (const double bad_epsilon : {nan, inf, -1.0}) {
    MatchRequest<char> r = base;
    r.epsilon = bad_epsilon;
    expect_invalid(std::move(r), "epsilon " + std::to_string(bad_epsilon));
    r = base;
    r.type = MatchQueryType::kLongestMatch;
    r.epsilon = bad_epsilon;
    expect_invalid(std::move(r),
                   "Type II epsilon " + std::to_string(bad_epsilon));
  }
  for (const double bad_max : {nan, inf, -0.5}) {
    MatchRequest<char> r = base;
    r.type = MatchQueryType::kNearestMatch;
    r.epsilon_max = bad_max;
    r.epsilon_increment = 0.5;
    expect_invalid(std::move(r), "epsilon_max " + std::to_string(bad_max));
  }
  for (const double bad_increment : {nan, inf, 0.0, -0.5}) {
    MatchRequest<char> r = base;
    r.type = MatchQueryType::kNearestMatch;
    r.epsilon_max = 2.0;
    r.epsilon_increment = bad_increment;
    expect_invalid(std::move(r),
                   "epsilon_increment " + std::to_string(bad_increment));
  }

  // The same request with well-formed fields still goes through.
  MatchRequest<char> good = base;
  EXPECT_TRUE(server->Submit(std::move(good)).Get().status.ok());
}

TEST(MatchServerCacheTest, WarmRoundsAreBitIdenticalAndSkipIndexWork) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 914});
  const auto db = gen.GenerateDatabaseWithWindows(50, 8);
  const LevenshteinDistance<char> dist;
  MatcherOptions matcher_options;
  matcher_options.lambda = 20;
  matcher_options.lambda0 = 2;
  matcher_options.index_kind = IndexKind::kCoverTree;
  auto matcher = std::move(SubsequenceMatcher<char>::Build(
                               db, dist, matcher_options))
                     .ValueOrDie();

  // The Type I/II requests and the Type III ones (keyed on their
  // epsilon_max, so they never share an entry with the others), each
  // answered serially for ground truth.
  std::vector<MatchRequest<char>> workload;
  std::vector<MatchRequest<char>> nearest_workload;
  for (const MatchRequest<char>& r : MakeWorkload(db, 1.0, 12)) {
    (r.type == MatchQueryType::kNearestMatch ? nearest_workload : workload)
        .push_back(r);
  }
  const auto serial_of = [&](const std::vector<MatchRequest<char>>& in) {
    std::vector<MatchResult> out;
    for (const MatchRequest<char>& request : in) {
      out.push_back(RunSerial(*matcher, request));
    }
    return out;
  };
  const std::vector<MatchResult> serial = serial_of(workload);
  const std::vector<MatchResult> nearest_serial = serial_of(nearest_workload);

  MatchServerOptions server_options;
  server_options.matcher = matcher_options;
  auto server =
      std::move(MatchServer<char>::Start(db, dist, server_options))
          .ValueOrDie();

  const auto run_round = [&](const std::vector<MatchRequest<char>>& requests,
                             const std::vector<MatchResult>& serial,
                             const std::string& round) {
    std::vector<Future<MatchResult>> futures(requests.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < requests.size(); ++i) {
      clients.emplace_back([&, i] {
        MatchRequest<char> request = requests[i];
        futures[i] = server->Submit(std::move(request));
      });
    }
    for (std::thread& t : clients) t.join();
    for (size_t i = 0; i < requests.size(); ++i) {
      MatchResult served = futures[i].Get();
      const std::string where = round + " request " + std::to_string(i);
      EXPECT_EQ(served.status, serial[i].status) << where;
      EXPECT_EQ(served.matches, serial[i].matches) << where;
      ASSERT_EQ(served.best.has_value(), serial[i].best.has_value()) << where;
      if (served.best.has_value()) {
        EXPECT_EQ(*served.best, *serial[i].best) << where;
      }
      ExpectStatsEqual(served.stats, serial[i].stats, where);
    }
  };

  run_round(workload, serial, "cold");
  const ServeStats after_cold = server->stats();
  EXPECT_GT(after_cold.cache_misses, 0);

  run_round(workload, serial, "warm");
  const ServeStats after_warm = server->stats();

  // Type III's one filter pass goes through the same cache: a warm
  // repeat is answered without index work too.
  run_round(nearest_workload, nearest_serial, "Type III cold");
  const ServeStats after_nearest_cold = server->stats();
  run_round(nearest_workload, nearest_serial, "Type III warm");
  const ServeStats after_nearest_warm = server->stats();
  server->Shutdown();
  EXPECT_GT(after_nearest_cold.cache_misses, after_warm.cache_misses);
  EXPECT_GT(after_nearest_warm.cache_hits, after_nearest_cold.cache_hits);
  EXPECT_EQ(after_nearest_warm.cache_misses, after_nearest_cold.cache_misses);
  EXPECT_EQ(after_nearest_warm.filter_computations,
            after_nearest_cold.filter_computations);

  // Every unique segment of the warm round was already resident, so the
  // warm round hit for all of them and executed no new filter work while
  // billing stayed exact (covered by ExpectStatsEqual above).
  EXPECT_GT(after_warm.cache_hits, after_cold.cache_hits);
  EXPECT_EQ(after_warm.cache_misses, after_cold.cache_misses);
  EXPECT_EQ(after_warm.filter_computations, after_cold.filter_computations);
  EXPECT_GT(after_warm.cache_shared_computations,
            after_cold.cache_shared_computations);
  EXPECT_GE(after_warm.billed_filter_computations,
            after_warm.filter_computations +
                after_warm.cache_shared_computations);
}

TEST(MatchServerCacheTest, CacheOffMatchesCacheOnElementWise) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 915});
  const auto db = gen.GenerateDatabaseWithWindows(40, 8);
  const LevenshteinDistance<char> dist;
  MatchServerOptions on_options;
  on_options.matcher.lambda = 20;
  on_options.index_kinds = {IndexKind::kLinearScan};
  MatchServerOptions off_options = on_options;
  off_options.cache_capacity_bytes = 0;  // PR 4 behavior
  // A tiny cache exercises the eviction path in the same run: its
  // probation quarter holds one hit-less entry (768 B would hold none).
  MatchServerOptions tiny_options = on_options;
  tiny_options.cache_capacity_bytes = 1024;

  const std::vector<MatchRequest<char>> workload = MakeWorkload(db, 1.0, 10);
  const auto serve_all = [&](MatchServerOptions options) {
    auto server = std::move(MatchServer<char>::Start(db, dist, options))
                      .ValueOrDie();
    std::vector<MatchResult> results;
    for (int round = 0; round < 2; ++round) {
      for (const MatchRequest<char>& r : workload) {
        MatchRequest<char> request = r;
        results.push_back(server->Submit(std::move(request)).Get());
      }
    }
    const ServeStats stats = server->stats();
    server->Shutdown();
    return std::make_pair(std::move(results), stats);
  };

  const auto [on_results, on_stats] = serve_all(on_options);
  const auto [off_results, off_stats] = serve_all(off_options);
  const auto [tiny_results, tiny_stats] = serve_all(tiny_options);
  EXPECT_EQ(off_stats.cache_hits + off_stats.cache_misses, 0);
  EXPECT_GT(on_stats.cache_hits, 0);
  EXPECT_GT(tiny_stats.cache_evictions, 0);

  ASSERT_EQ(on_results.size(), off_results.size());
  ASSERT_EQ(on_results.size(), tiny_results.size());
  for (size_t i = 0; i < on_results.size(); ++i) {
    const std::string where = "request " + std::to_string(i);
    EXPECT_EQ(on_results[i].status, off_results[i].status) << where;
    EXPECT_EQ(on_results[i].matches, off_results[i].matches) << where;
    EXPECT_EQ(on_results[i].best, off_results[i].best) << where;
    ExpectStatsEqual(on_results[i].stats, off_results[i].stats, where);
    EXPECT_EQ(tiny_results[i].matches, off_results[i].matches) << where;
    EXPECT_EQ(tiny_results[i].best, off_results[i].best) << where;
    ExpectStatsEqual(tiny_results[i].stats, off_results[i].stats, where);
  }
}

TEST(MatchServerTest, ShutdownConcurrentWithSubmitCompletesEveryFuture) {
  // The Submit/Shutdown race: submissions that lose it must still get a
  // completed future (the error path in Submit), ones that win must be
  // drained to a real answer — no future may ever be left dangling.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 916});
  const auto db = gen.GenerateDatabaseWithWindows(30, 6);
  const LevenshteinDistance<char> dist;
  MatchServerOptions options;
  options.matcher.lambda = 20;
  options.index_kinds = {IndexKind::kLinearScan};
  auto server =
      std::move(MatchServer<char>::Start(db, dist, options)).ValueOrDie();

  const std::vector<char> query = ShortQuery(db);
  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  std::vector<std::vector<Future<MatchResult>>> futures(kClients);
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerClient; ++i) {
        MatchRequest<char> request;
        request.type = MatchQueryType::kLongestMatch;
        request.query = query;
        request.epsilon = 1.0;
        futures[c].push_back(server->Submit(std::move(request)));
      }
    });
  }
  go.store(true, std::memory_order_release);
  server->Shutdown();  // races the submissions above
  for (std::thread& t : clients) t.join();

  int completed_ok = 0;
  int rejected = 0;
  for (const auto& per_client : futures) {
    for (const Future<MatchResult>& future : per_client) {
      Future<MatchResult> f = future;  // Get() consumes; copies share state
      const MatchResult result = f.Get();  // must never hang
      if (result.status.ok()) {
        ++completed_ok;
      } else {
        EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
        ++rejected;
      }
    }
  }
  EXPECT_EQ(completed_ok + rejected, kClients * kPerClient);
}

TEST(MatchServerTest, UnknownIndexKindFailsTheRequestOnly) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 904});
  const auto db = gen.GenerateDatabaseWithWindows(30, 6);
  const LevenshteinDistance<char> dist;
  MatchServerOptions options;
  options.matcher.lambda = 20;
  options.index_kinds = {IndexKind::kLinearScan};
  auto server =
      std::move(MatchServer<char>::Start(db, dist, options)).ValueOrDie();

  MatchRequest<char> bad;
  bad.query = ShortQuery(db);
  bad.epsilon = 1.0;
  bad.index_kind = IndexKind::kMvIndex;  // not configured
  MatchRequest<char> good = bad;
  good.index_kind = std::nullopt;

  Future<MatchResult> bad_future = server->Submit(std::move(bad));
  Future<MatchResult> good_future = server->Submit(std::move(good));
  EXPECT_EQ(bad_future.Get().status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(good_future.Get().status.ok());
}

TEST(MatchServerTest, SubmitAfterShutdownFailsFast) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 905});
  const auto db = gen.GenerateDatabaseWithWindows(30, 6);
  const LevenshteinDistance<char> dist;
  MatchServerOptions options;
  options.matcher.lambda = 20;
  options.index_kinds = {IndexKind::kLinearScan};
  auto server =
      std::move(MatchServer<char>::Start(db, dist, options)).ValueOrDie();
  server->Shutdown();

  MatchRequest<char> request;
  request.query = ShortQuery(db);
  request.epsilon = 1.0;
  Future<MatchResult> future = server->Submit(std::move(request));
  ASSERT_TRUE(future.Ready());
  EXPECT_EQ(future.Get().status.code(), StatusCode::kUnavailable);

  // Ingest after Shutdown gets the same precise status, synchronously.
  std::vector<char> elements = ShortQuery(db);
  EXPECT_EQ(server->AppendSequence(Sequence<char>(std::move(elements)))
                .status()
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(server->RetireSequence(0).status().code(),
            StatusCode::kUnavailable);
}

TEST(MatchServerTest, ErrorResultsCarryTheSameStatsAsTheLibrary) {
  // A Type I query that trips max_verifications: the library errors but
  // still reports the work done; the served result must match both.
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 908});
  const auto db = gen.GenerateDatabaseWithWindows(30, 6);
  const LevenshteinDistance<char> dist;
  MatcherOptions matcher_options;
  matcher_options.lambda = 20;
  matcher_options.index_kind = IndexKind::kLinearScan;
  matcher_options.max_verifications = 1;
  auto matcher = std::move(SubsequenceMatcher<char>::Build(
                               db, dist, matcher_options))
                     .ValueOrDie();

  MatchRequest<char> request;
  request.type = MatchQueryType::kRangeSearch;
  request.query = ShortQuery(db);
  request.epsilon = 2.0;
  const MatchResult expected = RunSerial(*matcher, request);
  ASSERT_EQ(expected.status.code(), StatusCode::kOutOfRange);

  MatchServerOptions server_options;
  server_options.matcher = matcher_options;
  auto server = std::move(MatchServer<char>::Start(db, dist, server_options))
                    .ValueOrDie();
  const MatchResult served = server->Submit(std::move(request)).Get();
  EXPECT_EQ(served.status, expected.status);
  ExpectStatsEqual(served.stats, expected.stats, "capped RangeSearch");
}

TEST(MatchServerTest, InvalidBuildOptionsFailStart) {
  ProteinGenerator gen(ProteinGenOptions{.mean_length = 80, .seed = 906});
  const auto db = gen.GenerateDatabaseWithWindows(30, 6);
  const LevenshteinDistance<char> dist;
  MatchServerOptions options;
  options.matcher.lambda = 21;  // odd: rejected by SubsequenceMatcher
  const auto result = MatchServer<char>::Start(db, dist, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RequestQueueTest, DrainsEverythingPendingInOneWait) {
  RequestQueue<int> queue;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.Push(i));
  std::vector<int> out;
  EXPECT_TRUE(queue.DrainWait(&out));
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueueTest, MaxItemsCapsOneDrain) {
  RequestQueue<int> queue;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.Push(i));
  std::vector<int> out;
  EXPECT_TRUE(queue.DrainWait(&out, 2));
  EXPECT_EQ(out, (std::vector<int>{0, 1}));
  EXPECT_TRUE(queue.DrainWait(&out, 2));
  EXPECT_EQ(out, (std::vector<int>{2, 3}));
  EXPECT_TRUE(queue.DrainWait(&out, 2));
  EXPECT_EQ(out, (std::vector<int>{4}));
}

TEST(RequestQueueTest, CloseDrainsThenSignalsExhaustion) {
  RequestQueue<int> queue;
  EXPECT_TRUE(queue.Push(7));
  queue.Close();
  EXPECT_FALSE(queue.Push(8));  // rejected after close
  std::vector<int> out;
  EXPECT_TRUE(queue.DrainWait(&out));  // pending item still delivered
  EXPECT_EQ(out, (std::vector<int>{7}));
  EXPECT_FALSE(queue.DrainWait(&out));  // closed and drained
}

TEST(FutureTest, DeliversAcrossThreads) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  EXPECT_FALSE(future.Ready());
  std::thread producer([&] { promise.Set(42); });
  EXPECT_EQ(future.Get(), 42);
  producer.join();
}

}  // namespace
}  // namespace subseq
