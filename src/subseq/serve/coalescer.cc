#include "subseq/serve/coalescer.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "subseq/core/check.h"
#include "subseq/exec/stats_sink.h"

namespace subseq {

namespace {

// Bitwise identity of a segment's elements — the cross-query sharing
// key. Bit-equal segments define pointwise-equal query distance
// functions, so one index call answers all of them; bitwise comparison
// is conservative (a false negative only costs a missed share, never a
// wrong answer). Element types are trivially copyable and padding-free
// (char, double, Point2d = {double, double}), so memcmp over the raw
// bytes is exact.
struct SegmentKey {
  const char* data = nullptr;
  size_t bytes = 0;

  bool operator==(const SegmentKey& other) const {
    return bytes == other.bytes &&
           std::memcmp(data, other.data, bytes) == 0;
  }
};

struct SegmentKeyHash {
  size_t operator()(const SegmentKey& key) const {
    // Word-at-a-time mix shared with the cross-round cache key
    // (serve/segment_cache.h); memcmp above remains the equality.
    return static_cast<size_t>(HashSegmentBytes(key.data, key.bytes));
  }
};

}  // namespace

std::vector<CoalesceGroup> PlanCoalesce(std::span<const CoalesceKey> keys) {
  std::vector<CoalesceGroup> groups;
  // Linear probe over open groups: batches are small (an admission round)
  // and kinds x epsilons few, so a map would be overkill.
  // Epsilons compare with exact double == — admission (ValidateMatchRequest)
  // rejects non-finite epsilons, so a NaN can never reach this comparison
  // and silently fall into a degenerate one-member group.
  for (size_t i = 0; i < keys.size(); ++i) {
    const CoalesceKey& key = keys[i];
    CoalesceGroup* open = nullptr;
    for (CoalesceGroup& g : groups) {
      if (g.kind == key.kind && g.epsilon == key.epsilon) {
        open = &g;
        break;
      }
    }
    if (open == nullptr) {
      groups.push_back(CoalesceGroup{key.kind, key.epsilon, {}});
      open = &groups.back();
    }
    open->members.push_back(i);
  }
  return groups;
}

template <typename T>
CoalescedFilter CoalescedFilterSegments(
    const SubsequenceMatcher<T>& matcher,
    std::span<const std::span<const T>> queries, double epsilon,
    SegmentResultCache* cache) {
  static_assert(std::is_trivially_copyable_v<T>,
                "segment dedup compares raw element bytes");
  const size_t num_members = queries.size();
  CoalescedFilter out;
  out.hits.resize(num_members);
  out.stats.resize(num_members);

  // Step 3 per member, concatenated into one flat batch. offsets[m] is
  // the first flat slot owned by member m; slot ownership therefore
  // depends only on per-member segment counts, never on scheduling.
  std::vector<SegmentQueryBatch> batches;
  batches.reserve(num_members);
  std::vector<size_t> offsets(num_members + 1, 0);
  for (size_t m = 0; m < num_members; ++m) {
    batches.push_back(
        matcher.MakeSegmentQueries(queries[m], &out.stats[m]));
    offsets[m + 1] = offsets[m] + batches[m].queries.size();
  }
  const size_t total_segments = offsets[num_members];
  out.segments_total = static_cast<int64_t>(total_segments);

  // Cross-query sharing: bit-identical segments (overlapping cuts, hot
  // repeated queries — the serving regime) are issued to the index once.
  // unique_slot[f] maps flat slot f to its representative's position in
  // the unique batch; first appearance (ascending flat order) defines
  // that position, so the unique batch is deterministic.
  std::vector<size_t> unique_slot(total_segments);
  std::vector<QueryDistanceFn> unique_queries;
  std::vector<std::span<const T>> unique_views;
  std::unordered_map<SegmentKey, size_t, SegmentKeyHash> seen;
  seen.reserve(total_segments);
  for (size_t m = 0, f = 0; m < num_members; ++m) {
    for (size_t j = 0; j < batches[m].segments.size(); ++j, ++f) {
      const Interval& seg = batches[m].segments[j];
      const std::span<const T> view = queries[m].subspan(
          static_cast<size_t>(seg.begin), static_cast<size_t>(seg.length()));
      const SegmentKey key{reinterpret_cast<const char*>(view.data()),
                           view.size_bytes()};
      const auto [it, inserted] = seen.emplace(key, unique_queries.size());
      if (inserted) {
        unique_queries.push_back(std::move(batches[m].queries[j]));
        unique_views.push_back(view);
      }
      unique_slot[f] = it->second;
    }
  }
  const size_t num_unique = unique_queries.size();
  out.segments_unique = static_cast<int64_t>(num_unique);

  // Cross-round sharing: warm unique segments are answered from the
  // cache (hit list, per-hit distances, and stand-alone cost all stored
  // at their first appearance in any earlier round); only the cold
  // remainder goes to the index. Lookup never evicts, so warm entry
  // pointers stay valid until the Inserts at the end of this call.
  const IndexKind kind = matcher.options().index_kind;
  const uint64_t epoch = matcher.epoch();
  std::vector<const SegmentResultCache::Entry*> warm(num_unique, nullptr);
  std::vector<size_t> cold;
  cold.reserve(num_unique);
  for (size_t u = 0; u < num_unique; ++u) {
    if (cache != nullptr) {
      warm[u] = cache->Lookup(
          epoch, kind, epsilon,
          reinterpret_cast<const char*>(unique_views[u].data()),
          unique_views[u].size_bytes());
    }
    if (warm[u] == nullptr) cold.push_back(u);
  }
  if (cache != nullptr) {
    out.segments_cache_hits =
        static_cast<int64_t>(num_unique - cold.size());
    out.segments_cache_misses = static_cast<int64_t>(cold.size());
  }

  // Step 4 as ONE call over the cold unique segments. The shared sink
  // totals the work actually executed; per_query splits it back out per
  // cold segment so every member — including ones whose segments were
  // answered by an in-round representative or the cache — is billed
  // exactly what its stand-alone filter would have cost.
  StatsSink sink;
  std::vector<QueryDistanceFn> cold_queries;
  cold_queries.reserve(cold.size());
  for (const size_t u : cold) {
    cold_queries.push_back(std::move(unique_queries[u]));
  }
  std::vector<QueryStats> per_query(cold.size());
  std::vector<std::vector<ObjectId>> batched;
  if (!cold.empty()) {
    // The matcher's own step-4 entry point: base index + delta scan +
    // tombstone mask, so coalesced serving sees exactly the hit sets and
    // per-query billing a stand-alone FilterSegments would produce at
    // this epoch.
    batched = matcher.BatchFilterWindows(cold_queries, epsilon,
                                         matcher.options().exec, &sink,
                                         per_query.data());
  }
  out.total_filter_computations = sink.distance_computations();

  // The exact per-hit distance pass, ONCE per cold unique segment in
  // canonical ascending-window order (warm entries already carry
  // theirs) — previously every owner of a shared segment re-ran this
  // identical fill inside its own MergeSegmentHits. One flat call
  // covers every cold (segment, hit) pair in a single parallel section.
  std::vector<std::span<const T>> cold_views(cold.size());
  std::vector<std::span<const ObjectId>> cold_ids(cold.size());
  for (size_t c = 0; c < cold.size(); ++c) {
    std::sort(batched[c].begin(), batched[c].end());
    cold_views[c] = unique_views[cold[c]];
    cold_ids[c] = batched[c];
  }
  std::vector<std::vector<double>> cold_distances =
      matcher.SegmentHitDistances(cold_views, cold_ids,
                                  matcher.options().exec);

  // Per-unique result views and billing source, warm or cold.
  std::vector<std::span<const ObjectId>> u_ids(num_unique);
  std::vector<std::span<const double>> u_distances(num_unique);
  std::vector<int64_t> u_cost(num_unique, 0);
  for (size_t c = 0; c < cold.size(); ++c) {
    u_ids[cold[c]] = batched[c];
    u_distances[cold[c]] = cold_distances[c];
    u_cost[cold[c]] = per_query[c].distance_computations;
  }
  for (size_t u = 0; u < num_unique; ++u) {
    if (warm[u] == nullptr) continue;
    u_ids[u] = warm[u]->windows;
    u_distances[u] = warm[u]->distances;
    u_cost[u] = warm[u]->filter_computations;
    // The cache's contribution to the billed/executed gap: with the
    // cache off this round would have executed this segment once.
    sink.AddSharedComputations(warm[u]->filter_computations);
  }
  out.cache_shared_computations = sink.shared_computations();

  // Demux: member m owns flat slots [offsets[m], offsets[m+1]), each
  // redirected through its unique representative. Views into the shared
  // per-unique arrays — a segment answered once fans out to every owner
  // without copying the id or distance lists, and the precomputed merge
  // assembles hits without re-running any distance.
  std::vector<std::span<const ObjectId>> member_results;
  std::vector<std::span<const double>> member_distances;
  for (size_t m = 0; m < num_members; ++m) {
    const size_t count = batches[m].segments.size();
    member_results.assign(count, {});
    member_distances.assign(count, {});
    for (size_t j = 0; j < count; ++j) {
      const size_t u = unique_slot[offsets[m] + j];
      member_results[j] = u_ids[u];
      member_distances[j] = u_distances[u];
      out.stats[m].filter_computations += u_cost[u];
      out.billed_filter_computations += u_cost[u];
    }
    out.hits[m] = matcher.MergeSegmentHits(queries[m], batches[m].segments,
                                           member_results, member_distances,
                                           matcher.options().exec,
                                           &out.stats[m]);
  }

  // Publish the cold results for later rounds — strictly after the demux
  // above: Insert may evict warm entries whose spans were just consumed.
  if (cache != nullptr) {
    for (size_t c = 0; c < cold.size(); ++c) {
      const size_t u = cold[c];
      cache->Insert(epoch, kind, epsilon,
                    reinterpret_cast<const char*>(unique_views[u].data()),
                    unique_views[u].size_bytes(),
                    SegmentResultCache::Entry{
                        std::move(batched[c]), std::move(cold_distances[c]),
                        per_query[c].distance_computations});
    }
  }

  // Billing invariant: in-round sharing and the cache only ever remove
  // work; with nothing shared and nothing warm all three terms coincide.
  SUBSEQ_CHECK(out.billed_filter_computations >=
               out.total_filter_computations +
                   out.cache_shared_computations);
  return out;
}

template CoalescedFilter CoalescedFilterSegments<char>(
    const SubsequenceMatcher<char>&, std::span<const std::span<const char>>,
    double, SegmentResultCache*);
template CoalescedFilter CoalescedFilterSegments<double>(
    const SubsequenceMatcher<double>&,
    std::span<const std::span<const double>>, double, SegmentResultCache*);
template CoalescedFilter CoalescedFilterSegments<Point2d>(
    const SubsequenceMatcher<Point2d>&,
    std::span<const std::span<const Point2d>>, double, SegmentResultCache*);

}  // namespace subseq
