// Query coalescing — the serving subsystem's core idea.
//
// The library's FilterSegments already batches one query's segments into
// a single RangeIndex::BatchRangeQuery call. Under concurrent load that
// still means one index call per query. The coalescer goes one step
// further: it groups *different clients'* queries that are
// filter-compatible (same index backend, same epsilon) and issues all of
// their segments as ONE shared BatchRangeQuery — bigger parallel
// sections, per-chunk scratch amortized across clients, one
// synchronization round instead of one per query, and cross-query
// segment sharing: bit-identical segments contributed by different
// concurrent queries (overlapping cuts of the same region, hot repeated
// queries) are issued to the index once and their results fanned back
// out, so concurrent load on popular content costs sublinear filter
// work. Each member is still *billed* its exact stand-alone cost in its
// per-query stats — determinism of reported accounting — while the
// executed total shrinks.
//
// Determinism: BatchRangeQuery guarantees result[i] answers queries[i]
// independent of batch composition (see metric/range_index.h), so the
// demux — slicing the shared result array back per owning query —
// reproduces exactly the hits each query would have obtained alone, and
// the per-query stats split (BatchRangeQuery's per_query out-param, not
// the shared StatsSink total) bills each query exactly what its own
// filter cost.

#ifndef SUBSEQ_SERVE_COALESCER_H_
#define SUBSEQ_SERVE_COALESCER_H_

#include <cstddef>
#include <span>
#include <vector>

#include "subseq/frame/matcher.h"
#include "subseq/serve/segment_cache.h"

namespace subseq {

/// Filter-compatibility key of one admitted request.
struct CoalesceKey {
  /// Index backend the request is answered through.
  IndexKind kind = IndexKind::kReferenceNet;
  /// Filter threshold (Type III's is its epsilon_max). Compared exactly:
  /// only bit-identical epsilons share a call (BatchRangeQuery takes one
  /// epsilon per batch).
  double epsilon = 0.0;
};

/// One planned shared filter call over a subset of an admission batch.
struct CoalesceGroup {
  IndexKind kind = IndexKind::kReferenceNet;
  double epsilon = 0.0;
  /// Indices into the admission batch, in admission order.
  std::vector<size_t> members;
};

/// Deterministically partitions an admission batch into shared filter
/// calls: keys group by (kind, epsilon) in first-appearance order with
/// members in admission order. Every index in [0, keys.size()) appears
/// in exactly one group.
std::vector<CoalesceGroup> PlanCoalesce(std::span<const CoalesceKey> keys);

/// Per-member outcome of one shared filter call.
struct CoalescedFilter {
  /// hits[m] — the member's segment hits, element-wise identical to
  /// matcher.FilterSegments(queries[m], epsilon) run alone.
  std::vector<std::vector<SegmentHit>> hits;
  /// stats[m] — the member's exact filter accounting (segments,
  /// filter_computations, hits fields), identical to the stand-alone
  /// call's. Verification fields are zero; step 5 fills them later.
  std::vector<MatchQueryStats> stats;
  /// Segment queries the members contributed in total.
  int64_t segments_total = 0;
  /// Distinct segments after in-round cross-query sharing (bit-identical
  /// segments are answered once per round).
  int64_t segments_unique = 0;
  /// Of segments_unique, how many were answered from the cross-round
  /// SegmentResultCache instead of the index (0 when no cache was given).
  int64_t segments_cache_hits = 0;
  /// Of segments_unique, how many actually went to the index this round
  /// (and were then published to the cache, when one was given).
  int64_t segments_cache_misses = 0;
  /// Index distance computations actually executed by the shared call
  /// (cache-answered segments execute nothing).
  int64_t total_filter_computations = 0;
  /// Sum over stats[m].filter_computations — what the same members would
  /// have cost run stand-alone. billed >= total always; the gap is the
  /// work in-round sharing plus the cross-round cache eliminated.
  int64_t billed_filter_computations = 0;
  /// The cache's share of that gap: the stand-alone cost of every warm
  /// unique segment, i.e. the index work this round would have executed
  /// with the cache off (in-round sharing still applied). Always
  /// billed >= total + cache_shared.
  int64_t cache_shared_computations = 0;
};

/// Steps 3-4 for a whole group at once: extracts every member's segment
/// queries, dedups bit-identical segments, answers warm ones from
/// `cache` (when non-null) and issues the cold remainder to `matcher`'s
/// index as one shared BatchRangeQuery over the matcher's ExecContext,
/// runs the exact per-hit distance pass ONCE per cold unique segment
/// (warm entries carry theirs), then demuxes hits and stats back per
/// member (deterministic: slice boundaries derive only from per-member
/// segment counts). Cold results are published to `cache` before
/// returning. Billing is unchanged by the cache: every member's stats
/// report its exact stand-alone filter cost whether its segments were
/// cold, warm, or shared in-round — results and stats are bit-identical
/// to a cache-less call. `queries[m]` storage must stay valid for the
/// duration of the call; `cache` is used unsynchronized and must not be
/// touched concurrently. Runs on the calling thread; the parallelism is
/// inside the shared index call and the distance pass.
template <typename T>
CoalescedFilter CoalescedFilterSegments(
    const SubsequenceMatcher<T>& matcher,
    std::span<const std::span<const T>> queries, double epsilon,
    SegmentResultCache* cache = nullptr);

extern template CoalescedFilter CoalescedFilterSegments<char>(
    const SubsequenceMatcher<char>&, std::span<const std::span<const char>>,
    double, SegmentResultCache*);
extern template CoalescedFilter CoalescedFilterSegments<double>(
    const SubsequenceMatcher<double>&,
    std::span<const std::span<const double>>, double, SegmentResultCache*);
extern template CoalescedFilter CoalescedFilterSegments<Point2d>(
    const SubsequenceMatcher<Point2d>&,
    std::span<const std::span<const Point2d>>, double, SegmentResultCache*);

}  // namespace subseq

#endif  // SUBSEQ_SERVE_COALESCER_H_
