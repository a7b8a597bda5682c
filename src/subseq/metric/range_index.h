// RangeIndex: the common interface of all metric indexes, plus the
// statistics structs behind the paper's evaluation metrics.
//
// The paper's headline query metric (Figs. 8-11) is the *percentage of
// distance computations* an index performs relative to the naive linear
// scan; QueryStats::distance_computations feeds that. The space metric
// (Figs. 5-7) is node/list counts and byte estimates via SpaceStats.

#ifndef SUBSEQ_METRIC_RANGE_INDEX_H_
#define SUBSEQ_METRIC_RANGE_INDEX_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "subseq/exec/exec_context.h"
#include "subseq/exec/stats_sink.h"
#include "subseq/metric/oracle.h"

namespace subseq {

/// Per-query accounting.
struct QueryStats {
  /// Query-to-object distance evaluations performed. BILLED work, not
  /// executed calls: a linear scan reports every candidate it is
  /// responsible for even when a lower-bound prefilter skipped the
  /// exact evaluation (mirroring the serving cache's
  /// shared_computations convention). This keeps every
  /// distance-computation invariant — sharded == unsharded,
  /// cache-on == cache-off, prefilter-on == prefilter-off — exact.
  int64_t distance_computations = 0;
  /// Objects returned.
  int64_t result_count = 0;
  /// Candidates whose exact distance was skipped by a lower-bound
  /// prefilter (see QueryLowerBound): scanned windows a linear scan
  /// pruned, and reference-net nodes the walk's gate settled
  /// (metric/reference_net.h). Observability only — the saved work;
  /// these candidates remain counted in distance_computations. Equals
  /// the sum of the per-stage counters below for the shipped cascade
  /// (single-stage providers report everything here).
  int64_t lower_bound_pruned = 0;
  /// Of lower_bound_pruned, candidates cut by the O(1) LB_Kim stage
  /// before the LB_Keogh envelope ran (DTW cascade only; 0 elsewhere).
  int64_t lb_kim_pruned = 0;
  /// Of lower_bound_pruned, candidates cut by the ||sum(Q) - sum(C)||
  /// ERP sum bound — scanned windows and gated reference-net nodes
  /// alike (ERP cascade only; 0 elsewhere).
  int64_t lb_erp_pruned = 0;
  /// k-center cells this query was fanned into (a PartitionedIndex with
  /// a k-center layout only; 0 elsewhere). The routing distance of
  /// every cell — probed or not — is billed in distance_computations.
  int64_t cells_probed = 0;
  /// k-center cells the triangle inequality proved empty of hits,
  /// whose members were therefore neither evaluated NOR billed. This is
  /// the one sanctioned departure from the billing invariants above:
  /// routing exists to shrink distance_computations, and
  /// cells_probed/cells_skipped make the decision deterministic and
  /// observable (the CI routing gates ride on these counts).
  int64_t cells_skipped = 0;
  /// Delta-index windows (appended since the base epoch) this query was
  /// scanned against by the frame layer's base+delta merge (0 when the
  /// matcher's delta is empty). Every probed delta window is billed in
  /// distance_computations — delta scan costs land in
  /// filter_computations like any other filter work.
  int64_t delta_windows_probed = 0;
  /// Hits dropped because their window belongs to a retired (tombstoned)
  /// sequence. Like cells_skipped, masking is a sanctioned departure
  /// from strict billing equality versus an index that never held the
  /// window: the mask itself is not billed, and this counter makes the
  /// masking decisions observable and deterministic.
  int64_t tombstones_masked = 0;
  /// Billed node calls that step 4's per-start prefix memo answered
  /// without running a DP: the segments cut at one query start share
  /// one SequenceDistance::ComputePrefixes column per touched window
  /// (SubsequenceMatcher::BatchFilterWindows), so every call after the
  /// first at a (start, window) pair reads its value from the column.
  /// Observability only, like lower_bound_pruned — these calls stay
  /// counted in distance_computations. Executed DPs are
  /// distance_computations - lower_bound_pruned - prefix_memo_hits.
  int64_t prefix_memo_hits = 0;

  /// Adds every counter of `other` — with StatsSink::Add, the one place
  /// that lists the counters for a roll-up.
  QueryStats& operator+=(const QueryStats& other);
};

/// Index construction accounting.
struct BuildStats {
  /// Object-to-object distance evaluations performed during build.
  int64_t distance_computations = 0;
};

/// Structural size of an index (Figures 5-7).
struct SpaceStats {
  /// Objects represented (== oracle size once fully built).
  int64_t num_objects = 0;
  /// Internal nodes (reference-net/cover-tree nodes; MV: references).
  int64_t num_nodes = 0;
  /// Total parent->child list entries (reference lists; MV: table cells).
  int64_t num_list_entries = 0;
  /// Average number of parents per node (1.0 for a tree).
  double avg_parents = 0.0;
  /// Number of levels (hierarchical indexes only).
  int32_t num_levels = 0;
  /// Estimated resident bytes of the index structure.
  int64_t approx_bytes = 0;
};

/// A metric range index over the objects of a DistanceOracle.
class RangeIndex {
 public:
  virtual ~RangeIndex() = default;

  /// Short stable identifier ("reference-net", "cover-tree", ...).
  virtual std::string_view name() const = 0;

  /// Number of indexed objects.
  virtual int32_t size() const = 0;

  /// Returns every ObjectId whose distance to the query is <= epsilon.
  /// Exact (no false positives or negatives) for metric distances.
  /// Order of results is unspecified. `stats` (optional) receives the
  /// distance-computation count for this query.
  virtual std::vector<ObjectId> RangeQuery(const QueryDistanceFn& query,
                                           double epsilon,
                                           QueryStats* stats = nullptr) const = 0;

  /// Executes a batch of range queries, result[i] answering queries[i].
  ///
  /// Ordering guarantees (the serving layer's demux relies on these):
  ///  * results are *batch-order addressed*: result[i] answers queries[i],
  ///    regardless of thread budget, chunking, or which other queries
  ///    share the batch;
  ///  * result[i] is element-wise identical — same ids, same order — to
  ///    RangeQuery(queries[i], epsilon) issued alone, at any
  ///    exec.num_threads setting (batch composition never changes a
  ///    query's answer, only wall-clock time);
  ///  * per_query[i] (when requested) equals the QueryStats that the
  ///    stand-alone RangeQuery(queries[i], ...) would report — queries in
  ///    a batch do not share or amortize distance computations. This slot
  ///    addressing is checked, not just documented: the default
  ///    implementation CHECKs that per_query[i].result_count equals
  ///    results[i]'s size, and PartitionedIndex re-CHECKs the invariant
  ///    when rolling inner splits up — so downstream consumers
  ///    (MatchServer billing, the per-part roll-up) can rely on the split
  ///    being exact. Overrides must preserve the same invariant.
  ///
  /// The default implementation fans the batch out over exec's thread
  /// budget in contiguous index-ordered chunks. `sink` (optional)
  /// receives the batch's exact total distance-computation and result
  /// counts; `per_query` (optional) must point to `queries.size()`
  /// writable QueryStats and receives the same accounting split per
  /// query, so multi-tenant callers (MatchServer) can bill each query
  /// exactly even though the batch executed as one shared call. Backends
  /// override this for tuned execution (e.g. intra-query sharding,
  /// scratch reuse) but must preserve all three guarantees above. Query
  /// functions must be safe to invoke from multiple threads (distances
  /// are thread-compatible by contract; see SequenceDistance).
  virtual std::vector<std::vector<ObjectId>> BatchRangeQuery(
      std::span<const QueryDistanceFn> queries, double epsilon,
      const ExecContext& exec = {}, StatsSink* sink = nullptr,
      QueryStats* per_query = nullptr) const;

  /// Structural size of the index.
  virtual SpaceStats ComputeSpaceStats() const = 0;

  /// Distance computations spent building the index.
  virtual BuildStats build_stats() const = 0;

 protected:
  /// Hook for the default BatchRangeQuery: answers one query given a
  /// buffer that lives for a whole chunk of the batch. Backends with
  /// per-query scratch (e.g. visited marks sized to the node count)
  /// override this to reuse the allocation across a chunk's queries; the
  /// default ignores the buffer and forwards to RangeQuery.
  virtual std::vector<ObjectId> RangeQueryWithScratch(
      const QueryDistanceFn& query, double epsilon, QueryStats* stats,
      std::vector<uint8_t>* scratch) const {
    (void)scratch;
    return RangeQuery(query, epsilon, stats);
  }
};

}  // namespace subseq

#endif  // SUBSEQ_METRIC_RANGE_INDEX_H_
