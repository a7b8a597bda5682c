#include "subseq/metric/range_index.h"

#include "subseq/core/check.h"
#include "subseq/exec/parallel_for.h"

namespace subseq {

QueryStats& QueryStats::operator+=(const QueryStats& other) {
  distance_computations += other.distance_computations;
  result_count += other.result_count;
  lower_bound_pruned += other.lower_bound_pruned;
  lb_kim_pruned += other.lb_kim_pruned;
  lb_erp_pruned += other.lb_erp_pruned;
  cells_probed += other.cells_probed;
  cells_skipped += other.cells_skipped;
  delta_windows_probed += other.delta_windows_probed;
  tombstones_masked += other.tombstones_masked;
  prefix_memo_hits += other.prefix_memo_hits;
  return *this;
}

void StatsSink::Add(const QueryStats& stats) {
  AddDistanceComputations(stats.distance_computations);
  AddResults(stats.result_count);
  AddLowerBoundPruned(stats.lower_bound_pruned);
  AddLbKimPruned(stats.lb_kim_pruned);
  AddLbErpPruned(stats.lb_erp_pruned);
  AddCellsProbed(stats.cells_probed);
  AddCellsSkipped(stats.cells_skipped);
  AddDeltaWindowsProbed(stats.delta_windows_probed);
  AddTombstonesMasked(stats.tombstones_masked);
  AddPrefixMemoHits(stats.prefix_memo_hits);
}

std::vector<std::vector<ObjectId>> RangeIndex::BatchRangeQuery(
    std::span<const QueryDistanceFn> queries, double epsilon,
    const ExecContext& exec, StatsSink* sink, QueryStats* per_query) const {
  std::vector<std::vector<ObjectId>> results(queries.size());
  ParallelFor(exec, static_cast<int64_t>(queries.size()),
              [&](int64_t begin, int64_t end, int32_t) {
                std::vector<uint8_t> scratch;  // chunk-lifetime, reused
                QueryStats chunk;
                for (int64_t i = begin; i < end; ++i) {
                  QueryStats qs;
                  results[static_cast<size_t>(i)] = RangeQueryWithScratch(
                      queries[static_cast<size_t>(i)], epsilon, &qs,
                      &scratch);
                  // Chunks cover disjoint index ranges: slot-addressed
                  // per-query stats need no synchronization. The split is
                  // only usable by multi-tenant billing and the partition
                  // roll-up if slot i's stats describe slot i's results —
                  // a backend whose RangeQuery misreports result_count
                  // would silently corrupt both, so enforce it here.
                  SUBSEQ_CHECK(qs.result_count ==
                               static_cast<int64_t>(
                                   results[static_cast<size_t>(i)].size()));
                  if (per_query != nullptr) per_query[i] = qs;
                  chunk += qs;
                }
                if (sink != nullptr) sink->Add(chunk);
              });
  return results;
}

}  // namespace subseq
