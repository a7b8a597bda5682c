// StatsSink: thread-safe accounting shared by concurrent build and query
// shards.
//
// The paper's evaluation metrics are exact distance-computation counts
// (Figs. 8-11), so the counters must stay exact under concurrency.
// Shards accumulate locally and publish once per chunk with relaxed
// atomic adds: every count lands exactly once, no ordering is implied,
// and readers observe exact totals after the parallel section has joined
// (ParallelFor only returns once all chunks finished).

#ifndef SUBSEQ_EXEC_STATS_SINK_H_
#define SUBSEQ_EXEC_STATS_SINK_H_

#include <atomic>
#include <cstdint>

namespace subseq {

struct QueryStats;

/// Atomic counters for the accounting every index and the matcher keep.
class StatsSink {
 public:
  StatsSink() = default;
  StatsSink(const StatsSink&) = delete;
  StatsSink& operator=(const StatsSink&) = delete;

  void AddDistanceComputations(int64_t n) {
    distance_computations_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddResults(int64_t n) {
    results_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Distance computations that were *billed but not executed* because a
  /// sharing layer (the serving coalescer's cross-round segment cache)
  /// answered them from a previous call's result. Kept separate from
  /// distance_computations(), which stays the exact executed count: the
  /// two together reconstruct what an unshared run would have executed.
  void AddSharedComputations(int64_t n) {
    shared_computations_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Candidates a lower-bound prefilter skipped (billed in
  /// distance_computations but never executed; see
  /// QueryStats::lower_bound_pruned).
  void AddLowerBoundPruned(int64_t n) {
    lower_bound_pruned_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Per-stage attribution of lower_bound_pruned (see
  /// QueryStats::lb_kim_pruned / lb_erp_pruned).
  void AddLbKimPruned(int64_t n) {
    lb_kim_pruned_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddLbErpPruned(int64_t n) {
    lb_erp_pruned_.fetch_add(n, std::memory_order_relaxed);
  }
  /// k-center cells probed / skipped across queries (see
  /// QueryStats::cells_probed / cells_skipped).
  void AddCellsProbed(int64_t n) {
    cells_probed_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddCellsSkipped(int64_t n) {
    cells_skipped_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Delta-index windows scanned / tombstoned hits masked by the frame
  /// layer's base+delta merge (see QueryStats::delta_windows_probed /
  /// tombstones_masked).
  void AddDeltaWindowsProbed(int64_t n) {
    delta_windows_probed_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddTombstonesMasked(int64_t n) {
    tombstones_masked_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Billed node calls step 4's per-start prefix memo answered without a
  /// DP (see QueryStats::prefix_memo_hits).
  void AddPrefixMemoHits(int64_t n) {
    prefix_memo_hits_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Adds every counter of `stats` (result_count lands in results()).
  /// Defined next to QueryStats::operator+= (metric/range_index.cc):
  /// the two are the only places that list the counters for a roll-up.
  void Add(const QueryStats& stats);

  int64_t distance_computations() const {
    return distance_computations_.load(std::memory_order_relaxed);
  }
  int64_t results() const {
    return results_.load(std::memory_order_relaxed);
  }
  int64_t shared_computations() const {
    return shared_computations_.load(std::memory_order_relaxed);
  }
  int64_t lower_bound_pruned() const {
    return lower_bound_pruned_.load(std::memory_order_relaxed);
  }
  int64_t lb_kim_pruned() const {
    return lb_kim_pruned_.load(std::memory_order_relaxed);
  }
  int64_t lb_erp_pruned() const {
    return lb_erp_pruned_.load(std::memory_order_relaxed);
  }
  int64_t cells_probed() const {
    return cells_probed_.load(std::memory_order_relaxed);
  }
  int64_t cells_skipped() const {
    return cells_skipped_.load(std::memory_order_relaxed);
  }
  int64_t delta_windows_probed() const {
    return delta_windows_probed_.load(std::memory_order_relaxed);
  }
  int64_t tombstones_masked() const {
    return tombstones_masked_.load(std::memory_order_relaxed);
  }
  int64_t prefix_memo_hits() const {
    return prefix_memo_hits_.load(std::memory_order_relaxed);
  }

  void Reset() {
    distance_computations_.store(0, std::memory_order_relaxed);
    results_.store(0, std::memory_order_relaxed);
    shared_computations_.store(0, std::memory_order_relaxed);
    lower_bound_pruned_.store(0, std::memory_order_relaxed);
    lb_kim_pruned_.store(0, std::memory_order_relaxed);
    lb_erp_pruned_.store(0, std::memory_order_relaxed);
    cells_probed_.store(0, std::memory_order_relaxed);
    cells_skipped_.store(0, std::memory_order_relaxed);
    delta_windows_probed_.store(0, std::memory_order_relaxed);
    tombstones_masked_.store(0, std::memory_order_relaxed);
    prefix_memo_hits_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> distance_computations_{0};
  std::atomic<int64_t> results_{0};
  std::atomic<int64_t> shared_computations_{0};
  std::atomic<int64_t> lower_bound_pruned_{0};
  std::atomic<int64_t> lb_kim_pruned_{0};
  std::atomic<int64_t> lb_erp_pruned_{0};
  std::atomic<int64_t> cells_probed_{0};
  std::atomic<int64_t> cells_skipped_{0};
  std::atomic<int64_t> delta_windows_probed_{0};
  std::atomic<int64_t> tombstones_masked_{0};
  std::atomic<int64_t> prefix_memo_hits_{0};
};

}  // namespace subseq

#endif  // SUBSEQ_EXEC_STATS_SINK_H_
