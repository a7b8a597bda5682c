// ExecContext: the execution knobs shared by index construction and
// batched queries.
//
// Every parallel section in the library partitions its work by *index*
// (deterministic chunk boundaries derived from the problem size) and
// merges per-chunk results in chunk order, never in completion order.
// Results are therefore element-wise identical at any num_threads
// setting; the knob trades wall-clock time only.

#ifndef SUBSEQ_EXEC_EXEC_CONTEXT_H_
#define SUBSEQ_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <thread>

namespace subseq {

/// std::thread::hardware_concurrency() with a floor of 1 — the single
/// resolution point shared by ExecContext and the ThreadPool sizing.
///
/// Resolved exactly once per process and cached: hardware_concurrency()
/// can be an OS call, and before this was hoisted every index build (and
/// every ParallelFor chunk-budget computation) re-queried it on the hot
/// path. The machine's core count cannot change under a running process,
/// so one resolution serves all ExecContexts.
inline int32_t ResolveHardwareConcurrency() {
  static const int32_t cached = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int32_t>(hw);
  }();
  return cached;
}

/// Execution configuration for parallel build and query paths.
struct ExecContext {
  /// Worker-thread budget for parallel sections. 0 (the default) resolves
  /// to the hardware concurrency — once per process, see
  /// ResolveHardwareConcurrency(); 1 keeps everything on the calling
  /// thread. The budget caps how many *chunks* a parallel section splits
  /// into, never how many pool workers exist, so results are identical at
  /// any setting (the knob trades wall-clock time only).
  int32_t num_threads = 0;

  /// Number of contiguous data shards index construction partitions the
  /// object catalog into (a PartitionedIndex with a contiguous layout,
  /// built by SubsequenceMatcher::Build; parallel loop sections ignore
  /// it). 0 or 1 keeps one monolithic index. Like num_threads, the knob
  /// never changes answers: parts merge in part order and stats roll up
  /// exactly.
  int32_t num_shards = 0;

  /// Number of coarse routing cells index construction clusters the
  /// object catalog into (a PartitionedIndex with a k-center layout,
  /// built by SubsequenceMatcher::Build; parallel loop sections ignore
  /// it). 0 or 1 keeps one monolithic index. Unlike num_shards'
  /// contiguous split, cells partition by *distance* to k-center
  /// pivots, and queries are routed only to cells whose covering radius
  /// can contain an epsilon match. Matches and verification stats stay
  /// element-wise identical at any setting; filter
  /// distance_computations deliberately SHRINK (skipped cells are not
  /// billed — that saving is the point; see QueryStats::cells_skipped).
  /// Requires a metric distance. Both knobs resolve through
  /// ResolvePartition (metric/partitioned_index.h).
  int32_t routing_cells = 0;

  /// The effective thread budget (always >= 1).
  int32_t ResolvedThreads() const {
    return num_threads > 0 ? num_threads : ResolveHardwareConcurrency();
  }
};

/// A context pinned to the calling thread.
inline ExecContext SequentialExec() { return ExecContext{1}; }

}  // namespace subseq

#endif  // SUBSEQ_EXEC_EXEC_CONTEXT_H_
