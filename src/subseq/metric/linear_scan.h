// LinearScan: the naive baseline — computes the query distance to every
// object. Serves as the denominator of the paper's "% of distance
// computations" metric and as ground truth in index-equivalence tests.

#ifndef SUBSEQ_METRIC_LINEAR_SCAN_H_
#define SUBSEQ_METRIC_LINEAR_SCAN_H_

#include <memory>
#include <string>

#include "subseq/core/status.h"
#include "subseq/metric/range_index.h"

namespace subseq {

class SnapshotFile;
class SnapshotWriter;

/// Exhaustive range search over n objects: always n distance computations.
class LinearScan final : public RangeIndex {
 public:
  explicit LinearScan(int32_t num_objects) : num_objects_(num_objects) {}

  std::string_view name() const override { return "linear-scan"; }
  int32_t size() const override { return num_objects_; }

  std::vector<ObjectId> RangeQuery(const QueryDistanceFn& query,
                                   double epsilon,
                                   QueryStats* stats) const override;

  /// Tuned batch execution. Wide batches parallelize across queries; a
  /// batch narrower than the thread budget shards each scan across
  /// object ranges instead (per-chunk results concatenate in chunk order,
  /// which equals the sequential ascending-id order).
  std::vector<std::vector<ObjectId>> BatchRangeQuery(
      std::span<const QueryDistanceFn> queries, double epsilon,
      const ExecContext& exec, StatsSink* sink,
      QueryStats* per_query = nullptr) const override;

  SpaceStats ComputeSpaceStats() const override;
  BuildStats build_stats() const override { return BuildStats{}; }

  /// Appends this scan's one snapshot section ("<prefix>meta"). A
  /// linear scan has no structure, but persisting it keeps the snapshot
  /// self-describing and the five-kind round-trip uniform.
  Status SaveSections(SnapshotWriter& writer, const std::string& prefix) const;

  /// Reconstructs a scan from snapshot sections; the stored object
  /// count must match the oracle.
  static Result<std::unique_ptr<LinearScan>> LoadSections(
      const SnapshotFile& file, const std::string& prefix,
      const DistanceOracle& oracle);

 private:
  int32_t num_objects_;
};

}  // namespace subseq

#endif  // SUBSEQ_METRIC_LINEAR_SCAN_H_
