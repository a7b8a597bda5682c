// MvIndex — reference-based indexing with Maximum-Variance reference
// selection (Venkateswaran et al., VLDB 2006), the "MV-k" baseline of the
// paper's Figs. 8-11.
//
// Build: pick k references maximizing the variance of their distances to a
// data sample, then precompute the full n x k object-to-reference distance
// table. Query: compute the k query-to-reference distances, derive per-
// object lower/upper bounds from the triangle inequality
//   |d(q, r) - d(x, r)| <= d(q, x) <= d(q, r) + d(x, r)
// and only evaluate the true distance for objects whose bounds straddle
// epsilon. Space is Theta(n * k) — the "large space requirement in
// practice" the paper holds against this family.

#ifndef SUBSEQ_METRIC_MV_INDEX_H_
#define SUBSEQ_METRIC_MV_INDEX_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "subseq/core/status.h"
#include "subseq/metric/range_index.h"

namespace subseq {

class SnapshotFile;
class SnapshotWriter;

/// MV index tunables.
struct MvIndexOptions {
  /// k — number of references (paper: MV-5, MV-20, MV-50).
  int32_t num_references = 5;
  /// Candidate/sample pool size for the variance estimate.
  int32_t sample_size = 200;
  /// Seed for candidate sampling.
  uint64_t seed = 42;
  /// Thread budget for construction: the variance-scoring pass and the
  /// n x k pivot-table fill are chunked over these threads. The index
  /// built is identical at any setting.
  ExecContext exec;
};

/// Pivot-table range index with maximum-variance reference selection.
class MvIndex final : public RangeIndex {
 public:
  /// Builds the index over all oracle objects. The oracle must outlive
  /// the index.
  MvIndex(const DistanceOracle& oracle, MvIndexOptions options = {});

  std::string_view name() const override { return "mv-index"; }
  int32_t size() const override { return num_objects_; }

  std::vector<ObjectId> RangeQuery(const QueryDistanceFn& query,
                                   double epsilon,
                                   QueryStats* stats) const override;

  SpaceStats ComputeSpaceStats() const override;
  BuildStats build_stats() const override { return build_stats_; }

  /// The selected reference objects, most-variant first.
  const std::vector<ObjectId>& references() const { return references_; }

  /// Appends this index's snapshot sections ("<prefix>meta", "refs",
  /// "table") to `writer`.
  Status SaveSections(SnapshotWriter& writer, const std::string& prefix) const;

  /// Reconstructs an index from snapshot sections. The n x k pivot
  /// table is *aliased* out of `file` (zero copy — in mmap mode the
  /// table stays demand-paged on disk), so the index keeps a shared_ptr
  /// to the file. Validates sizes, reference ids, and a seeded oracle
  /// spot-check of table cells; the stored build options must match
  /// `options`.
  static Result<std::unique_ptr<MvIndex>> LoadSections(
      std::shared_ptr<const SnapshotFile> file, const std::string& prefix,
      const DistanceOracle& oracle, const MvIndexOptions& options);

 private:
  struct LoadTag {};
  MvIndex(const DistanceOracle& oracle, MvIndexOptions options, LoadTag)
      : oracle_(oracle), options_(std::move(options)) {}

  const DistanceOracle& oracle_;
  MvIndexOptions options_;
  int32_t num_objects_ = 0;
  std::vector<ObjectId> references_;
  // Row-major n x k: table_[x * k + j] = d(object x, reference j).
  // Backed by table_storage_ when built fresh, or aliased directly out
  // of a snapshot file (kept alive by backing_) when loaded.
  std::span<const double> table_;
  std::vector<double> table_storage_;
  std::shared_ptr<const SnapshotFile> backing_;
  BuildStats build_stats_;
};

}  // namespace subseq

#endif  // SUBSEQ_METRIC_MV_INDEX_H_
