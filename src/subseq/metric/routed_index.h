// RoutedIndex — a two-level metric index: K coarse pivot cells, each
// backed by an inner index of any backend, with epsilon-adaptive cell
// skipping at query time.
//
// ShardedIndex partitions the catalog by contiguous id, so every query
// must probe every shard: sharding buys parallel builds at the price of
// ~K-fold query fan-out. RoutedIndex partitions by *distance* instead
// (IVF-style): a deterministic k-center (farthest-point) pass selects K
// pivot windows, every window joins its nearest pivot's cell, and each
// cell records its covering radius r_c = max d(member, pivot). A range
// query then measures the query against the K pivots and, by the
// triangle inequality, probes only cells with
//
//   d(q, pivot_c) <= r_c + epsilon
//
// — every member m of a skipped cell satisfies
// d(q, m) >= d(q, pivot_c) - d(m, pivot_c) >= d(q, pivot_c) - r_c >
// epsilon, so no true hit is ever lost. This turns the triangle
// inequality into *cross-cell* pruning on top of whatever pruning the
// inner backends do, and is what flips the sharding trade-off: parallel
// per-cell builds AND fewer query computations.
//
// Soundness requires a metric distance (the skip rule is the triangle
// inequality); the frame layer refuses routing for non-metric
// distances. Pivot selection, assignment, and the skew-rebalancing
// split pass are all deterministic (ties break toward the lowest id /
// lowest cell), so the same catalog always yields the same cells.

#ifndef SUBSEQ_METRIC_ROUTED_INDEX_H_
#define SUBSEQ_METRIC_ROUTED_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "subseq/core/status.h"
#include "subseq/metric/range_index.h"
#include "subseq/metric/sharded_index.h"

namespace subseq {

class SnapshotFile;
class SnapshotWriter;

/// An arbitrary subset of a parent oracle's objects presented as a
/// self-contained oracle with local ids 0..size-1. Local id i is parent
/// id members[i]; members are ascending. The parent and the member
/// array must outlive the view. (ShardOracle is the contiguous special
/// case; cells are scattered, so they need the explicit map.)
class CellOracle final : public DistanceOracle {
 public:
  CellOracle(const DistanceOracle& parent, const ObjectId* members,
             int32_t size)
      : parent_(parent), members_(members), size_(size) {}

  int32_t size() const override { return size_; }

  double Distance(ObjectId a, ObjectId b) const override {
    return parent_.Distance(members_[a], members_[b]);
  }

  double DistanceBounded(ObjectId a, ObjectId b,
                         double upper_bound) const override {
    return parent_.DistanceBounded(members_[a], members_[b], upper_bound);
  }

  /// Parent id of local id `local`.
  ObjectId parent_id(ObjectId local) const { return members_[local]; }

 private:
  const DistanceOracle& parent_;
  const ObjectId* members_;
  int32_t size_;
};

/// The deterministic cell layout produced by pivot selection, nearest-
/// pivot assignment, and skew rebalancing — the routing half of a
/// RoutedIndex before any inner index exists. Exposed so the out-of-core
/// snapshot builder can compute the layout once, serialize it, and then
/// build + serialize one cell at a time (matcher_snapshot.cc); Build
/// consumes the same layout in-core, so both paths share one routing
/// decision.
struct RoutedLayout {
  std::vector<ObjectId> pivots;    // one per cell
  std::vector<double> radii;       // covering radius per cell
  std::vector<ObjectId> members;   // concatenated, ascending within a cell
  std::vector<int32_t> begins;     // cell c owns members[begins[c],
                                   // begins[c + 1])
  int32_t requested_cells = 0;     // the resolved count the layout was
                                   // asked for (may differ from
                                   // pivots.size() after rebalancing)
  int64_t computations = 0;        // selection + assignment distances
};

/// Routing tunables.
struct RoutedIndexOptions {
  /// Requested coarse cell count; resolved via ExecContext::ResolvedCells
  /// (clamped to [1, object count]). The built index may hold more cells
  /// (skew rebalancing splits oversized ones) or fewer (duplicate-heavy
  /// catalogs stop early when every remaining object already sits at
  /// distance 0 from a pivot).
  int32_t num_cells = 4;
  /// Thread budget for pivot selection, the cross-cell build, and the
  /// query fan-out. Inner indexes invoked from pool workers run their
  /// own parallel sections inline, so the fan-out never oversubscribes.
  ExecContext exec;
};

/// K pivot-routed per-cell indexes behind the RangeIndex interface.
///
/// Contracts on top of RangeIndex's:
///  * the hit SET of RangeQuery / BatchRangeQuery equals the monolithic
///    index's for any query (cell skipping never loses a true hit);
///    result order is cell-order concatenation — canonicalized by the
///    frame layer's MergeSegmentHits like every other backend's;
///  * routing distances (one per cell per query) are billed into
///    distance_computations; members of skipped cells are NOT billed —
///    routing is the one layer whose filter_computations deliberately
///    shrink versus the monolithic index (that saving is the point, and
///    it is what the CI routing gates measure). cells_probed /
///    cells_skipped make the routing decisions observable and
///    deterministic;
///  * per-query stats are exact stand-alone splits (the BatchRangeQuery
///    slot contract), so serving-cache billing invariants hold
///    unchanged;
///  * cell queries REBIND any PrunableQueryFn payload to the cell's
///    materialized member windows when the oracle implements
///    LowerBoundPayloadSource (frame/window_oracle.h does): each cell
///    stores its members' windows — and their cascade features —
///    cell-contiguously at build/load time, so the provider sees one
///    dense id range per cell instead of scattered global ids, and the
///    scan prefilter keeps pruning inside probed cells
///    (lower_bound_pruned is live under routing). Oracles without
///    payload support keep the old behavior: the lower bound is shed
///    and cell members scan unpruned — never affecting the hit set
///    either way. A batched evaluator rides through in both cases.
class RoutedIndex final : public RangeIndex {
 public:
  /// Selects resolved-K pivots by deterministic farthest-point k-center
  /// over `oracle`, assigns every object to its nearest pivot (ties to
  /// the earliest pivot), records covering radii, splits cells larger
  /// than twice the mean size (new pivot = the member farthest from the
  /// old one), and builds one inner index per cell via `factory`, in
  /// parallel over `options.exec`. Fails with the first failing cell's
  /// status.
  static Result<std::unique_ptr<RoutedIndex>> Build(
      const DistanceOracle& oracle, const ShardIndexFactory& factory,
      RoutedIndexOptions options = {});

  /// The routing decision alone: pivots, assignment, radii, rebalancing —
  /// exactly what Build computes before building inner indexes, for the
  /// given resolved cell count. Deterministic for a fixed oracle and
  /// num_cells at any thread budget.
  static RoutedLayout ComputeLayout(const DistanceOracle& oracle,
                                    int32_t num_cells,
                                    const ExecContext& exec);

  /// Appends the routing-layout sections ("<prefix>meta", "pivots",
  /// "radii", "cell_begins", "members") byte-identically to the head of
  /// SaveSections of an index built from `layout` — the out-of-core
  /// builder writes these, then streams each cell's inner sections
  /// under CellPrefix(prefix, c).
  static Status SaveLayoutSections(const RoutedLayout& layout,
                                   SnapshotWriter& writer,
                                   const std::string& prefix);

  std::string_view name() const override { return name_; }
  int32_t size() const override;

  /// Routes to cells with d(q, pivot) <= r_c + cutoff(epsilon) and
  /// merges their inner results in cell order with ids translated back
  /// to parent ids. `stats` receives routing + inner computations,
  /// cells_probed and cells_skipped.
  std::vector<ObjectId> RangeQuery(const QueryDistanceFn& query,
                                   double epsilon,
                                   QueryStats* stats) const override;

  /// Routes every query (routing distances computed in parallel over the
  /// batch), then fans each cell's probing sub-batch to its inner index
  /// (cells in parallel over `exec`) and merges per query in cell order.
  /// Per-query splits are the exact stand-alone accounting, routing
  /// distances included; the sink receives the batch totals plus the
  /// probed/skipped cell counts.
  std::vector<std::vector<ObjectId>> BatchRangeQuery(
      std::span<const QueryDistanceFn> queries, double epsilon,
      const ExecContext& exec, StatsSink* sink,
      QueryStats* per_query = nullptr) const override;

  /// Exact global k-NN with lower-bound-ordered probing: cells are
  /// visited by ascending max(0, d(q, pivot) - r_c) (ties by cell), and
  /// a cell whose bound exceeds the running k-th best distance is
  /// skipped — sound by the same triangle-inequality argument as range
  /// routing, and deterministic for a fixed cell layout.
  std::vector<Neighbor> NearestNeighbors(const QueryDistanceFn& query,
                                         int32_t k,
                                         QueryStats* stats) const override;

  /// Aggregate over cells plus the routing tables (pivots, radii,
  /// member map).
  SpaceStats ComputeSpaceStats() const override;

  /// Pivot-selection + assignment + rebalancing distances plus the sum
  /// of the cells' inner build computations.
  BuildStats build_stats() const override;

  /// Appends the routing layout ("<prefix>meta", "pivots", "radii",
  /// "cell_begins", "members") followed by every cell's inner sections
  /// (under CellPrefix(prefix, c)) via `saver`. The encoding is
  /// canonical: a loaded index saves back byte-identically.
  Status SaveSections(SnapshotWriter& writer, const std::string& prefix,
                      const ShardIndexSaver& saver) const;

  /// Reconstructs a routed index from snapshot sections. The stored
  /// *requested* cell count must equal `expected_cells` (what the
  /// caller's options resolve to — the built cell count may differ via
  /// rebalancing, and is taken from the file); the member map must be a
  /// permutation of [0, n) with each pivot inside its own cell.
  static Result<std::unique_ptr<RoutedIndex>> LoadSections(
      const SnapshotFile& file, const std::string& prefix,
      const DistanceOracle& oracle, int32_t expected_cells,
      const ShardIndexLoader& loader);

  /// Section prefix of cell c: "<prefix>c<c>.".
  static std::string CellPrefix(const std::string& prefix, int32_t c);

  int32_t num_cells() const { return static_cast<int32_t>(cells_.size()); }
  /// The resolved cell count Build was asked for (what the snapshot
  /// records and LoadSections re-checks); num_cells() may differ after
  /// rebalancing splits or duplicate-driven early stops.
  int32_t requested_cells() const { return requested_cells_; }
  const RangeIndex& cell(int32_t c) const {
    return *cells_[static_cast<size_t>(c)].index;
  }
  ObjectId pivot(int32_t c) const {
    return pivots_[static_cast<size_t>(c)];
  }
  double radius(int32_t c) const { return radii_[static_cast<size_t>(c)]; }
  /// Ascending parent ids of cell c's members.
  std::span<const ObjectId> cell_members(int32_t c) const;

 private:
  struct Cell {
    std::unique_ptr<CellOracle> oracle;
    std::unique_ptr<RangeIndex> index;
  };

  RoutedIndex() = default;

  /// Shared tail of Build / LoadSections: materializes cell oracles over
  /// the member map, materializes per-cell lower-bound payloads when the
  /// oracle is a LowerBoundPayloadSource (payloads are derived data —
  /// snapshots never store them; a loaded index rebuilds them here), and
  /// names the index.
  void WireCells(const DistanceOracle& oracle);

  /// The query seen by cell c: parent-id query composed with the cell's
  /// local-to-parent member map. Rebinds the lower bound to the cell's
  /// materialized windows, or sheds it when the oracle/provider has no
  /// payload support (see class comment).
  QueryDistanceFn CellQuery(const QueryDistanceFn& query, int32_t c) const;

  /// True when the cell must be probed for a range query at epsilon.
  bool Probes(double pivot_distance, int32_t c, double epsilon) const;

  std::vector<Cell> cells_;
  /// Cell-contiguous member windows + cascade features (nullptr per cell
  /// when the oracle is not a LowerBoundPayloadSource).
  std::vector<std::shared_ptr<const LowerBoundPayloads>> cell_payloads_;
  std::vector<ObjectId> pivots_;   // one per cell
  std::vector<double> radii_;      // covering radius per cell
  std::vector<ObjectId> members_;  // concatenated, ascending within a cell
  std::vector<int32_t> begins_;    // cell c owns members_[begins_[c],
                                   // begins_[c + 1])
  int32_t requested_cells_ = 0;
  int64_t routing_build_computations_ = 0;
  std::string name_;
};

}  // namespace subseq

#endif  // SUBSEQ_METRIC_ROUTED_INDEX_H_
