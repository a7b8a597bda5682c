// PartitionedIndex — the window catalog split into K parts, one inner
// index of any backend per part, behind the RangeIndex interface.
//
// A monolithic index caps the catalog at one node's memory and
// serializes most of its build (the reference net, and so the cover
// tree, inserts one object at a time; only the distances of one level's
// candidates within an insert fan out over exec). Partitioning builds one
// independent inner index per part — in parallel on the shared
// ThreadPool — and answers a query by fanning it to the parts and
// merging hits in part order. Two layouts share that machinery:
//
//  * contiguous: part p covers the parent ids [begins[p], begins[p+1]),
//    the even split of [0, n). Every query probes every part. A part is
//    a closed id range, so the out-of-core builder holds one part at a
//    time, and each part's queries use the parent's lower-bound payload
//    through OffsetQuery.
//  * k-center: a deterministic farthest-point pass selects K pivots,
//    every object joins its nearest pivot's cell, and each cell records
//    its covering radius r_c = max d(member, pivot). A range query
//    measures the query against every pivot and, by the triangle
//    inequality, probes only cells with
//
//      d(q, pivot_c) <= r_c + epsilon
//
//    — every member m of a skipped cell satisfies d(q, m) >=
//    d(q, pivot_c) - r_c > epsilon, so no true hit is ever lost. Cells
//    partition by distance rather than id, which is what turns the
//    ~K-fold query fan-out of contiguous parts into fewer query
//    computations. Soundness needs a metric distance; the frame layer
//    refuses k-center layouts for non-metric distances.
//
// A contiguous part is a cell without a routing summary: the query path
// routes only when the layout has pivots, and everything else — build,
// merge, roll-up, snapshot block — is one code path.

#ifndef SUBSEQ_METRIC_PARTITIONED_INDEX_H_
#define SUBSEQ_METRIC_PARTITIONED_INDEX_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "subseq/core/status.h"
#include "subseq/metric/range_index.h"

namespace subseq {

class SnapshotFile;
class SnapshotWriter;

/// How a PartitionedIndex splits [0, n). The values are stored in
/// snapshots: never re-use or re-order.
enum class PartitionKind : int32_t {
  /// Even contiguous id ranges; every part is probed (exec.num_shards).
  kContiguous = 1,
  /// k-center cells routed by pivot + covering radius
  /// (exec.routing_cells).
  kKCenter = 2,
};

/// Where every object of a partitioned catalog lives. Computed once
/// (PartitionLayout::Make) and consumed by both the in-core build and
/// the out-of-core snapshot builder, so both make the same decision.
struct PartitionLayout {
  PartitionKind kind = PartitionKind::kContiguous;
  /// The clamped part count the layout was asked for. A k-center layout
  /// may hold more parts (skew rebalancing splits oversized cells) or
  /// fewer (a duplicate-heavy catalog stops early).
  int32_t requested_parts = 1;
  /// Part p owns slots [begins[p], begins[p + 1]): parent ids for a
  /// contiguous layout, positions in `members` for a k-center one.
  std::vector<int32_t> begins;
  // k-center only; all three stay empty for contiguous layouts, and
  // pivots/radii stay empty over an empty catalog (nothing to route).
  std::vector<ObjectId> members;  // concatenated, ascending within a cell
  std::vector<ObjectId> pivots;   // one per cell
  std::vector<double> radii;      // covering radius per cell
  /// Distances spent choosing the layout (k-center selection,
  /// assignment and rebalancing; 0 for contiguous layouts).
  int64_t computations = 0;

  /// The layout of `kind` over `oracle` for `parts` requested parts
  /// (clamped to [1, object count]). Deterministic for a fixed oracle
  /// and part count at any thread budget: k-center ties break toward
  /// the lowest id / lowest cell.
  static PartitionLayout Make(const DistanceOracle& oracle,
                              PartitionKind kind, int32_t parts,
                              const ExecContext& exec);

  int32_t num_parts() const {
    return static_cast<int32_t>(begins.size()) - 1;
  }
  /// Ascending parent ids of cell p of a k-center layout.
  std::span<const ObjectId> members_of(int32_t p) const;
};

/// Part p of a layout presented as a self-contained oracle with local
/// ids 0..size-1: local id i is parent id begins[p] + i (contiguous) or
/// members[begins[p] + i] (k-center). The parent and the layout must
/// outlive the view.
class PartOracle final : public DistanceOracle {
 public:
  PartOracle(const DistanceOracle& parent, const PartitionLayout& layout,
             int32_t p);

  int32_t size() const override { return size_; }

  double Distance(ObjectId a, ObjectId b) const override {
    return parent_.Distance(ToParent(a), ToParent(b));
  }

  double DistanceBounded(ObjectId a, ObjectId b,
                         double upper_bound) const override {
    return parent_.DistanceBounded(ToParent(a), ToParent(b), upper_bound);
  }

  /// Parent id of local id `local`.
  ObjectId ToParent(ObjectId local) const {
    return members_ != nullptr ? members_[local] : offset_ + local;
  }

 private:
  const DistanceOracle& parent_;
  const ObjectId* members_;  // nullptr for contiguous parts
  int32_t offset_;           // first parent id of a contiguous part
  int32_t size_;
};

/// Builds the inner index of one part over its oracle view. Invoked once
/// per part, possibly concurrently from pool workers; the oracle
/// reference stays valid for the life of the index. `part` is the part
/// number (diagnostics / per-part seeding).
using PartIndexFactory = std::function<Result<std::unique_ptr<RangeIndex>>(
    const DistanceOracle& part_oracle, int32_t part)>;

/// Serializes one part's inner index as sections under `prefix`. The
/// composition layer (frame) supplies this so PartitionedIndex stays
/// backend-agnostic.
using PartIndexSaver = std::function<Status(
    const RangeIndex& inner, SnapshotWriter& writer,
    const std::string& prefix)>;

/// Loads one part's inner index from sections under `prefix`.
using PartIndexLoader = std::function<Result<std::unique_ptr<RangeIndex>>(
    const SnapshotFile& file, const std::string& prefix,
    const DistanceOracle& part_oracle, int32_t part)>;

/// Partitioning tunables.
struct PartitionedIndexOptions {
  PartitionKind kind = PartitionKind::kContiguous;
  /// Requested part count, clamped to [1, object count].
  int32_t num_parts = 2;
  /// Thread budget for k-center selection, the per-part build, and the
  /// query fan-out. Inner indexes invoked from pool workers run their
  /// own parallel sections inline, so the fan-out never oversubscribes
  /// the pool.
  ExecContext exec;
};

/// The partition a matcher's exec knobs ask for over `num_objects`
/// objects: k-center cells when routing_cells clamps above 1, otherwise
/// contiguous parts from num_shards. Both counts clamp to [1, object
/// count]; num_parts == 1 means one monolithic index. (Setting both
/// knobs is rejected by MatcherOptions::Validate.)
PartitionedIndexOptions ResolvePartition(const ExecContext& exec,
                                         int32_t num_objects);

/// K per-part indexes behind the RangeIndex interface.
///
/// Contracts on top of RangeIndex's:
///  * the hit SET of RangeQuery / BatchRangeQuery equals the monolithic
///    index's for any query; results are the part-order concatenation
///    of inner results with ids translated back to parent ids —
///    deterministic for a fixed layout at any thread budget (a
///    contiguous layout of linear scans is even element-wise equal to
///    the monolithic scan);
///  * per-query stats are the exact slot-wise sum of the probed parts'
///    splits (checked: a part misreporting its result_count aborts), and
///    the sink totals equal the sum over queries;
///  * when the layout has pivots, routing distances (one per cell per
///    query) are billed into distance_computations, members of skipped
///    cells are NOT billed, and cells_probed / cells_skipped record the
///    decisions. This is the one layer whose filter_computations
///    deliberately shrink versus the monolithic index; contiguous
///    layouts add no billing of their own and leave both cell counters
///    at 0;
///  * a contiguous part's query is OffsetQuery(query, begins[p]), so any
///    PrunableQueryFn payload rides through unchanged. A k-center cell's
///    query is MemberQuery over the cell's members, with the lower bound
///    rebound (QueryLowerBound::BindTo) to the cell's materialized member
///    windows when the oracle is a LowerBoundPayloadSource — pruning
///    stays live inside probed cells. Without payload support the bound
///    is shed and cells scan unpruned; the hit set never changes.
class PartitionedIndex final : public RangeIndex {
 public:
  /// Lays `oracle` out per `options` and builds one inner index per part
  /// via `factory`, in parallel over `options.exec`. Fails with the
  /// first failing part's status.
  static Result<std::unique_ptr<PartitionedIndex>> Build(
      const DistanceOracle& oracle, const PartIndexFactory& factory,
      PartitionedIndexOptions options = {});

  /// "sharded[K]:<inner>" for contiguous layouts, "routed[K]:<inner>"
  /// for k-center ones (K = built part count).
  std::string_view name() const override { return name_; }
  int32_t size() const override;

  /// BatchRangeQuery over this one query on the calling thread.
  std::vector<ObjectId> RangeQuery(const QueryDistanceFn& query,
                                   double epsilon,
                                   QueryStats* stats) const override;

  /// Routes every query (pivot distances computed in parallel over the
  /// batch; every query probes every part of a contiguous layout), then
  /// each part answers its probing sub-batch as one inner
  /// BatchRangeQuery, parts in parallel over `exec`, and results merge
  /// per query in part order. Per-query splits are the exact stand-alone
  /// accounting, routing distances included.
  std::vector<std::vector<ObjectId>> BatchRangeQuery(
      std::span<const QueryDistanceFn> queries, double epsilon,
      const ExecContext& exec, StatsSink* sink,
      QueryStats* per_query = nullptr) const override;

  /// Aggregate over parts plus the layout tables: counts and bytes sum,
  /// num_levels is the max, avg_parents is the node-weighted mean.
  SpaceStats ComputeSpaceStats() const override;

  /// Layout computations plus the sum of the parts' build computations.
  BuildStats build_stats() const override;

  /// Appends the layout sections (SaveLayoutSections) followed by every
  /// part's inner sections (under PartPrefix(prefix, p)) via `saver`.
  /// The encoding is canonical: a loaded index saves back
  /// byte-identically.
  Status SaveSections(SnapshotWriter& writer, const std::string& prefix,
                      const PartIndexSaver& saver) const;

  /// Appends the layout sections — "<prefix>layout" and "begins", plus
  /// "members", "pivots" and "radii" for k-center layouts. SaveSections
  /// writes its head through this, and so does the out-of-core builder,
  /// which then streams one part's inner sections at a time.
  static Status SaveLayoutSections(const PartitionLayout& layout,
                                   SnapshotWriter& writer,
                                   const std::string& prefix);

  /// Reconstructs an index from snapshot sections. The stored kind and
  /// requested part count must equal `expected` (what the caller's
  /// options resolve to) — a loaded index must be the index a fresh
  /// build would produce: contiguous begins must be the even split, and
  /// a k-center member map must be a permutation of [0, n) with every
  /// pivot inside its own non-empty cell.
  static Result<std::unique_ptr<PartitionedIndex>> LoadSections(
      const SnapshotFile& file, const std::string& prefix,
      const DistanceOracle& oracle, const PartitionedIndexOptions& expected,
      const PartIndexLoader& loader);

  /// Section prefix of part p: "<prefix>p<p>.".
  static std::string PartPrefix(const std::string& prefix, int32_t p);

  const PartitionLayout& layout() const { return layout_; }
  int32_t num_parts() const { return static_cast<int32_t>(parts_.size()); }
  const RangeIndex& part(int32_t p) const {
    return *parts_[static_cast<size_t>(p)].index;
  }

 private:
  struct Part {
    std::unique_ptr<PartOracle> oracle;
    std::unique_ptr<RangeIndex> index;
    /// A k-center cell's member windows + cascade features, laid out
    /// cell-contiguously (nullptr for contiguous parts and for oracles
    /// that are not a LowerBoundPayloadSource).
    std::shared_ptr<const LowerBoundPayloads> payloads;
  };

  PartitionedIndex() = default;

  /// Shared head of Build / LoadSections: part oracles over the layout
  /// and, for k-center layouts, per-cell lower-bound payloads (derived
  /// data — snapshots never store them).
  void WireParts(const DistanceOracle& oracle);
  void SetName();

  /// True when the layout carries a routing summary.
  bool routed() const { return !layout_.pivots.empty(); }

  /// True when cell p must be probed for a range query at epsilon.
  bool Probes(double pivot_distance, int32_t p, double epsilon) const;

  /// The query seen by part p (see the class comment).
  QueryDistanceFn PartQuery(const QueryDistanceFn& query, int32_t p) const;

  PartitionLayout layout_;
  std::vector<Part> parts_;
  std::string name_;
};

}  // namespace subseq

#endif  // SUBSEQ_METRIC_PARTITIONED_INDEX_H_
