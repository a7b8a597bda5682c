// ShardedIndex — horizontal partitioning of the window catalog across K
// independent per-shard indexes.
//
// A monolithic index caps the catalog at one node's memory and serializes
// most of its build (metric inserts are inherently sequential for the
// reference net and cover tree). Sharding splits the ObjectId range
// [0, n) into K contiguous shards, builds one inner index of any backend
// per shard — in parallel on the shared ThreadPool — and answers queries
// by fanning a sub-query to every shard and merging hits in shard order.
// Because shards cover disjoint contiguous id ranges and every inner
// index is exact, the merged hit *set* equals the monolithic index's for
// any query; stats roll up exactly (per-shard counts sum to the totals,
// per-query splits sum slot-wise). This is the stepping stone to
// per-shard eviction and multi-node placement: a shard is a closed,
// independently rebuildable unit.

#ifndef SUBSEQ_METRIC_SHARDED_INDEX_H_
#define SUBSEQ_METRIC_SHARDED_INDEX_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "subseq/core/status.h"
#include "subseq/metric/range_index.h"

namespace subseq {

class SnapshotFile;
class SnapshotWriter;

/// A contiguous ObjectId sub-range of a parent oracle presented as a
/// self-contained oracle with local ids 0..size-1. Local id i is parent
/// id offset + i. The parent must outlive the shard view.
class ShardOracle final : public DistanceOracle {
 public:
  ShardOracle(const DistanceOracle& parent, int32_t offset, int32_t size)
      : parent_(parent), offset_(offset), size_(size) {}

  int32_t size() const override { return size_; }

  double Distance(ObjectId a, ObjectId b) const override {
    return parent_.Distance(a + offset_, b + offset_);
  }

  double DistanceBounded(ObjectId a, ObjectId b,
                         double upper_bound) const override {
    return parent_.DistanceBounded(a + offset_, b + offset_, upper_bound);
  }

  /// First parent id of the range.
  int32_t offset() const { return offset_; }

 private:
  const DistanceOracle& parent_;
  int32_t offset_;
  int32_t size_;
};

/// Builds the inner index of one shard over its oracle view. Invoked once
/// per shard, possibly concurrently from pool workers; the oracle
/// reference stays valid for the life of the ShardedIndex. `shard` is the
/// shard number (diagnostics / per-shard seeding).
using ShardIndexFactory = std::function<Result<std::unique_ptr<RangeIndex>>(
    const DistanceOracle& shard_oracle, int32_t shard)>;

/// Serializes one shard's inner index as sections under `prefix`. The
/// composition layer (frame) supplies this so ShardedIndex stays
/// backend-agnostic.
using ShardIndexSaver = std::function<Status(
    const RangeIndex& inner, SnapshotWriter& writer,
    const std::string& prefix)>;

/// Loads one shard's inner index from sections under `prefix`.
using ShardIndexLoader = std::function<Result<std::unique_ptr<RangeIndex>>(
    const SnapshotFile& file, const std::string& prefix,
    const DistanceOracle& shard_oracle, int32_t shard)>;

/// Sharding tunables.
struct ShardedIndexOptions {
  /// Requested shard count; resolved via ExecContext::ResolvedShards
  /// (clamped to [1, object count]).
  int32_t num_shards = 2;
  /// Thread budget for the cross-shard build and query fan-out. Inner
  /// indexes invoked from pool workers run their own parallel sections
  /// inline, so the fan-out never oversubscribes the pool.
  ExecContext exec;
};

/// K contiguous per-shard indexes behind the RangeIndex interface.
///
/// Contracts on top of RangeIndex's:
///  * shard s covers parent ids [shard_begin(s), shard_begin(s+1)), the
///    even contiguous split of [0, n) (first n % K shards one larger);
///  * RangeQuery / BatchRangeQuery results are the shard-order
///    concatenation of inner results with ids translated back to parent
///    ids — deterministic for a fixed shard count at any thread budget;
///  * per-query stats are the exact slot-wise sum of the per-shard
///    splits, and the sink totals equal the sum over shards (checked:
///    a shard misreporting its result_count aborts).
class ShardedIndex final : public RangeIndex {
 public:
  /// Partitions `oracle` into resolved-K contiguous shards and builds one
  /// inner index per shard via `factory`, in parallel over
  /// `options.exec`. Fails with the first failing shard's status.
  static Result<std::unique_ptr<ShardedIndex>> Build(
      const DistanceOracle& oracle, const ShardIndexFactory& factory,
      ShardedIndexOptions options = {});

  std::string_view name() const override { return name_; }
  int32_t size() const override;

  std::vector<ObjectId> RangeQuery(const QueryDistanceFn& query,
                                   double epsilon,
                                   QueryStats* stats) const override;

  /// Fans the whole batch to every shard (each shard answers all queries
  /// over its id range as one inner BatchRangeQuery, shards in parallel
  /// over `exec`), then merges per query in shard order and rolls the
  /// per-shard stats splits up into exact per-query and batch totals.
  std::vector<std::vector<ObjectId>> BatchRangeQuery(
      std::span<const QueryDistanceFn> queries, double epsilon,
      const ExecContext& exec, StatsSink* sink,
      QueryStats* per_query = nullptr) const override;

  /// Exact global k-NN: each shard contributes its k best, merged by
  /// ascending distance (stable — ties keep shard order, then the inner
  /// index's order) and truncated to k.
  std::vector<Neighbor> NearestNeighbors(const QueryDistanceFn& query,
                                         int32_t k,
                                         QueryStats* stats) const override;

  /// Aggregate over shards: counts and bytes sum, num_levels is the
  /// max, avg_parents is the node-weighted mean.
  SpaceStats ComputeSpaceStats() const override;

  /// Sum of the shards' build computations.
  BuildStats build_stats() const override;

  /// Appends the sharded layout ("<prefix>meta", "begins") followed by
  /// every shard's inner sections (under ShardPrefix(prefix, s)) via
  /// `saver`.
  Status SaveSections(SnapshotWriter& writer, const std::string& prefix,
                      const ShardIndexSaver& saver) const;

  /// Reconstructs a sharded index from snapshot sections. The stored
  /// shard count must equal `expected_shards` (what the caller's options
  /// resolve to) and the stored shard boundaries must equal the even
  /// contiguous split — a loaded index must be the index a fresh build
  /// would produce, including its per-shard stats roll-up.
  static Result<std::unique_ptr<ShardedIndex>> LoadSections(
      const SnapshotFile& file, const std::string& prefix,
      const DistanceOracle& oracle, int32_t expected_shards,
      const ShardIndexLoader& loader);

  /// Writes just the layout sections SaveSections starts with, for a
  /// k-shard index over n objects. The out-of-core builder uses this to
  /// emit a byte-identical sharded block while holding only one shard
  /// in memory at a time.
  static Status WriteShardLayout(SnapshotWriter& writer,
                                 const std::string& prefix, int32_t n,
                                 int32_t k);

  /// Section prefix of shard s: "<prefix>s<s>.".
  static std::string ShardPrefix(const std::string& prefix, int32_t s);

  int32_t num_shards() const {
    return static_cast<int32_t>(shards_.size());
  }
  const RangeIndex& shard(int32_t s) const {
    return *shards_[static_cast<size_t>(s)].index;
  }
  /// First parent id of shard s (shard_begin(num_shards()) == size()).
  int32_t shard_begin(int32_t s) const;

 private:
  struct Shard {
    std::unique_ptr<ShardOracle> oracle;
    std::unique_ptr<RangeIndex> index;
  };

  ShardedIndex() = default;

  std::vector<Shard> shards_;
  std::string name_;
};

}  // namespace subseq

#endif  // SUBSEQ_METRIC_SHARDED_INDEX_H_
