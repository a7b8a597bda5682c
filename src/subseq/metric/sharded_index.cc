#include "subseq/metric/sharded_index.h"

#include <algorithm>
#include <utility>

#include "subseq/core/check.h"
#include "subseq/exec/parallel_for.h"
#include "subseq/snapshot/reader.h"
#include "subseq/snapshot/writer.h"

namespace subseq {

namespace {

/// Even contiguous split of [0, n) into k parts: part s starts here.
int32_t SplitBegin(int32_t n, int32_t k, int32_t s) {
  const int32_t base = n / k;
  const int32_t extra = n % k;
  return s * base + std::min(s, extra);
}

}  // namespace

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::Build(
    const DistanceOracle& oracle, const ShardIndexFactory& factory,
    ShardedIndexOptions options) {
  ShardedIndexOptions resolved = options;
  resolved.exec.num_shards = options.num_shards;
  const int32_t n = oracle.size();
  const int32_t k = resolved.exec.ResolvedShards(n);

  auto sharded = std::unique_ptr<ShardedIndex>(new ShardedIndex());
  sharded->shards_.resize(static_cast<size_t>(k));
  for (int32_t s = 0; s < k; ++s) {
    const int32_t begin = SplitBegin(n, k, s);
    const int32_t end = SplitBegin(n, k, s + 1);
    sharded->shards_[static_cast<size_t>(s)].oracle =
        std::make_unique<ShardOracle>(oracle, begin, end - begin);
  }

  // Build the inner indexes in parallel: each shard is an independent
  // closed problem, so cross-shard order cannot matter. Statuses land in
  // per-shard slots; the first failure (in shard order, for determinism)
  // wins.
  std::vector<Status> statuses(static_cast<size_t>(k), Status::OK());
  ParallelFor(resolved.exec, k, [&](int64_t lo, int64_t hi, int32_t) {
    for (int64_t s = lo; s < hi; ++s) {
      Shard& shard = sharded->shards_[static_cast<size_t>(s)];
      auto built = factory(*shard.oracle, static_cast<int32_t>(s));
      if (built.ok()) {
        shard.index = std::move(built).value();
        SUBSEQ_CHECK(shard.index != nullptr);
      } else {
        statuses[static_cast<size_t>(s)] = built.status();
      }
    }
  });
  for (const Status& status : statuses) {
    SUBSEQ_RETURN_NOT_OK(status);
  }

  sharded->name_ = "sharded[" + std::to_string(k) + "]:" +
                   std::string(sharded->shards_.front().index->name());
  return sharded;
}

int32_t ShardedIndex::size() const {
  int32_t total = 0;
  for (const Shard& shard : shards_) total += shard.index->size();
  return total;
}

int32_t ShardedIndex::shard_begin(int32_t s) const {
  SUBSEQ_CHECK(s >= 0 && s <= num_shards());
  if (s == num_shards()) {
    const Shard& last = shards_.back();
    return last.oracle->offset() + last.oracle->size();
  }
  return shards_[static_cast<size_t>(s)].oracle->offset();
}

std::vector<ObjectId> ShardedIndex::RangeQuery(const QueryDistanceFn& query,
                                               double epsilon,
                                               QueryStats* stats) const {
  std::vector<ObjectId> merged;
  int64_t computations = 0;
  int64_t pruned = 0;
  int64_t kim_pruned = 0;
  int64_t erp_pruned = 0;
  int64_t probed = 0;
  int64_t skipped = 0;
  for (int32_t s = 0; s < num_shards(); ++s) {
    const int32_t offset = shards_[static_cast<size_t>(s)].oracle->offset();
    QueryStats shard_stats;
    const std::vector<ObjectId> local =
        shards_[static_cast<size_t>(s)].index->RangeQuery(
            OffsetQuery(query, offset), epsilon, &shard_stats);
    SUBSEQ_CHECK(shard_stats.result_count ==
                 static_cast<int64_t>(local.size()));
    computations += shard_stats.distance_computations;
    pruned += shard_stats.lower_bound_pruned;
    kim_pruned += shard_stats.lb_kim_pruned;
    erp_pruned += shard_stats.lb_erp_pruned;
    probed += shard_stats.cells_probed;
    skipped += shard_stats.cells_skipped;
    merged.reserve(merged.size() + local.size());
    for (const ObjectId id : local) merged.push_back(id + offset);
  }
  if (stats != nullptr) {
    stats->distance_computations = computations;
    stats->result_count = static_cast<int64_t>(merged.size());
    stats->lower_bound_pruned = pruned;
    stats->lb_kim_pruned = kim_pruned;
    stats->lb_erp_pruned = erp_pruned;
    stats->cells_probed = probed;
    stats->cells_skipped = skipped;
  }
  return merged;
}

std::vector<std::vector<ObjectId>> ShardedIndex::BatchRangeQuery(
    std::span<const QueryDistanceFn> queries, double epsilon,
    const ExecContext& exec, StatsSink* sink, QueryStats* per_query) const {
  const size_t num_queries = queries.size();
  const int32_t k = num_shards();

  // Phase 1 — fan out: every shard answers the whole batch over its id
  // range as one inner BatchRangeQuery. Shards run in parallel; inner
  // parallel sections called from pool workers run inline, so the two
  // levels never oversubscribe. The shared sink receives exact totals
  // (per-shard counts published atomically); per-query splits are
  // collected per shard and rolled up in phase 2.
  std::vector<std::vector<std::vector<ObjectId>>> shard_results(
      static_cast<size_t>(k));
  std::vector<std::vector<QueryStats>> shard_splits(
      per_query != nullptr ? static_cast<size_t>(k) : 0);
  ParallelFor(exec, k, [&](int64_t lo, int64_t hi, int32_t) {
    for (int64_t s = lo; s < hi; ++s) {
      std::vector<QueryDistanceFn> local;
      local.reserve(num_queries);
      for (const QueryDistanceFn& query : queries) {
        local.push_back(
            OffsetQuery(query, shard_begin(static_cast<int32_t>(s))));
      }
      QueryStats* split = nullptr;
      if (per_query != nullptr) {
        shard_splits[static_cast<size_t>(s)].resize(num_queries);
        split = shard_splits[static_cast<size_t>(s)].data();
      }
      shard_results[static_cast<size_t>(s)] =
          shards_[static_cast<size_t>(s)].index->BatchRangeQuery(
              local, epsilon, exec, sink, split);
    }
  });

  // Phase 2 — shard-order merge + exact per-query roll-up. Both are
  // slot-addressed, so the merge is deterministic for a fixed shard
  // count regardless of the thread budget above.
  std::vector<std::vector<ObjectId>> results(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    std::vector<ObjectId>& merged = results[q];
    QueryStats rolled;
    for (int32_t s = 0; s < k; ++s) {
      const int32_t offset = shards_[static_cast<size_t>(s)].oracle->offset();
      const std::vector<ObjectId>& local =
          shard_results[static_cast<size_t>(s)][q];
      merged.reserve(merged.size() + local.size());
      for (const ObjectId id : local) merged.push_back(id + offset);
      if (per_query != nullptr) {
        rolled.distance_computations +=
            shard_splits[static_cast<size_t>(s)][q].distance_computations;
        rolled.result_count +=
            shard_splits[static_cast<size_t>(s)][q].result_count;
        rolled.lower_bound_pruned +=
            shard_splits[static_cast<size_t>(s)][q].lower_bound_pruned;
        rolled.lb_kim_pruned +=
            shard_splits[static_cast<size_t>(s)][q].lb_kim_pruned;
        rolled.lb_erp_pruned +=
            shard_splits[static_cast<size_t>(s)][q].lb_erp_pruned;
        rolled.cells_probed +=
            shard_splits[static_cast<size_t>(s)][q].cells_probed;
        rolled.cells_skipped +=
            shard_splits[static_cast<size_t>(s)][q].cells_skipped;
        rolled.delta_windows_probed +=
            shard_splits[static_cast<size_t>(s)][q].delta_windows_probed;
        rolled.tombstones_masked +=
            shard_splits[static_cast<size_t>(s)][q].tombstones_masked;
      }
    }
    if (per_query != nullptr) {
      // The roll-up is only exact if every shard billed this slot for
      // exactly the results it returned in this slot (the ordering
      // contract of RangeIndex::BatchRangeQuery's per-query split).
      SUBSEQ_CHECK(rolled.result_count ==
                   static_cast<int64_t>(merged.size()));
      per_query[q] = rolled;
    }
  }
  return results;
}

std::vector<Neighbor> ShardedIndex::NearestNeighbors(
    const QueryDistanceFn& query, int32_t k, QueryStats* stats) const {
  std::vector<Neighbor> merged;
  int64_t computations = 0;
  for (int32_t s = 0; s < num_shards(); ++s) {
    const int32_t offset = shards_[static_cast<size_t>(s)].oracle->offset();
    QueryStats shard_stats;
    std::vector<Neighbor> local =
        shards_[static_cast<size_t>(s)].index->NearestNeighbors(
            OffsetQuery(query, offset), k, &shard_stats);
    computations += shard_stats.distance_computations;
    for (Neighbor& n : local) {
      n.id += offset;
      merged.push_back(n);
    }
  }
  // Each shard returned its k closest, so the global k closest are all
  // present. Stable sort keeps (shard order, inner order) among exact
  // distance ties — the same index-dependent freedom RangeIndex allows.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Neighbor& a, const Neighbor& b) {
                     return a.distance < b.distance;
                   });
  if (k >= 0 && merged.size() > static_cast<size_t>(k)) {
    merged.resize(static_cast<size_t>(k));
  }
  if (stats != nullptr) {
    stats->distance_computations = computations;
    stats->result_count = static_cast<int64_t>(merged.size());
  }
  return merged;
}

SpaceStats ShardedIndex::ComputeSpaceStats() const {
  SpaceStats total;
  double weighted_parents = 0.0;
  for (const Shard& shard : shards_) {
    const SpaceStats s = shard.index->ComputeSpaceStats();
    total.num_objects += s.num_objects;
    total.num_nodes += s.num_nodes;
    total.num_list_entries += s.num_list_entries;
    total.num_levels = std::max(total.num_levels, s.num_levels);
    total.approx_bytes += s.approx_bytes;
    weighted_parents += s.avg_parents * static_cast<double>(s.num_nodes);
  }
  if (total.num_nodes > 0) {
    total.avg_parents = weighted_parents / static_cast<double>(total.num_nodes);
  }
  total.approx_bytes +=
      static_cast<int64_t>(shards_.size() * (sizeof(Shard) +
                                             sizeof(ShardOracle)));
  return total;
}

BuildStats ShardedIndex::build_stats() const {
  BuildStats total;
  for (const Shard& shard : shards_) {
    total.distance_computations +=
        shard.index->build_stats().distance_computations;
  }
  return total;
}

namespace {

struct ShardedMetaRec {
  int32_t num_shards;
  int32_t total_objects;
};
static_assert(sizeof(ShardedMetaRec) == 8);

}  // namespace

std::string ShardedIndex::ShardPrefix(const std::string& prefix, int32_t s) {
  return prefix + "s" + std::to_string(s) + ".";
}

Status ShardedIndex::WriteShardLayout(SnapshotWriter& writer,
                                      const std::string& prefix, int32_t n,
                                      int32_t k) {
  ShardedMetaRec meta{};
  meta.num_shards = k;
  meta.total_objects = n;
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodStruct(prefix + "meta", meta));
  std::vector<int32_t> begins(static_cast<size_t>(k) + 1);
  for (int32_t s = 0; s <= k; ++s) {
    begins[static_cast<size_t>(s)] = SplitBegin(n, k, s);
  }
  return writer.AppendPodSection<int32_t>(prefix + "begins", begins);
}

Status ShardedIndex::SaveSections(SnapshotWriter& writer,
                                  const std::string& prefix,
                                  const ShardIndexSaver& saver) const {
  const int32_t k = num_shards();
  SUBSEQ_RETURN_NOT_OK(WriteShardLayout(writer, prefix, size(), k));
  for (int32_t s = 0; s < k; ++s) {
    SUBSEQ_RETURN_NOT_OK(saver(*shards_[static_cast<size_t>(s)].index, writer,
                               ShardPrefix(prefix, s)));
  }
  return Status::OK();
}

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::LoadSections(
    const SnapshotFile& file, const std::string& prefix,
    const DistanceOracle& oracle, int32_t expected_shards,
    const ShardIndexLoader& loader) {
  ShardedMetaRec meta{};
  SUBSEQ_RETURN_NOT_OK(ReadPodStruct(file, prefix + "meta", &meta));
  const auto bad = [&](const std::string& why) {
    return Status::InvalidArgument("sharded snapshot sections '" + prefix +
                                   "*': " + why);
  };
  if (meta.total_objects != oracle.size()) {
    return bad("covers " + std::to_string(meta.total_objects) +
               " objects but the oracle holds " +
               std::to_string(oracle.size()));
  }
  const int32_t k = meta.num_shards;
  if (k != expected_shards) {
    return bad("saved with " + std::to_string(k) +
               " shards but the current options resolve to " +
               std::to_string(expected_shards) +
               "; set exec.num_shards to match the snapshot (a loaded "
               "index must equal the fresh build it replaces)");
  }
  if (k < 1 || k > std::max(1, meta.total_objects)) {
    return bad("shard count " + std::to_string(k) + " out of range");
  }
  std::vector<int32_t> begins;
  SUBSEQ_RETURN_NOT_OK(
      ReadPodSection<int32_t>(file, prefix + "begins", &begins));
  if (static_cast<int32_t>(begins.size()) != k + 1) {
    return bad("begins section holds " + std::to_string(begins.size()) +
               " entries, expected " + std::to_string(k + 1));
  }
  for (int32_t s = 0; s <= k; ++s) {
    if (begins[static_cast<size_t>(s)] != SplitBegin(meta.total_objects, k,
                                                     s)) {
      return bad("shard " + std::to_string(s) + " begins at " +
                 std::to_string(begins[static_cast<size_t>(s)]) +
                 ", not the even contiguous split");
    }
  }

  auto sharded = std::unique_ptr<ShardedIndex>(new ShardedIndex());
  sharded->shards_.resize(static_cast<size_t>(k));
  for (int32_t s = 0; s < k; ++s) {
    const int32_t begin = begins[static_cast<size_t>(s)];
    const int32_t end = begins[static_cast<size_t>(s) + 1];
    Shard& shard = sharded->shards_[static_cast<size_t>(s)];
    shard.oracle = std::make_unique<ShardOracle>(oracle, begin, end - begin);
    auto inner = loader(file, ShardPrefix(prefix, s), *shard.oracle, s);
    if (!inner.ok()) return inner.status();
    shard.index = std::move(inner).value();
    SUBSEQ_CHECK(shard.index != nullptr);
    if (shard.index->size() != end - begin) {
      return bad("shard " + std::to_string(s) + " loaded " +
                 std::to_string(shard.index->size()) + " objects, expected " +
                 std::to_string(end - begin));
    }
  }
  sharded->name_ = "sharded[" + std::to_string(k) + "]:" +
                   std::string(sharded->shards_.front().index->name());
  return sharded;
}

}  // namespace subseq
