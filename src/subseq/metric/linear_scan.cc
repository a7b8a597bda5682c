#include "subseq/metric/linear_scan.h"

#include <algorithm>

#include "subseq/exec/parallel_for.h"
#include "subseq/snapshot/reader.h"
#include "subseq/snapshot/writer.h"

namespace subseq {

namespace {

// Candidates per LowerBoundBlock / batched-evaluator call. Amortizes
// the virtual dispatch and lets the provider and the distance batch
// their own kernels; prune decisions are block-size independent by the
// QueryLowerBound contract and batched values equal per-id ones by the
// PrunableQueryFn contract, so this is a pure tuning constant.
constexpr int32_t kScanBlock = 256;

// The scan payload of a query, or nullptr when the scan should run one
// id at a time, unpruned (no payload, or a payload carrying neither a
// lower bound nor a batched evaluator).
const PrunableQueryFn* PayloadOf(const QueryDistanceFn& query) {
  const PrunableQueryFn* p = GetPrunable(query);
  return (p != nullptr && (p->lower_bound != nullptr || p->many)) ? p
                                                                  : nullptr;
}

// Scans ids [begin, end): appends ids within epsilon to `out` in
// ascending order and returns how many candidates the prefilter
// skipped (0 without a lower bound). `stage_counts` (accumulated, never
// reset here) attributes the skips to cascade stages. Results are
// identical with and without a payload — the lower bound is admissible
// and the cutoff is padded above epsilon (LowerBoundPruneCutoff), so no
// candidate within epsilon can ever be skipped, and the batched
// evaluator returns the per-id values bit for bit.
int64_t ScanRange(const QueryDistanceFn& query,
                  const PrunableQueryFn* payload, int64_t begin,
                  int64_t end, double epsilon, std::vector<ObjectId>* out,
                  LbBlockCounts* stage_counts) {
  if (payload == nullptr) {
    for (int64_t id = begin; id < end; ++id) {
      if (query(static_cast<ObjectId>(id)) <= epsilon) {
        out->push_back(static_cast<ObjectId>(id));
      }
    }
    return 0;
  }
  const double cutoff = LowerBoundPruneCutoff(epsilon);
  double lb[kScanBlock];
  ObjectId ids[kScanBlock];
  double dist[kScanBlock];
  int64_t pruned = 0;
  for (int64_t block = begin; block < end; block += kScanBlock) {
    const int32_t count =
        static_cast<int32_t>(std::min<int64_t>(kScanBlock, end - block));
    // The block's survivors: the cascade's, or every id without one.
    int32_t survivors = 0;
    if (payload->lower_bound != nullptr) {
      payload->lower_bound->LowerBoundBlockStaged(
          static_cast<ObjectId>(block) + payload->lb_offset, count, cutoff,
          lb, stage_counts);
      for (int32_t i = 0; i < count; ++i) {
        if (lb[i] > cutoff) {
          ++pruned;
        } else {
          ids[survivors++] = static_cast<ObjectId>(block + i);
        }
      }
    } else {
      for (int32_t i = 0; i < count; ++i) {
        ids[i] = static_cast<ObjectId>(block + i);
      }
      survivors = count;
    }
    if (survivors == 0) continue;
    if (payload->many) {
      payload->many(
          std::span<const ObjectId>(ids, static_cast<size_t>(survivors)),
          dist);
    } else {
      for (int32_t i = 0; i < survivors; ++i) dist[i] = payload->fn(ids[i]);
    }
    for (int32_t i = 0; i < survivors; ++i) {
      if (dist[i] <= epsilon) out->push_back(ids[i]);
    }
  }
  return pruned;
}

}  // namespace

std::vector<ObjectId> LinearScan::RangeQuery(const QueryDistanceFn& query,
                                             double epsilon,
                                             QueryStats* stats) const {
  std::vector<ObjectId> results;
  LbBlockCounts stages;
  const int64_t pruned = ScanRange(query, PayloadOf(query), 0, num_objects_,
                                   epsilon, &results, &stages);
  if (stats != nullptr) {
    // Billing invariant: the scan is responsible for every candidate,
    // so it bills all of them whether or not the prefilter skipped the
    // exact evaluation (see QueryStats::distance_computations).
    stats->distance_computations = num_objects_;
    stats->result_count = static_cast<int64_t>(results.size());
    stats->lower_bound_pruned = pruned;
    stats->lb_kim_pruned = stages.kim_pruned;
    stats->lb_erp_pruned = stages.erp_pruned;
  }
  return results;
}

std::vector<std::vector<ObjectId>> LinearScan::BatchRangeQuery(
    std::span<const QueryDistanceFn> queries, double epsilon,
    const ExecContext& exec, StatsSink* sink, QueryStats* per_query) const {
  const int64_t num_queries = static_cast<int64_t>(queries.size());
  if (num_queries >= exec.ResolvedThreads()) {
    return RangeIndex::BatchRangeQuery(queries, epsilon, exec, sink,
                                       per_query);
  }
  // Fewer queries than threads: shard each scan across object ranges.
  std::vector<std::vector<ObjectId>> results(queries.size());
  std::vector<std::vector<ObjectId>> parts(
      static_cast<size_t>(exec.ResolvedThreads()));
  std::vector<int64_t> parts_pruned(parts.size(), 0);
  std::vector<LbBlockCounts> parts_stages(parts.size());
  for (int64_t q = 0; q < num_queries; ++q) {
    const QueryDistanceFn& query = queries[static_cast<size_t>(q)];
    const PrunableQueryFn* payload = PayloadOf(query);
    std::fill(parts_pruned.begin(), parts_pruned.end(), 0);
    std::fill(parts_stages.begin(), parts_stages.end(), LbBlockCounts{});
    const int32_t chunks = ParallelFor(
        exec, num_objects_,
        [&](int64_t begin, int64_t end, int32_t chunk) {
          std::vector<ObjectId>& out = parts[static_cast<size_t>(chunk)];
          out.clear();
          parts_pruned[static_cast<size_t>(chunk)] =
              ScanRange(query, payload, begin, end, epsilon, &out,
                        &parts_stages[static_cast<size_t>(chunk)]);
        },
        /*grain=*/64);
    std::vector<ObjectId>& merged = results[static_cast<size_t>(q)];
    int64_t pruned = 0;
    LbBlockCounts stages;
    for (int32_t c = 0; c < chunks; ++c) {
      const std::vector<ObjectId>& part = parts[static_cast<size_t>(c)];
      merged.insert(merged.end(), part.begin(), part.end());
      pruned += parts_pruned[static_cast<size_t>(c)];
      stages.kim_pruned += parts_stages[static_cast<size_t>(c)].kim_pruned;
      stages.envelope_pruned +=
          parts_stages[static_cast<size_t>(c)].envelope_pruned;
      stages.erp_pruned += parts_stages[static_cast<size_t>(c)].erp_pruned;
    }
    QueryStats stats;
    stats.distance_computations = num_objects_;
    stats.result_count = static_cast<int64_t>(merged.size());
    stats.lower_bound_pruned = pruned;
    stats.lb_kim_pruned = stages.kim_pruned;
    stats.lb_erp_pruned = stages.erp_pruned;
    if (per_query != nullptr) per_query[q] = stats;
    if (sink != nullptr) sink->Add(stats);
  }
  return results;
}

SpaceStats LinearScan::ComputeSpaceStats() const {
  SpaceStats s;
  s.num_objects = num_objects_;
  s.approx_bytes = 0;  // no structure beyond the data itself
  return s;
}

namespace {

struct LinearScanMetaRec {
  int32_t num_objects;
  int32_t pad0;
};
static_assert(sizeof(LinearScanMetaRec) == 8);

}  // namespace

Status LinearScan::SaveSections(SnapshotWriter& writer,
                                const std::string& prefix) const {
  LinearScanMetaRec meta{};
  meta.num_objects = num_objects_;
  return writer.AppendPodStruct(prefix + "meta", meta);
}

Result<std::unique_ptr<LinearScan>> LinearScan::LoadSections(
    const SnapshotFile& file, const std::string& prefix,
    const DistanceOracle& oracle) {
  LinearScanMetaRec meta{};
  SUBSEQ_RETURN_NOT_OK(ReadPodStruct(file, prefix + "meta", &meta));
  if (meta.num_objects != oracle.size()) {
    return Status::InvalidArgument(
        "linear-scan snapshot sections '" + prefix + "*': indexes " +
        std::to_string(meta.num_objects) + " objects but the oracle holds " +
        std::to_string(oracle.size()));
  }
  return std::make_unique<LinearScan>(meta.num_objects);
}

}  // namespace subseq
