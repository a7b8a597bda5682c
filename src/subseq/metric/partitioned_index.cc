#include "subseq/metric/partitioned_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "subseq/core/check.h"
#include "subseq/exec/parallel_for.h"
#include "subseq/snapshot/reader.h"
#include "subseq/snapshot/writer.h"

namespace subseq {

namespace {

/// The one part-count clamp: at least 1, never more than the object
/// count (empty parts are pointless).
int32_t ClampParts(int32_t requested, int32_t num_objects) {
  const int32_t wanted = requested > 1 ? requested : 1;
  return num_objects > 1 ? std::min(wanted, num_objects) : 1;
}

/// Even contiguous split of [0, n) into k parts: part s starts here
/// (the first n % k parts are one object larger).
int32_t SplitBegin(int32_t n, int32_t k, int32_t s) {
  const int32_t base = n / k;
  const int32_t extra = n % k;
  return s * base + std::min(s, extra);
}

/// Farthest-point k-center + nearest-pivot assignment + oversized-cell
/// splitting. Fully deterministic: every tie breaks toward the lowest
/// object id / lowest cell, and all parallel passes write slot-addressed
/// state only. `nearest` holds the exact distance of every object to its
/// owning pivot throughout (DistanceBounded may lie only about objects
/// that keep their previous, closer owner).
void SelectCells(const DistanceOracle& oracle, int32_t k,
                 const ExecContext& exec, PartitionLayout* layout) {
  const int32_t n = oracle.size();
  if (n == 0) {
    // Nothing to route: one empty cell without a pivot.
    layout->begins = {0, 0};
    return;
  }
  std::vector<double> nearest(static_cast<size_t>(n));
  std::vector<int32_t> owner(static_cast<size_t>(n), 0);

  // Pivot 0 is object 0; seed with exact distances to it.
  layout->pivots.push_back(0);
  ParallelFor(exec, n, [&](int64_t lo, int64_t hi, int32_t) {
    for (int64_t i = lo; i < hi; ++i) {
      nearest[static_cast<size_t>(i)] = oracle.Distance(
          static_cast<ObjectId>(i), 0);
    }
  });
  layout->computations += n;

  // The farthest object from all chosen pivots becomes the next pivot
  // (classic 2-approximation k-center). The argmax is serial over the
  // slot-filled array, so thread budget cannot change the choice.
  while (static_cast<int32_t>(layout->pivots.size()) < k) {
    int32_t next = 0;
    for (int32_t i = 1; i < n; ++i) {
      if (nearest[static_cast<size_t>(i)] >
          nearest[static_cast<size_t>(next)]) {
        next = i;
      }
    }
    // Every object already coincides with some pivot: more pivots would
    // only mint empty or duplicate cells. Stop early; the layout records
    // requested vs actual.
    if (nearest[static_cast<size_t>(next)] == 0.0) break;
    const int32_t cell = static_cast<int32_t>(layout->pivots.size());
    layout->pivots.push_back(next);
    // One assignment pass, billed n computations (early-abandoned calls
    // are still evaluations). Strict <: ties keep the earliest pivot, so
    // insertion order of pivots fixes the assignment.
    ParallelFor(exec, n, [&](int64_t lo, int64_t hi, int32_t) {
      for (int64_t i = lo; i < hi; ++i) {
        const double d = oracle.DistanceBounded(
            static_cast<ObjectId>(i), next, nearest[static_cast<size_t>(i)]);
        if (d < nearest[static_cast<size_t>(i)]) {
          nearest[static_cast<size_t>(i)] = d;
          owner[static_cast<size_t>(i)] = cell;
        }
      }
    });
    layout->computations += n;
  }

  // Skew rebalancing: split any cell holding more than twice the mean
  // membership by promoting its farthest member to a fresh pivot and
  // reassigning that cell's members only (other cells are untouched, so
  // the pass is local and cheap). Splitting is capped at doubling the
  // resolved cell count — enough to break up pathological skew without
  // letting adversarial data degenerate toward one cell per object.
  const int32_t max_cells = std::min(n, 2 * k);
  while (static_cast<int32_t>(layout->pivots.size()) < max_cells) {
    const int32_t num_cells = static_cast<int32_t>(layout->pivots.size());
    std::vector<int32_t> sizes(static_cast<size_t>(num_cells), 0);
    for (int32_t i = 0; i < n; ++i) ++sizes[static_cast<size_t>(owner[i])];
    const double avg = static_cast<double>(n) / num_cells;
    int32_t victim = -1;
    for (int32_t c = 0; c < num_cells; ++c) {
      if (static_cast<double>(sizes[static_cast<size_t>(c)]) > 2.0 * avg &&
          (victim < 0 || sizes[static_cast<size_t>(c)] >
                             sizes[static_cast<size_t>(victim)])) {
        victim = c;
      }
    }
    if (victim < 0) break;
    // Farthest member of the victim cell (ties: lowest id). Zero spread
    // means the cell is one point repeated — unsplittable.
    int32_t promote = -1;
    for (int32_t i = 0; i < n; ++i) {
      if (owner[static_cast<size_t>(i)] != victim) continue;
      if (promote < 0 || nearest[static_cast<size_t>(i)] >
                             nearest[static_cast<size_t>(promote)]) {
        promote = i;
      }
    }
    if (promote < 0 || nearest[static_cast<size_t>(promote)] == 0.0) break;
    const int32_t cell = num_cells;
    layout->pivots.push_back(promote);
    for (int32_t i = 0; i < n; ++i) {
      if (owner[static_cast<size_t>(i)] != victim) continue;
      const double d = oracle.DistanceBounded(
          static_cast<ObjectId>(i), promote, nearest[static_cast<size_t>(i)]);
      if (d < nearest[static_cast<size_t>(i)]) {
        nearest[static_cast<size_t>(i)] = d;
        owner[static_cast<size_t>(i)] = cell;
      }
      ++layout->computations;
    }
  }

  // Materialize the ascending member map, the begins table, and the
  // covering radii (max exact member-to-pivot distance; >= 0 always,
  // every pivot owns itself at distance 0).
  const int32_t num_cells = static_cast<int32_t>(layout->pivots.size());
  layout->begins.assign(static_cast<size_t>(num_cells) + 1, 0);
  for (int32_t i = 0; i < n; ++i) {
    ++layout->begins[static_cast<size_t>(owner[i]) + 1];
  }
  for (int32_t c = 0; c < num_cells; ++c) {
    layout->begins[static_cast<size_t>(c) + 1] +=
        layout->begins[static_cast<size_t>(c)];
  }
  layout->members.resize(static_cast<size_t>(n));
  layout->radii.assign(static_cast<size_t>(num_cells), 0.0);
  std::vector<int32_t> cursor(layout->begins.begin(),
                              layout->begins.end() - 1);
  for (int32_t i = 0; i < n; ++i) {
    const int32_t c = owner[static_cast<size_t>(i)];
    layout->members[static_cast<size_t>(cursor[static_cast<size_t>(c)]++)] =
        i;
    layout->radii[static_cast<size_t>(c)] =
        std::max(layout->radii[static_cast<size_t>(c)],
                 nearest[static_cast<size_t>(i)]);
  }
}

// "<prefix>layout": what the layout sections hold.
struct LayoutMetaRec {
  int32_t kind;
  int32_t requested_parts;
  int32_t num_parts;
  int32_t total_objects;
  int64_t computations;
};
static_assert(sizeof(LayoutMetaRec) == 24);

}  // namespace

PartitionLayout PartitionLayout::Make(const DistanceOracle& oracle,
                                      PartitionKind kind, int32_t parts,
                                      const ExecContext& exec) {
  const int32_t n = oracle.size();
  PartitionLayout layout;
  layout.kind = kind;
  layout.requested_parts = ClampParts(parts, n);
  if (kind == PartitionKind::kKCenter) {
    SelectCells(oracle, layout.requested_parts, exec, &layout);
    return layout;
  }
  layout.begins.resize(static_cast<size_t>(layout.requested_parts) + 1);
  for (int32_t p = 0; p <= layout.requested_parts; ++p) {
    layout.begins[static_cast<size_t>(p)] =
        SplitBegin(n, layout.requested_parts, p);
  }
  return layout;
}

std::span<const ObjectId> PartitionLayout::members_of(int32_t p) const {
  SUBSEQ_CHECK(kind == PartitionKind::kKCenter && p >= 0 &&
               p < num_parts());
  const int32_t begin = begins[static_cast<size_t>(p)];
  const int32_t end = begins[static_cast<size_t>(p) + 1];
  return std::span<const ObjectId>(members.data() + begin,
                                   static_cast<size_t>(end - begin));
}

PartOracle::PartOracle(const DistanceOracle& parent,
                       const PartitionLayout& layout, int32_t p)
    : parent_(parent),
      members_(nullptr),
      offset_(layout.begins[static_cast<size_t>(p)]),
      size_(layout.begins[static_cast<size_t>(p) + 1] - offset_) {
  if (layout.kind == PartitionKind::kKCenter) {
    members_ = layout.members.data() + offset_;
    offset_ = 0;
  }
}

PartitionedIndexOptions ResolvePartition(const ExecContext& exec,
                                         int32_t num_objects) {
  PartitionedIndexOptions resolved;
  resolved.exec = exec;
  resolved.num_parts = ClampParts(exec.routing_cells, num_objects);
  if (resolved.num_parts > 1) {
    resolved.kind = PartitionKind::kKCenter;
  } else {
    resolved.kind = PartitionKind::kContiguous;
    resolved.num_parts = ClampParts(exec.num_shards, num_objects);
  }
  return resolved;
}

Result<std::unique_ptr<PartitionedIndex>> PartitionedIndex::Build(
    const DistanceOracle& oracle, const PartIndexFactory& factory,
    PartitionedIndexOptions options) {
  auto index = std::unique_ptr<PartitionedIndex>(new PartitionedIndex());
  index->layout_ = PartitionLayout::Make(oracle, options.kind,
                                         options.num_parts, options.exec);
  index->WireParts(oracle);

  // Build the inner indexes in parallel: each part is an independent
  // closed problem over its oracle view. Statuses land in per-part
  // slots; the first failure (in part order, for determinism) wins.
  const int32_t parts = index->num_parts();
  std::vector<Status> statuses(static_cast<size_t>(parts), Status::OK());
  ParallelFor(options.exec, parts, [&](int64_t lo, int64_t hi, int32_t) {
    for (int64_t p = lo; p < hi; ++p) {
      Part& part = index->parts_[static_cast<size_t>(p)];
      auto built = factory(*part.oracle, static_cast<int32_t>(p));
      if (built.ok()) {
        part.index = std::move(built).value();
        SUBSEQ_CHECK(part.index != nullptr);
      } else {
        statuses[static_cast<size_t>(p)] = built.status();
      }
    }
  });
  for (const Status& status : statuses) {
    SUBSEQ_RETURN_NOT_OK(status);
  }
  index->SetName();
  return index;
}

void PartitionedIndex::WireParts(const DistanceOracle& oracle) {
  const int32_t parts = layout_.num_parts();
  parts_.resize(static_cast<size_t>(parts));
  // Cell payloads are a permutation of windows the oracle already holds:
  // built here on fresh builds and snapshot loads alike. Contiguous
  // parts keep the parent's payload (OffsetQuery), so they copy nothing.
  const auto* payload_source =
      layout_.kind == PartitionKind::kKCenter
          ? dynamic_cast<const LowerBoundPayloadSource*>(&oracle)
          : nullptr;
  for (int32_t p = 0; p < parts; ++p) {
    Part& part = parts_[static_cast<size_t>(p)];
    part.oracle = std::make_unique<PartOracle>(oracle, layout_, p);
    if (payload_source != nullptr) {
      part.payloads =
          payload_source->MaterializeLbPayloads(layout_.members_of(p));
    }
  }
}

void PartitionedIndex::SetName() {
  name_ = std::string(layout_.kind == PartitionKind::kKCenter ? "routed["
                                                              : "sharded[") +
          std::to_string(num_parts()) + "]:" +
          std::string(parts_.front().index->name());
}

int32_t PartitionedIndex::size() const {
  int32_t total = 0;
  for (const Part& part : parts_) total += part.index->size();
  return total;
}

bool PartitionedIndex::Probes(double pivot_distance, int32_t p,
                              double epsilon) const {
  // Skip only when the triangle inequality proves the cell empty of
  // hits with the same float-safety margin the scan prefilter uses:
  // d(q, m) >= d(q, pivot) - r_c > cutoff(epsilon) >= epsilon for every
  // member m — the padding absorbs rounding at the boundary, so a skip
  // can never be a false dismissal.
  return pivot_distance <=
         layout_.radii[static_cast<size_t>(p)] + LowerBoundPruneCutoff(epsilon);
}

QueryDistanceFn PartitionedIndex::PartQuery(const QueryDistanceFn& query,
                                            int32_t p) const {
  if (layout_.kind == PartitionKind::kContiguous) {
    return OffsetQuery(query, layout_.begins[static_cast<size_t>(p)]);
  }
  // A cell is a scattered id subset, so the query's lower-bound provider
  // (which speaks contiguous global id blocks) cannot ride through
  // as-is: it is rebound to the cell's materialized payload, or shed
  // (the cell then scans unpruned, which moves only lower_bound_pruned,
  // never the hit set). A batched evaluator rides through either way.
  const Part& part = parts_[static_cast<size_t>(p)];
  std::shared_ptr<const QueryLowerBound> bound;
  if (const PrunableQueryFn* prunable = GetPrunable(query);
      prunable != nullptr && prunable->lower_bound != nullptr &&
      part.payloads != nullptr) {
    bound = prunable->lower_bound->BindTo(part.payloads);
  }
  return MemberQuery(
      query, layout_.members.data() + layout_.begins[static_cast<size_t>(p)],
      std::move(bound));
}

std::vector<ObjectId> PartitionedIndex::RangeQuery(
    const QueryDistanceFn& query, double epsilon, QueryStats* stats) const {
  // One routing and roll-up path: a stand-alone query is a batch of one
  // on the calling thread.
  QueryStats split;
  std::vector<std::vector<ObjectId>> results = BatchRangeQuery(
      std::span<const QueryDistanceFn>(&query, 1), epsilon, SequentialExec(),
      nullptr, &split);
  if (stats != nullptr) *stats = split;
  return std::move(results.front());
}

std::vector<std::vector<ObjectId>> PartitionedIndex::BatchRangeQuery(
    std::span<const QueryDistanceFn> queries, double epsilon,
    const ExecContext& exec, StatsSink* sink, QueryStats* per_query) const {
  const size_t num_queries = queries.size();
  const int32_t parts = num_parts();
  std::vector<std::vector<ObjectId>> results(num_queries);
  if (num_queries == 0) return results;

  // Phase 0 — route: per part, the ascending queries that probe it. A
  // k-center layout computes the full query-by-pivot distance matrix in
  // parallel over queries into slot-addressed storage, so the decisions
  // are identical at any thread budget. Routing distances are executed
  // work, billed like any other evaluation: one per cell, probed or not.
  std::vector<std::vector<int32_t>> probing(static_cast<size_t>(parts));
  std::vector<int64_t> probed(num_queries, 0);
  if (routed()) {
    std::vector<double> pivot_dist(num_queries * static_cast<size_t>(parts));
    ParallelFor(exec, static_cast<int64_t>(num_queries),
                [&](int64_t lo, int64_t hi, int32_t) {
                  for (int64_t q = lo; q < hi; ++q) {
                    double* row = pivot_dist.data() +
                                  static_cast<size_t>(q) *
                                      static_cast<size_t>(parts);
                    for (int32_t p = 0; p < parts; ++p) {
                      row[p] = queries[static_cast<size_t>(q)](
                          layout_.pivots[static_cast<size_t>(p)]);
                    }
                  }
                });
    for (size_t q = 0; q < num_queries; ++q) {
      const double* row = pivot_dist.data() + q * static_cast<size_t>(parts);
      for (int32_t p = 0; p < parts; ++p) {
        if (Probes(row[p], p, epsilon)) {
          probing[static_cast<size_t>(p)].push_back(static_cast<int32_t>(q));
          ++probed[q];
        }
      }
    }
  } else {
    for (std::vector<int32_t>& subset : probing) {
      subset.resize(num_queries);
      std::iota(subset.begin(), subset.end(), 0);
    }
  }

  // Phase 1 — fan out: each part answers its probing sub-batch as one
  // inner BatchRangeQuery, parts in parallel (inner parallel sections
  // called from pool workers run inline, so the two levels never
  // oversubscribe). Inner calls bill their executed work straight into
  // the shared sink; the per-part splits are kept for the roll-up.
  std::vector<std::vector<std::vector<ObjectId>>> part_results(
      static_cast<size_t>(parts));
  std::vector<std::vector<QueryStats>> part_splits(static_cast<size_t>(parts));
  ParallelFor(exec, parts, [&](int64_t lo, int64_t hi, int32_t) {
    for (int64_t p = lo; p < hi; ++p) {
      const std::vector<int32_t>& subset = probing[static_cast<size_t>(p)];
      if (subset.empty()) continue;
      std::vector<QueryDistanceFn> local;
      local.reserve(subset.size());
      for (const int32_t q : subset) {
        local.push_back(PartQuery(queries[static_cast<size_t>(q)],
                                  static_cast<int32_t>(p)));
      }
      std::vector<QueryStats>& split = part_splits[static_cast<size_t>(p)];
      if (per_query != nullptr) split.resize(subset.size());
      part_results[static_cast<size_t>(p)] =
          parts_[static_cast<size_t>(p)].index->BatchRangeQuery(
              local, epsilon, exec, sink,
              per_query != nullptr ? split.data() : nullptr);
    }
  });

  // Phase 2 — part-order merge + exact per-query roll-up, both
  // slot-addressed. Every routed query is billed its full routing row
  // (the stand-alone RangeQuery accounting) plus its probed cells'
  // splits.
  std::vector<QueryStats> rolled(per_query != nullptr ? num_queries : 0);
  for (int32_t p = 0; p < parts; ++p) {
    const PartOracle& part_oracle = *parts_[static_cast<size_t>(p)].oracle;
    const std::vector<int32_t>& subset = probing[static_cast<size_t>(p)];
    for (size_t j = 0; j < subset.size(); ++j) {
      const size_t q = static_cast<size_t>(subset[j]);
      const std::vector<ObjectId>& local =
          part_results[static_cast<size_t>(p)][j];
      std::vector<ObjectId>& merged = results[q];
      merged.reserve(merged.size() + local.size());
      for (const ObjectId id : local) {
        merged.push_back(part_oracle.ToParent(id));
      }
      if (per_query != nullptr) {
        rolled[q] += part_splits[static_cast<size_t>(p)][j];
      }
    }
  }
  if (per_query != nullptr) {
    for (size_t q = 0; q < num_queries; ++q) {
      if (routed()) {
        rolled[q].distance_computations += parts;
        rolled[q].cells_probed += probed[q];
        rolled[q].cells_skipped += parts - probed[q];
      }
      // The roll-up is only exact if every part billed this slot for
      // exactly the results it returned in this slot (the ordering
      // contract of RangeIndex::BatchRangeQuery's per-query split).
      SUBSEQ_CHECK(rolled[q].result_count ==
                   static_cast<int64_t>(results[q].size()));
      per_query[q] = rolled[q];
    }
  }
  if (sink != nullptr && routed()) {
    // Inner calls already added their executed work; add the routing
    // layer's own accounting (pivot distances + cell decisions).
    QueryStats routing;
    routing.distance_computations = static_cast<int64_t>(num_queries) * parts;
    for (const int64_t p : probed) routing.cells_probed += p;
    routing.cells_skipped =
        routing.distance_computations - routing.cells_probed;
    sink->Add(routing);
  }
  return results;
}

SpaceStats PartitionedIndex::ComputeSpaceStats() const {
  SpaceStats total;
  double weighted_parents = 0.0;
  for (const Part& part : parts_) {
    const SpaceStats s = part.index->ComputeSpaceStats();
    total.num_objects += s.num_objects;
    total.num_nodes += s.num_nodes;
    total.num_list_entries += s.num_list_entries;
    total.num_levels = std::max(total.num_levels, s.num_levels);
    total.approx_bytes += s.approx_bytes;
    weighted_parents += s.avg_parents * static_cast<double>(s.num_nodes);
  }
  if (total.num_nodes > 0) {
    total.avg_parents =
        weighted_parents / static_cast<double>(total.num_nodes);
  }
  total.approx_bytes += static_cast<int64_t>(
      parts_.size() * (sizeof(Part) + sizeof(PartOracle)) +
      layout_.begins.size() * sizeof(int32_t) +
      layout_.members.size() * sizeof(ObjectId) +
      layout_.pivots.size() * sizeof(ObjectId) +
      layout_.radii.size() * sizeof(double));
  return total;
}

BuildStats PartitionedIndex::build_stats() const {
  BuildStats total;
  total.distance_computations = layout_.computations;
  for (const Part& part : parts_) {
    total.distance_computations +=
        part.index->build_stats().distance_computations;
  }
  return total;
}

std::string PartitionedIndex::PartPrefix(const std::string& prefix,
                                         int32_t p) {
  return prefix + "p" + std::to_string(p) + ".";
}

Status PartitionedIndex::SaveLayoutSections(const PartitionLayout& layout,
                                            SnapshotWriter& writer,
                                            const std::string& prefix) {
  LayoutMetaRec meta{};
  meta.kind = static_cast<int32_t>(layout.kind);
  meta.requested_parts = layout.requested_parts;
  meta.num_parts = layout.num_parts();
  meta.total_objects = layout.begins.back();
  meta.computations = layout.computations;
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodStruct(prefix + "layout", meta));
  SUBSEQ_RETURN_NOT_OK(
      writer.AppendPodSection<int32_t>(prefix + "begins", layout.begins));
  if (layout.kind == PartitionKind::kContiguous) return Status::OK();
  SUBSEQ_RETURN_NOT_OK(
      writer.AppendPodSection<ObjectId>(prefix + "members", layout.members));
  SUBSEQ_RETURN_NOT_OK(
      writer.AppendPodSection<ObjectId>(prefix + "pivots", layout.pivots));
  return writer.AppendPodSection<double>(prefix + "radii", layout.radii);
}

Status PartitionedIndex::SaveSections(SnapshotWriter& writer,
                                      const std::string& prefix,
                                      const PartIndexSaver& saver) const {
  SUBSEQ_RETURN_NOT_OK(SaveLayoutSections(layout_, writer, prefix));
  for (int32_t p = 0; p < num_parts(); ++p) {
    SUBSEQ_RETURN_NOT_OK(saver(*parts_[static_cast<size_t>(p)].index, writer,
                               PartPrefix(prefix, p)));
  }
  return Status::OK();
}

Result<std::unique_ptr<PartitionedIndex>> PartitionedIndex::LoadSections(
    const SnapshotFile& file, const std::string& prefix,
    const DistanceOracle& oracle, const PartitionedIndexOptions& expected,
    const PartIndexLoader& loader) {
  LayoutMetaRec meta{};
  SUBSEQ_RETURN_NOT_OK(ReadPodStruct(file, prefix + "layout", &meta));
  const auto bad = [&](const std::string& why) {
    return Status::InvalidArgument("partition snapshot sections '" + prefix +
                                   "*': " + why);
  };
  const int32_t n = meta.total_objects;
  if (n != oracle.size()) {
    return bad("covers " + std::to_string(n) +
               " objects but the oracle holds " +
               std::to_string(oracle.size()));
  }
  const int32_t expected_parts = ClampParts(expected.num_parts, n);
  if (meta.kind != static_cast<int32_t>(expected.kind) ||
      meta.requested_parts != expected_parts) {
    return bad("saved as layout kind " + std::to_string(meta.kind) +
               " with " + std::to_string(meta.requested_parts) +
               " requested parts but the current options resolve to kind " +
               std::to_string(static_cast<int32_t>(expected.kind)) +
               " with " + std::to_string(expected_parts) +
               "; set exec.num_shards / exec.routing_cells to match the "
               "snapshot (a loaded index must equal the fresh build it "
               "replaces)");
  }
  const int32_t parts = meta.num_parts;
  if (parts < 1 || parts > std::max(1, n)) {
    return bad("part count " + std::to_string(parts) + " out of range");
  }

  auto index = std::unique_ptr<PartitionedIndex>(new PartitionedIndex());
  PartitionLayout& layout = index->layout_;
  layout.kind = expected.kind;
  layout.requested_parts = meta.requested_parts;
  layout.computations = meta.computations;
  SUBSEQ_RETURN_NOT_OK(
      ReadPodSection<int32_t>(file, prefix + "begins", &layout.begins));
  if (static_cast<int32_t>(layout.begins.size()) != parts + 1) {
    return bad("begins section holds " +
               std::to_string(layout.begins.size()) + " entries, expected " +
               std::to_string(parts + 1));
  }
  if (layout.kind == PartitionKind::kContiguous) {
    if (parts != expected_parts) {
      return bad(std::to_string(parts) + " parts, expected " +
                 std::to_string(expected_parts));
    }
    for (int32_t p = 0; p <= parts; ++p) {
      if (layout.begins[static_cast<size_t>(p)] != SplitBegin(n, parts, p)) {
        return bad("part " + std::to_string(p) + " begins at " +
                   std::to_string(layout.begins[static_cast<size_t>(p)]) +
                   ", not the even contiguous split");
      }
    }
  } else {
    SUBSEQ_RETURN_NOT_OK(
        ReadPodSection<ObjectId>(file, prefix + "members", &layout.members));
    SUBSEQ_RETURN_NOT_OK(
        ReadPodSection<ObjectId>(file, prefix + "pivots", &layout.pivots));
    SUBSEQ_RETURN_NOT_OK(
        ReadPodSection<double>(file, prefix + "radii", &layout.radii));
    // An empty catalog is one empty cell without a pivot.
    const size_t cells = n > 0 ? static_cast<size_t>(parts) : 0;
    if (layout.pivots.size() != cells || layout.radii.size() != cells) {
      return bad("routing table sizes disagree with the cell count " +
                 std::to_string(parts));
    }
    if (static_cast<int32_t>(layout.members.size()) != n) {
      return bad("member map holds " + std::to_string(layout.members.size()) +
                 " entries, expected " + std::to_string(n));
    }
    if (layout.begins.front() != 0 || layout.begins.back() != n) {
      return bad("cell begins do not span [0, n)");
    }
    std::vector<bool> seen(static_cast<size_t>(n), false);
    for (size_t c = 0; c < cells; ++c) {
      const int32_t begin = layout.begins[c];
      const int32_t end = layout.begins[c + 1];
      if (begin >= end) return bad("cell " + std::to_string(c) + " is empty");
      bool holds_pivot = false;
      ObjectId prev = kInvalidId;
      for (int32_t i = begin; i < end; ++i) {
        const ObjectId id = layout.members[static_cast<size_t>(i)];
        if (id < 0 || id >= n || seen[static_cast<size_t>(id)]) {
          return bad("member map is not a permutation of [0, n)");
        }
        if (id <= prev) {
          return bad("cell " + std::to_string(c) +
                     " members are not ascending");
        }
        seen[static_cast<size_t>(id)] = true;
        prev = id;
        holds_pivot |= (id == layout.pivots[c]);
      }
      if (!holds_pivot) {
        return bad("cell " + std::to_string(c) + " does not contain its pivot");
      }
      if (!(layout.radii[c] >= 0.0)) {
        return bad("cell " + std::to_string(c) + " has a negative radius");
      }
    }
  }

  index->WireParts(oracle);
  for (int32_t p = 0; p < parts; ++p) {
    Part& part = index->parts_[static_cast<size_t>(p)];
    auto inner = loader(file, PartPrefix(prefix, p), *part.oracle, p);
    if (!inner.ok()) return inner.status();
    part.index = std::move(inner).value();
    SUBSEQ_CHECK(part.index != nullptr);
    if (part.index->size() != part.oracle->size()) {
      return bad("part " + std::to_string(p) + " loaded " +
                 std::to_string(part.index->size()) + " objects, expected " +
                 std::to_string(part.oracle->size()));
    }
  }
  index->SetName();
  return index;
}

}  // namespace subseq
