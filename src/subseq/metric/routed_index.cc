#include "subseq/metric/routed_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "subseq/core/check.h"
#include "subseq/exec/parallel_for.h"
#include "subseq/snapshot/reader.h"
#include "subseq/snapshot/writer.h"

namespace subseq {

namespace {

/// Farthest-point k-center + nearest-pivot assignment + oversized-cell
/// splitting. Fully deterministic: every tie breaks toward the lowest
/// object id / lowest cell, and all parallel passes write slot-addressed
/// state only. `nearest` holds the exact distance of every object to its
/// owning pivot throughout (DistanceBounded may lie only about objects
/// that keep their previous, closer owner).
RoutedLayout SelectCells(const DistanceOracle& oracle, int32_t k,
                         const ExecContext& exec) {
  const int32_t n = oracle.size();
  RoutedLayout layout;
  std::vector<double> nearest(static_cast<size_t>(n));
  std::vector<int32_t> owner(static_cast<size_t>(n), 0);

  // One assignment pass against pivot p for ids [0, n): billed n
  // computations (early-abandoned calls are still evaluations).
  const auto assign_pass = [&](ObjectId p, int32_t cell, int64_t lo,
                               int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const double d = oracle.DistanceBounded(
          static_cast<ObjectId>(i), p, nearest[static_cast<size_t>(i)]);
      // Strict <: ties keep the earliest pivot, so insertion order of
      // pivots fixes the assignment.
      if (d < nearest[static_cast<size_t>(i)]) {
        nearest[static_cast<size_t>(i)] = d;
        owner[static_cast<size_t>(i)] = cell;
      }
    }
  };

  // Pivot 0 is object 0; seed with exact distances to it.
  layout.pivots.push_back(0);
  ParallelFor(exec, n, [&](int64_t lo, int64_t hi, int32_t) {
    for (int64_t i = lo; i < hi; ++i) {
      nearest[static_cast<size_t>(i)] = oracle.Distance(
          static_cast<ObjectId>(i), 0);
    }
  });
  layout.computations += n;

  // The farthest object from all chosen pivots becomes the next pivot
  // (classic 2-approximation k-center). The argmax is serial over the
  // slot-filled array, so thread budget cannot change the choice.
  const auto farthest = [&](int32_t begin, int32_t end) {
    int32_t best = begin;
    for (int32_t i = begin + 1; i < end; ++i) {
      if (nearest[static_cast<size_t>(i)] >
          nearest[static_cast<size_t>(best)]) {
        best = i;
      }
    }
    return best;
  };

  while (static_cast<int32_t>(layout.pivots.size()) < k) {
    const int32_t next = farthest(0, n);
    // Every object already coincides with some pivot: more pivots would
    // only mint empty or duplicate cells. Stop early; the meta records
    // requested vs actual.
    if (nearest[static_cast<size_t>(next)] == 0.0) break;
    const int32_t cell = static_cast<int32_t>(layout.pivots.size());
    layout.pivots.push_back(next);
    ParallelFor(exec, n, [&](int64_t lo, int64_t hi, int32_t) {
      assign_pass(next, cell, lo, hi);
    });
    layout.computations += n;
  }

  // Skew rebalancing: split any cell holding more than twice the mean
  // membership by promoting its farthest member to a fresh pivot and
  // reassigning that cell's members only (other cells are untouched, so
  // the pass is local and cheap). Splitting is capped at doubling the
  // resolved cell count — enough to break up pathological skew without
  // letting adversarial data degenerate toward one cell per object.
  const int32_t max_cells = std::min(n, 2 * k);
  while (static_cast<int32_t>(layout.pivots.size()) < max_cells) {
    const int32_t num_cells = static_cast<int32_t>(layout.pivots.size());
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
    layout.pivots.push_back(promote);
    for (int32_t i = 0; i < n; ++i) {
      if (owner[static_cast<size_t>(i)] != victim) continue;
      const double d = oracle.DistanceBounded(
          static_cast<ObjectId>(i), promote, nearest[static_cast<size_t>(i)]);
      if (d < nearest[static_cast<size_t>(i)]) {
        nearest[static_cast<size_t>(i)] = d;
        owner[static_cast<size_t>(i)] = cell;
      }
      ++layout.computations;
    }
  }

  // Materialize the ascending member map, the begins table, and the
  // covering radii (max exact member-to-pivot distance; >= 0 always,
  // every pivot owns itself at distance 0).
  const int32_t num_cells = static_cast<int32_t>(layout.pivots.size());
  layout.begins.assign(static_cast<size_t>(num_cells) + 1, 0);
  for (int32_t i = 0; i < n; ++i) {
    ++layout.begins[static_cast<size_t>(owner[i]) + 1];
  }
  for (int32_t c = 0; c < num_cells; ++c) {
    layout.begins[static_cast<size_t>(c) + 1] +=
        layout.begins[static_cast<size_t>(c)];
  }
  layout.members.resize(static_cast<size_t>(n));
  layout.radii.assign(static_cast<size_t>(num_cells), 0.0);
  std::vector<int32_t> cursor(layout.begins.begin(), layout.begins.end() - 1);
  for (int32_t i = 0; i < n; ++i) {
    const int32_t c = owner[static_cast<size_t>(i)];
    layout.members[static_cast<size_t>(cursor[static_cast<size_t>(c)]++)] = i;
    layout.radii[static_cast<size_t>(c)] = std::max(
        layout.radii[static_cast<size_t>(c)], nearest[static_cast<size_t>(i)]);
  }
  return layout;
}

struct RoutedMetaRec {
  int32_t requested_cells;
  int32_t actual_cells;
  int32_t total_objects;
  int32_t reserved;
  int64_t build_computations;
};
static_assert(sizeof(RoutedMetaRec) == 24);

}  // namespace

Result<std::unique_ptr<RoutedIndex>> RoutedIndex::Build(
    const DistanceOracle& oracle, const ShardIndexFactory& factory,
    RoutedIndexOptions options) {
  ExecContext exec = options.exec;
  exec.routing_cells = options.num_cells;
  const int32_t n = oracle.size();
  const int32_t k = exec.ResolvedCells(n);

  auto routed = std::unique_ptr<RoutedIndex>(new RoutedIndex());
  routed->requested_cells_ = k;
  RoutedLayout layout = ComputeLayout(oracle, k, exec);
  routed->pivots_ = std::move(layout.pivots);
  routed->radii_ = std::move(layout.radii);
  routed->members_ = std::move(layout.members);
  routed->begins_ = std::move(layout.begins);
  routed->routing_build_computations_ = layout.computations;
  routed->WireCells(oracle);

  // Build the inner indexes in parallel: each cell is an independent
  // closed problem over its member view. Statuses land in per-cell
  // slots; the first failure (in cell order, for determinism) wins.
  const int32_t cells = routed->num_cells();
  std::vector<Status> statuses(static_cast<size_t>(cells), Status::OK());
  ParallelFor(exec, cells, [&](int64_t lo, int64_t hi, int32_t) {
    for (int64_t c = lo; c < hi; ++c) {
      Cell& cell = routed->cells_[static_cast<size_t>(c)];
      auto built = factory(*cell.oracle, static_cast<int32_t>(c));
      if (built.ok()) {
        cell.index = std::move(built).value();
        SUBSEQ_CHECK(cell.index != nullptr);
      } else {
        statuses[static_cast<size_t>(c)] = built.status();
      }
    }
  });
  for (const Status& status : statuses) {
    SUBSEQ_RETURN_NOT_OK(status);
  }

  routed->name_ = "routed[" + std::to_string(cells) + "]:" +
                  std::string(routed->cells_.front().index->name());
  return routed;
}

RoutedLayout RoutedIndex::ComputeLayout(const DistanceOracle& oracle,
                                        int32_t num_cells,
                                        const ExecContext& exec) {
  RoutedLayout layout = SelectCells(oracle, num_cells, exec);
  layout.requested_cells = num_cells;
  return layout;
}

void RoutedIndex::WireCells(const DistanceOracle& oracle) {
  const int32_t cells = static_cast<int32_t>(pivots_.size());
  cells_.resize(static_cast<size_t>(cells));
  cell_payloads_.assign(static_cast<size_t>(cells), nullptr);
  // Per-cell lower-bound payloads are derived data (a permutation of
  // windows the oracle already holds): built here both on fresh builds
  // and on snapshot loads, never serialized.
  const auto* payload_source =
      dynamic_cast<const LowerBoundPayloadSource*>(&oracle);
  for (int32_t c = 0; c < cells; ++c) {
    const int32_t begin = begins_[static_cast<size_t>(c)];
    const int32_t end = begins_[static_cast<size_t>(c) + 1];
    cells_[static_cast<size_t>(c)].oracle = std::make_unique<CellOracle>(
        oracle, members_.data() + begin, end - begin);
    if (payload_source != nullptr) {
      cell_payloads_[static_cast<size_t>(c)] =
          payload_source->MaterializeLbPayloads(std::span<const ObjectId>(
              members_.data() + begin, static_cast<size_t>(end - begin)));
    }
  }
}

int32_t RoutedIndex::size() const {
  int32_t total = 0;
  for (const Cell& cell : cells_) total += cell.index->size();
  return total;
}

std::span<const ObjectId> RoutedIndex::cell_members(int32_t c) const {
  SUBSEQ_CHECK(c >= 0 && c < num_cells());
  const int32_t begin = begins_[static_cast<size_t>(c)];
  const int32_t end = begins_[static_cast<size_t>(c) + 1];
  return std::span<const ObjectId>(members_.data() + begin,
                                   static_cast<size_t>(end - begin));
}

QueryDistanceFn RoutedIndex::CellQuery(const QueryDistanceFn& query,
                                       int32_t c) const {
  const ObjectId* members = members_.data() + begins_[static_cast<size_t>(c)];
  // Cells are scattered id subsets, so the query's lower-bound provider
  // (which speaks contiguous global id blocks) cannot ride through
  // as-is. When the cell holds a materialized payload — its members'
  // windows permuted cell-contiguously at build time — the provider is
  // rebound to it and the inner scan prunes over dense cell-local ids
  // 0..size-1. Without a payload (or a provider that cannot bind) the
  // cell scans unpruned, which only affects lower_bound_pruned
  // observability — never the hit set. A batched evaluator rides
  // through either way (MemberQuery translates its ids).
  std::shared_ptr<const QueryLowerBound> bound;
  if (const PrunableQueryFn* prunable = GetPrunable(query);
      prunable != nullptr && prunable->lower_bound != nullptr &&
      cell_payloads_[static_cast<size_t>(c)] != nullptr) {
    bound = prunable->lower_bound->BindTo(
        cell_payloads_[static_cast<size_t>(c)]);
  }
  return MemberQuery(query, members, std::move(bound));
}

bool RoutedIndex::Probes(double pivot_distance, int32_t c,
                         double epsilon) const {
  // Skip only when the triangle inequality proves the cell empty of
  // hits with the same float-safety margin the scan prefilter uses:
  // d(q, m) >= d(q, pivot) - r_c > cutoff(epsilon) >= epsilon for every
  // member m — the padding absorbs rounding at the boundary, so a skip
  // can never be a false dismissal.
  return pivot_distance <=
         radii_[static_cast<size_t>(c)] + LowerBoundPruneCutoff(epsilon);
}

std::vector<ObjectId> RoutedIndex::RangeQuery(const QueryDistanceFn& query,
                                              double epsilon,
                                              QueryStats* stats) const {
  const int32_t cells = num_cells();
  std::vector<ObjectId> merged;
  // Routing distances are executed work, billed like any other query
  // evaluation: one per cell, probed or not.
  int64_t computations = cells;
  int64_t pruned = 0;
  int64_t kim_pruned = 0;
  int64_t erp_pruned = 0;
  int64_t probed = 0;
  for (int32_t c = 0; c < cells; ++c) {
    const double d = query(pivots_[static_cast<size_t>(c)]);
    if (!Probes(d, c, epsilon)) continue;
    ++probed;
    const ObjectId* members =
        members_.data() + begins_[static_cast<size_t>(c)];
    QueryStats cell_stats;
    const std::vector<ObjectId> local =
        cells_[static_cast<size_t>(c)].index->RangeQuery(
            CellQuery(query, c), epsilon, &cell_stats);
    SUBSEQ_CHECK(cell_stats.result_count ==
                 static_cast<int64_t>(local.size()));
    computations += cell_stats.distance_computations;
    pruned += cell_stats.lower_bound_pruned;
    kim_pruned += cell_stats.lb_kim_pruned;
    erp_pruned += cell_stats.lb_erp_pruned;
    merged.reserve(merged.size() + local.size());
    for (const ObjectId id : local) merged.push_back(members[id]);
  }
  if (stats != nullptr) {
    stats->distance_computations = computations;
    stats->result_count = static_cast<int64_t>(merged.size());
    stats->lower_bound_pruned = pruned;
    stats->lb_kim_pruned = kim_pruned;
    stats->lb_erp_pruned = erp_pruned;
    stats->cells_probed = probed;
    stats->cells_skipped = cells - probed;
  }
  return merged;
}

std::vector<std::vector<ObjectId>> RoutedIndex::BatchRangeQuery(
    std::span<const QueryDistanceFn> queries, double epsilon,
    const ExecContext& exec, StatsSink* sink, QueryStats* per_query) const {
  const size_t num_queries = queries.size();
  const int32_t cells = num_cells();
  std::vector<std::vector<ObjectId>> results(num_queries);
  if (num_queries == 0) return results;

  // Phase 0 — route: the full query-by-pivot distance matrix, computed
  // in parallel over queries into slot-addressed storage. Routing
  // decisions derive from these values only, so they are identical at
  // any thread budget (and identical to the stand-alone RangeQuery's).
  std::vector<double> pivot_dist(num_queries * static_cast<size_t>(cells));
  ParallelFor(exec, static_cast<int64_t>(num_queries),
              [&](int64_t lo, int64_t hi, int32_t) {
                for (int64_t q = lo; q < hi; ++q) {
                  double* row = pivot_dist.data() +
                                static_cast<size_t>(q) *
                                    static_cast<size_t>(cells);
                  for (int32_t c = 0; c < cells; ++c) {
                    row[c] = queries[static_cast<size_t>(q)](
                        pivots_[static_cast<size_t>(c)]);
                  }
                }
              });

  // Per-cell probing sub-batches, query order preserved (ascending q).
  std::vector<std::vector<int32_t>> probing(static_cast<size_t>(cells));
  int64_t total_probed = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    const double* row = pivot_dist.data() + q * static_cast<size_t>(cells);
    for (int32_t c = 0; c < cells; ++c) {
      if (Probes(row[c], c, epsilon)) {
        probing[static_cast<size_t>(c)].push_back(static_cast<int32_t>(q));
      }
    }
  }
  for (const std::vector<int32_t>& p : probing) {
    total_probed += static_cast<int64_t>(p.size());
  }

  // Phase 1 — fan out: each cell answers its probing sub-batch as one
  // inner BatchRangeQuery, cells in parallel (inner parallel sections
  // called from pool workers run inline, so the two levels never
  // oversubscribe). Inner calls bill their executed work straight into
  // the shared sink; the per-cell splits are kept for the roll-up.
  std::vector<std::vector<std::vector<ObjectId>>> cell_results(
      static_cast<size_t>(cells));
  std::vector<std::vector<QueryStats>> cell_splits(static_cast<size_t>(cells));
  ParallelFor(exec, cells, [&](int64_t lo, int64_t hi, int32_t) {
    for (int64_t c = lo; c < hi; ++c) {
      const std::vector<int32_t>& subset = probing[static_cast<size_t>(c)];
      if (subset.empty()) continue;
      std::vector<QueryDistanceFn> local;
      local.reserve(subset.size());
      for (const int32_t q : subset) {
        local.push_back(CellQuery(queries[static_cast<size_t>(q)],
                                  static_cast<int32_t>(c)));
      }
      cell_splits[static_cast<size_t>(c)].resize(subset.size());
      cell_results[static_cast<size_t>(c)] =
          cells_[static_cast<size_t>(c)].index->BatchRangeQuery(
              local, epsilon, exec, sink,
              cell_splits[static_cast<size_t>(c)].data());
    }
  });

  // Phase 2 — cell-order merge + exact per-query roll-up, both
  // slot-addressed. Every query is billed its full routing row (the
  // stand-alone RangeQuery accounting) plus its probed cells' splits.
  std::vector<QueryStats> rolled(per_query != nullptr ? num_queries : 0);
  for (int32_t c = 0; c < cells; ++c) {
    const ObjectId* members =
        members_.data() + begins_[static_cast<size_t>(c)];
    const std::vector<int32_t>& subset = probing[static_cast<size_t>(c)];
    for (size_t j = 0; j < subset.size(); ++j) {
      const size_t q = static_cast<size_t>(subset[j]);
      const std::vector<ObjectId>& local =
          cell_results[static_cast<size_t>(c)][j];
      std::vector<ObjectId>& merged = results[q];
      merged.reserve(merged.size() + local.size());
      for (const ObjectId id : local) merged.push_back(members[id]);
      if (per_query != nullptr) {
        const QueryStats& split = cell_splits[static_cast<size_t>(c)][j];
        rolled[q].distance_computations += split.distance_computations;
        rolled[q].result_count += split.result_count;
        rolled[q].lower_bound_pruned += split.lower_bound_pruned;
        rolled[q].lb_kim_pruned += split.lb_kim_pruned;
        rolled[q].lb_erp_pruned += split.lb_erp_pruned;
        rolled[q].delta_windows_probed += split.delta_windows_probed;
        rolled[q].tombstones_masked += split.tombstones_masked;
        ++rolled[q].cells_probed;
      }
    }
  }
  if (per_query != nullptr) {
    for (size_t q = 0; q < num_queries; ++q) {
      rolled[q].distance_computations += cells;
      rolled[q].cells_skipped = cells - rolled[q].cells_probed;
      // The roll-up is only exact if every cell billed this slot for
      // exactly the results it returned in this slot (the ordering
      // contract of RangeIndex::BatchRangeQuery's per-query split).
      SUBSEQ_CHECK(rolled[q].result_count ==
                   static_cast<int64_t>(results[q].size()));
      per_query[q] = rolled[q];
    }
  }
  if (sink != nullptr) {
    // Inner calls already added their executed work; add the routing
    // layer's own accounting (pivot distances + cell decisions).
    sink->AddDistanceComputations(static_cast<int64_t>(num_queries) * cells);
    sink->AddCellsProbed(total_probed);
    sink->AddCellsSkipped(static_cast<int64_t>(num_queries) * cells -
                          total_probed);
  }
  return results;
}

std::vector<Neighbor> RoutedIndex::NearestNeighbors(
    const QueryDistanceFn& query, int32_t k, QueryStats* stats) const {
  const int32_t cells = num_cells();
  // Route: one pivot distance per cell, then visit cells by ascending
  // optimistic bound max(0, d(q, pivot) - r_c) (ties by cell index) so
  // near cells tighten the k-th best distance before far cells are
  // considered.
  std::vector<std::pair<double, int32_t>> order(static_cast<size_t>(cells));
  std::vector<double> pivot_dist(static_cast<size_t>(cells));
  for (int32_t c = 0; c < cells; ++c) {
    pivot_dist[static_cast<size_t>(c)] =
        query(pivots_[static_cast<size_t>(c)]);
    order[static_cast<size_t>(c)] = {
        std::max(0.0, pivot_dist[static_cast<size_t>(c)] -
                          radii_[static_cast<size_t>(c)]),
        c};
  }
  std::sort(order.begin(), order.end());

  std::vector<Neighbor> best;
  int64_t computations = cells;
  int64_t probed = 0;
  for (const auto& [bound, c] : order) {
    // Sound skip: every member of the cell is at least `bound` away; if
    // we already hold k neighbors all strictly closer (with the same
    // rounding margin range routing uses), the cell cannot contribute.
    if (best.size() >= static_cast<size_t>(std::max(k, 0)) && k > 0 &&
        bound > LowerBoundPruneCutoff(best.back().distance)) {
      continue;
    }
    ++probed;
    const ObjectId* members =
        members_.data() + begins_[static_cast<size_t>(c)];
    QueryStats cell_stats;
    std::vector<Neighbor> local =
        cells_[static_cast<size_t>(c)].index->NearestNeighbors(
            CellQuery(query, c), k, &cell_stats);
    computations += cell_stats.distance_computations;
    for (Neighbor& nb : local) {
      nb.id = members[nb.id];
      best.push_back(nb);
    }
    // Keep only the running k best; stable sort keeps (visit order,
    // inner order) among exact ties — the index-dependent freedom the
    // RangeIndex contract allows.
    std::stable_sort(best.begin(), best.end(),
                     [](const Neighbor& a, const Neighbor& b) {
                       return a.distance < b.distance;
                     });
    if (k >= 0 && best.size() > static_cast<size_t>(k)) {
      best.resize(static_cast<size_t>(k));
    }
  }
  if (stats != nullptr) {
    stats->distance_computations = computations;
    stats->result_count = static_cast<int64_t>(best.size());
    stats->cells_probed = probed;
    stats->cells_skipped = cells - probed;
  }
  return best;
}

SpaceStats RoutedIndex::ComputeSpaceStats() const {
  SpaceStats total;
  double weighted_parents = 0.0;
  for (const Cell& cell : cells_) {
    const SpaceStats s = cell.index->ComputeSpaceStats();
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
      cells_.size() * (sizeof(Cell) + sizeof(CellOracle)) +
      pivots_.size() * sizeof(ObjectId) + radii_.size() * sizeof(double) +
      members_.size() * sizeof(ObjectId) + begins_.size() * sizeof(int32_t));
  return total;
}

BuildStats RoutedIndex::build_stats() const {
  BuildStats total;
  total.distance_computations = routing_build_computations_;
  for (const Cell& cell : cells_) {
    total.distance_computations +=
        cell.index->build_stats().distance_computations;
  }
  return total;
}

std::string RoutedIndex::CellPrefix(const std::string& prefix, int32_t c) {
  return prefix + "c" + std::to_string(c) + ".";
}

Status RoutedIndex::SaveSections(SnapshotWriter& writer,
                                 const std::string& prefix,
                                 const ShardIndexSaver& saver) const {
  RoutedMetaRec meta{};
  meta.requested_cells = requested_cells_;
  meta.actual_cells = num_cells();
  meta.total_objects = size();
  meta.build_computations = routing_build_computations_;
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodStruct(prefix + "meta", meta));
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<ObjectId>(
      prefix + "pivots", pivots_));
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<double>(
      prefix + "radii", radii_));
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<int32_t>(
      prefix + "cell_begins", begins_));
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<ObjectId>(
      prefix + "members", members_));
  for (int32_t c = 0; c < num_cells(); ++c) {
    SUBSEQ_RETURN_NOT_OK(saver(*cells_[static_cast<size_t>(c)].index, writer,
                               CellPrefix(prefix, c)));
  }
  return Status::OK();
}

Status RoutedIndex::SaveLayoutSections(const RoutedLayout& layout,
                                       SnapshotWriter& writer,
                                       const std::string& prefix) {
  // Must stay byte-identical to the head of SaveSections: an index built
  // from `layout` records total_objects = sum of cell sizes, which is
  // exactly the member-map length (the map is a permutation of [0, n)).
  RoutedMetaRec meta{};
  meta.requested_cells = layout.requested_cells;
  meta.actual_cells = static_cast<int32_t>(layout.pivots.size());
  meta.total_objects = static_cast<int32_t>(layout.members.size());
  meta.build_computations = layout.computations;
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodStruct(prefix + "meta", meta));
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<ObjectId>(
      prefix + "pivots", layout.pivots));
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<double>(
      prefix + "radii", layout.radii));
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<int32_t>(
      prefix + "cell_begins", layout.begins));
  return writer.AppendPodSection<ObjectId>(prefix + "members",
                                           layout.members);
}

Result<std::unique_ptr<RoutedIndex>> RoutedIndex::LoadSections(
    const SnapshotFile& file, const std::string& prefix,
    const DistanceOracle& oracle, int32_t expected_cells,
    const ShardIndexLoader& loader) {
  RoutedMetaRec meta{};
  SUBSEQ_RETURN_NOT_OK(ReadPodStruct(file, prefix + "meta", &meta));
  const auto bad = [&](const std::string& why) {
    return Status::InvalidArgument("routed snapshot sections '" + prefix +
                                   "*': " + why);
  };
  if (meta.total_objects != oracle.size()) {
    return bad("covers " + std::to_string(meta.total_objects) +
               " objects but the oracle holds " +
               std::to_string(oracle.size()));
  }
  if (meta.requested_cells != expected_cells) {
    return bad("saved with " + std::to_string(meta.requested_cells) +
               " requested cells but the current options resolve to " +
               std::to_string(expected_cells) +
               "; set exec.routing_cells to match the snapshot (a loaded "
               "index must equal the fresh build it replaces)");
  }
  const int32_t cells = meta.actual_cells;
  if (cells < 1 || cells > std::max(1, meta.total_objects)) {
    return bad("cell count " + std::to_string(cells) + " out of range");
  }

  auto routed = std::unique_ptr<RoutedIndex>(new RoutedIndex());
  routed->requested_cells_ = meta.requested_cells;
  routed->routing_build_computations_ = meta.build_computations;
  SUBSEQ_RETURN_NOT_OK(ReadPodSection<ObjectId>(file, prefix + "pivots",
                                                &routed->pivots_));
  SUBSEQ_RETURN_NOT_OK(ReadPodSection<double>(file, prefix + "radii",
                                              &routed->radii_));
  SUBSEQ_RETURN_NOT_OK(ReadPodSection<int32_t>(file, prefix + "cell_begins",
                                               &routed->begins_));
  SUBSEQ_RETURN_NOT_OK(ReadPodSection<ObjectId>(file, prefix + "members",
                                                &routed->members_));
  if (static_cast<int32_t>(routed->pivots_.size()) != cells ||
      static_cast<int32_t>(routed->radii_.size()) != cells ||
      static_cast<int32_t>(routed->begins_.size()) != cells + 1) {
    return bad("routing table sizes disagree with the cell count " +
               std::to_string(cells));
  }
  if (static_cast<int32_t>(routed->members_.size()) != meta.total_objects) {
    return bad("member map holds " + std::to_string(routed->members_.size()) +
               " entries, expected " + std::to_string(meta.total_objects));
  }
  if (routed->begins_.front() != 0 ||
      routed->begins_.back() != meta.total_objects) {
    return bad("cell begins do not span [0, n)");
  }
  std::vector<bool> seen(static_cast<size_t>(meta.total_objects), false);
  for (int32_t c = 0; c < cells; ++c) {
    const int32_t begin = routed->begins_[static_cast<size_t>(c)];
    const int32_t end = routed->begins_[static_cast<size_t>(c) + 1];
    if (begin >= end) {
      return bad("cell " + std::to_string(c) + " is empty");
    }
    bool holds_pivot = false;
    ObjectId prev = kInvalidId;
    for (int32_t i = begin; i < end; ++i) {
      const ObjectId id = routed->members_[static_cast<size_t>(i)];
      if (id < 0 || id >= meta.total_objects ||
          seen[static_cast<size_t>(id)]) {
        return bad("member map is not a permutation of [0, n)");
      }
      if (id <= prev) {
        return bad("cell " + std::to_string(c) +
                   " members are not ascending");
      }
      seen[static_cast<size_t>(id)] = true;
      prev = id;
      holds_pivot |= (id == routed->pivots_[static_cast<size_t>(c)]);
    }
    if (!holds_pivot) {
      return bad("cell " + std::to_string(c) + " does not contain its pivot");
    }
    if (!(routed->radii_[static_cast<size_t>(c)] >= 0.0)) {
      return bad("cell " + std::to_string(c) + " has a negative radius");
    }
  }

  routed->WireCells(oracle);
  for (int32_t c = 0; c < cells; ++c) {
    Cell& cell = routed->cells_[static_cast<size_t>(c)];
    auto inner = loader(file, CellPrefix(prefix, c), *cell.oracle, c);
    if (!inner.ok()) return inner.status();
    cell.index = std::move(inner).value();
    SUBSEQ_CHECK(cell.index != nullptr);
    if (cell.index->size() != cell.oracle->size()) {
      return bad("cell " + std::to_string(c) + " loaded " +
                 std::to_string(cell.index->size()) + " objects, expected " +
                 std::to_string(cell.oracle->size()));
    }
  }
  routed->name_ = "routed[" + std::to_string(cells) + "]:" +
                  std::string(routed->cells_.front().index->name());
  return routed;
}

}  // namespace subseq
