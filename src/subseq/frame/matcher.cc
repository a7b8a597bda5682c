#include "subseq/frame/matcher.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include "subseq/core/check.h"
#include "subseq/exec/parallel_for.h"
#include "subseq/exec/stats_sink.h"
#include "subseq/frame/lb_prefilter.h"
#include "subseq/metric/linear_scan.h"
#include "subseq/metric/partitioned_index.h"

namespace subseq {

namespace {

// Dedup key for Type I results.
using MatchKey = std::array<int32_t, 5>;

MatchKey KeyOf(const SubsequenceMatch& m) {
  return MatchKey{m.seq, m.query.begin, m.query.end, m.db.begin, m.db.end};
}

// Hits per ComputeMany call in the per-hit distance fill. Big enough to
// feed the vertical 4-lane kernels several packs, small enough that the
// gathered view array stays in cache and flat parallelism is preserved.
constexpr size_t kHitFillBatch = 16;

// The batched per-hit distance fill shared by MergeSegmentHits and
// SegmentHitDistances: groups each segment's hits into blocks of at most
// kHitFillBatch, gathers the block's window views, and runs ONE
// SequenceDistance::ComputeMany per block — the batched entry point is
// bit-identical to a per-hit Compute loop by contract, so callers see
// the exact values the old flat loop produced. Blocks are parallelized
// flat at grain 1 (per-segment hit lists are often tiny) and every write
// is slot-addressed through `write(segment, hit_index, distance)`, so
// the fill is deterministic at any exec setting.
template <typename T, typename Write>
void FillHitDistancesBlocked(const SequenceDistance<T>& dist,
                             const WindowOracle<T>& oracle,
                             std::span<const std::span<const T>> segments,
                             std::span<const std::span<const ObjectId>> windows,
                             const ExecContext& exec, const Write& write) {
  struct Block {
    size_t s;      // segment index
    size_t begin;  // first hit of the block within windows[s]
    size_t count;  // <= kHitFillBatch
  };
  std::vector<Block> blocks;
  for (size_t s = 0; s < windows.size(); ++s) {
    for (size_t b = 0; b < windows[s].size(); b += kHitFillBatch) {
      blocks.push_back(
          Block{s, b, std::min(kHitFillBatch, windows[s].size() - b)});
    }
  }
  ParallelFor(exec, static_cast<int64_t>(blocks.size()),
              [&](int64_t lo, int64_t hi, int32_t) {
                std::vector<std::span<const T>> views;
                views.reserve(kHitFillBatch);
                double out[kHitFillBatch];
                for (int64_t bi = lo; bi < hi; ++bi) {
                  const Block& blk = blocks[static_cast<size_t>(bi)];
                  views.clear();
                  for (size_t i = 0; i < blk.count; ++i) {
                    views.push_back(
                        oracle.WindowView(windows[blk.s][blk.begin + i]));
                  }
                  dist.ComputeMany(segments[blk.s], views, out);
                  for (size_t i = 0; i < blk.count; ++i) {
                    write(blk.s, blk.begin + i, out[i]);
                  }
                }
              },
              /*grain=*/1);
}

// Marks every window whose sequence is retired. No-op (empty mask) when
// nothing is retired, so the common path stays branch-free.
template <typename T>
void ComputeTombstoneMask(const SequenceDatabase<T>& db,
                          const WindowCatalog& catalog,
                          std::vector<uint8_t>* mask, int64_t* count) {
  if (db.num_retired() == 0) return;
  mask->assign(static_cast<size_t>(catalog.num_windows()), 0);
  for (ObjectId w = 0; w < catalog.num_windows(); ++w) {
    if (db.is_retired(catalog.at(w).seq)) {
      (*mask)[static_cast<size_t>(w)] = 1;
      ++(*count);
    }
  }
}

// The scan cascade's feature table of windows [begin, end), or nullptr
// when the range is empty, the prefilter is off, or the cascade reads no
// features for this distance (and for strings, which have no cascade).
template <typename T>
std::shared_ptr<const LbFeatureTable> MaybeBuildLbFeatures(
    const SequenceDatabase<T>& db, const WindowCatalog& catalog,
    const SequenceDistance<T>& dist, const MatcherOptions& options,
    ObjectId begin, ObjectId end) {
  if constexpr (std::is_same_v<T, char>) {
    return nullptr;
  } else {
    if (begin >= end || !options.lb_prefilter || !LbFeaturesApply(dist)) {
      return nullptr;
    }
    return BuildLbFeatureTable(db, catalog, begin, end);
  }
}

// One backend of options.index_kind over the given oracle — the whole
// window catalog (monolithic) or one part's view of it (the
// PartitionedIndex factory path: every part gets an independent index of
// the same kind with the same tunables).
Result<std::unique_ptr<RangeIndex>> BuildKindIndex(
    const DistanceOracle& oracle, const MatcherOptions& options) {
  switch (options.index_kind) {
    case IndexKind::kReferenceNet: {
      auto net = std::make_unique<ReferenceNet>(oracle, options.reference_net);
      for (ObjectId id = 0; id < oracle.size(); ++id) {
        SUBSEQ_RETURN_NOT_OK(net->Insert(id));
      }
      return std::unique_ptr<RangeIndex>(std::move(net));
    }
    case IndexKind::kCoverTree: {
      auto tree = std::make_unique<CoverTree>(oracle, options.cover_tree);
      for (ObjectId id = 0; id < oracle.size(); ++id) {
        SUBSEQ_RETURN_NOT_OK(tree->Insert(id));
      }
      return std::unique_ptr<RangeIndex>(std::move(tree));
    }
    case IndexKind::kMvIndex:
      return std::unique_ptr<RangeIndex>(
          std::make_unique<MvIndex>(oracle, options.mv_index));
    case IndexKind::kLinearScan:
      return std::unique_ptr<RangeIndex>(
          std::make_unique<LinearScan>(oracle.size()));
  }
  return Status::InvalidArgument("unknown IndexKind");
}

// Step 2's index: one backend of options.index_kind over the whole
// catalog, or K parts of that kind behind a PartitionedIndex —
// contiguous shards or pivot-routed cells. The filter (step 4) and
// everything above it are agnostic: every shape implements RangeIndex
// with identical hit sets.
Result<std::unique_ptr<RangeIndex>> BuildBaseIndex(
    const DistanceOracle& oracle, const MatcherOptions& options) {
  const PartitionedIndexOptions partition =
      ResolvePartition(options.exec, oracle.size());
  if (partition.num_parts <= 1) return BuildKindIndex(oracle, options);
  auto built = PartitionedIndex::Build(
      oracle,
      [&options](const DistanceOracle& part_oracle, int32_t) {
        return BuildKindIndex(part_oracle, options);
      },
      partition);
  SUBSEQ_RETURN_NOT_OK(built.status());
  return std::unique_ptr<RangeIndex>(std::move(built).ValueOrDie());
}

// Step 4's memo for the segments cut at one query start. Each is a
// prefix of the start's longest segment, so one ComputePrefixes call per
// window holds all their distances: the first touch of a window fills
// its column, and every later call at that window reads its own length's
// value — bit for bit what SegmentQuery computes (the ComputePrefixes
// contract) — and counts as a memo hit. Open addressing over the touched
// ids keeps the memo proportional to what one start's walks visit.
template <typename T>
class PrefixMemo {
 public:
  PrefixMemo(const WindowOracle<T>& oracle, std::span<const T> longest,
             size_t min_length)
      : oracle_(oracle),
        longest_(longest),
        min_length_(min_length),
        width_(longest.size() - min_length + 1),
        keys_(kInitialSlots, kEmpty),
        rows_(kInitialSlots, 0) {}

  // The distance of the first `length` elements of the longest segment
  // to `window`; bumps *hits when no DP ran.
  double Get(ObjectId window, size_t length, int64_t* hits) {
    const size_t column = length - min_length_;
    const size_t slot = Find(window);
    if (keys_[slot] == window) {
      ++*hits;
      return columns_[rows_[slot] * width_ + column];
    }
    const size_t row = num_rows_++;
    keys_[slot] = window;
    rows_[slot] = row;
    columns_.resize(num_rows_ * width_);
    oracle_.distance().ComputePrefixes(longest_, oracle_.WindowView(window),
                                       min_length_,
                                       columns_.data() + row * width_);
    if (2 * num_rows_ > keys_.size()) Grow();
    return columns_[row * width_ + column];
  }

 private:
  static constexpr ObjectId kEmpty = -1;
  static constexpr size_t kInitialSlots = 128;  // a power of two

  size_t Find(ObjectId window) const {
    const size_t mask = keys_.size() - 1;
    size_t slot = static_cast<size_t>(
        (static_cast<uint64_t>(window) * 0x9E3779B97F4A7C15ull) >> 32);
    for (slot &= mask; keys_[slot] != kEmpty && keys_[slot] != window;
         slot = (slot + 1) & mask) {
    }
    return slot;
  }

  void Grow() {
    std::vector<ObjectId> keys(2 * keys_.size(), kEmpty);
    std::vector<size_t> rows(keys.size(), 0);
    keys.swap(keys_);
    rows.swap(rows_);
    for (size_t old = 0; old < keys.size(); ++old) {
      if (keys[old] == kEmpty) continue;
      const size_t slot = Find(keys[old]);
      keys_[slot] = keys[old];
      rows_[slot] = rows[old];
    }
  }

  const WindowOracle<T>& oracle_;
  const std::span<const T> longest_;
  const size_t min_length_;
  const size_t width_;  // prefix lengths min_length_ .. |longest_|
  std::vector<ObjectId> keys_;
  std::vector<size_t> rows_;
  std::vector<double> columns_;  // num_rows_ rows of width_ distances
  size_t num_rows_ = 0;
};

// The SegmentQueryFn under a step-4 query function — the function
// itself or its payload's — or nullptr for any other function.
template <typename T>
const SegmentQueryFn<T>* SegmentQueryOf(const QueryDistanceFn& query) {
  if (const auto* fn = query.target<SegmentQueryFn<T>>()) return fn;
  const PrunableQueryFn* payload = GetPrunable(query);
  return payload != nullptr ? payload->fn.target<SegmentQueryFn<T>>()
                            : nullptr;
}

// The base-index half of step 4 over a tree, one unit per query start
// under work stealing. The segments cut at one start share their first
// element's address (and oracle), and each is a prefix of the longest
// of them, so a unit walks its segments on one thread and answers their
// node calls from one PrefixMemo over that longest segment: each (start,
// window) pair runs one DP however many segment lengths touch it. Every
// walk still reads its own value, so hits, per-query stats and billing
// equal the flat call's; only prefix_memo_hits is new. A start the batch
// holds one segment of, and any function that is not a SegmentQueryFn,
// is a unit of its own and runs unchanged.
template <typename T>
std::vector<std::vector<ObjectId>> QueryByStart(
    const RangeIndex& index, std::span<const QueryDistanceFn> queries,
    double epsilon, const ExecContext& exec, StatsSink* sink,
    QueryStats* per_query) {
  std::vector<const SegmentQueryFn<T>*> segment_fns(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    segment_fns[q] = SegmentQueryOf<T>(queries[q]);
  }
  // Slots ordered by start; each run of one start is a unit.
  const auto key = [&segment_fns](size_t q) {
    const SegmentQueryFn<T>* fn = segment_fns[q];
    if (fn == nullptr) return std::make_pair(uintptr_t{0}, uintptr_t{0});
    return std::make_pair(reinterpret_cast<uintptr_t>(fn->oracle),
                          reinterpret_cast<uintptr_t>(fn->segment.data()));
  };
  std::vector<size_t> order(queries.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&key](size_t a, size_t b) {
    return std::make_pair(key(a), a) < std::make_pair(key(b), b);
  });
  std::vector<size_t> unit_begins;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || segment_fns[order[i]] == nullptr ||
        key(order[i]) != key(order[i - 1])) {
      unit_begins.push_back(i);
    }
  }
  unit_begins.push_back(order.size());

  std::vector<std::vector<ObjectId>> results(queries.size());
  ParallelForDynamic(
      exec, static_cast<int64_t>(unit_begins.size() - 1),
      [&](int64_t lo, int64_t hi, int32_t) {
        for (int64_t u = lo; u < hi; ++u) {
          const std::span<const size_t> slots(
              order.data() + unit_begins[static_cast<size_t>(u)],
              order.data() + unit_begins[static_cast<size_t>(u) + 1]);
          // Each segment's node calls read the memo; a payload's bound
          // rides along for the reference net's gate.
          struct Reader {
            PrefixMemo<T>* memo = nullptr;
            size_t length = 0;
            int64_t hits = 0;
          };
          std::optional<PrefixMemo<T>> memo;
          std::vector<Reader> readers(slots.size());
          std::vector<QueryDistanceFn> unit_queries;
          unit_queries.reserve(slots.size());
          if (slots.size() == 1) {
            unit_queries.push_back(queries[slots.front()]);
          } else {
            size_t min_length = SIZE_MAX;
            size_t max_length = 0;
            for (const size_t q : slots) {
              const size_t length = segment_fns[q]->segment.size();
              min_length = std::min(min_length, length);
              max_length = std::max(max_length, length);
            }
            const SegmentQueryFn<T>* first = segment_fns[slots.front()];
            memo.emplace(*first->oracle,
                         std::span<const T>(first->segment.data(), max_length),
                         min_length);
            for (size_t k = 0; k < slots.size(); ++k) {
              readers[k] =
                  Reader{&*memo, segment_fns[slots[k]]->segment.size(), 0};
              const auto read = [r = &readers[k]](ObjectId window) {
                return r->memo->Get(window, r->length, &r->hits);
              };
              const PrunableQueryFn* payload = GetPrunable(queries[slots[k]]);
              if (payload == nullptr) {
                unit_queries.push_back(read);
                continue;
              }
              PrunableQueryFn reader;
              reader.fn = read;
              reader.lower_bound = payload->lower_bound;
              reader.lb_offset = payload->lb_offset;
              unit_queries.push_back(QueryDistanceFn(std::move(reader)));
            }
          }
          std::vector<QueryStats> split(slots.size());
          std::vector<std::vector<ObjectId>> found = index.BatchRangeQuery(
              unit_queries, epsilon, SequentialExec(), nullptr, split.data());
          QueryStats total;
          for (size_t k = 0; k < slots.size(); ++k) {
            split[k].prefix_memo_hits = readers[k].hits;
            results[slots[k]] = std::move(found[k]);
            if (per_query != nullptr) per_query[slots[k]] = split[k];
            total += split[k];
          }
          if (sink != nullptr) sink->Add(total);
        }
      },
      /*grain=*/1);
  return results;
}

}  // namespace

Status MatcherOptions::Validate() const {
  if (lambda < 2 || lambda % 2 != 0) {
    return Status::InvalidArgument("lambda must be even and >= 2");
  }
  if (lambda0 < 0 || lambda0 >= lambda / 2) {
    return Status::InvalidArgument(
        "lambda0 must satisfy 0 <= lambda0 < lambda/2");
  }
  // A kind read back from a file or a flag can hold a value no
  // enumerator names.
  switch (index_kind) {
    case IndexKind::kReferenceNet:
    case IndexKind::kCoverTree:
    case IndexKind::kMvIndex:
    case IndexKind::kLinearScan:
      break;
    default:
      return Status::InvalidArgument(
          "index_kind " + std::to_string(static_cast<int>(index_kind)) +
          " names no index (reference net 0, cover tree 1, MV index 2, "
          "linear scan 4)");
  }
  // Budget-exhaustion semantics are explicit at the boundary: step 5
  // charges every candidate pair against the budget *before* verifying
  // it, so max_verifications = 0 would fail every query whose filter
  // yields any candidate, and a negative cap is invalid rather than
  // "unlimited".
  if (max_verifications == 0) {
    return Status::InvalidArgument(
        "max_verifications = 0 rejects every query with step-5 candidates "
        "(each pair charges the budget before verification); use a "
        "positive cap");
  }
  if (max_verifications < 0) {
    return Status::InvalidArgument(
        "max_verifications must be positive; a negative budget is invalid "
        "rather than unlimited — use a large positive cap");
  }
  if (exec.num_threads < 0 || exec.num_shards < 0 ||
      exec.routing_cells < 0) {
    return Status::InvalidArgument(
        "ExecContext knobs (num_threads, num_shards, routing_cells) must be "
        ">= 0; 0 resolves to the default");
  }
  if (exec.num_shards > 1 && exec.routing_cells > 1) {
    return Status::InvalidArgument(
        "num_shards and routing_cells are mutually exclusive partitioning "
        "strategies (contiguous id split vs pivot-routed cells); set one "
        "of them and leave the other at 0");
  }
  if (delta_merge_threshold < 1) {
    return Status::InvalidArgument(
        "delta_merge_threshold must be >= 1 (it is the delta window count "
        "at which the serving layer compacts delta into base; 1 compacts "
        "after every append)");
  }
  return Status::OK();
}

Status ValidateNearestSchedule(double epsilon_max, double epsilon_increment) {
  if (!std::isfinite(epsilon_max) || epsilon_max < 0.0) {
    return Status::InvalidArgument(
        "NearestMatch: epsilon_max must be finite and >= 0");
  }
  if (!std::isfinite(epsilon_increment) || epsilon_increment <= 0.0) {
    return Status::InvalidArgument(
        "NearestMatch: epsilon_increment must be finite and > 0");
  }
  return Status::OK();
}

template <typename T>
Result<std::unique_ptr<SubsequenceMatcher<T>>> SubsequenceMatcher<T>::MakeShell(
    const SequenceDatabase<T>& db, const SequenceDistance<T>& dist,
    MatcherOptions options) {
  SUBSEQ_RETURN_NOT_OK(options.Validate());
  const int32_t l = options.lambda / 2;
  if (!dist.is_consistent()) {
    return Status::InvalidArgument(
        "the window filter requires a consistent distance (Definition 1); " +
        std::string(dist.name()) + " does not advertise consistency");
  }
  if (options.index_kind != IndexKind::kLinearScan && !dist.is_metric()) {
    return Status::InvalidArgument(
        "metric indexes require a metric distance; use "
        "IndexKind::kLinearScan with " + std::string(dist.name()));
  }
  // Routing prunes whole cells with the triangle inequality, so it is
  // unsound for any non-metric distance — even over a linear-scan cell
  // backend, which would otherwise accept one (consistency alone keeps
  // the window filter exact, but not the cell-skip rule).
  if (options.exec.routing_cells > 1 && !dist.is_metric()) {
    return Status::InvalidArgument(
        "routing_cells requires a metric distance (cell skipping is the "
        "triangle inequality); " + std::string(dist.name()) +
        " does not advertise metricity — disable routing for it");
  }

  // One knob governs all parallel sections: the matcher's ExecContext is
  // pushed down into every index build — unless the caller explicitly
  // set that index's own exec (num_threads != 0), which wins.
  if (options.reference_net.exec.num_threads == 0) {
    options.reference_net.exec = options.exec;
  }
  if (options.mv_index.exec.num_threads == 0) {
    options.mv_index.exec = options.exec;
  }

  auto matcher = std::unique_ptr<SubsequenceMatcher<T>>(new SubsequenceMatcher<T>(
      std::make_shared<const SequenceDatabase<T>>(db), dist, options));
  auto catalog = WindowCatalog::PartitionDatabase(*matcher->db_, l);
  SUBSEQ_RETURN_NOT_OK(catalog.status());
  matcher->catalog_ =
      std::make_shared<const WindowCatalog>(std::move(catalog).value());
  matcher->oracle_ = std::make_shared<const WindowOracle<T>>(
      *matcher->db_, *matcher->catalog_, dist);
  // Tombstone mask: a window is dead iff its sequence is retired.
  // Retired windows stay in the catalog AND the index (ids are never
  // renumbered); BatchFilterWindows subtracts them from every hit list.
  ComputeTombstoneMask(*matcher->db_, *matcher->catalog_,
                       &matcher->window_tombstones_,
                       &matcher->num_tombstoned_windows_);
  return matcher;
}

template <typename T>
void SubsequenceMatcher<T>::AdoptBase(
    std::unique_ptr<RangeIndex> index, std::unique_ptr<PrefixOracle> prefix,
    std::shared_ptr<const SnapshotFile> snapshot, int32_t base_windows) {
  SUBSEQ_CHECK(index != nullptr);
  SUBSEQ_CHECK(base_windows >= 0 &&
               base_windows <= catalog_->num_windows());
  auto base = std::make_shared<EpochBase<T>>();
  base->db = db_;
  base->catalog = catalog_;
  base->oracle = oracle_;
  base->prefix = std::move(prefix);
  base->index = std::move(index);
  base->snapshot = std::move(snapshot);
  base->num_windows = base_windows;
  // Only a linear-scan base reads a base feature table; a tree (or
  // tree-celled) base never does, so it skips the O(windows) build.
  if (options_.index_kind == IndexKind::kLinearScan) {
    base->lb_features = MaybeBuildLbFeatures(*db_, *catalog_, dist_, options_,
                                             0, base_windows);
  }
  base_ = std::move(base);
  BuildDelta();
}

template <typename T>
void SubsequenceMatcher<T>::BuildDelta() {
  const int32_t delta = catalog_->num_windows() - base_->num_windows;
  if (delta > 0) {
    delta_index_ = std::make_unique<LinearScan>(delta);
    delta_lb_features_ =
        MaybeBuildLbFeatures(*db_, *catalog_, dist_, options_,
                             base_->num_windows, catalog_->num_windows());
  }
}

template <typename T>
Result<std::unique_ptr<SubsequenceMatcher<T>>> SubsequenceMatcher<T>::Build(
    const SequenceDatabase<T>& db, const SequenceDistance<T>& dist,
    MatcherOptions options) {
  auto shell = MakeShell(db, dist, std::move(options));
  SUBSEQ_RETURN_NOT_OK(shell.status());
  auto matcher = std::move(shell).ValueOrDie();
  // MakeShell resolved the exec pushdown; the index build below must see
  // the resolved options, not the caller's.
  const MatcherOptions& resolved = matcher->options_;

  auto index = BuildBaseIndex(*matcher->oracle_, resolved);
  SUBSEQ_RETURN_NOT_OK(index.status());
  matcher->AdoptBase(std::move(index).ValueOrDie(), nullptr, nullptr,
                     matcher->catalog_->num_windows());
  return matcher;
}

template <typename T>
Result<std::unique_ptr<SubsequenceMatcher<T>>>
SubsequenceMatcher<T>::DeriveEpoch(SequenceDatabase<T> db) const {
  SUBSEQ_CHECK(base_ != nullptr);
  auto matcher = std::unique_ptr<SubsequenceMatcher<T>>(new SubsequenceMatcher<T>(
      std::make_shared<const SequenceDatabase<T>>(std::move(db)), dist_,
      options_));
  // Extend the current catalog in place rather than re-partitioning:
  // WindowCatalog::Append is documented equivalent, and keeps the
  // derivation O(new windows) for the catalog itself.
  WindowCatalog catalog = *catalog_;
  for (SeqId s = catalog.num_sequences(); s < matcher->db_->size(); ++s) {
    SUBSEQ_RETURN_NOT_OK(catalog.Append(matcher->db_->at(s).size()));
  }
  matcher->catalog_ = std::make_shared<const WindowCatalog>(std::move(catalog));
  matcher->oracle_ = std::make_shared<const WindowOracle<T>>(
      *matcher->db_, *matcher->catalog_, dist_);
  // The base (and its feature table) is shared; only the delta's
  // windows get a new table, so deriving an epoch stays O(delta).
  matcher->base_ = base_;
  matcher->BuildDelta();
  ComputeTombstoneMask(*matcher->db_, *matcher->catalog_,
                       &matcher->window_tombstones_,
                       &matcher->num_tombstoned_windows_);
  return matcher;
}

template <typename T>
Result<std::unique_ptr<SubsequenceMatcher<T>>>
SubsequenceMatcher<T>::WithAppended(Sequence<T> seq) const {
  return DeriveEpoch(db_->Append(std::move(seq)));
}

template <typename T>
Result<std::unique_ptr<SubsequenceMatcher<T>>>
SubsequenceMatcher<T>::WithRetired(SeqId seq) const {
  if (seq < 0 || seq >= db_->size()) {
    return Status::OutOfRange(
        "WithRetired: sequence id " + std::to_string(seq) +
        " out of range [0, " + std::to_string(db_->size()) + ")");
  }
  if (db_->is_retired(seq)) {
    return Status::AlreadyExists("WithRetired: sequence id " +
                                 std::to_string(seq) +
                                 " is already retired");
  }
  return DeriveEpoch(db_->Retire(seq));
}

template <typename T>
Result<std::unique_ptr<SubsequenceMatcher<T>>> SubsequenceMatcher<T>::Compact()
    const {
  return Build(*db_, dist_, options_);
}

template <typename T>
SegmentQueryBatch SubsequenceMatcher<T>::MakeSegmentQueries(
    std::span<const T> query, MatchQueryStats* stats) const {
  const int32_t l = catalog_->window_length();
  SegmentQueryBatch batch;
  batch.segments = ExtractQuerySegments(static_cast<int32_t>(query.size()),
                                        l - options_.lambda0,
                                        l + options_.lambda0);
  batch.queries.reserve(batch.segments.size());
  // Two readers of the payload: a linear scan — a linear-scan base
  // (monolithic, sharded or routed cells) or this epoch's delta — reads
  // the batched evaluator and the bound; a reference-net base reads the
  // bound alone, for its node gate. Other tree indexes call the function
  // per id, so without a reader the plain function saves the payload's
  // allocations and indirection.
  const bool scanned =
      options_.index_kind == IndexKind::kLinearScan || delta_index_ != nullptr;
  const bool gated = options_.index_kind == IndexKind::kReferenceNet &&
                     options_.lb_prefilter && LbFeaturesApply(dist_);
  for (const Interval& seg : batch.segments) {
    const std::span<const T> view = query.subspan(
        static_cast<size_t>(seg.begin), static_cast<size_t>(seg.length()));
    if (!scanned && !gated) {
      batch.queries.push_back(oracle_->SegmentQuery(view));
      continue;
    }
    // The payload: the batched evaluator when a scan reads it (the scan
    // hands it whole blocks instead of calling the function per window)
    // and, when this distance has one, the segment's admissible lower
    // bound (the scan skips the windows and the walk the nodes it rules
    // out). Results and billed stats are identical either way (see
    // PrunableQueryFn and MatcherOptions::lb_prefilter).
    PrunableQueryFn payload;
    payload.fn = oracle_->SegmentQuery(view);
    if (scanned) payload.many = oracle_->SegmentQueryMany(view);
    if (options_.lb_prefilter) {
      payload.lower_bound = MakeSegmentLowerBound(
          *db_, *catalog_, dist_, view, base_->lb_features, delta_lb_features_);
    }
    batch.queries.push_back(QueryDistanceFn(std::move(payload)));
  }
  if (stats != nullptr) {
    stats->segments += static_cast<int64_t>(batch.segments.size());
  }
  return batch;
}

template <typename T>
std::vector<SegmentHit> SubsequenceMatcher<T>::MergeSegmentHits(
    std::span<const T> query, std::span<const Interval> segments,
    std::span<const std::span<const ObjectId>> batched,
    const ExecContext& exec, MatchQueryStats* stats) const {
  return MergeSegmentHits(query, segments, batched,
                          std::span<const std::span<const double>>(), exec,
                          stats);
}

template <typename T>
std::vector<SegmentHit> SubsequenceMatcher<T>::MergeSegmentHits(
    std::span<const T> query, std::span<const Interval> segments,
    std::span<const std::span<const ObjectId>> batched,
    std::span<const std::span<const double>> batched_distances,
    const ExecContext& exec, MatchQueryStats* stats) const {
  SUBSEQ_CHECK(batched.size() == segments.size());
  // Empty batched_distances = compute the fill here; otherwise slot
  // [i][j] carries batched[i][j]'s exact distance and the fill is
  // skipped (the serving layer computes it once per unique segment).
  const bool precomputed = !batched_distances.empty();
  if (precomputed) SUBSEQ_CHECK(batched_distances.size() == batched.size());
  // Canonical merge: hits land in (segment order, ascending window id
  // within a segment). RangeQuery leaves per-query result order
  // unspecified — it varies with the backend's traversal and, for a
  // PartitionedIndex, with the layout — so step 5's input is normalized
  // here: any two exact indexes (monolithic or partitioned, any backend)
  // that agree on the hit *set* feed the verifier the identical hit
  // sequence, making matches and downstream stats backend-independent.
  size_t total_hits = 0;
  for (const auto& ids : batched) total_hits += ids.size();
  std::vector<SegmentHit> hits;
  hits.reserve(total_hits);
  std::vector<size_t> bounds(batched.size() + 1, 0);
  for (size_t i = 0; i < batched.size(); ++i) {
    const size_t segment_begin = hits.size();
    if (precomputed) {
      SUBSEQ_CHECK(batched_distances[i].size() == batched[i].size());
    }
    for (size_t j = 0; j < batched[i].size(); ++j) {
      hits.push_back(SegmentHit{segments[i], batched[i][j],
                                precomputed ? batched_distances[i][j] : 0.0});
    }
    // The sort moves each hit's distance with it, so precomputed values
    // may arrive in any order as long as they align with their ids.
    std::sort(hits.begin() + static_cast<int64_t>(segment_begin), hits.end(),
              [](const SegmentHit& a, const SegmentHit& b) {
                return a.window < b.window;
              });
    bounds[i + 1] = hits.size();
  }
  if (!precomputed) {
    // Second parallel pass: the exact segment-to-window distances step 5
    // orders its verification by. The canonically-sorted window ids are
    // copied into one contiguous array per segment so the blocked
    // ComputeMany helper can batch them; writes land by flat slot, so
    // the pass stays deterministic and bit-identical to a per-hit
    // Compute loop (the ComputeMany contract).
    std::vector<ObjectId> ids(hits.size());
    for (size_t f = 0; f < hits.size(); ++f) ids[f] = hits[f].window;
    std::vector<std::span<const T>> segment_views(segments.size());
    std::vector<std::span<const ObjectId>> id_views(segments.size());
    for (size_t s = 0; s < segments.size(); ++s) {
      segment_views[s] =
          query.subspan(static_cast<size_t>(segments[s].begin),
                        static_cast<size_t>(segments[s].length()));
      id_views[s] = std::span<const ObjectId>(ids.data() + bounds[s],
                                              bounds[s + 1] - bounds[s]);
    }
    FillHitDistancesBlocked<T>(dist_, *oracle_, segment_views, id_views, exec,
                               [&](size_t s, size_t i, double d) {
                                 hits[bounds[s] + i].distance = d;
                               });
  }
  if (stats != nullptr) stats->hits += static_cast<int64_t>(hits.size());
  return hits;
}

template <typename T>
std::vector<std::vector<double>> SubsequenceMatcher<T>::SegmentHitDistances(
    std::span<const std::span<const T>> segments,
    std::span<const std::span<const ObjectId>> windows,
    const ExecContext& exec) const {
  SUBSEQ_CHECK(segments.size() == windows.size());
  // The blocked ComputeMany helper flattens every (segment, hit-block)
  // pair into one parallel section — same flat coverage as before, with
  // the distance work batched through the vertical SIMD kernels and
  // values bit-identical to a per-hit Compute loop.
  std::vector<std::vector<double>> distances(segments.size());
  for (size_t s = 0; s < segments.size(); ++s) {
    distances[s].resize(windows[s].size());
  }
  FillHitDistancesBlocked<T>(dist_, *oracle_, segments, windows, exec,
                             [&](size_t s, size_t i, double d) {
                               distances[s][i] = d;
                             });
  return distances;
}

template <typename T>
std::vector<std::vector<ObjectId>> SubsequenceMatcher<T>::BatchFilterWindows(
    std::span<const QueryDistanceFn> queries, double epsilon,
    const ExecContext& exec, StatsSink* sink, QueryStats* per_query) const {
  // Base epoch first: the expensive index answers windows [0, base). A
  // tree walks one unit per query start when each start has several
  // segment lengths (lambda0 > 0); a linear scan already evaluates whole
  // blocks through ComputeMany, and its cascade skips most windows.
  const bool by_start =
      options_.index_kind != IndexKind::kLinearScan && options_.lambda0 > 0;
  std::vector<std::vector<ObjectId>> results =
      by_start ? QueryByStart<T>(*base_->index, queries, epsilon, exec, sink,
                                 per_query)
               : base_->index->BatchRangeQuery(queries, epsilon, exec, sink,
                                               per_query);

  // Delta scan: windows appended since the base epoch live in a small
  // LinearScan with local ids; hits translate back by the base offset
  // and append after the base hits (callers canonicalize order per
  // segment). Every delta window is billed — the scan is responsible
  // for all its candidates — and counted in delta_windows_probed.
  if (delta_index_ != nullptr) {
    const int32_t offset = base_->num_windows;
    const int64_t delta = delta_index_->size();
    std::vector<QueryDistanceFn> local;
    local.reserve(queries.size());
    for (const QueryDistanceFn& query : queries) {
      local.push_back(OffsetQuery(query, offset));
    }
    std::vector<QueryStats> delta_split(
        per_query != nullptr ? queries.size() : 0);
    const std::vector<std::vector<ObjectId>> delta_results =
        delta_index_->BatchRangeQuery(
            local, epsilon, exec, sink,
            per_query != nullptr ? delta_split.data() : nullptr);
    if (sink != nullptr) {
      sink->AddDeltaWindowsProbed(static_cast<int64_t>(queries.size()) *
                                  delta);
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      std::vector<ObjectId>& merged = results[q];
      merged.reserve(merged.size() + delta_results[q].size());
      for (const ObjectId id : delta_results[q]) merged.push_back(id + offset);
      if (per_query != nullptr) {
        per_query[q] += delta_split[q];
        per_query[q].delta_windows_probed += delta;
      }
    }
  }

  // Tombstone mask: drop hits whose window belongs to a retired
  // sequence so no masked window ever reaches step 5. Masking is
  // observable (tombstones_masked) but unbilled, like routed cell
  // skips; result_count tracks the returned (masked) size so the
  // per-query slot contract stays exact.
  if (num_tombstoned_windows_ > 0) {
    int64_t masked_total = 0;
    for (size_t q = 0; q < results.size(); ++q) {
      std::vector<ObjectId>& hits = results[q];
      const size_t before = hits.size();
      hits.erase(std::remove_if(hits.begin(), hits.end(),
                                [this](ObjectId w) {
                                  return window_tombstones_
                                             [static_cast<size_t>(w)] != 0;
                                }),
                 hits.end());
      const int64_t masked = static_cast<int64_t>(before - hits.size());
      masked_total += masked;
      if (per_query != nullptr && masked > 0) {
        per_query[q].result_count -= masked;
        per_query[q].tombstones_masked += masked;
      }
    }
    if (sink != nullptr && masked_total > 0) {
      sink->AddResults(-masked_total);
      sink->AddTombstonesMasked(masked_total);
    }
  }
  return results;
}

template <typename T>
std::vector<SegmentHit> SubsequenceMatcher<T>::FilterSegments(
    std::span<const T> query, double epsilon, MatchQueryStats* stats) const {
  const SegmentQueryBatch batch = MakeSegmentQueries(query, stats);

  // Step 4 as ONE batch: a query function per segment, all issued to the
  // base index + delta together. The filter fans the batch out over
  // options_.exec and accounts exactly through the sink.
  StatsSink sink;
  const std::vector<std::vector<ObjectId>> batched =
      BatchFilterWindows(batch.queries, epsilon, options_.exec, &sink);
  if (stats != nullptr) {
    stats->filter_computations += sink.distance_computations();
  }
  const std::vector<std::span<const ObjectId>> views(batched.begin(),
                                                     batched.end());
  return MergeSegmentHits(query, batch.segments, views, options_.exec,
                          stats);
}

template <typename T>
template <typename OnMatch>
void SubsequenceMatcher<T>::VerifyRegion(std::span<const T> query,
                                         const CandidateRegion& region,
                                         double epsilon, MatchQueryStats* stats,
                                         OnMatch&& on_match) const {
  const int32_t lambda = options_.lambda;
  const int32_t lambda0 = options_.lambda0;
  const Sequence<T>& seq = db_->at(region.seq);

  for (int32_t qb = region.q_begin_min; qb <= region.q_begin_max; ++qb) {
    const int32_t qe_lo = std::max(region.q_end_min, qb + lambda);
    for (int32_t qe = qe_lo; qe <= region.q_end_max; ++qe) {
      const int32_t qlen = qe - qb;
      const auto sq = query.subspan(static_cast<size_t>(qb),
                                    static_cast<size_t>(qlen));
      for (int32_t xb = region.x_begin_min; xb <= region.x_begin_max; ++xb) {
        const auto [xe_lo, xe_hi] =
            SxEndRange(region, xb, qlen, lambda, lambda0);
        for (int32_t xe = xe_lo; xe <= xe_hi; ++xe) {
          const auto sx = seq.Subsequence(Interval{xb, xe});
          if (stats != nullptr) ++stats->verifications;
          const double d = dist_.ComputeBounded(sq, sx, epsilon);
          if (d <= epsilon) {
            on_match(SubsequenceMatch{region.seq, Interval{qb, qe},
                                      Interval{xb, xe}, d});
          }
        }
      }
    }
  }
}

template <typename T>
bool SubsequenceMatcher<T>::ChainSearch(
    std::span<const T> query, std::span<const SegmentHit> hits,
    double epsilon, int64_t* budget, MatchQueryStats* stats,
    std::optional<SubsequenceMatch>* longest) const {
  const std::vector<WindowChain> chains = BuildChains(hits, *catalog_);
  if (stats != nullptr) stats->chains += static_cast<int64_t>(chains.size());
  const int32_t l = catalog_->window_length();
  const int32_t lambda = options_.lambda;
  const int32_t lambda0 = options_.lambda0;
  std::optional<SubsequenceMatch> best;

  for (const WindowChain& chain : chains) {
    // A chain of k windows cannot support |SX| >= (k + 2) * l (the match
    // would contain another window, which would be part of the chain), so
    // |SQ| < (k + 2) * l + lambda0. Chains are sorted longest-first.
    const int32_t chain_qlen_bound = (chain.length + 2) * l + lambda0;
    if (best.has_value() && best->query.length() >= chain_qlen_bound) break;

    const CandidateRegion region = ExpandChain(
        chain, *catalog_, lambda, lambda0, static_cast<int32_t>(query.size()),
        db_->at(chain.seq).size());
    const Sequence<T>& seq = db_->at(chain.seq);

    const int32_t qlen_max = region.q_end_max - region.q_begin_min;
    bool found_in_chain = false;
    for (int32_t qlen = qlen_max; qlen >= lambda && !found_in_chain;
         --qlen) {
      if (best.has_value() && qlen <= best->query.length()) break;
      for (int32_t qb = region.q_begin_min;
           qb <= region.q_begin_max && !found_in_chain; ++qb) {
        const int32_t qe = qb + qlen;
        if (qe < region.q_end_min || qe > region.q_end_max) continue;
        const auto sq = query.subspan(static_cast<size_t>(qb),
                                      static_cast<size_t>(qlen));
        for (int32_t xb = region.x_begin_min;
             xb <= region.x_begin_max && !found_in_chain; ++xb) {
          const auto [xe_lo, xe_hi] =
              SxEndRange(region, xb, qlen, lambda, lambda0);
          for (int32_t xe = xe_lo; xe <= xe_hi; ++xe) {
            if (--(*budget) < 0) return false;
            if (stats != nullptr) ++stats->verifications;
            const auto sx = seq.Subsequence(Interval{xb, xe});
            const double d = dist_.ComputeBounded(sq, sx, epsilon);
            if (d <= epsilon) {
              best = SubsequenceMatch{chain.seq, Interval{qb, qe},
                                      Interval{xb, xe}, d};
              found_in_chain = true;  // qlen descends: first hit is max here
              break;
            }
          }
        }
      }
    }
  }
  *longest = best;
  return true;
}

template <typename T>
Result<std::vector<SubsequenceMatch>> SubsequenceMatcher<T>::RangeSearch(
    std::span<const T> query, double epsilon, MatchQueryStats* stats) const {
  const std::vector<SegmentHit> hits = FilterSegments(query, epsilon, stats);
  return RangeSearchFromHits(query, hits, epsilon, stats);
}

template <typename T>
Result<std::vector<SubsequenceMatch>> SubsequenceMatcher<T>::RangeSearchFromHits(
    std::span<const T> query, std::span<const SegmentHit> hits,
    double epsilon, MatchQueryStats* stats) const {
  // Expansion first: region i extends hits[i], inheriting the canonical
  // hit order — the order the serial walk verifies in and the parallel
  // merge below restores.
  std::vector<CandidateRegion> regions;
  regions.reserve(hits.size());
  for (const SegmentHit& hit : hits) {
    const WindowRef& ref = catalog_->at(hit.window);
    regions.push_back(ExpandHit(hit, *catalog_, options_.lambda,
                                options_.lambda0,
                                static_cast<int32_t>(query.size()),
                                db_->at(ref.seq).size()));
  }

  // Exact budget accounting before any verification: every region fully
  // charges its enumeration count (RegionVerificationCount mirrors the
  // verify loops pair for pair), so the running sum passing the cap <=>
  // the serial walk would run out of budget mid-stream. The serial path
  // performs exactly max_verifications distance computations before
  // raising; reproducing that count without burning the work keeps the
  // observables — status and stats — identical while the error path
  // costs nothing.
  int64_t total_cost = 0;
  for (const CandidateRegion& region : regions) {
    total_cost +=
        RegionVerificationCount(region, options_.lambda, options_.lambda0);
    if (total_cost > options_.max_verifications) {
      if (stats != nullptr) {
        stats->verifications += options_.max_verifications;
      }
      return Status::OutOfRange(
          "RangeSearch exceeded max_verifications; Type I enumerates all "
          "similar pairs — lower epsilon, raise max_verifications, or use "
          "LongestMatch/NearestMatch");
    }
  }

  std::vector<SubsequenceMatch> matches;
  std::set<MatchKey> seen;

  if (options_.exec.ResolvedThreads() <= 1 || regions.size() <= 1) {
    // The sequential reference path.
    for (const CandidateRegion& region : regions) {
      VerifyRegion(query, region, epsilon, stats,
                   [&](const SubsequenceMatch& m) {
                     if (seen.insert(KeyOf(m)).second) matches.push_back(m);
                   });
    }
    return matches;
  }

  // Parallel path: regions verify concurrently under chunked
  // work-stealing (per-region costs are skewed); matches land in
  // per-region slots and per-chunk stats roll up through the atomic
  // StatsSink. The merge below walks regions in order and, within a
  // region, keeps the verifier's ascending (SQ, SX) emission order — the
  // exact serial match order — so dedup keeps first occurrences
  // identically and the result is element-wise equal at any thread
  // count.
  std::vector<std::vector<SubsequenceMatch>> region_matches(regions.size());
  StatsSink verify_sink;
  ParallelForDynamic(
      options_.exec, static_cast<int64_t>(regions.size()),
      [&](int64_t lo, int64_t hi, int32_t) {
        MatchQueryStats local;
        for (int64_t i = lo; i < hi; ++i) {
          VerifyRegion(query, regions[static_cast<size_t>(i)], epsilon, &local,
                       [&](const SubsequenceMatch& m) {
                         region_matches[static_cast<size_t>(i)].push_back(m);
                       });
        }
        verify_sink.AddDistanceComputations(local.verifications);
      },
      /*grain=*/1);
  // Self-check of the exact accounting: the work done equals the cost
  // charged up front.
  SUBSEQ_CHECK(verify_sink.distance_computations() == total_cost);
  if (stats != nullptr) stats->verifications += total_cost;

  for (const std::vector<SubsequenceMatch>& in_region : region_matches) {
    for (const SubsequenceMatch& m : in_region) {
      if (seen.insert(KeyOf(m)).second) matches.push_back(m);
    }
  }
  return matches;
}

template <typename T>
Result<std::optional<SubsequenceMatch>> SubsequenceMatcher<T>::LongestMatch(
    std::span<const T> query, double epsilon, MatchQueryStats* stats) const {
  const std::vector<SegmentHit> hits = FilterSegments(query, epsilon, stats);
  return LongestMatchFromHits(query, hits, epsilon, stats);
}

template <typename T>
Result<std::optional<SubsequenceMatch>>
SubsequenceMatcher<T>::LongestMatchFromHits(std::span<const T> query,
                                            std::span<const SegmentHit> hits,
                                            double epsilon,
                                            MatchQueryStats* stats) const {
  int64_t budget = options_.max_verifications;
  std::optional<SubsequenceMatch> longest;
  if (!ChainSearch(query, hits, epsilon, &budget, stats, &longest)) {
    return Status::OutOfRange("LongestMatch exceeded max_verifications");
  }
  return longest;
}

template <typename T>
Result<std::optional<SubsequenceMatch>> SubsequenceMatcher<T>::NearestMatch(
    std::span<const T> query, double epsilon_max, double epsilon_increment,
    MatchQueryStats* stats) const {
  SUBSEQ_RETURN_NOT_OK(
      ValidateNearestSchedule(epsilon_max, epsilon_increment));
  const std::vector<SegmentHit> hits =
      FilterSegments(query, epsilon_max, stats);
  return NearestMatchFromHits(query, hits, epsilon_max, epsilon_increment,
                              stats);
}

template <typename T>
Result<std::optional<SubsequenceMatch>>
SubsequenceMatcher<T>::NearestMatchFromHits(std::span<const T> query,
                                            std::span<const SegmentHit> hits,
                                            double epsilon_max,
                                            double epsilon_increment,
                                            MatchQueryStats* stats) const {
  SUBSEQ_RETURN_NOT_OK(
      ValidateNearestSchedule(epsilon_max, epsilon_increment));
  // A similar pair at distance d produces a segment hit at epsilon = d
  // (Lemma 2), so no hits at epsilon_max means no pair at all. A query
  // shorter than lambda has no SQ with |SQ| >= lambda, so no round could
  // ever verify a pair: the schedule would rebuild chains for nothing.
  if (hits.empty() || static_cast<int32_t>(query.size()) < options_.lambda) {
    return std::optional<SubsequenceMatch>();
  }

  // A range query returns exactly the windows within epsilon, and every
  // hit carries its exact distance, so the hit set at any epsilon <=
  // epsilon_max is `hits` restricted to distance <= epsilon, canonical
  // order kept. The schedule below probes exactly the epsilons the
  // paper's algorithm does, reading each probe's hits off that
  // restriction instead of re-running step 4.
  double min_distance = hits.front().distance;
  for (const SegmentHit& hit : hits) {
    min_distance = std::min(min_distance, hit.distance);
  }

  // Binary-search the smallest epsilon that yields any segment hit.
  double lo = 0.0;
  double hi = epsilon_max;
  for (int iter = 0; iter < 48 && hi - lo > epsilon_increment / 2.0;
       ++iter) {
    const double mid = lo + (hi - lo) / 2.0;
    if (min_distance <= mid) {
      hi = mid;
    } else {
      lo = mid;
    }
  }

  // Grow epsilon until the Type II chain search verifies a pair. The
  // first success makes the current epsilon optimal up to the increment
  // (step 3 of the paper's Type III): a smaller epsilon was already
  // checked and produced nothing. The loop exits via the break below,
  // after a round at clamped == epsilon_max has run: terminating on the
  // unclamped eps overshooting would skip the final epsilon_max round
  // whenever (epsilon_max - hi) is not close to a multiple of the
  // increment, silently missing pairs with distance in the last partial
  // increment. max_verifications caps the query, so every round draws
  // on one budget.
  int64_t budget = options_.max_verifications;
  std::vector<SegmentHit> round_hits;
  round_hits.reserve(hits.size());
  for (double eps = hi;; eps += epsilon_increment) {
    const double clamped = std::min(eps, epsilon_max);
    round_hits.clear();
    for (const SegmentHit& hit : hits) {
      if (hit.distance <= clamped) round_hits.push_back(hit);
    }
    std::optional<SubsequenceMatch> found;
    if (!ChainSearch(query, round_hits, clamped, &budget, stats, &found)) {
      return Status::OutOfRange(
          "NearestMatch exceeded max_verifications across its growth rounds");
    }
    if (found.has_value()) return found;
    if (clamped >= epsilon_max) break;
  }
  return std::optional<SubsequenceMatch>();
}

template class SubsequenceMatcher<char>;
template class SubsequenceMatcher<double>;
template class SubsequenceMatcher<Point2d>;

}  // namespace subseq
