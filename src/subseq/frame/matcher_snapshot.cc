// Snapshot persistence of SubsequenceMatcher (SaveIndex / LoadIndex /
// BuildToSnapshot) — the frame half of the snapshot subsystem.
//
// The frame layer owns the file layout; backends own only their own
// sections. A matcher snapshot is
//
//   catalog.meta          window length + sequence count
//   catalog.seq_lengths   int32 per sequence (database identity check)
//   idx.<kind>.top        IndexKind + partition (layout kind, requested
//                         part count) of one index block
//   idx.<kind>.*          the index sections: monolithic backend
//                         sections, or the partition layout followed by
//                         per-part backend sections (idx.<kind>.p<p>.*)
//
// Kind tokens (rn / ct / mv / ls) keep blocks of different kinds
// disjoint, so one file can host several matchers over one catalog (the
// serving layer saves all its kinds into one snapshot). Section append
// order is FIXED — Build + SaveIndex and the out-of-core BuildToSnapshot
// emit the same sections in the same order with the same bytes, which
// is what makes "out-of-core output == in-core output" testable as file
// equality.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "subseq/exec/peak_gauge.h"
#include "subseq/frame/matcher.h"
#include "subseq/metric/linear_scan.h"
#include "subseq/metric/partitioned_index.h"
#include "subseq/snapshot/reader.h"
#include "subseq/snapshot/writer.h"

namespace subseq {

namespace {

// Stable short token of an IndexKind, used in section names. Tokens are
// part of the on-disk format: never re-use or re-order ("vp", the retired
// vp-tree's token, included).
const char* IndexKindToken(IndexKind kind) {
  switch (kind) {
    case IndexKind::kReferenceNet: return "rn";
    case IndexKind::kCoverTree: return "ct";
    case IndexKind::kMvIndex: return "mv";
    case IndexKind::kLinearScan: return "ls";
  }
  return "??";
}

std::string IndexPrefix(IndexKind kind) {
  return std::string("idx.") + IndexKindToken(kind) + ".";
}

// "catalog.meta": the windowing parameters the index was built under.
struct CatalogMetaRec {
  int32_t window_length = 0;
  int32_t num_sequences = 0;
};
static_assert(sizeof(CatalogMetaRec) == 8);

// "epoch.meta": identity of a non-initial epoch. Present only when the
// matcher's epoch state is nontrivial (epoch_id != 0, retired
// sequences, or a base index narrower than the catalog) — snapshots of
// never-ingested matchers keep the pre-epoch byte layout, and legacy
// files load as epoch 0.
struct EpochMetaRec {
  uint64_t epoch_id = 0;
  int32_t base_windows = 0;
  // Retired SEQUENCES (the "epoch.tombstones" SeqId list's length); the
  // per-window mask is derived from the database at load time.
  int32_t num_tombstones = 0;
};
static_assert(sizeof(EpochMetaRec) == 16);

// "epoch.delta.meta": width of the delta scan, present iff the saved
// base index covers fewer windows than the catalog. The delta index is
// a LinearScan — pure derived state — so only its width is persisted;
// loading rebuilds it from the database.
struct EpochDeltaMetaRec {
  int32_t delta_windows = 0;
  int32_t reserved = 0;
};
static_assert(sizeof(EpochDeltaMetaRec) == 8);

// "idx.<kind>.top": what one index block holds — the partition the
// exec knobs resolved to when it was built (parts == 1: monolithic).
struct IndexBlockMetaRec {
  int32_t kind = 0;       // static_cast<int32_t>(IndexKind)
  int32_t partition = 0;  // static_cast<int32_t>(PartitionKind)
  int32_t parts = 0;      // requested (clamped) part count
  int32_t reserved = 0;
};
static_assert(sizeof(IndexBlockMetaRec) == 16);

IndexBlockMetaRec MakeIndexBlockMeta(IndexKind kind,
                                     const PartitionedIndexOptions& p) {
  IndexBlockMetaRec top;
  top.kind = static_cast<int32_t>(kind);
  top.partition = static_cast<int32_t>(p.kind);
  top.parts = p.num_parts;
  return top;
}

// "a monolithic index", "a 4-shard index", "a 16-cell routed index".
std::string DescribePartition(int32_t partition, int32_t parts) {
  if (parts == 1) return "a monolithic index";
  if (partition == static_cast<int32_t>(PartitionKind::kContiguous)) {
    return "a " + std::to_string(parts) + "-shard index";
  }
  if (partition == static_cast<int32_t>(PartitionKind::kKCenter)) {
    return "a " + std::to_string(parts) + "-cell routed index";
  }
  return "an index of unknown partition kind " + std::to_string(partition);
}

// Serializes one (monolithic or per-part) inner index of the given
// kind under `prefix`. The kind comes from the options the index was
// built with; a cast failure means the snapshot code and the build code
// disagree about what Build produced — an internal bug, not bad input.
Status SaveInnerSections(const RangeIndex& inner, IndexKind kind,
                         SnapshotWriter& writer, const std::string& prefix) {
  switch (kind) {
    case IndexKind::kReferenceNet:
    case IndexKind::kCoverTree: {
      const auto* net = dynamic_cast<const ReferenceNet*>(&inner);
      if (net == nullptr) break;
      return net->SaveSections(writer, prefix);
    }
    case IndexKind::kMvIndex: {
      const auto* mv = dynamic_cast<const MvIndex*>(&inner);
      if (mv == nullptr) break;
      return mv->SaveSections(writer, prefix);
    }
    case IndexKind::kLinearScan: {
      const auto* scan = dynamic_cast<const LinearScan*>(&inner);
      if (scan == nullptr) break;
      return scan->SaveSections(writer, prefix);
    }
  }
  return Status::Internal("index under '" + prefix +
                          "' is not the configured index_kind");
}

// Loads one inner index of the configured kind from sections under
// `prefix`. The MV-index aliases its pivot table out of the file, so it
// takes the shared_ptr; the others only copy.
Result<std::unique_ptr<RangeIndex>> LoadInnerSections(
    const std::shared_ptr<const SnapshotFile>& file,
    const std::string& prefix, const DistanceOracle& oracle,
    const MatcherOptions& options) {
  switch (options.index_kind) {
    case IndexKind::kReferenceNet:
    case IndexKind::kCoverTree: {
      auto net = ReferenceNet::LoadSections(*file, prefix, oracle,
                                            options.reference_net);
      SUBSEQ_RETURN_NOT_OK(net.status());
      return std::unique_ptr<RangeIndex>(std::move(net).ValueOrDie());
    }
    case IndexKind::kMvIndex: {
      auto mv =
          MvIndex::LoadSections(file, prefix, oracle, options.mv_index);
      SUBSEQ_RETURN_NOT_OK(mv.status());
      return std::unique_ptr<RangeIndex>(std::move(mv).ValueOrDie());
    }
    case IndexKind::kLinearScan: {
      auto scan = LinearScan::LoadSections(*file, prefix, oracle);
      SUBSEQ_RETURN_NOT_OK(scan.status());
      return std::unique_ptr<RangeIndex>(std::move(scan).ValueOrDie());
    }
  }
  return Status::InvalidArgument("unknown IndexKind");
}

// The index block under `prefix`: one backend of options.index_kind, or
// the partition layout followed by one backend per part.
Result<std::unique_ptr<RangeIndex>> LoadBaseIndex(
    const std::shared_ptr<const SnapshotFile>& file,
    const std::string& prefix, const DistanceOracle& oracle,
    const MatcherOptions& options, const PartitionedIndexOptions& partition) {
  if (partition.num_parts <= 1) {
    return LoadInnerSections(file, prefix, oracle, options);
  }
  auto loaded = PartitionedIndex::LoadSections(
      *file, prefix, oracle, partition,
      [&file, &options](const SnapshotFile&, const std::string& part_prefix,
                        const DistanceOracle& part_oracle, int32_t) {
        return LoadInnerSections(file, part_prefix, part_oracle, options);
      });
  SUBSEQ_RETURN_NOT_OK(loaded.status());
  return std::unique_ptr<RangeIndex>(std::move(loaded).ValueOrDie());
}

// The out-of-core cousin of matcher.cc's BuildKindIndex: builds one
// part's inner index, charging `gauge` as windows become resident. The
// insertion-built reference net (and so the cover tree) stages ascending
// ids in `batch_windows`-sized batches — the id order, and so the built
// structure, is identical at every batch size. Table-built backends
// materialize the whole part in their constructor, so the part is
// charged up front.
Result<std::unique_ptr<RangeIndex>> BuildPartBatched(
    const DistanceOracle& oracle, const MatcherOptions& options,
    int32_t batch_windows, ResidencyGauge* gauge) {
  const int32_t n = oracle.size();
  const int32_t batch = batch_windows > 0 ? std::min(batch_windows, n) : n;
  const bool incremental = options.index_kind == IndexKind::kReferenceNet ||
                           options.index_kind == IndexKind::kCoverTree;
  if (!incremental) {
    if (gauge != nullptr) gauge->Acquire(n);
    switch (options.index_kind) {
      case IndexKind::kMvIndex:
        return std::unique_ptr<RangeIndex>(
            std::make_unique<MvIndex>(oracle, options.mv_index));
      case IndexKind::kLinearScan:
        return std::unique_ptr<RangeIndex>(
            std::make_unique<LinearScan>(n));
      default:
        return Status::Internal("unexpected table-built IndexKind");
    }
  }

  auto net = std::make_unique<ReferenceNet>(oracle, options.reference_net);
  for (int32_t id = 0; id < n;) {
    const int32_t take = std::min(batch, n - id);
    if (gauge != nullptr) gauge->Acquire(take);
    for (int32_t i = 0; i < take; ++i) {
      SUBSEQ_RETURN_NOT_OK(net->Insert(id + i));
    }
    id += take;
  }
  return std::unique_ptr<RangeIndex>(std::move(net));
}

}  // namespace

template <typename T>
Status SubsequenceMatcher<T>::SaveCatalogSections(
    SnapshotWriter& writer) const {
  CatalogMetaRec meta;
  meta.window_length = catalog_->window_length();
  meta.num_sequences = static_cast<int32_t>(db_->size());
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodStruct("catalog.meta", meta));
  std::vector<int32_t> lengths;
  lengths.reserve(static_cast<size_t>(db_->size()));
  for (const auto& seq : *db_) lengths.push_back(seq.size());
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<int32_t>(
      "catalog.seq_lengths", std::span<const int32_t>(lengths)));

  // Epoch sections, only when nontrivial (see EpochMetaRec). A matcher
  // mid-ingest saves its BASE index plus these small sections; loading
  // re-derives the delta scan and the tombstone mask, so save -> load ->
  // save round-trips byte-stably at any epoch.
  const int32_t base_windows =
      base_ != nullptr ? base_->num_windows : catalog_->num_windows();
  if (db_->epoch_id() == 0 && db_->num_retired() == 0 &&
      base_windows == catalog_->num_windows()) {
    return Status::OK();
  }
  EpochMetaRec epoch;
  epoch.epoch_id = db_->epoch_id();
  epoch.base_windows = base_windows;
  epoch.num_tombstones = db_->num_retired();
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodStruct("epoch.meta", epoch));
  if (epoch.num_tombstones > 0) {
    std::vector<SeqId> retired;
    retired.reserve(static_cast<size_t>(epoch.num_tombstones));
    for (SeqId s = 0; s < db_->size(); ++s) {
      if (db_->is_retired(s)) retired.push_back(s);
    }
    SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<SeqId>(
        "epoch.tombstones", std::span<const SeqId>(retired)));
  }
  if (base_windows < catalog_->num_windows()) {
    EpochDeltaMetaRec delta;
    delta.delta_windows = catalog_->num_windows() - base_windows;
    SUBSEQ_RETURN_NOT_OK(writer.AppendPodStruct("epoch.delta.meta", delta));
  }
  return Status::OK();
}

template <typename T>
Status SubsequenceMatcher<T>::SaveIndexSections(SnapshotWriter& writer) const {
  // Only the BASE index is serialized; the delta scan and tombstone mask
  // are derived state re-created at load time from the epoch sections.
  const IndexKind kind = options_.index_kind;
  const std::string prefix = IndexPrefix(kind);
  const RangeIndex* index = base_->index.get();
  const auto* partitioned = dynamic_cast<const PartitionedIndex*>(index);
  PartitionedIndexOptions partition;
  partition.num_parts = 1;
  if (partitioned != nullptr) {
    partition.kind = partitioned->layout().kind;
    partition.num_parts = partitioned->layout().requested_parts;
  }
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodStruct(
      prefix + "top", MakeIndexBlockMeta(kind, partition)));
  if (partitioned == nullptr) {
    return SaveInnerSections(*index, kind, writer, prefix);
  }
  return partitioned->SaveSections(
      writer, prefix,
      [kind](const RangeIndex& inner, SnapshotWriter& w,
             const std::string& inner_prefix) {
        return SaveInnerSections(inner, kind, w, inner_prefix);
      });
}

template <typename T>
Status SubsequenceMatcher<T>::SaveIndex(const std::string& path) const {
  auto writer = SnapshotWriter::Create(path);
  SUBSEQ_RETURN_NOT_OK(writer.status());
  SnapshotWriter& w = *writer.value();
  SUBSEQ_RETURN_NOT_OK(SaveCatalogSections(w));
  SUBSEQ_RETURN_NOT_OK(SaveIndexSections(w));
  return w.Finish();
}

template <typename T>
Result<std::unique_ptr<SubsequenceMatcher<T>>>
SubsequenceMatcher<T>::LoadIndexFrom(const SequenceDatabase<T>& db,
                                     const SequenceDistance<T>& dist,
                                     MatcherOptions options,
                                     std::shared_ptr<const SnapshotFile> file) {
  if (file == nullptr) {
    return Status::InvalidArgument("LoadIndexFrom requires an open snapshot");
  }
  auto shell = MakeShell(db, dist, std::move(options));
  SUBSEQ_RETURN_NOT_OK(shell.status());
  auto matcher = std::move(shell).ValueOrDie();
  const MatcherOptions& resolved = matcher->options_;

  // The snapshot is an index over a specific database partition; verify
  // the caller supplied that database before trusting any stored id.
  CatalogMetaRec meta;
  SUBSEQ_RETURN_NOT_OK(ReadPodStruct(*file, "catalog.meta", &meta));
  if (meta.window_length != matcher->catalog_->window_length()) {
    return Status::InvalidArgument(
        "snapshot '" + file->path() + "' was built with window length " +
        std::to_string(meta.window_length) + " (lambda = " +
        std::to_string(2 * meta.window_length) + "), but options request " +
        std::to_string(matcher->catalog_->window_length()) +
        " — a loaded index must equal the fresh build it replaces");
  }
  if (meta.num_sequences != db.size()) {
    return Status::InvalidArgument(
        "snapshot '" + file->path() + "' indexes " +
        std::to_string(meta.num_sequences) + " sequences but the database "
        "has " + std::to_string(db.size()) +
        " — snapshots must be loaded against the database they were built "
        "from");
  }
  auto lengths = PodSectionView<int32_t>(*file, "catalog.seq_lengths");
  SUBSEQ_RETURN_NOT_OK(lengths.status());
  if (lengths.value().size() != static_cast<size_t>(meta.num_sequences)) {
    return Status::InvalidArgument(
        "snapshot '" + file->path() + "' section 'catalog.seq_lengths' "
        "holds " + std::to_string(lengths.value().size()) +
        " lengths, expected " + std::to_string(meta.num_sequences));
  }
  for (int32_t s = 0; s < meta.num_sequences; ++s) {
    if (lengths.value()[static_cast<size_t>(s)] != db.at(s).size()) {
      return Status::InvalidArgument(
          "snapshot '" + file->path() + "' sequence " + std::to_string(s) +
          " had length " +
          std::to_string(lengths.value()[static_cast<size_t>(s)]) +
          " at save time but the database supplies " +
          std::to_string(db.at(s).size()) +
          " — snapshots must be loaded against the database they were "
          "built from");
    }
  }

  // Epoch identity: a snapshot captures one exact epoch, so the caller
  // must supply the database at that epoch — same epoch id, same retired
  // set. Files without epoch sections are epoch 0 (pre-ingest format).
  EpochMetaRec epoch;
  if (file->has_section("epoch.meta")) {
    SUBSEQ_RETURN_NOT_OK(ReadPodStruct(*file, "epoch.meta", &epoch));
  } else {
    epoch.base_windows = matcher->catalog_->num_windows();
  }
  if (epoch.epoch_id != db.epoch_id()) {
    return Status::InvalidArgument(
        "snapshot '" + file->path() + "' captures epoch " +
        std::to_string(epoch.epoch_id) + " but the database is at epoch " +
        std::to_string(db.epoch_id()) +
        " — snapshots must be loaded against the epoch they were saved at");
  }
  if (epoch.num_tombstones != db.num_retired()) {
    return Status::InvalidArgument(
        "snapshot '" + file->path() + "' records " +
        std::to_string(epoch.num_tombstones) +
        " retired sequences but the database has " +
        std::to_string(db.num_retired()) +
        " — snapshots must be loaded against the epoch they were saved at");
  }
  if (epoch.num_tombstones > 0) {
    auto tombs = PodSectionView<SeqId>(*file, "epoch.tombstones");
    SUBSEQ_RETURN_NOT_OK(tombs.status());
    if (tombs.value().size() != static_cast<size_t>(epoch.num_tombstones)) {
      return Status::InvalidArgument(
          "snapshot '" + file->path() + "' section 'epoch.tombstones' "
          "holds " + std::to_string(tombs.value().size()) +
          " entries, expected " + std::to_string(epoch.num_tombstones));
    }
    for (const SeqId s : tombs.value()) {
      if (s < 0 || s >= db.size() || !db.is_retired(s)) {
        return Status::InvalidArgument(
            "snapshot '" + file->path() + "' tombstones sequence " +
            std::to_string(s) +
            ", which the database does not retire — snapshots must be "
            "loaded against the epoch they were saved at");
      }
    }
  }
  const int32_t num_windows = matcher->catalog_->num_windows();
  if (epoch.base_windows < 0 || epoch.base_windows > num_windows) {
    return Status::InvalidArgument(
        "snapshot '" + file->path() + "' records a base of " +
        std::to_string(epoch.base_windows) + " windows but the catalog "
        "holds " + std::to_string(num_windows) + " — the file is corrupted");
  }
  if (epoch.base_windows < num_windows) {
    EpochDeltaMetaRec delta;
    SUBSEQ_RETURN_NOT_OK(ReadPodStruct(*file, "epoch.delta.meta", &delta));
    if (delta.delta_windows != num_windows - epoch.base_windows) {
      return Status::InvalidArgument(
          "snapshot '" + file->path() + "' records " +
          std::to_string(delta.delta_windows) + " delta windows but the "
          "catalog implies " +
          std::to_string(num_windows - epoch.base_windows) +
          " — the file is corrupted");
    }
  }

  const std::string prefix = IndexPrefix(resolved.index_kind);
  const std::string top_name = prefix + "top";
  if (!file->has_section(top_name)) {
    return Status::NotFound(
        "snapshot '" + file->path() + "' has no index block for kind '" +
        IndexKindToken(resolved.index_kind) + "' (no section '" + top_name +
        "'); it was saved under a different index_kind");
  }
  IndexBlockMetaRec top;
  SUBSEQ_RETURN_NOT_OK(ReadPodStruct(*file, top_name, &top));
  if (top.kind != static_cast<int32_t>(resolved.index_kind)) {
    return Status::InvalidArgument(
        "snapshot '" + file->path() + "' section '" + top_name +
        "' records kind " + std::to_string(top.kind) +
        ", which contradicts its own name — the file is corrupted");
  }
  // The partition resolves against the BASE width: the saved index was
  // built when the catalog held base_windows windows, so that is the
  // object count its layout was resolved over.
  const PartitionedIndexOptions partition =
      ResolvePartition(resolved.exec, epoch.base_windows);
  if (top.partition != static_cast<int32_t>(partition.kind) ||
      top.parts != partition.num_parts) {
    return Status::InvalidArgument(
        "snapshot '" + file->path() + "' holds " +
        DescribePartition(top.partition, top.parts) +
        " but the options resolve to " +
        DescribePartition(static_cast<int32_t>(partition.kind),
                          partition.num_parts) +
        "; set exec.num_shards / exec.routing_cells as they were at save "
        "time — a loaded index must equal the fresh build it replaces");
  }

  // A mid-ingest snapshot's base index covers only the first
  // base_windows windows of the current catalog; wire it over a clipped
  // prefix view so stored ids resolve identically to the epoch it was
  // saved at. AdoptBase then rebuilds the delta scan over the remainder.
  std::unique_ptr<PrefixOracle> prefix_oracle;
  const DistanceOracle* load_oracle = matcher->oracle_.get();
  if (epoch.base_windows < num_windows) {
    prefix_oracle =
        std::make_unique<PrefixOracle>(*matcher->oracle_, epoch.base_windows);
    load_oracle = prefix_oracle.get();
  }

  auto index =
      LoadBaseIndex(file, prefix, *load_oracle, resolved, partition);
  SUBSEQ_RETURN_NOT_OK(index.status());
  matcher->AdoptBase(std::move(index).ValueOrDie(),
                     std::move(prefix_oracle), std::move(file),
                     epoch.base_windows);
  return matcher;
}

template <typename T>
Result<std::unique_ptr<SubsequenceMatcher<T>>>
SubsequenceMatcher<T>::LoadIndex(const SequenceDatabase<T>& db,
                                 const SequenceDistance<T>& dist,
                                 MatcherOptions options,
                                 const std::string& path) {
  auto file = SnapshotFile::Open(path, options.snapshot_load_mode);
  SUBSEQ_RETURN_NOT_OK(file.status());
  return LoadIndexFrom(db, dist, std::move(options),
                       std::move(file).ValueOrDie());
}

template <typename T>
Status SubsequenceMatcher<T>::BuildToSnapshot(
    const SequenceDatabase<T>& db, const SequenceDistance<T>& dist,
    MatcherOptions options, const std::string& path,
    const SnapshotBuildOptions& build, ResidencyGauge* gauge) {
  auto shell = MakeShell(db, dist, std::move(options));
  SUBSEQ_RETURN_NOT_OK(shell.status());
  auto matcher = std::move(shell).ValueOrDie();
  const MatcherOptions& resolved = matcher->options_;
  if (build.batch_windows < 0) {
    return Status::InvalidArgument(
        "SnapshotBuildOptions.batch_windows must be >= 0 (0 = one batch "
        "per part)");
  }

  auto writer = SnapshotWriter::Create(path);
  SUBSEQ_RETURN_NOT_OK(writer.status());
  SnapshotWriter& w = *writer.value();
  SUBSEQ_RETURN_NOT_OK(matcher->SaveCatalogSections(w));

  const IndexKind kind = resolved.index_kind;
  const std::string prefix = IndexPrefix(kind);
  const DistanceOracle& oracle = *matcher->oracle_;
  const int32_t n = oracle.size();
  const PartitionedIndexOptions partition =
      ResolvePartition(resolved.exec, n);
  SUBSEQ_RETURN_NOT_OK(
      w.AppendPodStruct(prefix + "top", MakeIndexBlockMeta(kind, partition)));

  // One part alive at a time: build, serialize, free — the whole point
  // of the streamed path. The part views reproduce exactly what
  // PartitionedIndex::Build hands its factory, so every part's sections
  // are byte-identical to the in-core save.
  const auto build_and_save = [&](const DistanceOracle& part_oracle,
                                  const std::string& part_prefix) {
    auto inner = BuildPartBatched(part_oracle, resolved, build.batch_windows,
                                  gauge);
    SUBSEQ_RETURN_NOT_OK(inner.status());
    SUBSEQ_RETURN_NOT_OK(
        SaveInnerSections(*inner.value(), kind, w, part_prefix));
    std::move(inner).ValueOrDie().reset();
    if (gauge != nullptr) gauge->Release(part_oracle.size());
    return Status::OK();
  };
  if (partition.num_parts <= 1) {
    SUBSEQ_RETURN_NOT_OK(build_and_save(oracle, prefix));
    return w.Finish();
  }
  // k-center selection reads the whole catalog (charged up front — that
  // decision cannot stream); a contiguous split reads nothing.
  const bool whole_catalog = partition.kind == PartitionKind::kKCenter;
  if (gauge != nullptr && whole_catalog) gauge->Acquire(n);
  const PartitionLayout layout = PartitionLayout::Make(
      oracle, partition.kind, partition.num_parts, resolved.exec);
  if (gauge != nullptr && whole_catalog) gauge->Release(n);
  SUBSEQ_RETURN_NOT_OK(
      PartitionedIndex::SaveLayoutSections(layout, w, prefix));
  for (int32_t p = 0; p < layout.num_parts(); ++p) {
    SUBSEQ_RETURN_NOT_OK(
        build_and_save(PartOracle(oracle, layout, p),
                       PartitionedIndex::PartPrefix(prefix, p)));
  }
  return w.Finish();
}

// The snapshot members live in this translation unit, so the class-level
// explicit instantiations in matcher.cc cannot see them; they are
// instantiated here instead.
#define SUBSEQ_INSTANTIATE_MATCHER_SNAPSHOT(T)                               \
  template Status SubsequenceMatcher<T>::SaveIndex(const std::string&)       \
      const;                                                                 \
  template Status SubsequenceMatcher<T>::SaveCatalogSections(                \
      SnapshotWriter&) const;                                                \
  template Status SubsequenceMatcher<T>::SaveIndexSections(SnapshotWriter&)  \
      const;                                                                 \
  template Result<std::unique_ptr<SubsequenceMatcher<T>>>                    \
  SubsequenceMatcher<T>::LoadIndex(const SequenceDatabase<T>&,               \
                                   const SequenceDistance<T>&,               \
                                   MatcherOptions, const std::string&);      \
  template Result<std::unique_ptr<SubsequenceMatcher<T>>>                    \
  SubsequenceMatcher<T>::LoadIndexFrom(const SequenceDatabase<T>&,           \
                                       const SequenceDistance<T>&,           \
                                       MatcherOptions,                       \
                                       std::shared_ptr<const SnapshotFile>); \
  template Status SubsequenceMatcher<T>::BuildToSnapshot(                    \
      const SequenceDatabase<T>&, const SequenceDistance<T>&,                \
      MatcherOptions, const std::string&, const SnapshotBuildOptions&,       \
      ResidencyGauge*);

SUBSEQ_INSTANTIATE_MATCHER_SNAPSHOT(char)
SUBSEQ_INSTANTIATE_MATCHER_SNAPSHOT(double)
SUBSEQ_INSTANTIATE_MATCHER_SNAPSHOT(Point2d)

#undef SUBSEQ_INSTANTIATE_MATCHER_SNAPSHOT

}  // namespace subseq
