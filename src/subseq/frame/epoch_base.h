// EpochBase<T> — the immutable base half of an epoch-versioned matcher.
//
// Live ingest splits a matcher's index state HTAP-style: an expensive
// immutable BASE index over the windows that existed at the base epoch,
// plus a small per-matcher LinearScan DELTA over windows appended since
// (frame/matcher.h). Deriving a new epoch (Append/Retire) shares the
// base by shared_ptr — only the cheap delta, its scan-cascade feature
// table and the tombstone mask are rebuilt — so the base index, the
// oracle it references, and the database storage backing both must
// live in one shared, heap-stable object that outlives every matcher of
// any descendant epoch. That object is EpochBase.

#ifndef SUBSEQ_FRAME_EPOCH_BASE_H_
#define SUBSEQ_FRAME_EPOCH_BASE_H_

#include <memory>
#include <span>

#include "subseq/core/sequence.h"
#include "subseq/frame/window_oracle.h"
#include "subseq/frame/windowing.h"
#include "subseq/metric/oracle.h"
#include "subseq/metric/range_index.h"

namespace subseq {

class SnapshotFile;
struct LbFeatureTable;

/// A prefix view of a DistanceOracle: the first `size` objects with
/// unchanged ids. Used when a mid-ingest snapshot is loaded: the stored
/// base index covers only the first base_windows windows of the (larger)
/// current catalog, so it is wired to this clipped view instead of the
/// full oracle. Ids are NOT remapped (a prefix is the identity map),
/// and lower-bound payload requests forward to the parent when it is a
/// LowerBoundPayloadSource — routed cells keep their cascade pruning
/// through the clip.
class PrefixOracle final : public DistanceOracle,
                           public LowerBoundPayloadSource {
 public:
  PrefixOracle(const DistanceOracle& parent, int32_t size)
      : parent_(parent),
        payloads_(dynamic_cast<const LowerBoundPayloadSource*>(&parent)),
        size_(size) {}

  int32_t size() const override { return size_; }

  double Distance(ObjectId a, ObjectId b) const override {
    return parent_.Distance(a, b);
  }

  double DistanceBounded(ObjectId a, ObjectId b,
                         double upper_bound) const override {
    return parent_.DistanceBounded(a, b, upper_bound);
  }

  std::shared_ptr<const LowerBoundPayloads> MaterializeLbPayloads(
      std::span<const ObjectId> members) const override {
    return payloads_ != nullptr ? payloads_->MaterializeLbPayloads(members)
                                : nullptr;
  }

 private:
  const DistanceOracle& parent_;
  const LowerBoundPayloadSource* payloads_;
  int32_t size_;
};

/// The shared immutable core of one base epoch: the database snapshot,
/// catalog, and window oracle the base index was built over, and the
/// index itself. Heap-allocated behind shared_ptr<const EpochBase> and
/// never mutated after construction, so matchers of descendant epochs
/// (and in-flight queries holding them) share it safely across threads.
template <typename T>
struct EpochBase {
  /// The database as of the base epoch (kept alive for the oracle; the
  /// element storage is shared with every descendant epoch's database).
  std::shared_ptr<const SequenceDatabase<T>> db;
  /// Catalog / oracle the index references. The catalog may cover MORE
  /// windows than the index (a mid-ingest load reuses the current
  /// epoch's catalog); the index itself never probes past num_windows.
  std::shared_ptr<const WindowCatalog> catalog;
  std::shared_ptr<const WindowOracle<T>> oracle;
  /// Non-null only when the index was loaded over a clipped view
  /// (snapshot base_windows < current windows); the index references
  /// *prefix, which references *oracle.
  std::unique_ptr<PrefixOracle> prefix;
  /// The base index, over the first num_windows windows.
  std::unique_ptr<RangeIndex> index;
  /// Non-null iff the index was loaded from a snapshot whose bytes a
  /// backend may still alias (mmap mode); keeps the mapping alive.
  std::shared_ptr<const SnapshotFile> snapshot;
  /// Windows the base index covers: ids [0, num_windows).
  int32_t num_windows = 0;
  /// The scan cascade's feature table of the base windows
  /// (frame/lb_prefilter.h), shared by every epoch derived from this
  /// base. Non-null only when the base index is itself a linear scan and
  /// the prefilter reads features for the distance: a tree never reads
  /// it, and each epoch's delta scan reads its own table.
  std::shared_ptr<const LbFeatureTable> lb_features;
};

}  // namespace subseq

#endif  // SUBSEQ_FRAME_EPOCH_BASE_H_
