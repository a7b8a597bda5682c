// CoverTree — the tree baseline the paper compares against ("CT" in
// Figs. 8-11; Beygelzimer, Kakade & Langford, ICML 2006).
//
// Structurally the cover tree is the single-parent cousin of the reference
// net: base-2 levels, covering invariant d(parent, child) <= 2^i, and
// separation 2^i between same-level nodes. Because each node keeps exactly
// one parent, the structure is smaller (the paper: reference-net space is
// ~3-4x a cover tree for PROTEINS) but range queries prune less — a point
// within range of two references is only discoverable through one of them
// (Figure 2 of the paper).
//
// This implementation is deliberately independent of ReferenceNet (no
// shared machinery) so the two can cross-validate each other in tests.

#ifndef SUBSEQ_METRIC_COVER_TREE_H_
#define SUBSEQ_METRIC_COVER_TREE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "subseq/core/status.h"
#include "subseq/metric/range_index.h"

namespace subseq {

class SnapshotFile;
class SnapshotWriter;

/// Cover-tree tunables.
struct CoverTreeOptions {
  /// Radius of level 0 (2^0 scale). Matches ReferenceNetOptions for
  /// like-for-like comparisons.
  double base_radius = 1.0;
};

/// A (simplified, insertion-built) cover tree with exact range queries.
class CoverTree final : public RangeIndex {
 public:
  explicit CoverTree(const DistanceOracle& oracle,
                     CoverTreeOptions options = {});

  /// Builds a tree over all oracle objects (ids 0..size-1).
  static CoverTree BuildAll(const DistanceOracle& oracle,
                            CoverTreeOptions options = {});

  /// Inserts one object.
  Status Insert(ObjectId id);

  /// True if the object is currently indexed.
  bool Contains(ObjectId id) const;

  std::string_view name() const override { return "cover-tree"; }
  int32_t size() const override { return num_objects_; }

  std::vector<ObjectId> RangeQuery(const QueryDistanceFn& query,
                                   double epsilon,
                                   QueryStats* stats) const override;

  SpaceStats ComputeSpaceStats() const override;
  BuildStats build_stats() const override { return build_stats_; }

  /// Verifies covering, separation, single-parent reachability and the
  /// subtree radius bound. Test/diagnostic use (O(n^2) distances).
  std::optional<std::string> CheckInvariants() const;

  /// Appends this tree's snapshot sections ("<prefix>meta", "nodes",
  /// "lists", "edges", "dups") to `writer`. Canonical encoding.
  Status SaveSections(SnapshotWriter& writer, const std::string& prefix) const;

  /// Reconstructs a tree from snapshot sections. Validates covering
  /// levels, parent back-links, single-parent reachability, and a
  /// deterministic seeded sample of edge distances against the oracle;
  /// the stored base_radius must match `options`.
  static Result<std::unique_ptr<CoverTree>> LoadSections(
      const SnapshotFile& file, const std::string& prefix,
      const DistanceOracle& oracle, const CoverTreeOptions& options);

 private:
  /// A parent->child link with the exact parent-child distance (used for
  /// per-edge triangle bounds during range queries, mirroring the
  /// reference net so the two baselines are compared like-for-like).
  struct Edge {
    int32_t child = -1;
    double distance = 0.0;
  };

  struct Node {
    ObjectId object = kInvalidId;
    int32_t top_level = 0;
    int32_t parent = -1;
    // (list level k, members with top level k-1 within Radius(k)).
    std::vector<std::pair<int32_t, std::vector<Edge>>> lists;
    std::vector<ObjectId> duplicates;
  };

  double Radius(int32_t level) const;
  /// Tuned batch hook: the RangeQuery body over a caller-owned
  /// visited-marks buffer (resized and zeroed here), letting the default
  /// BatchRangeQuery reuse one allocation across a chunk's queries.
  std::vector<ObjectId> RangeQueryWithScratch(
      const QueryDistanceFn& query, double epsilon, QueryStats* stats,
      std::vector<uint8_t>* emitted) const override;
  std::vector<Edge>* FindList(Node& node, int32_t level);
  const std::vector<Edge>* FindList(const Node& node, int32_t level) const;
  void CollectSubtree(int32_t node_index, std::vector<ObjectId>* out,
                      std::vector<uint8_t>* emitted) const;

  const DistanceOracle& oracle_;
  CoverTreeOptions options_;
  std::vector<Node> nodes_;
  std::unordered_map<ObjectId, int32_t> object_node_;
  int32_t root_ = -1;
  int32_t num_objects_ = 0;
  BuildStats build_stats_;
};

}  // namespace subseq

#endif  // SUBSEQ_METRIC_COVER_TREE_H_
