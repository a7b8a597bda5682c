// ReferenceNet — the paper's novel metric index (Section 6, Appendix A).
//
// A hierarchical structure with levels i carrying radius eps_i = eps' * 2^i.
// Each reference R(i, j) keeps lists L(i, j) of references from the level
// below within eps_i; unlike a cover tree a node may appear in the lists of
// *multiple* parents (Figure 2 of the paper shows why this helps range
// queries), and the per-node number of parents can be capped (num_max,
// "DFD-5" / "RN-5" in the paper's experiments) to keep space linear under
// skewed distance distributions.
//
// Implementation notes:
//  * A node is stored once, at its highest (top) level, and is implicitly
//    present at every level below ("we just keep each reference only in
//    the highest level"). Its child lists are keyed by *list level* k:
//    the list at level k holds nodes with top level k-1 within Radius(k).
//  * Levels may be negative (points closer than eps' descend below level
//    0); exact duplicates (distance 0) attach to the representative node
//    instead of descending forever.
//  * The subtree of a node with top level t is contained in a ball of
//    radius sum_{k<=t} Radius(k) < Radius(t+1) around it; this is the
//    paper's Lemma 4 bound (with eps'=1: 2^{i+1}) and drives both the
//    include-all and prune-all decisions of the range query.

#ifndef SUBSEQ_METRIC_REFERENCE_NET_H_
#define SUBSEQ_METRIC_REFERENCE_NET_H_

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "subseq/core/status.h"
#include "subseq/metric/range_index.h"

namespace subseq {

class SnapshotFile;
class SnapshotWriter;

/// Tunables of the reference net.
struct ReferenceNetOptions {
  /// eps' — the radius of level 0. The paper's experiments use 1.0.
  double base_radius = 1.0;
  /// num_max — the maximum number of parent lists a node may appear in;
  /// 0 means unlimited (the paper's unconstrained variant).
  int32_t max_parents = 0;
  /// Thread budget for construction: each insert batches its per-level
  /// candidate-distance computations (the O(n * refs) hot path) over
  /// these threads. The net built is identical at any setting.
  ExecContext exec;
};

/// The reference net index. The oracle must outlive the index.
class ReferenceNet final : public RangeIndex {
 public:
  explicit ReferenceNet(const DistanceOracle& oracle,
                        ReferenceNetOptions options = {});

  /// Builds a net over all oracle objects (ids 0..size-1).
  static ReferenceNet BuildAll(const DistanceOracle& oracle,
                               ReferenceNetOptions options = {});

  /// Inserts one object (Appendix A.1). Idempotence: inserting an already
  /// present object returns AlreadyExists.
  Status Insert(ObjectId id);

  /// Removes one object (Appendix A.2). Children left without a parent are
  /// cascaded out and re-inserted; deleting the root representative
  /// rebuilds the net from the remaining objects.
  Status Delete(ObjectId id);

  /// True if the object is currently indexed.
  bool Contains(ObjectId id) const;

  std::string_view name() const override { return "reference-net"; }
  int32_t size() const override { return num_objects_; }

  /// Range query (Algorithm 3 with Lemma 4 and per-edge triangle
  /// bounds). Every dequeued node is billed one distance computation.
  ///
  /// Node gate: when `query` carries a PrunableQueryFn lower bound, each
  /// dequeued node first evaluates it at `n.object + lb_offset`. A node
  /// with exact distance d contributes nothing to the walk (no hit, no
  /// mark, no enqueued child) iff d > epsilon and every child list is
  /// skipped, i.e. d - Radius(L + 1) > epsilon for the node's highest
  /// list level L. So the walk skips the exact call whenever the bound
  /// exceeds LowerBoundPruneCutoff(t), with t = epsilon for a node with
  /// no lists and t = epsilon + Radius(L + 1) otherwise. The walk, its
  /// hits and its billed distance_computations are identical with or
  /// without a bound; gated nodes are reported in lower_bound_pruned
  /// (and the bound's stage counter, e.g. lb_erp_pruned).
  std::vector<ObjectId> RangeQuery(const QueryDistanceFn& query,
                                   double epsilon,
                                   QueryStats* stats) const override;

  SpaceStats ComputeSpaceStats() const override;
  BuildStats build_stats() const override { return build_stats_; }

  const ReferenceNetOptions& options() const { return options_; }

  /// Verifies the structural invariants (inclusive & exclusive properties,
  /// list-level consistency, reachability, subtree radius bound, parent
  /// cap). Returns a description of the first violation, or nullopt.
  /// O(n^2) distance computations — test/diagnostic use only.
  std::optional<std::string> CheckInvariants() const;

  /// Level of the root node (diagnostics).
  int32_t root_level() const;

  /// A structure-only snapshot of one node, used by the snapshot
  /// sections (SaveSections / LoadSections). Children are referenced by
  /// *object id*, making the export independent of internal node
  /// indices.
  struct ExportedNode {
    ObjectId object = kInvalidId;
    int32_t top_level = 0;
    std::vector<ObjectId> duplicates;
    // (list level, child object, stored parent-child distance).
    std::vector<std::tuple<int32_t, ObjectId, double>> edges;
  };

  /// Snapshots every live node; the root is first. Deterministic.
  std::vector<ExportedNode> Export() const;

  /// Rebuilds a net from a snapshot over the given oracle. Validates
  /// level structure, parent links and a deterministic seeded sample of
  /// edge distances (every edge for small nets); fails with
  /// InvalidArgument on any inconsistency.
  static Result<ReferenceNet> Import(const DistanceOracle& oracle,
                                     ReferenceNetOptions options,
                                     const std::vector<ExportedNode>& nodes);

  /// Appends this net's binary snapshot sections ("<prefix>meta",
  /// "nodes", "dups", "edges") to `writer` — Export() flattened into
  /// POD arrays. Canonical: re-saving a loaded net reproduces the bytes
  /// exactly.
  Status SaveSections(SnapshotWriter& writer, const std::string& prefix) const;

  /// Reconstructs a net from binary snapshot sections via Import() (all
  /// of Import's structural validation and its seeded distance
  /// spot-check apply). The stored base_radius/max_parents must match
  /// `options`.
  static Result<std::unique_ptr<ReferenceNet>> LoadSections(
      const SnapshotFile& file, const std::string& prefix,
      const DistanceOracle& oracle, const ReferenceNetOptions& options);

 private:
  /// A parent->child link, annotated with the exact parent-child distance
  /// so range queries can apply per-edge triangle bounds (this is what
  /// lets every parent of a multi-parented node independently include or
  /// prune it — the paper's Figure 2 argument).
  struct Edge {
    int32_t child = -1;
    double distance = 0.0;
  };

  struct Node {
    ObjectId object = kInvalidId;
    int32_t top_level = 0;
    bool alive = false;
    // Node indices of parents (nodes whose list contains this node).
    std::vector<int32_t> parents;
    // (list level k, members) pairs; members have top level k-1 and are
    // within Radius(k) of this node. Kept sorted by level descending.
    std::vector<std::pair<int32_t, std::vector<Edge>>> lists;
    // Objects at distance 0 from `object`.
    std::vector<ObjectId> duplicates;
  };

  double Radius(int32_t level) const;
  int32_t NewNode(ObjectId id, int32_t top_level);
  std::vector<Edge>* FindList(Node& node, int32_t level);
  const std::vector<Edge>* FindList(const Node& node, int32_t level) const;
  void AddToList(int32_t parent, int32_t list_level, int32_t child,
                 double distance);

  /// Tuned batch hook: the RangeQuery body over a caller-owned buffer of
  /// per-node marks (resized and zeroed here), so one BatchRangeQuery
  /// chunk allocates them once. RangeQuery forwards here with a local
  /// buffer; the walk and its output order are the same either way.
  std::vector<ObjectId> RangeQueryWithScratch(
      const QueryDistanceFn& query, double epsilon, QueryStats* stats,
      std::vector<uint8_t>* marks) const override;

  /// Adds the objects (representative + duplicates) of every node in the
  /// subtree rooted at `node_index` to `out`, setting each node's
  /// emitted mark in `marks`.
  void CollectSubtree(int32_t node_index, std::vector<ObjectId>* out,
                      std::vector<uint8_t>* marks) const;

  /// Removes node `ni` structurally; appends its objects to `objects` and
  /// newly orphaned children to `orphans`.
  void RemoveNodeStructurally(int32_t ni, std::vector<ObjectId>* objects,
                              std::vector<int32_t>* orphans);

  const DistanceOracle& oracle_;
  ReferenceNetOptions options_;
  std::vector<Node> nodes_;
  std::vector<int32_t> free_nodes_;
  std::unordered_map<ObjectId, int32_t> object_node_;
  int32_t root_ = -1;
  int32_t num_objects_ = 0;
  BuildStats build_stats_;
};

}  // namespace subseq

#endif  // SUBSEQ_METRIC_REFERENCE_NET_H_
