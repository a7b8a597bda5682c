#include "subseq/metric/reference_net.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>

#include "subseq/distance/distance.h"

#include "subseq/core/check.h"
#include "subseq/core/rng.h"
#include "subseq/exec/parallel_for.h"
#include "subseq/snapshot/reader.h"
#include "subseq/snapshot/writer.h"

namespace subseq {

namespace {

// Per-node range-query marks, two bits of one byte so a single buffer
// serves a whole BatchRangeQuery chunk: the node was queued for a visit,
// and the node's objects were emitted or its subtree was closed.
constexpr uint8_t kEnqueued = 1;
constexpr uint8_t kEmitted = 2;

}  // namespace

ReferenceNet::ReferenceNet(const DistanceOracle& oracle,
                           ReferenceNetOptions options)
    : oracle_(oracle), options_(options) {
  SUBSEQ_CHECK(options_.base_radius > 0.0);
  SUBSEQ_CHECK(options_.max_parents >= 0);
}

ReferenceNet ReferenceNet::BuildAll(const DistanceOracle& oracle,
                                    ReferenceNetOptions options) {
  ReferenceNet net(oracle, options);
  for (ObjectId id = 0; id < oracle.size(); ++id) {
    const Status s = net.Insert(id);
    SUBSEQ_CHECK(s.ok());
  }
  return net;
}

double ReferenceNet::Radius(int32_t level) const {
  return std::ldexp(options_.base_radius, level);
}

int32_t ReferenceNet::NewNode(ObjectId id, int32_t top_level) {
  int32_t ni;
  if (!free_nodes_.empty()) {
    ni = free_nodes_.back();
    free_nodes_.pop_back();
    nodes_[static_cast<size_t>(ni)] = Node{};
  } else {
    ni = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& n = nodes_[static_cast<size_t>(ni)];
  n.object = id;
  n.top_level = top_level;
  n.alive = true;
  object_node_[id] = ni;
  return ni;
}

std::vector<ReferenceNet::Edge>* ReferenceNet::FindList(Node& node,
                                                         int32_t level) {
  for (auto& [lvl, members] : node.lists) {
    if (lvl == level) return &members;
  }
  return nullptr;
}

const std::vector<ReferenceNet::Edge>* ReferenceNet::FindList(
    const Node& node, int32_t level) const {
  for (const auto& [lvl, members] : node.lists) {
    if (lvl == level) return &members;
  }
  return nullptr;
}

void ReferenceNet::AddToList(int32_t parent, int32_t list_level,
                             int32_t child, double distance) {
  Node& p = nodes_[static_cast<size_t>(parent)];
  std::vector<Edge>* list = FindList(p, list_level);
  if (list == nullptr) {
    p.lists.emplace_back(list_level, std::vector<Edge>{});
    // Keep lists sorted by level descending (top-down traversal order).
    std::sort(p.lists.begin(), p.lists.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    list = FindList(p, list_level);
  }
  list->push_back(Edge{child, distance});
  nodes_[static_cast<size_t>(child)].parents.push_back(parent);
}

Status ReferenceNet::Insert(ObjectId id) {
  if (Contains(id)) {
    return Status::AlreadyExists("object already in reference net");
  }
  ++num_objects_;
  if (root_ < 0) {
    root_ = NewNode(id, 0);
    return Status::OK();
  }

  // Distance cache: one oracle call per touched node per insert. Bounded
  // (early-abandoned) computations are safe to cache because the bounds
  // used during the descent only shrink: a cached value that is exact up
  // to some bound stays exact for every later, smaller bound, and a
  // cached "> bound" marker stays a valid rejection.
  std::unordered_map<int32_t, double> cache;
  auto dist = [&](int32_t ni, double bound) {
    auto it = cache.find(ni);
    if (it != cache.end()) return it->second;
    const double d = oracle_.DistanceBounded(
        id, nodes_[static_cast<size_t>(ni)].object, bound);
    ++build_stats_.distance_computations;
    cache.emplace(ni, d);
    return d;
  };

  // Batched variant of `dist`: computes every uncached node of `nis` at a
  // common bound in one ParallelFor pass, then seeds the cache so the
  // sequential decision scan below is pure lookups. Each distance lands
  // in an index-addressed slot and the cache is filled on the calling
  // thread, so the descent — and the finished net — is identical at any
  // thread count. Tradeoff vs the old lazy scan: a duplicate insert
  // (d == 0 found mid-level) now pays for the level's remaining
  // candidates too; build_stats_ still counts exactly the oracle calls
  // made, and stays deterministic in num_threads.
  std::vector<int32_t> missing;
  std::vector<double> missing_d;
  auto batch_dist = [&](const std::vector<int32_t>& nis, double bound) {
    missing.clear();
    for (const int32_t ni : nis) {
      if (cache.find(ni) == cache.end()) missing.push_back(ni);
    }
    std::sort(missing.begin(), missing.end());
    missing.erase(std::unique(missing.begin(), missing.end()),
                  missing.end());
    if (missing.empty()) return;
    missing_d.resize(missing.size());
    ParallelFor(
        options_.exec, static_cast<int64_t>(missing.size()),
        [&](int64_t lo, int64_t hi, int32_t) {
          for (int64_t i = lo; i < hi; ++i) {
            const size_t ni =
                static_cast<size_t>(missing[static_cast<size_t>(i)]);
            missing_d[static_cast<size_t>(i)] =
                oracle_.DistanceBounded(id, nodes_[ni].object, bound);
          }
        },
        /*grain=*/8);
    build_stats_.distance_computations +=
        static_cast<int64_t>(missing.size());
    for (size_t i = 0; i < missing.size(); ++i) {
      cache.emplace(missing[i], missing_d[i]);
    }
  };

  Node& root = nodes_[static_cast<size_t>(root_)];
  const double d_root = dist(root_, kInfiniteDistance);
  if (d_root == 0.0) {
    root.duplicates.push_back(id);
    object_node_[id] = root_;
    return Status::OK();
  }
  // Raise the root until it covers the new object.
  while (d_root > Radius(root.top_level)) ++root.top_level;

  // Descend. `wide` holds every node conceptually present at `level`
  // within Radius(level + 1) of the new object; this is complete (any
  // qualifying node has all its parents within Radius(level + 2), so the
  // parent set at the level above already contained them).
  int32_t level = root.top_level;
  std::vector<int32_t> wide = {root_};
  for (;;) {
    // Candidates conceptually at level-1: `wide` itself (implicit
    // self-descendants) plus the members of every list at `level`.
    std::vector<int32_t> candidates = wide;
    for (const int32_t ni : wide) {
      const std::vector<Edge>* list =
          FindList(nodes_[static_cast<size_t>(ni)], level);
      if (list != nullptr) {
        for (const Edge& edge : *list) candidates.push_back(edge.child);
      }
    }

    // Fan the level's candidate distances out before the sequential scan
    // decides duplicates / coverage — this is the build's hot path.
    batch_dist(candidates, Radius(level));

    std::vector<int32_t> wide_next;
    bool has_narrow = false;
    for (const int32_t ni : candidates) {
      const double d = dist(ni, Radius(level));
      if (d == 0.0) {
        nodes_[static_cast<size_t>(ni)].duplicates.push_back(id);
        object_node_[id] = ni;
        return Status::OK();
      }
      if (d <= Radius(level)) {
        wide_next.push_back(ni);
        if (d <= Radius(level - 1)) has_narrow = true;
      }
    }
    // wide_next may contain duplicates (a node reachable through several
    // parents); dedupe to keep the working set small.
    std::sort(wide_next.begin(), wide_next.end());
    wide_next.erase(std::unique(wide_next.begin(), wide_next.end()),
                    wide_next.end());

    if (!has_narrow) {
      // Place the new object at level-1, childed to every node of `wide`
      // (conceptual level `level`, so their lists at `level` are valid)
      // within Radius(level) — capped at max_parents closest.
      std::vector<std::pair<double, int32_t>> parent_candidates;
      for (const int32_t ni : wide) {
        const double d = dist(ni, Radius(level));
        if (d <= Radius(level)) parent_candidates.emplace_back(d, ni);
      }
      SUBSEQ_CHECK(!parent_candidates.empty());
      std::sort(parent_candidates.begin(), parent_candidates.end());
      size_t limit = parent_candidates.size();
      if (options_.max_parents > 0) {
        limit = std::min(limit, static_cast<size_t>(options_.max_parents));
      }
      const int32_t node = NewNode(id, level - 1);
      for (size_t i = 0; i < limit; ++i) {
        AddToList(parent_candidates[i].second, level, node,
                  parent_candidates[i].first);
      }
      return Status::OK();
    }
    wide = std::move(wide_next);
    --level;
  }
}

bool ReferenceNet::Contains(ObjectId id) const {
  return object_node_.find(id) != object_node_.end();
}

std::vector<ObjectId> ReferenceNet::RangeQuery(const QueryDistanceFn& query,
                                               double epsilon,
                                               QueryStats* stats) const {
  std::vector<uint8_t> marks;
  return RangeQueryWithScratch(query, epsilon, stats, &marks);
}

std::vector<ObjectId> ReferenceNet::RangeQueryWithScratch(
    const QueryDistanceFn& query, double epsilon, QueryStats* stats,
    std::vector<uint8_t>* marks_scratch) const {
  std::vector<ObjectId> results;
  int64_t computations = 0;
  int64_t gated = 0;
  LbBlockCounts stages;
  if (root_ >= 0) {
    std::vector<uint8_t>& marks = *marks_scratch;
    marks.assign(nodes_.size(), 0);
    const PrunableQueryFn* prunable = GetPrunable(query);
    const QueryLowerBound* bound =
        prunable != nullptr ? prunable->lower_bound.get() : nullptr;
    std::deque<int32_t> queue;
    queue.push_back(root_);
    marks[static_cast<size_t>(root_)] = kEnqueued;

    while (!queue.empty()) {
      const int32_t ni = queue.front();
      queue.pop_front();
      if (marks[static_cast<size_t>(ni)] & kEmitted) continue;
      const Node& n = nodes_[static_cast<size_t>(ni)];
      ++computations;
      if (bound != nullptr) {
        // The node gate: a node with d > epsilon whose every child list
        // is skipped below does nothing, and the highest list (lists
        // are sorted by level, descending) is the last one skipped. A
        // bound above the padded cutoff of that threshold proves both,
        // so the exact distance is never needed; the node stays billed.
        const double threshold =
            n.lists.empty() ? epsilon
                            : epsilon + Radius(n.lists.front().first + 1);
        const double cutoff = LowerBoundPruneCutoff(threshold);
        double lb;
        bound->LowerBoundBlockStaged(n.object + prunable->lb_offset, 1,
                                     cutoff, &lb, &stages);
        if (lb > cutoff) {
          ++gated;
          continue;
        }
      }
      const double d = query(n.object);
      const double subtree_bound = Radius(n.top_level + 1);

      if (d + subtree_bound <= epsilon) {
        // Lemma 4 (inclusion direction): the whole subtree qualifies.
        CollectSubtree(ni, &results, &marks);
        continue;
      }
      if (d - subtree_bound > epsilon) {
        // Lemma 4 (exclusion direction): nothing in the subtree qualifies.
        continue;
      }
      if (d <= epsilon) {
        results.push_back(n.object);
        results.insert(results.end(), n.duplicates.begin(),
                       n.duplicates.end());
        marks[static_cast<size_t>(ni)] |= kEmitted;
      }
      for (const auto& [list_level, members] : n.lists) {
        // Per-edge triangle bounds (Algorithm 3 strengthened with the
        // stored parent-child distance e): |d - e| <= d(q, child) <=
        // d + e, and the child's subtree lies within Radius(list_level)
        // of the child. Every parent that reaches a multi-parented child
        // gets an independent chance to decide it without computing its
        // distance — the paper's Figure 2 argument.
        if (d - Radius(list_level + 1) > epsilon) continue;
        const double child_subtree_bound = Radius(list_level);
        for (const Edge& edge : members) {
          const int32_t child = edge.child;
          uint8_t& mark = marks[static_cast<size_t>(child)];
          if (mark & kEmitted) continue;
          const double lower = std::fabs(d - edge.distance);
          const double upper = d + edge.distance;
          if (lower - child_subtree_bound > epsilon) {
            // Nothing in the child's subtree can qualify; this is a true
            // geometric fact, so it is safe to close the child globally.
            mark |= kEmitted;
            continue;
          }
          if (upper + child_subtree_bound <= epsilon) {
            CollectSubtree(child, &results, &marks);
            continue;
          }
          const Node& c = nodes_[static_cast<size_t>(child)];
          if (c.lists.empty()) {
            // Childless: the subtree is the node itself (plus exact
            // duplicates, which share its distance).
            if (upper <= epsilon) {
              results.push_back(c.object);
              results.insert(results.end(), c.duplicates.begin(),
                             c.duplicates.end());
              mark |= kEmitted;
              continue;
            }
            if (lower > epsilon) {
              mark |= kEmitted;
              continue;
            }
          }
          if (mark & kEnqueued) continue;
          queue.push_back(child);
          mark |= kEnqueued;
        }
      }
    }
  }
  if (stats != nullptr) {
    stats->distance_computations = computations;
    stats->result_count = static_cast<int64_t>(results.size());
    stats->lower_bound_pruned = gated;
    stats->lb_kim_pruned = stages.kim_pruned;
    stats->lb_erp_pruned = stages.erp_pruned;
  }
  return results;
}

void ReferenceNet::CollectSubtree(int32_t node_index,
                                  std::vector<ObjectId>* out,
                                  std::vector<uint8_t>* marks) const {
  std::deque<int32_t> queue = {node_index};
  while (!queue.empty()) {
    const int32_t ni = queue.front();
    queue.pop_front();
    uint8_t& mark = (*marks)[static_cast<size_t>(ni)];
    if (mark & kEmitted) continue;
    mark |= kEmitted;
    const Node& n = nodes_[static_cast<size_t>(ni)];
    out->push_back(n.object);
    out->insert(out->end(), n.duplicates.begin(), n.duplicates.end());
    for (const auto& [lvl, members] : n.lists) {
      (void)lvl;
      for (const Edge& edge : members) queue.push_back(edge.child);
    }
  }
}

void ReferenceNet::RemoveNodeStructurally(int32_t ni,
                                          std::vector<ObjectId>* objects,
                                          std::vector<int32_t>* orphans) {
  Node& n = nodes_[static_cast<size_t>(ni)];
  SUBSEQ_CHECK(n.alive);
  objects->push_back(n.object);
  objects->insert(objects->end(), n.duplicates.begin(), n.duplicates.end());
  object_node_.erase(n.object);
  for (const ObjectId dup : n.duplicates) object_node_.erase(dup);

  // Detach from parents' lists.
  for (const int32_t p : n.parents) {
    Node& parent = nodes_[static_cast<size_t>(p)];
    if (!parent.alive) continue;
    for (auto& [lvl, members] : parent.lists) {
      (void)lvl;
      members.erase(std::remove_if(members.begin(), members.end(),
                                   [ni](const Edge& e) {
                                     return e.child == ni;
                                   }),
                    members.end());
    }
  }
  // Children lose this parent; sole-parented children become orphans.
  for (auto& [lvl, members] : n.lists) {
    (void)lvl;
    for (const Edge& edge : members) {
      Node& c = nodes_[static_cast<size_t>(edge.child)];
      if (!c.alive) continue;
      c.parents.erase(std::remove(c.parents.begin(), c.parents.end(), ni),
                      c.parents.end());
      if (c.parents.empty()) orphans->push_back(edge.child);
    }
  }
  n.alive = false;
  n.lists.clear();
  n.parents.clear();
  n.duplicates.clear();
  free_nodes_.push_back(ni);
}

Status ReferenceNet::Delete(ObjectId id) {
  const auto it = object_node_.find(id);
  if (it == object_node_.end()) {
    return Status::NotFound("object not in reference net");
  }
  const int32_t ni = it->second;
  Node& n = nodes_[static_cast<size_t>(ni)];

  if (n.object != id) {
    // A duplicate: drop it from the representative's list.
    n.duplicates.erase(std::remove(n.duplicates.begin(), n.duplicates.end(),
                                   id),
                       n.duplicates.end());
    object_node_.erase(id);
    --num_objects_;
    return Status::OK();
  }
  if (!n.duplicates.empty()) {
    // Promote a duplicate; all invariants hold since d(old, new) = 0.
    n.object = n.duplicates.back();
    n.duplicates.pop_back();
    object_node_.erase(id);
    --num_objects_;
    return Status::OK();
  }

  if (ni == root_) {
    // Rebuild from scratch without the deleted object. Root deletion is
    // rare; correctness over speed.
    std::vector<ObjectId> objects;
    std::vector<uint8_t> emitted(nodes_.size(), 0);
    CollectSubtree(root_, &objects, &emitted);
    nodes_.clear();
    free_nodes_.clear();
    object_node_.clear();
    root_ = -1;
    num_objects_ = 0;
    for (const ObjectId obj : objects) {
      if (obj == id) continue;
      const Status s = Insert(obj);
      SUBSEQ_CHECK(s.ok());
    }
    return Status::OK();
  }

  // Structural removal with orphan cascade (Appendix A.2): children whose
  // only parent was the removed node are taken out and re-inserted.
  std::vector<ObjectId> to_reinsert;
  std::vector<int32_t> orphans;
  RemoveNodeStructurally(ni, &to_reinsert, &orphans);
  while (!orphans.empty()) {
    const int32_t o = orphans.back();
    orphans.pop_back();
    if (!nodes_[static_cast<size_t>(o)].alive) continue;
    RemoveNodeStructurally(o, &to_reinsert, &orphans);
  }
  num_objects_ -= static_cast<int32_t>(to_reinsert.size());
  for (const ObjectId obj : to_reinsert) {
    if (obj == id) continue;
    const Status s = Insert(obj);
    SUBSEQ_CHECK(s.ok());
  }
  return Status::OK();
}

SpaceStats ReferenceNet::ComputeSpaceStats() const {
  SpaceStats s;
  int64_t nodes = 0;
  int64_t entries = 0;
  int64_t duplicates = 0;
  int32_t min_level = 0;
  int32_t max_level = 0;
  bool first = true;
  for (const Node& n : nodes_) {
    if (!n.alive) continue;
    ++nodes;
    duplicates += static_cast<int64_t>(n.duplicates.size());
    for (const auto& [lvl, members] : n.lists) {
      (void)lvl;
      entries += static_cast<int64_t>(members.size());
    }
    if (first) {
      min_level = max_level = n.top_level;
      first = false;
    } else {
      min_level = std::min(min_level, n.top_level);
      max_level = std::max(max_level, n.top_level);
    }
  }
  s.num_objects = num_objects_;
  s.num_nodes = nodes;
  s.num_list_entries = entries;
  // Every list entry is one parent link; the root has none.
  s.avg_parents =
      nodes > 1 ? static_cast<double>(entries) / static_cast<double>(nodes - 1)
                : 0.0;
  s.num_levels = nodes > 0 ? max_level - min_level + 1 : 0;
  // Byte model: per node, object id + level + vector headers (~32B); per
  // list entry, child index + stored edge distance + parent back-link
  // (16B); per duplicate 4B.
  s.approx_bytes = 32 * nodes + 16 * entries + 4 * duplicates;
  return s;
}

int32_t ReferenceNet::root_level() const {
  SUBSEQ_CHECK(root_ >= 0);
  return nodes_[static_cast<size_t>(root_)].top_level;
}

std::optional<std::string> ReferenceNet::CheckInvariants() const {
  char buf[256];
  if (root_ < 0) {
    if (num_objects_ != 0) return "empty net but num_objects != 0";
    return std::nullopt;
  }

  std::vector<int32_t> alive;
  for (int32_t ni = 0; ni < static_cast<int32_t>(nodes_.size()); ++ni) {
    if (nodes_[static_cast<size_t>(ni)].alive) alive.push_back(ni);
  }

  // Inclusive property + list-level consistency + parent cap.
  for (const int32_t ni : alive) {
    const Node& n = nodes_[static_cast<size_t>(ni)];
    if (ni != root_ && n.parents.empty()) {
      std::snprintf(buf, sizeof(buf), "node %d (object %d) has no parent",
                    ni, n.object);
      return std::string(buf);
    }
    if (options_.max_parents > 0 &&
        static_cast<int32_t>(n.parents.size()) > options_.max_parents) {
      std::snprintf(buf, sizeof(buf), "node %d exceeds max_parents", ni);
      return std::string(buf);
    }
    for (const auto& [lvl, members] : n.lists) {
      if (lvl > n.top_level) {
        std::snprintf(buf, sizeof(buf),
                      "node %d has list at level %d above its top %d", ni,
                      lvl, n.top_level);
        return std::string(buf);
      }
      for (const Edge& edge : members) {
        const int32_t child = edge.child;
        const Node& c = nodes_[static_cast<size_t>(child)];
        if (!c.alive) {
          std::snprintf(buf, sizeof(buf), "node %d lists dead child %d", ni,
                        child);
          return std::string(buf);
        }
        if (c.top_level != lvl - 1) {
          std::snprintf(buf, sizeof(buf),
                        "list level %d of node %d holds child %d with top %d",
                        lvl, ni, child, c.top_level);
          return std::string(buf);
        }
        const double d = oracle_.Distance(n.object, c.object);
        if (d > Radius(lvl)) {
          std::snprintf(buf, sizeof(buf),
                        "inclusive violated: d(node %d, child %d)=%g > %g",
                        ni, child, d, Radius(lvl));
          return std::string(buf);
        }
        if (d != edge.distance) {
          std::snprintf(buf, sizeof(buf),
                        "stale edge distance: node %d -> child %d stores %g,"
                        " oracle says %g",
                        ni, child, edge.distance, d);
          return std::string(buf);
        }
      }
    }
  }

  // Exclusive property among nodes sharing a top level.
  for (size_t a = 0; a < alive.size(); ++a) {
    for (size_t b = a + 1; b < alive.size(); ++b) {
      const Node& u = nodes_[static_cast<size_t>(alive[a])];
      const Node& v = nodes_[static_cast<size_t>(alive[b])];
      if (u.top_level != v.top_level) continue;
      const double d = oracle_.Distance(u.object, v.object);
      if (d <= Radius(u.top_level)) {
        std::snprintf(buf, sizeof(buf),
                      "exclusive violated at level %d: d(obj %d, obj %d)=%g "
                      "<= %g",
                      u.top_level, u.object, v.object, d,
                      Radius(u.top_level));
        return std::string(buf);
      }
    }
  }

  // Reachability + subtree radius bound (Lemma 4).
  std::vector<ObjectId> reached;
  std::vector<uint8_t> emitted(nodes_.size(), 0);
  CollectSubtree(root_, &reached, &emitted);
  if (static_cast<int32_t>(reached.size()) != num_objects_) {
    std::snprintf(buf, sizeof(buf),
                  "reachability violated: %zu objects reached, %d indexed",
                  reached.size(), num_objects_);
    return std::string(buf);
  }
  for (const int32_t ni : alive) {
    const Node& n = nodes_[static_cast<size_t>(ni)];
    std::vector<ObjectId> subtree;
    std::vector<uint8_t> seen(nodes_.size(), 0);
    CollectSubtree(ni, &subtree, &seen);
    const double bound = Radius(n.top_level + 1);
    for (const ObjectId obj : subtree) {
      const double d = oracle_.Distance(n.object, obj);
      if (d > bound) {
        std::snprintf(buf, sizeof(buf),
                      "subtree bound violated: d(node obj %d, desc obj %d)="
                      "%g > %g",
                      n.object, obj, d, bound);
        return std::string(buf);
      }
    }
  }
  return std::nullopt;
}


std::vector<ReferenceNet::ExportedNode> ReferenceNet::Export() const {
  std::vector<ExportedNode> out;
  if (root_ < 0) return out;
  // Root first, then the remaining live nodes in index order.
  std::vector<int32_t> order = {root_};
  for (int32_t ni = 0; ni < static_cast<int32_t>(nodes_.size()); ++ni) {
    if (ni != root_ && nodes_[static_cast<size_t>(ni)].alive) {
      order.push_back(ni);
    }
  }
  out.reserve(order.size());
  for (const int32_t ni : order) {
    const Node& n = nodes_[static_cast<size_t>(ni)];
    ExportedNode e;
    e.object = n.object;
    e.top_level = n.top_level;
    e.duplicates = n.duplicates;
    for (const auto& [lvl, members] : n.lists) {
      for (const Edge& edge : members) {
        e.edges.emplace_back(
            lvl, nodes_[static_cast<size_t>(edge.child)].object,
            edge.distance);
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

Result<ReferenceNet> ReferenceNet::Import(
    const DistanceOracle& oracle, ReferenceNetOptions options,
    const std::vector<ExportedNode>& nodes) {
  ReferenceNet net(oracle, options);
  if (nodes.empty()) return net;

  // Pass 1: materialize nodes and the object -> node-index map.
  for (const ExportedNode& e : nodes) {
    if (e.object < 0 || e.object >= oracle.size()) {
      return Status::InvalidArgument("snapshot object id out of range");
    }
    if (net.object_node_.count(e.object) > 0) {
      return Status::InvalidArgument("duplicate node object in snapshot");
    }
    const int32_t ni = net.NewNode(e.object, e.top_level);
    for (const ObjectId dup : e.duplicates) {
      if (dup < 0 || dup >= oracle.size() ||
          net.object_node_.count(dup) > 0) {
        return Status::InvalidArgument("bad duplicate object in snapshot");
      }
      net.nodes_[static_cast<size_t>(ni)].duplicates.push_back(dup);
      net.object_node_[dup] = ni;
      ++net.num_objects_;
    }
    ++net.num_objects_;
  }
  net.root_ = 0;

  // Pass 2: rebuild child lists and parent links, validating levels and
  // spot-checking stored distances against the oracle. The spot-check
  // sample is a *deterministic seeded* subset of all edges (every edge
  // when the net is small): checking only the first edges would let a
  // bad late edge through, and an unseeded sample would make detection
  // a coin flip between runs — the regression test plants one bad edge
  // and must always catch it.
  int64_t total_edges = 0;
  for (const ExportedNode& e : nodes) {
    total_edges += static_cast<int64_t>(e.edges.size());
  }
  constexpr int64_t kSpotChecks = 256;
  std::vector<uint8_t> check_edge;
  if (total_edges <= kSpotChecks) {
    check_edge.assign(static_cast<size_t>(total_edges), 1);
  } else {
    check_edge.assign(static_cast<size_t>(total_edges), 0);
    Rng rng(0x7E0FB2A5C18D6E4BULL ^ static_cast<uint64_t>(total_edges));
    int64_t chosen = 0;
    while (chosen < kSpotChecks) {
      const size_t pick = static_cast<size_t>(
          rng.NextBounded(static_cast<uint64_t>(total_edges)));
      if (!check_edge[pick]) {
        check_edge[pick] = 1;
        ++chosen;
      }
    }
  }
  int64_t edge_cursor = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int32_t parent_index = static_cast<int32_t>(i);
    const Node& parent = net.nodes_[static_cast<size_t>(parent_index)];
    for (const auto& [lvl, child_object, distance] : nodes[i].edges) {
      const auto it = net.object_node_.find(child_object);
      if (it == net.object_node_.end()) {
        return Status::InvalidArgument("snapshot edge to unknown object");
      }
      const int32_t child_index = it->second;
      const Node& child = net.nodes_[static_cast<size_t>(child_index)];
      if (child.object != child_object) {
        return Status::InvalidArgument(
            "snapshot edge points at a duplicate, not a node");
      }
      if (lvl > parent.top_level || child.top_level != lvl - 1) {
        return Status::InvalidArgument("snapshot level structure invalid");
      }
      if (!std::isfinite(distance) || distance < 0.0 ||
          distance > net.Radius(lvl)) {
        return Status::InvalidArgument(
            "snapshot edge distance is not in [0, list radius]");
      }
      if (options.max_parents > 0 &&
          static_cast<int32_t>(child.parents.size()) >= options.max_parents) {
        return Status::InvalidArgument(
            "snapshot node sits in more lists than max_parents allows");
      }
      if (check_edge[static_cast<size_t>(edge_cursor++)] &&
          oracle.Distance(parent.object, child_object) != distance) {
        return Status::InvalidArgument(
            "snapshot distances disagree with the oracle; was the net "
            "saved for a different dataset or distance?");
      }
      net.AddToList(parent_index, lvl, child_index, distance);
    }
  }
  for (size_t ni = 1; ni < net.nodes_.size(); ++ni) {
    if (net.nodes_[ni].parents.empty()) {
      return Status::InvalidArgument("snapshot node has no parent");
    }
  }
  return net;
}

namespace {

struct RefNetMetaRec {
  int32_t num_objects;
  int32_t num_nodes;
  int64_t dup_total;
  int64_t edge_total;
  double base_radius;
  int32_t max_parents;
  int32_t pad0;
  int64_t build_distance_computations;
};
static_assert(sizeof(RefNetMetaRec) == 48);

struct RefNetNodeRec {
  int32_t object;
  int32_t top_level;
  int32_t dup_count;
  int32_t edge_count;
};
static_assert(sizeof(RefNetNodeRec) == 16);

struct RefNetEdgeRec {
  int32_t level;
  int32_t child_object;
  double distance;
};
static_assert(sizeof(RefNetEdgeRec) == 16);

}  // namespace

Status ReferenceNet::SaveSections(SnapshotWriter& writer,
                                  const std::string& prefix) const {
  const std::vector<ExportedNode> exported = Export();
  RefNetMetaRec meta{};
  meta.num_objects = num_objects_;
  meta.num_nodes = static_cast<int32_t>(exported.size());
  meta.base_radius = options_.base_radius;
  meta.max_parents = options_.max_parents;
  meta.build_distance_computations = build_stats_.distance_computations;

  std::vector<RefNetNodeRec> nodes(exported.size());
  std::vector<ObjectId> dups;
  std::vector<RefNetEdgeRec> edges;
  for (size_t i = 0; i < exported.size(); ++i) {
    const ExportedNode& e = exported[i];
    nodes[i].object = e.object;
    nodes[i].top_level = e.top_level;
    nodes[i].dup_count = static_cast<int32_t>(e.duplicates.size());
    nodes[i].edge_count = static_cast<int32_t>(e.edges.size());
    dups.insert(dups.end(), e.duplicates.begin(), e.duplicates.end());
    for (const auto& [lvl, child, distance] : e.edges) {
      RefNetEdgeRec rec{};
      rec.level = lvl;
      rec.child_object = child;
      rec.distance = distance;
      edges.push_back(rec);
    }
  }
  meta.dup_total = static_cast<int64_t>(dups.size());
  meta.edge_total = static_cast<int64_t>(edges.size());

  SUBSEQ_RETURN_NOT_OK(writer.AppendPodStruct(prefix + "meta", meta));
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<RefNetNodeRec>(
      prefix + "nodes", nodes));
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<ObjectId>(prefix + "dups",
                                                         dups));
  return writer.AppendPodSection<RefNetEdgeRec>(prefix + "edges", edges);
}

Result<std::unique_ptr<ReferenceNet>> ReferenceNet::LoadSections(
    const SnapshotFile& file, const std::string& prefix,
    const DistanceOracle& oracle, const ReferenceNetOptions& options) {
  RefNetMetaRec meta{};
  SUBSEQ_RETURN_NOT_OK(ReadPodStruct(file, prefix + "meta", &meta));
  const auto bad = [&](const std::string& why) {
    return Status::InvalidArgument("reference-net snapshot sections '" +
                                   prefix + "*': " + why);
  };
  if (meta.num_objects != oracle.size()) {
    return bad("indexes " + std::to_string(meta.num_objects) +
               " objects but the oracle holds " +
               std::to_string(oracle.size()));
  }
  if (meta.base_radius != options.base_radius ||
      meta.max_parents != options.max_parents) {
    return bad("saved with base_radius=" + std::to_string(meta.base_radius) +
               " max_parents=" + std::to_string(meta.max_parents) +
               " but the load requested base_radius=" +
               std::to_string(options.base_radius) + " max_parents=" +
               std::to_string(options.max_parents) +
               "; a loaded index must equal the fresh build it replaces");
  }

  auto nodes = PodSectionView<RefNetNodeRec>(file, prefix + "nodes");
  if (!nodes.ok()) return nodes.status();
  auto dups = PodSectionView<ObjectId>(file, prefix + "dups");
  if (!dups.ok()) return dups.status();
  auto edges = PodSectionView<RefNetEdgeRec>(file, prefix + "edges");
  if (!edges.ok()) return edges.status();
  if (meta.num_nodes != static_cast<int64_t>(nodes.value().size()) ||
      meta.dup_total != static_cast<int64_t>(dups.value().size()) ||
      meta.edge_total != static_cast<int64_t>(edges.value().size())) {
    return bad("meta counts disagree with the section sizes");
  }

  // Re-inflate the ExportedNode form and run Import's full validation
  // (levels, parents, reachability, seeded distance spot-check).
  std::vector<ExportedNode> exported(nodes.value().size());
  size_t dup_cursor = 0;
  size_t edge_cursor = 0;
  for (size_t i = 0; i < exported.size(); ++i) {
    const RefNetNodeRec& rec = nodes.value()[i];
    ExportedNode& e = exported[i];
    e.object = rec.object;
    e.top_level = rec.top_level;
    if (rec.dup_count < 0 ||
        static_cast<size_t>(rec.dup_count) > dups.value().size() - dup_cursor) {
      return bad("node " + std::to_string(i) +
                 " duplicate list overruns the section");
    }
    if (rec.edge_count < 0 ||
        static_cast<size_t>(rec.edge_count) >
            edges.value().size() - edge_cursor) {
      return bad("node " + std::to_string(i) +
                 " edge list overruns the section");
    }
    for (int32_t d = 0; d < rec.dup_count; ++d) {
      e.duplicates.push_back(dups.value()[dup_cursor++]);
    }
    for (int32_t g = 0; g < rec.edge_count; ++g) {
      const RefNetEdgeRec& edge = edges.value()[edge_cursor++];
      e.edges.emplace_back(edge.level, edge.child_object, edge.distance);
    }
  }
  if (dup_cursor != dups.value().size() ||
      edge_cursor != edges.value().size()) {
    return bad("sections hold entries no node references");
  }

  auto imported = Import(oracle, options, exported);
  if (!imported.ok()) {
    return bad(imported.status().message());
  }
  auto net = std::make_unique<ReferenceNet>(std::move(imported).value());
  if (net->size() != meta.num_objects) {
    return bad("imported net indexes " + std::to_string(net->size()) +
               " objects but meta records " +
               std::to_string(meta.num_objects));
  }
  net->build_stats_.distance_computations = meta.build_distance_computations;
  return net;
}

}  // namespace subseq
