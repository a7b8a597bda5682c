#include "subseq/metric/cover_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>

#include "subseq/distance/distance.h"

#include "subseq/core/check.h"
#include "subseq/core/rng.h"
#include "subseq/snapshot/reader.h"
#include "subseq/snapshot/writer.h"

namespace subseq {

CoverTree::CoverTree(const DistanceOracle& oracle, CoverTreeOptions options)
    : oracle_(oracle), options_(options) {
  SUBSEQ_CHECK(options_.base_radius > 0.0);
}

CoverTree CoverTree::BuildAll(const DistanceOracle& oracle,
                              CoverTreeOptions options) {
  CoverTree tree(oracle, options);
  for (ObjectId id = 0; id < oracle.size(); ++id) {
    const Status s = tree.Insert(id);
    SUBSEQ_CHECK(s.ok());
  }
  return tree;
}

double CoverTree::Radius(int32_t level) const {
  return std::ldexp(options_.base_radius, level);
}

std::vector<CoverTree::Edge>* CoverTree::FindList(Node& node,
                                                  int32_t level) {
  for (auto& [lvl, members] : node.lists) {
    if (lvl == level) return &members;
  }
  return nullptr;
}

const std::vector<CoverTree::Edge>* CoverTree::FindList(const Node& node,
                                                        int32_t level) const {
  for (const auto& [lvl, members] : node.lists) {
    if (lvl == level) return &members;
  }
  return nullptr;
}

Status CoverTree::Insert(ObjectId id) {
  if (Contains(id)) {
    return Status::AlreadyExists("object already in cover tree");
  }
  ++num_objects_;
  if (root_ < 0) {
    nodes_.push_back(Node{id, 0, -1, {}, {}});
    root_ = 0;
    object_node_[id] = 0;
    return Status::OK();
  }

  // Bounded computations are cacheable: descent bounds only shrink (see
  // the matching comment in reference_net.cc).
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

  Node& root = nodes_[static_cast<size_t>(root_)];
  const double d_root = dist(root_, kInfiniteDistance);
  if (d_root == 0.0) {
    root.duplicates.push_back(id);
    object_node_[id] = root_;
    return Status::OK();
  }
  while (d_root > Radius(root.top_level)) ++root.top_level;

  // Same wide-set descent as the reference net; the only difference is
  // that placement picks a single (closest) parent.
  int32_t level = root.top_level;
  std::vector<int32_t> wide = {root_};
  for (;;) {
    std::vector<int32_t> candidates = wide;
    for (const int32_t ni : wide) {
      const std::vector<Edge>* list =
          FindList(nodes_[static_cast<size_t>(ni)], level);
      if (list != nullptr) {
        for (const Edge& edge : *list) candidates.push_back(edge.child);
      }
    }

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
    std::sort(wide_next.begin(), wide_next.end());
    wide_next.erase(std::unique(wide_next.begin(), wide_next.end()),
                    wide_next.end());

    if (!has_narrow) {
      int32_t best_parent = -1;
      double best_d = kInfiniteDistance;
      for (const int32_t ni : wide) {
        const double d = dist(ni, Radius(level));
        if (d <= Radius(level) && d < best_d) {
          best_d = d;
          best_parent = ni;
        }
      }
      SUBSEQ_CHECK(best_parent >= 0);
      const int32_t node_index = static_cast<int32_t>(nodes_.size());
      nodes_.push_back(Node{id, level - 1, best_parent, {}, {}});
      object_node_[id] = node_index;
      Node& p = nodes_[static_cast<size_t>(best_parent)];
      std::vector<Edge>* list = FindList(p, level);
      if (list == nullptr) {
        p.lists.emplace_back(level, std::vector<Edge>{});
        std::sort(p.lists.begin(), p.lists.end(),
                  [](const auto& a, const auto& b) {
                    return a.first > b.first;
                  });
        list = FindList(p, level);
      }
      list->push_back(Edge{node_index, best_d});
      return Status::OK();
    }
    wide = std::move(wide_next);
    --level;
  }
}

bool CoverTree::Contains(ObjectId id) const {
  return object_node_.find(id) != object_node_.end();
}

std::vector<ObjectId> CoverTree::RangeQuery(const QueryDistanceFn& query,
                                            double epsilon,
                                            QueryStats* stats) const {
  std::vector<uint8_t> emitted;
  return RangeQueryWithScratch(query, epsilon, stats, &emitted);
}

std::vector<ObjectId> CoverTree::RangeQueryWithScratch(
    const QueryDistanceFn& query, double epsilon, QueryStats* stats,
    std::vector<uint8_t>* emitted_scratch) const {
  std::vector<ObjectId> results;
  int64_t computations = 0;
  if (root_ >= 0) {
    std::vector<uint8_t>& emitted = *emitted_scratch;
    emitted.assign(nodes_.size(), 0);
    std::deque<int32_t> queue = {root_};
    while (!queue.empty()) {
      const int32_t ni = queue.front();
      queue.pop_front();
      if (emitted[static_cast<size_t>(ni)]) continue;
      const Node& n = nodes_[static_cast<size_t>(ni)];
      ++computations;
      const double d = query(n.object);
      const double subtree_bound = Radius(n.top_level + 1);
      if (d + subtree_bound <= epsilon) {
        CollectSubtree(ni, &results, &emitted);
        continue;
      }
      if (d - subtree_bound > epsilon) continue;
      if (d <= epsilon) {
        results.push_back(n.object);
        results.insert(results.end(), n.duplicates.begin(),
                       n.duplicates.end());
      }
      for (const auto& [list_level, members] : n.lists) {
        // Per-edge triangle bounds, identical to the reference net's
        // strengthened Algorithm 3 — but a tree gives each child only one
        // parent, i.e., a single chance to be decided cheaply.
        if (d - Radius(list_level + 1) > epsilon) continue;
        const double child_subtree_bound = Radius(list_level);
        for (const Edge& edge : members) {
          const int32_t child = edge.child;
          if (emitted[static_cast<size_t>(child)]) continue;
          const double lower = std::fabs(d - edge.distance);
          const double upper = d + edge.distance;
          if (lower - child_subtree_bound > epsilon) {
            emitted[static_cast<size_t>(child)] = 1;
            continue;
          }
          if (upper + child_subtree_bound <= epsilon) {
            CollectSubtree(child, &results, &emitted);
            continue;
          }
          const Node& c = nodes_[static_cast<size_t>(child)];
          if (c.lists.empty()) {
            if (upper <= epsilon) {
              results.push_back(c.object);
              results.insert(results.end(), c.duplicates.begin(),
                             c.duplicates.end());
              emitted[static_cast<size_t>(child)] = 1;
              continue;
            }
            if (lower > epsilon) {
              emitted[static_cast<size_t>(child)] = 1;
              continue;
            }
          }
          queue.push_back(child);
        }
      }
    }
  }
  if (stats != nullptr) {
    stats->distance_computations = computations;
    stats->result_count = static_cast<int64_t>(results.size());
  }
  return results;
}

void CoverTree::CollectSubtree(int32_t node_index, std::vector<ObjectId>* out,
                               std::vector<uint8_t>* emitted) const {
  std::deque<int32_t> queue = {node_index};
  while (!queue.empty()) {
    const int32_t ni = queue.front();
    queue.pop_front();
    if ((*emitted)[static_cast<size_t>(ni)]) continue;
    (*emitted)[static_cast<size_t>(ni)] = 1;
    const Node& n = nodes_[static_cast<size_t>(ni)];
    out->push_back(n.object);
    out->insert(out->end(), n.duplicates.begin(), n.duplicates.end());
    for (const auto& [lvl, members] : n.lists) {
      (void)lvl;
      for (const Edge& edge : members) queue.push_back(edge.child);
    }
  }
}

SpaceStats CoverTree::ComputeSpaceStats() const {
  SpaceStats s;
  int64_t entries = 0;
  int64_t duplicates = 0;
  int32_t min_level = 0;
  int32_t max_level = 0;
  bool first = true;
  for (const Node& n : nodes_) {
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
  s.num_nodes = static_cast<int64_t>(nodes_.size());
  s.num_list_entries = entries;
  s.avg_parents = nodes_.size() > 1 ? 1.0 : 0.0;  // it is a tree
  s.num_levels = nodes_.empty() ? 0 : max_level - min_level + 1;
  // Same byte model as the reference net (edges store a distance).
  s.approx_bytes = 32 * s.num_nodes + 16 * entries + 4 * duplicates;
  return s;
}

std::optional<std::string> CoverTree::CheckInvariants() const {
  char buf[256];
  if (root_ < 0) {
    if (num_objects_ != 0) return "empty tree but num_objects != 0";
    return std::nullopt;
  }
  for (int32_t ni = 0; ni < static_cast<int32_t>(nodes_.size()); ++ni) {
    const Node& n = nodes_[static_cast<size_t>(ni)];
    if (ni != root_ && n.parent < 0) {
      std::snprintf(buf, sizeof(buf), "non-root node %d has no parent", ni);
      return std::string(buf);
    }
    for (const auto& [lvl, members] : n.lists) {
      if (lvl > n.top_level) {
        std::snprintf(buf, sizeof(buf), "list above node %d's top level",
                      ni);
        return std::string(buf);
      }
      for (const Edge& edge : members) {
        const Node& c = nodes_[static_cast<size_t>(edge.child)];
        if (c.top_level != lvl - 1) {
          std::snprintf(buf, sizeof(buf), "child %d at wrong level",
                        edge.child);
          return std::string(buf);
        }
        const double d = oracle_.Distance(n.object, c.object);
        if (d > Radius(lvl)) {
          std::snprintf(buf, sizeof(buf),
                        "covering violated: d(%d, %d)=%g > %g", n.object,
                        c.object, d, Radius(lvl));
          return std::string(buf);
        }
        if (d != edge.distance) {
          std::snprintf(buf, sizeof(buf), "stale edge distance at node %d",
                        n.object);
          return std::string(buf);
        }
      }
    }
  }
  for (size_t a = 0; a < nodes_.size(); ++a) {
    for (size_t b = a + 1; b < nodes_.size(); ++b) {
      const Node& u = nodes_[a];
      const Node& v = nodes_[b];
      if (u.top_level != v.top_level) continue;
      const double d = oracle_.Distance(u.object, v.object);
      if (d <= Radius(u.top_level)) {
        std::snprintf(buf, sizeof(buf),
                      "separation violated at level %d: d(%d, %d)=%g",
                      u.top_level, u.object, v.object, d);
        return std::string(buf);
      }
    }
  }
  std::vector<ObjectId> reached;
  std::vector<uint8_t> emitted(nodes_.size(), 0);
  CollectSubtree(root_, &reached, &emitted);
  if (static_cast<int32_t>(reached.size()) != num_objects_) {
    std::snprintf(buf, sizeof(buf), "reachability violated: %zu vs %d",
                  reached.size(), num_objects_);
    return std::string(buf);
  }
  return std::nullopt;
}

namespace {

struct CoverTreeMetaRec {
  int32_t num_objects;
  int32_t num_nodes;
  int32_t root;
  int32_t pad0;
  int64_t dup_total;
  int64_t list_total;
  int64_t edge_total;
  double base_radius;
  int64_t build_distance_computations;
};
static_assert(sizeof(CoverTreeMetaRec) == 56);

struct CoverNodeRec {
  int32_t object;
  int32_t top_level;
  int32_t parent;
  int32_t dup_count;
  int32_t list_count;
  int32_t pad0;
};
static_assert(sizeof(CoverNodeRec) == 24);

struct CoverListRec {
  int32_t level;
  int32_t edge_count;
};
static_assert(sizeof(CoverListRec) == 8);

struct CoverEdgeRec {
  int32_t child;  // node index
  int32_t pad0;
  double distance;
};
static_assert(sizeof(CoverEdgeRec) == 16);

}  // namespace

Status CoverTree::SaveSections(SnapshotWriter& writer,
                               const std::string& prefix) const {
  CoverTreeMetaRec meta{};
  meta.num_objects = num_objects_;
  meta.num_nodes = static_cast<int32_t>(nodes_.size());
  meta.root = root_;
  meta.base_radius = options_.base_radius;
  meta.build_distance_computations = build_stats_.distance_computations;

  std::vector<CoverNodeRec> node_recs(nodes_.size());
  std::vector<CoverListRec> list_recs;
  std::vector<CoverEdgeRec> edge_recs;
  std::vector<ObjectId> dups;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    CoverNodeRec& rec = node_recs[i];
    rec.object = n.object;
    rec.top_level = n.top_level;
    rec.parent = n.parent;
    rec.dup_count = static_cast<int32_t>(n.duplicates.size());
    rec.list_count = static_cast<int32_t>(n.lists.size());
    dups.insert(dups.end(), n.duplicates.begin(), n.duplicates.end());
    for (const auto& [lvl, members] : n.lists) {
      CoverListRec list{};
      list.level = lvl;
      list.edge_count = static_cast<int32_t>(members.size());
      list_recs.push_back(list);
      for (const Edge& edge : members) {
        CoverEdgeRec e{};
        e.child = edge.child;
        e.distance = edge.distance;
        edge_recs.push_back(e);
      }
    }
  }
  meta.dup_total = static_cast<int64_t>(dups.size());
  meta.list_total = static_cast<int64_t>(list_recs.size());
  meta.edge_total = static_cast<int64_t>(edge_recs.size());

  SUBSEQ_RETURN_NOT_OK(writer.AppendPodStruct(prefix + "meta", meta));
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<CoverNodeRec>(
      prefix + "nodes", node_recs));
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<CoverListRec>(
      prefix + "lists", list_recs));
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<CoverEdgeRec>(
      prefix + "edges", edge_recs));
  return writer.AppendPodSection<ObjectId>(prefix + "dups", dups);
}

Result<std::unique_ptr<CoverTree>> CoverTree::LoadSections(
    const SnapshotFile& file, const std::string& prefix,
    const DistanceOracle& oracle, const CoverTreeOptions& options) {
  CoverTreeMetaRec meta{};
  SUBSEQ_RETURN_NOT_OK(ReadPodStruct(file, prefix + "meta", &meta));
  const auto bad = [&](const std::string& why) {
    return Status::InvalidArgument("cover-tree snapshot sections '" + prefix +
                                   "*': " + why);
  };
  if (meta.num_objects != oracle.size()) {
    return bad("indexes " + std::to_string(meta.num_objects) +
               " objects but the oracle holds " +
               std::to_string(oracle.size()));
  }
  if (meta.base_radius != options.base_radius) {
    return bad("saved with base_radius=" + std::to_string(meta.base_radius) +
               " but the load requested " +
               std::to_string(options.base_radius) +
               "; a loaded index must equal the fresh build it replaces");
  }

  auto nodes = PodSectionView<CoverNodeRec>(file, prefix + "nodes");
  if (!nodes.ok()) return nodes.status();
  auto lists = PodSectionView<CoverListRec>(file, prefix + "lists");
  if (!lists.ok()) return lists.status();
  auto edges = PodSectionView<CoverEdgeRec>(file, prefix + "edges");
  if (!edges.ok()) return edges.status();
  auto dups = PodSectionView<ObjectId>(file, prefix + "dups");
  if (!dups.ok()) return dups.status();
  const int32_t count = static_cast<int32_t>(nodes.value().size());
  if (meta.num_nodes != count ||
      meta.list_total != static_cast<int64_t>(lists.value().size()) ||
      meta.edge_total != static_cast<int64_t>(edges.value().size()) ||
      meta.dup_total != static_cast<int64_t>(dups.value().size())) {
    return bad("meta counts disagree with the section sizes");
  }
  if ((count == 0) != (meta.root == -1) ||
      (count > 0 && (meta.root < 0 || meta.root >= count)) ||
      (count == 0) != (meta.num_objects == 0)) {
    return bad("root index " + std::to_string(meta.root) +
               " is out of range for " + std::to_string(count) + " nodes");
  }

  auto tree = std::unique_ptr<CoverTree>(new CoverTree(oracle, options));
  tree->num_objects_ = meta.num_objects;
  tree->root_ = meta.root;
  tree->build_stats_.distance_computations = meta.build_distance_computations;
  tree->nodes_.resize(static_cast<size_t>(count));

  std::vector<uint8_t> object_seen(static_cast<size_t>(meta.num_objects), 0);
  int64_t placed = 0;
  const auto place = [&](ObjectId id) -> Status {
    if (id < 0 || id >= meta.num_objects) {
      return bad("object id " + std::to_string(id) + " out of range");
    }
    if (object_seen[static_cast<size_t>(id)]) {
      return bad("object id " + std::to_string(id) + " appears twice");
    }
    object_seen[static_cast<size_t>(id)] = 1;
    ++placed;
    return Status::OK();
  };

  size_t list_cursor = 0;
  size_t edge_cursor = 0;
  size_t dup_cursor = 0;
  std::vector<uint8_t> child_claimed(static_cast<size_t>(count), 0);
  for (int32_t i = 0; i < count; ++i) {
    const CoverNodeRec& rec = nodes.value()[static_cast<size_t>(i)];
    Node& n = tree->nodes_[static_cast<size_t>(i)];
    SUBSEQ_RETURN_NOT_OK(place(rec.object));
    if ((i == meta.root) != (rec.parent == -1) ||
        (rec.parent != -1 && (rec.parent < 0 || rec.parent >= count))) {
      return bad("node " + std::to_string(i) + " has parent index " +
                 std::to_string(rec.parent));
    }
    if (rec.dup_count < 0 ||
        static_cast<size_t>(rec.dup_count) > dups.value().size() - dup_cursor) {
      return bad("node " + std::to_string(i) +
                 " duplicate list overruns the section");
    }
    if (rec.list_count < 0 ||
        static_cast<size_t>(rec.list_count) >
            lists.value().size() - list_cursor) {
      return bad("node " + std::to_string(i) + " lists overrun the section");
    }
    n.object = rec.object;
    n.top_level = rec.top_level;
    n.parent = rec.parent;
    tree->object_node_[rec.object] = i;
    for (int32_t d = 0; d < rec.dup_count; ++d) {
      const ObjectId dup = dups.value()[dup_cursor++];
      SUBSEQ_RETURN_NOT_OK(place(dup));
      n.duplicates.push_back(dup);
      tree->object_node_[dup] = i;
    }
    int32_t prev_level = 0;
    for (int32_t l = 0; l < rec.list_count; ++l) {
      const CoverListRec& list = lists.value()[list_cursor++];
      if (l > 0 && list.level >= prev_level) {
        return bad("node " + std::to_string(i) +
                   " lists are not sorted by descending level");
      }
      prev_level = list.level;
      if (list.level > rec.top_level) {
        return bad("node " + std::to_string(i) + " has a list above its "
                   "top level");
      }
      if (list.edge_count < 0 ||
          static_cast<size_t>(list.edge_count) >
              edges.value().size() - edge_cursor) {
        return bad("node " + std::to_string(i) +
                   " edges overrun the section");
      }
      std::vector<Edge> members;
      members.reserve(static_cast<size_t>(list.edge_count));
      for (int32_t g = 0; g < list.edge_count; ++g) {
        const CoverEdgeRec& e = edges.value()[edge_cursor++];
        if (e.child < 0 || e.child >= count) {
          return bad("edge child index " + std::to_string(e.child) +
                     " out of range");
        }
        if (child_claimed[static_cast<size_t>(e.child)] ||
            e.child == meta.root) {
          return bad("node " + std::to_string(e.child) +
                     " is claimed by two parents");
        }
        child_claimed[static_cast<size_t>(e.child)] = 1;
        const CoverNodeRec& child = nodes.value()[static_cast<size_t>(e.child)];
        if (child.top_level != list.level - 1) {
          return bad("edge to node " + std::to_string(e.child) +
                     " violates the level structure");
        }
        if (child.parent != i) {
          return bad("edge to node " + std::to_string(e.child) +
                     " disagrees with its parent back-link");
        }
        if (!std::isfinite(e.distance) || e.distance < 0.0 ||
            e.distance > tree->Radius(list.level)) {
          return bad("edge to node " + std::to_string(e.child) +
                     " exceeds its covering radius");
        }
        members.push_back(Edge{e.child, e.distance});
      }
      n.lists.emplace_back(list.level, std::move(members));
    }
  }
  if (list_cursor != lists.value().size() ||
      edge_cursor != edges.value().size() ||
      dup_cursor != dups.value().size()) {
    return bad("sections hold entries no node references");
  }
  if (placed != meta.num_objects) {
    return bad("nodes place " + std::to_string(placed) + " of " +
               std::to_string(meta.num_objects) + " objects");
  }
  for (int32_t i = 0; i < count; ++i) {
    if (i != meta.root && !child_claimed[static_cast<size_t>(i)]) {
      return bad("node " + std::to_string(i) + " is unreachable");
    }
  }

  // Deterministic seeded spot-check of stored edge distances against
  // the oracle (every edge for small trees) — catches checksum-intact
  // snapshots loaded against the wrong dataset or distance.
  const int64_t total_edges = meta.edge_total;
  if (total_edges > 0) {
    constexpr int64_t kSpotChecks = 256;
    std::vector<uint8_t> check_edge;
    if (total_edges <= kSpotChecks) {
      check_edge.assign(static_cast<size_t>(total_edges), 1);
    } else {
      check_edge.assign(static_cast<size_t>(total_edges), 0);
      Rng rng(0x2B6A49D1F08C7E35ULL ^ static_cast<uint64_t>(total_edges));
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
    int64_t cursor = 0;
    for (const Node& n : tree->nodes_) {
      for (const auto& [lvl, members] : n.lists) {
        (void)lvl;
        for (const Edge& edge : members) {
          if (check_edge[static_cast<size_t>(cursor++)] &&
              oracle.Distance(
                  n.object,
                  tree->nodes_[static_cast<size_t>(edge.child)].object) !=
                  edge.distance) {
            return bad("stored edge distances disagree with the oracle — "
                       "was the tree saved for a different dataset or "
                       "distance?");
          }
        }
      }
    }
  }
  return tree;
}

}  // namespace subseq
