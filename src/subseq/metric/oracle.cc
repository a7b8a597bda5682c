#include "subseq/metric/oracle.h"

#include <algorithm>
#include <utility>

namespace subseq {

namespace {

// Ids translated per call of a remapped batched evaluator: the scan
// hands at most one 256-id block at a time, so one chunk covers it.
constexpr size_t kRemapChunk = 256;

// `query` seen through `to_parent` (local id -> parent id). A payload
// is rebuilt over local ids with `bound` / `lb_offset` as its provider;
// a plain function stays plain.
template <typename ToParent>
QueryDistanceFn Remap(const QueryDistanceFn& query, ToParent to_parent,
                      std::shared_ptr<const QueryLowerBound> bound,
                      ObjectId lb_offset) {
  const PrunableQueryFn* parent = GetPrunable(query);
  if (parent == nullptr) {
    return [&query, to_parent](ObjectId id) { return query(to_parent(id)); };
  }
  PrunableQueryFn local;
  local.fn = [&query, to_parent](ObjectId id) {
    return query(to_parent(id));
  };
  local.lower_bound = std::move(bound);
  local.lb_offset = lb_offset;
  if (parent->many) {
    // `parent` points into `query`'s own storage, which outlives this
    // function by the caller's contract.
    local.many = [parent, to_parent](std::span<const ObjectId> ids,
                                     double* out) {
      ObjectId mapped[kRemapChunk];
      for (size_t i = 0; i < ids.size(); i += kRemapChunk) {
        const size_t n = std::min(kRemapChunk, ids.size() - i);
        for (size_t j = 0; j < n; ++j) mapped[j] = to_parent(ids[i + j]);
        parent->many(std::span<const ObjectId>(mapped, n), out + i);
      }
    };
  }
  return QueryDistanceFn(std::move(local));
}

}  // namespace

QueryDistanceFn OffsetQuery(const QueryDistanceFn& query, ObjectId offset) {
  const PrunableQueryFn* parent = GetPrunable(query);
  return Remap(
      query, [offset](ObjectId id) { return id + offset; },
      parent != nullptr ? parent->lower_bound : nullptr,
      parent != nullptr ? parent->lb_offset + offset : 0);
}

QueryDistanceFn MemberQuery(const QueryDistanceFn& query,
                            const ObjectId* members,
                            std::shared_ptr<const QueryLowerBound> bound) {
  return Remap(
      query, [members](ObjectId id) { return members[id]; },
      std::move(bound), 0);
}

}  // namespace subseq
