#include "subseq/frame/window_oracle.h"

#include <algorithm>
#include <type_traits>

#include "subseq/frame/lb_prefilter.h"

namespace subseq {

template <typename T>
QueryDistanceManyFn WindowOracle<T>::SegmentQueryMany(
    std::span<const T> segment) const {
  return [this, segment](std::span<const ObjectId> ids, double* out) {
    // Window views gathered per ComputeMany call; the linear scan hands
    // at most one 256-id block, so one chunk covers it.
    constexpr size_t kChunk = 256;
    std::span<const T> views[kChunk];
    for (size_t i = 0; i < ids.size(); i += kChunk) {
      const size_t n = std::min(kChunk, ids.size() - i);
      for (size_t j = 0; j < n; ++j) views[j] = WindowView(ids[i + j]);
      dist_.ComputeMany(segment, std::span<const std::span<const T>>(views, n),
                        out + i);
    }
  };
}

template <typename T>
std::shared_ptr<const LowerBoundPayloads>
WindowOracle<T>::MaterializeLbPayloads(
    std::span<const ObjectId> members) const {
  if constexpr (std::is_same_v<T, char>) {
    (void)members;
    return nullptr;
  } else {
    if (!LbFeaturesApply(dist_)) return nullptr;
    return MakeWindowLbPayloads(db_, catalog_, members);
  }
}

template class WindowOracle<char>;
template class WindowOracle<double>;
template class WindowOracle<Point2d>;

}  // namespace subseq
