#include "subseq/frame/lb_prefilter.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "subseq/core/check.h"
#include "subseq/distance/dtw.h"
#include "subseq/distance/erp.h"
#include "subseq/distance/simd/kernels.h"

namespace subseq {

namespace {

void ResizeFeatures(size_t n, bool planar, LbFeatureTable* out) {
  if (!planar) {
    out->first.resize(n);
    out->last.resize(n);
    out->min.resize(n);
    out->max.resize(n);
  } else {
    out->sum_y.resize(n);
  }
  out->sum.resize(n);
  out->abs_sum.resize(n);
}

// One window's features, accumulated element-sequentially in ascending
// order — the exact order LbKimBound / LbErpSumBound use on the query
// side, so feature arithmetic rounds identically on both sides.
void AccumulateWindowFeatures(std::span<const double> view, size_t i,
                              LbFeatureTable* out) {
  if (view.empty()) {
    out->first[i] = out->last[i] = out->min[i] = out->max[i] = 0.0;
  } else {
    out->first[i] = view.front();
    out->last[i] = view.back();
    double mn = view[0];
    double mx = view[0];
    for (size_t j = 1; j < view.size(); ++j) {
      mn = std::min(mn, view[j]);
      mx = std::max(mx, view[j]);
    }
    out->min[i] = mn;
    out->max[i] = mx;
  }
  const ErpSumFeatures sums = ComputeErpSumFeatures(view);
  out->sum[i] = sums.x;
  out->abs_sum[i] = sums.abs;
}

void AccumulateWindowFeatures(std::span<const Point2d> view, size_t i,
                              LbFeatureTable* out) {
  const ErpSumFeatures sums = ComputeErpSumFeatures(view);
  out->sum[i] = sums.x;
  out->sum_y[i] = sums.y;
  out->abs_sum[i] = sums.abs;
}

template <typename T>
std::shared_ptr<const LbFeatureTable> BuildTable(
    const SequenceDatabase<T>& db, const WindowCatalog& catalog,
    ObjectId begin, ObjectId end) {
  SUBSEQ_CHECK(0 <= begin && begin <= end && end <= catalog.num_windows());
  auto table = std::make_shared<LbFeatureTable>();
  table->first_window = begin;
  ResizeFeatures(static_cast<size_t>(end - begin),
                 std::is_same_v<T, Point2d>, table.get());
  for (ObjectId w = begin; w < end; ++w) {
    const WindowRef& ref = catalog.at(w);
    AccumulateWindowFeatures(db.at(ref.seq).Subsequence(ref.span),
                             static_cast<size_t>(w - begin), table.get());
  }
  return table;
}

template <typename T>
std::shared_ptr<const WindowLbPayloads> MakePayloads(
    const SequenceDatabase<T>& db, const WindowCatalog& catalog,
    std::span<const ObjectId> members) {
  auto payload = std::make_shared<WindowLbPayloads>();
  const size_t l = static_cast<size_t>(catalog.window_length());
  payload->count = static_cast<int32_t>(members.size());
  payload->window_length = catalog.window_length();
  constexpr bool kScalar = std::is_same_v<T, double>;
  if constexpr (kScalar) payload->elems.resize(members.size() * l);
  ResizeFeatures(members.size(), !kScalar, &payload->features);
  for (size_t i = 0; i < members.size(); ++i) {
    const WindowRef& ref = catalog.at(members[i]);
    const std::span<const T> view = db.at(ref.seq).Subsequence(ref.span);
    SUBSEQ_CHECK(view.size() == l);
    if constexpr (kScalar) {
      std::copy(view.begin(), view.end(),
                payload->elems.begin() + static_cast<ptrdiff_t>(i * l));
    }
    AccumulateWindowFeatures(view, i, &payload->features);
  }
  return payload;
}

}  // namespace

template <>
bool LbFeaturesApply<double>(const SequenceDistance<double>& dist) {
  if (const auto* dtw = dynamic_cast<const DtwDistance1D*>(&dist)) {
    return dtw->band() < 0;
  }
  return dynamic_cast<const ErpDistance1D*>(&dist) != nullptr;
}

template <>
bool LbFeaturesApply<Point2d>(const SequenceDistance<Point2d>& dist) {
  return dynamic_cast<const ErpDistance2D*>(&dist) != nullptr;
}

std::shared_ptr<const LbFeatureTable> BuildLbFeatureTable(
    const SequenceDatabase<double>& db, const WindowCatalog& catalog,
    ObjectId begin, ObjectId end) {
  return BuildTable(db, catalog, begin, end);
}

std::shared_ptr<const LbFeatureTable> BuildLbFeatureTable(
    const SequenceDatabase<Point2d>& db, const WindowCatalog& catalog,
    ObjectId begin, ObjectId end) {
  return BuildTable(db, catalog, begin, end);
}

std::shared_ptr<const WindowLbPayloads> MakeWindowLbPayloads(
    const SequenceDatabase<double>& db, const WindowCatalog& catalog,
    std::span<const ObjectId> members) {
  return MakePayloads(db, catalog, members);
}

std::shared_ptr<const WindowLbPayloads> MakeWindowLbPayloads(
    const SequenceDatabase<Point2d>& db, const WindowCatalog& catalog,
    std::span<const ObjectId> members) {
  return MakePayloads(db, catalog, members);
}

std::shared_ptr<const LbCascade> LbCascade::MakeDtw(
    const SequenceDatabase<double>& db, const WindowCatalog& catalog,
    std::span<const double> segment,
    std::shared_ptr<const LbFeatureTable> features,
    std::shared_ptr<const LbFeatureTable> delta_features) {
  auto side = std::make_shared<QuerySide>();
  if (static_cast<int32_t>(segment.size()) == catalog.window_length()) {
    side->envelope.emplace(segment, /*band=*/-1);
  }
  if (features != nullptr || delta_features != nullptr) {
    side->kim.emplace(segment);
  }
  SUBSEQ_CHECK(side->envelope.has_value() || side->kim.has_value());
  auto cascade = std::shared_ptr<LbCascade>(new LbCascade());
  cascade->query_ = std::move(side);
  cascade->db_ = &db;
  cascade->catalog_ = &catalog;
  cascade->features_ = std::move(features);
  cascade->delta_features_ = std::move(delta_features);
  cascade->window_length_ = catalog.window_length();
  return cascade;
}

std::shared_ptr<LbCascade> LbCascade::NewErp(
    const WindowCatalog& catalog, const LbErpSumBound& bound,
    std::shared_ptr<const LbFeatureTable> features,
    std::shared_ptr<const LbFeatureTable> delta_features) {
  auto side = std::make_shared<QuerySide>();
  side->erp.emplace(bound);
  auto cascade = std::shared_ptr<LbCascade>(new LbCascade());
  cascade->query_ = std::move(side);
  cascade->catalog_ = &catalog;
  cascade->features_ = std::move(features);
  cascade->delta_features_ = std::move(delta_features);
  cascade->window_length_ = catalog.window_length();
  return cascade;
}

std::shared_ptr<const LbCascade> LbCascade::MakeErp(
    const SequenceDatabase<double>& db, const WindowCatalog& catalog,
    std::span<const double> segment,
    std::shared_ptr<const LbFeatureTable> features,
    std::shared_ptr<const LbFeatureTable> delta_features) {
  auto cascade = NewErp(catalog, LbErpSumBound(segment), std::move(features),
                        std::move(delta_features));
  cascade->db_ = &db;
  return cascade;
}

std::shared_ptr<const LbCascade> LbCascade::MakeErp(
    const SequenceDatabase<Point2d>& db, const WindowCatalog& catalog,
    std::span<const Point2d> segment,
    std::shared_ptr<const LbFeatureTable> features,
    std::shared_ptr<const LbFeatureTable> delta_features) {
  auto cascade = NewErp(catalog, LbErpSumBound(segment), std::move(features),
                        std::move(delta_features));
  cascade->planar_db_ = &db;
  return cascade;
}

const double* LbCascade::WindowBase(ObjectId id) const {
  if (payload_ != nullptr) {
    return payload_->elems.data() +
           static_cast<size_t>(id) * static_cast<size_t>(window_length_);
  }
  const WindowRef& ref = catalog_->at(id);
  return db_->at(ref.seq).Subsequence(ref.span).data();
}

ErpSumFeatures LbCascade::WindowSums(ObjectId id) const {
  const WindowRef& ref = catalog_->at(id);
  return planar_db_ != nullptr
             ? ComputeErpSumFeatures(
                   planar_db_->at(ref.seq).Subsequence(ref.span))
             : ComputeErpSumFeatures(db_->at(ref.seq).Subsequence(ref.span));
}

const LbFeatureTable* LbCascade::FeaturesFor(ObjectId begin, int32_t count,
                                             size_t* row) const {
  if (payload_ != nullptr) {
    *row = static_cast<size_t>(begin);
    return &payload_->features;
  }
  for (const LbFeatureTable* table :
       {delta_features_.get(), features_.get()}) {
    if (table == nullptr || begin < table->first_window) continue;
    *row = static_cast<size_t>(begin - table->first_window);
    SUBSEQ_CHECK(*row + static_cast<size_t>(count) <= table->rows());
    return table;
  }
  return nullptr;
}

void LbCascade::LowerBoundBlock(ObjectId begin, int32_t count,
                                double cutoff, double* out) const {
  LbBlockCounts ignored;
  LowerBoundBlockStaged(begin, count, cutoff, out, &ignored);
}

void LbCascade::LowerBoundBlockStaged(ObjectId begin, int32_t count,
                                      double cutoff, double* out,
                                      LbBlockCounts* counts) const {
  if (query_->erp.has_value()) {
    const LbErpSumBound& erp = *query_->erp;
    size_t row = 0;
    if (const LbFeatureTable* f = FeaturesFor(begin, count, &row)) {
      erp.LowerBoundMany(f->sum.data() + row,
                         f->sum_y.empty() ? nullptr : f->sum_y.data() + row,
                         f->abs_sum.data() + row, static_cast<size_t>(count),
                         window_length_, out);
    } else {
      // No table covers the block (a tree base builds none): each
      // window's sums from its elements, bitwise equal to a table row.
      for (int32_t i = 0; i < count; ++i) {
        const ErpSumFeatures c = WindowSums(begin + i);
        erp.LowerBoundMany(&c.x, &c.y, &c.abs, 1, window_length_, out + i);
      }
    }
    for (int32_t i = 0; i < count; ++i) {
      if (out[i] > cutoff) ++counts->erp_pruned;
    }
    return;
  }
  DtwBlockStaged(begin, count, cutoff, out, counts);
}

void LbCascade::DtwBlockStaged(ObjectId begin, int32_t count, double cutoff,
                               double* out, LbBlockCounts* counts) const {
  const size_t stride = static_cast<size_t>(window_length_);
  size_t row = 0;
  const LbFeatureTable* f =
      query_->kim.has_value() ? FeaturesFor(begin, count, &row) : nullptr;

  if (f == nullptr) {
    // Envelope-only cascade (no feature table covers the block): the
    // block decomposes into memory-adjacent strided runs — one per
    // sequence crossed in the global catalog, exactly one against a
    // payload.
    SUBSEQ_CHECK(query_->envelope.has_value());
    const LbKeoghEnvelope& env = *query_->envelope;
    if (payload_ != nullptr) {
      env.LowerBoundMany(
          payload_->elems.data() + static_cast<size_t>(begin) * stride,
          stride, count, cutoff, out);
    } else {
      int32_t done = 0;
      while (done < count) {
        const WindowRef& ref = catalog_->at(begin + done);
        const int32_t run = std::min(
            count - done, catalog_->WindowsInSequence(ref.seq) - ref.index);
        const double* base = db_->at(ref.seq).Subsequence(ref.span).data();
        env.LowerBoundMany(base, stride, run, cutoff, out + done);
        done += run;
      }
    }
    for (int32_t i = 0; i < count; ++i) {
      if (out[i] > cutoff) ++counts->envelope_pruned;
    }
    return;
  }

  // Stage 1 — LB_Kim over the dense feature arrays: O(1) per candidate,
  // exact values (no abandon), so the survivor set is independent of
  // block grouping and dispatch level.
  query_->kim->LowerBoundMany(f->first.data() + row, f->last.data() + row,
                              f->min.data() + row, f->max.data() + row,
                              static_cast<size_t>(count), window_length_,
                              out);
  if (!query_->envelope.has_value()) {
    // A segment whose length is not the window length: LB_Kim is the
    // whole cascade.
    for (int32_t i = 0; i < count; ++i) {
      if (out[i] > cutoff) ++counts->kim_pruned;
    }
    return;
  }

  // Stage 2 — LB_Keogh over Kim survivors: gather survivor window
  // pointers four at a time through lb_keogh_block4 (its lanes are
  // independent, so scattered pointers bound identically to the strided
  // path), with LowerBoundAbandoning as the tail — the two produce
  // bitwise-identical values by the LowerBoundMany contract.
  const LbKeoghEnvelope& env = *query_->envelope;
  const simd::Kernels& kernels = simd::GetKernels();
  const double* upper = env.upper().data();
  const double* lower = env.lower().data();
  const double* ptrs[4];
  int32_t idxs[4];
  int32_t pending = 0;
  const auto flush = [&] {
    if (pending == 4) {
      double out4[4];
      kernels.lb_keogh_block4(upper, lower, stride, ptrs[0], ptrs[1],
                              ptrs[2], ptrs[3], cutoff, out4);
      for (int32_t g = 0; g < 4; ++g) out[idxs[g]] = out4[g];
    } else {
      for (int32_t g = 0; g < pending; ++g) {
        out[idxs[g]] = env.LowerBoundAbandoning(
            std::span<const double>(ptrs[g], stride), cutoff);
      }
    }
    for (int32_t g = 0; g < pending; ++g) {
      if (out[idxs[g]] > cutoff) ++counts->envelope_pruned;
    }
    pending = 0;
  };
  for (int32_t i = 0; i < count; ++i) {
    if (out[i] > cutoff) {
      ++counts->kim_pruned;
      continue;
    }
    ptrs[pending] = WindowBase(begin + i);
    idxs[pending] = i;
    if (++pending == 4) flush();
  }
  flush();
}

std::shared_ptr<const QueryLowerBound> LbCascade::BindTo(
    std::shared_ptr<const LowerBoundPayloads> payloads) const {
  auto windows =
      std::dynamic_pointer_cast<const WindowLbPayloads>(payloads);
  if (windows == nullptr || windows->window_length != window_length_) {
    return nullptr;
  }
  auto clone = std::shared_ptr<LbCascade>(new LbCascade());
  clone->query_ = query_;
  clone->payload_ = std::move(windows);
  clone->window_length_ = window_length_;
  return clone;
}

int64_t LbCascade::AdjacentRuns(ObjectId begin, int32_t count) const {
  if (count <= 0) return 0;
  if (payload_ != nullptr) return 1;
  int64_t runs = 0;
  int32_t done = 0;
  while (done < count) {
    const WindowRef& ref = catalog_->at(begin + done);
    const int32_t run = std::min(
        count - done, catalog_->WindowsInSequence(ref.seq) - ref.index);
    ++runs;
    done += run;
  }
  return runs;
}

template <>
std::shared_ptr<const QueryLowerBound> MakeSegmentLowerBound<double>(
    const SequenceDatabase<double>& db, const WindowCatalog& catalog,
    const SequenceDistance<double>& dist, std::span<const double> segment,
    std::shared_ptr<const LbFeatureTable> features,
    std::shared_ptr<const LbFeatureTable> delta_features) {
  if (const auto* dtw = dynamic_cast<const DtwDistance1D*>(&dist)) {
    if (dtw->band() >= 0) return nullptr;
    // LB_Keogh needs a window-length segment; LB_Kim, a feature table.
    if (static_cast<int32_t>(segment.size()) != catalog.window_length() &&
        features == nullptr && delta_features == nullptr) {
      return nullptr;
    }
    return LbCascade::MakeDtw(db, catalog, segment, std::move(features),
                              std::move(delta_features));
  }
  // ErpDistance1D's gap element is the constant 0.0 (ScalarGround), the
  // premise of the sum bound's admissibility proof.
  if (dynamic_cast<const ErpDistance1D*>(&dist) != nullptr) {
    return LbCascade::MakeErp(db, catalog, segment, std::move(features),
                              std::move(delta_features));
  }
  return nullptr;
}

template <>
std::shared_ptr<const QueryLowerBound> MakeSegmentLowerBound<Point2d>(
    const SequenceDatabase<Point2d>& db, const WindowCatalog& catalog,
    const SequenceDistance<Point2d>& dist, std::span<const Point2d> segment,
    std::shared_ptr<const LbFeatureTable> features,
    std::shared_ptr<const LbFeatureTable> delta_features) {
  // ErpDistance2D's gap element is the origin (Point2dGround), and its
  // ground distance is the Euclidean norm: the sum bound's premises.
  if (dynamic_cast<const ErpDistance2D*>(&dist) != nullptr) {
    return LbCascade::MakeErp(db, catalog, segment, std::move(features),
                              std::move(delta_features));
  }
  return nullptr;
}

}  // namespace subseq
