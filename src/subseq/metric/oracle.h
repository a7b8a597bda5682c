// DistanceOracle: how metric indexes see the data.
//
// The indexes in this library (reference net, cover tree, MV pivots) are
// fully generic: they never touch sequences. They index opaque dense
// ObjectIds and obtain distances from a DistanceOracle (database-to-
// database) at build time and from a QueryDistanceFn (query-to-database)
// at query time. Any metric domain can be indexed this way; the
// subsequence framework adapts fixed-length windows + a SequenceDistance
// through frame/window_oracle.h.

#ifndef SUBSEQ_METRIC_ORACLE_H_
#define SUBSEQ_METRIC_ORACLE_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "subseq/core/types.h"

namespace subseq {

/// Distance access to a fixed collection of n objects with ids 0..n-1.
/// Implementations must be symmetric with d(x, x) = 0 and satisfy the
/// triangle inequality (the indexes' pruning is unsound otherwise).
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Number of indexed objects.
  virtual int32_t size() const = 0;

  /// Distance between database objects a and b.
  virtual double Distance(ObjectId a, ObjectId b) const = 0;

  /// Early-abandoning variant: must return the exact distance when it is
  /// <= upper_bound and may return any value > upper_bound otherwise.
  /// Index construction uses this to skip most of the DP work on far
  /// pairs. The default forwards to Distance().
  virtual double DistanceBounded(ObjectId a, ObjectId b,
                                 double upper_bound) const {
    (void)upper_bound;
    return Distance(a, b);
  }
};

/// Distance from an (external) query object to a database object.
using QueryDistanceFn = std::function<double(ObjectId)>;

/// Per-stage prune attribution for one LowerBoundBlock call. The
/// counters are observability only — pruned candidates stay fully
/// billed in distance_computations regardless of which stage cut them.
struct LbBlockCounts {
  int64_t kim_pruned = 0;       // cut by the O(1) LB_Kim stage
  int64_t envelope_pruned = 0;  // cut by the LB_Keogh envelope stage
  int64_t erp_pruned = 0;       // cut by the |sum(Q)-sum(C)| ERP stage
};

/// Opaque candidate-side precomputation a QueryLowerBound can be bound
/// to: a routed cell materializes its members' windows (and their
/// cascade features) cell-contiguously so bounds evaluate over dense
/// cell-local ids instead of scattered global ones. Concrete providers
/// downcast to the payload type they materialized.
class LowerBoundPayloads {
 public:
  virtual ~LowerBoundPayloads() = default;
};

/// Implemented by oracles whose lower-bound providers can be rebound to
/// a member subset (see frame/window_oracle.h). `members[i]` is the
/// global id that becomes local id i in the returned payload.
class LowerBoundPayloadSource {
 public:
  virtual ~LowerBoundPayloadSource() = default;

  virtual std::shared_ptr<const LowerBoundPayloads> MaterializeLbPayloads(
      std::span<const ObjectId> members) const = 0;
};

/// Per-query lower-bound provider for scan prefiltering (the LB_Kim →
/// LB_Keogh / LB_ERP cascade is the shipped instance; see
/// frame/lb_prefilter.h). LowerBoundBlock fills out[i] with an
/// admissible lower bound on query(begin + i) for i in [0, count): a
/// candidate whose bound exceeds the scan's cutoff can be skipped
/// without ever evaluating the exact distance, with no false
/// dismissals. Bounds follow the early-abandon contract — exact
/// when <= cutoff, any value > cutoff otherwise — and the
/// (bound > cutoff) DECISION must be independent of how candidates are
/// grouped into blocks, so sharded == unsharded pruning holds.
class QueryLowerBound {
 public:
  virtual ~QueryLowerBound() = default;

  virtual void LowerBoundBlock(ObjectId begin, int32_t count, double cutoff,
                               double* out) const = 0;

  /// LowerBoundBlock plus per-stage prune attribution. The default
  /// forwards to LowerBoundBlock and attributes every pruned candidate
  /// to the envelope stage, so single-stage providers (tests, custom
  /// bounds) need not override. Implementations must keep the bounds
  /// in `out` — and therefore the prune decisions — identical to
  /// LowerBoundBlock's; `counts` is additive observability only.
  virtual void LowerBoundBlockStaged(ObjectId begin, int32_t count,
                                     double cutoff, double* out,
                                     LbBlockCounts* counts) const {
    LowerBoundBlock(begin, count, cutoff, out);
    for (int32_t i = 0; i < count; ++i) {
      if (out[i] > cutoff) ++counts->envelope_pruned;
    }
  }

  /// Rebinds this provider to a materialized candidate payload (a
  /// routed cell's contiguous member windows), returning a provider
  /// that speaks payload-local ids 0..count-1 and produces the SAME
  /// bound values the original produces for the corresponding global
  /// ids. The default — correct for providers without payload support —
  /// returns nullptr, and callers must then fall back to scanning
  /// unpruned (or to the global provider, where ids allow).
  virtual std::shared_ptr<const QueryLowerBound> BindTo(
      std::shared_ptr<const LowerBoundPayloads> payloads) const {
    (void)payloads;
    return nullptr;
  }
};

/// Batched exact evaluation: fills out[i] with a query's distance to
/// ids[i] for every i.
using QueryDistanceManyFn =
    std::function<void(std::span<const ObjectId> ids, double* out)>;

/// The step-4 query payload: the exact distance function plus two
/// optional accelerators. It is stored INSIDE the std::function, so
/// every pass-through call site — the serving coalescer, batching —
/// forwards it untouched; LinearScan and ReferenceNet recover it via
/// GetPrunable, and the id remaps (OffsetQuery, routed cells) rebuild it
/// over their local ids. Neither accelerator can change a hit or a
/// billed count:
///  * `lower_bound` lets a linear scan skip candidates whose admissible
///    bound exceeds the padded cutoff (see QueryLowerBound), and the
///    reference-net walk skip the exact call at nodes it proves inert;
///  * `many` evaluates a block of candidates in one call. It must set
///    out[i] to exactly fn(ids[i]), bit for bit — the
///    SequenceDistance::ComputeMany contract it is built from (see
///    WindowOracle::SegmentQueryMany) — so the scan hands it each
///    block's cascade survivors, or the whole block when there is no
///    bound, instead of calling fn once per id.
/// Wrapping the function in a fresh lambda (as counting decorators do)
/// deliberately sheds the payload: such queries scan unpruned, one id at
/// a time, which keeps their executed-call counts exact.
struct PrunableQueryFn {
  std::function<double(ObjectId)> fn;
  std::shared_ptr<const QueryLowerBound> lower_bound;
  /// Added to scanned ids (or a walk's node objects) before
  /// LowerBoundBlock: an inner shard reads shard-local ids while the
  /// provider speaks global ids.
  ObjectId lb_offset = 0;
  /// Optional batched evaluator over the same ids as `fn`.
  QueryDistanceManyFn many;

  double operator()(ObjectId id) const { return fn(id); }
};

/// The PrunableQueryFn payload of a query function, or nullptr when the
/// query carries no lower-bound provider.
inline const PrunableQueryFn* GetPrunable(const QueryDistanceFn& query) {
  return query.target<PrunableQueryFn>();
}

/// The query seen through the id remap local -> local + offset: a
/// shard's, or the live delta scan's, id range inside its parent's. The
/// exact function and any batched evaluator translate ids; a lower-bound
/// provider rides through with lb_offset advanced by `offset`. Prune
/// decisions are block-grouping independent (QueryLowerBound contract)
/// and batched values equal per-id ones (PrunableQueryFn contract), so
/// a scan over the remapped range prunes and answers exactly like the
/// parent's scan over the same ids. `query` must outlive the result.
QueryDistanceFn OffsetQuery(const QueryDistanceFn& query, ObjectId offset);

/// The query seen through the id remap local -> members[local]: a
/// routed cell's scattered member set. The exact function and any
/// batched evaluator translate ids; the lower-bound provider is
/// replaced by `bound`, which must already speak local ids (a provider
/// rebound to the cell's payload, or nullptr to scan unpruned).
/// `query` and `members` must outlive the result.
QueryDistanceFn MemberQuery(const QueryDistanceFn& query,
                            const ObjectId* members,
                            std::shared_ptr<const QueryLowerBound> bound);

/// The prune cutoff for a threshold `t`: a lower bound must exceed this
/// — not merely t — before the work it stands in for is skipped. A range
/// scan uses t = epsilon (the candidate is skipped); the reference-net
/// walk uses t = epsilon + the radius its node's highest child list is
/// tested against (the node's exact call is skipped;
/// metric/reference_net.h). The relative + absolute margin
/// absorbs floating-point summation noise between an admissible
/// real-arithmetic bound and the computed distance, and it is far above
/// the few-ulp error of the walk's computed d - radius, so rounding at
/// the boundary can never cause a false dismissal: bound > cutoff(t)
/// implies the computed comparison against t goes the same way. That
/// covers bounds whose rounding error is relative (sums of non-negative
/// terms); a bound summing signed values errs by an absolute amount and
/// must subtract its own slack first (distance/lb_erp.h).
inline double LowerBoundPruneCutoff(double t) {
  return t * (1.0 + 1e-9) + 1e-12;
}

/// An oracle over an explicit vector of points with a callable distance —
/// handy for tests and small in-memory datasets.
template <typename Point, typename Fn>
class VectorOracle final : public DistanceOracle {
 public:
  VectorOracle(std::vector<Point> points, Fn fn)
      : points_(std::move(points)), fn_(std::move(fn)) {}

  int32_t size() const override {
    return static_cast<int32_t>(points_.size());
  }

  double Distance(ObjectId a, ObjectId b) const override {
    return fn_(points_[static_cast<size_t>(a)],
               points_[static_cast<size_t>(b)]);
  }

  const Point& point(ObjectId id) const {
    return points_[static_cast<size_t>(id)];
  }

  /// A query function measuring from `q` using this oracle's distance.
  QueryDistanceFn QueryFrom(Point q) const {
    return [this, q = std::move(q)](ObjectId id) {
      return fn_(q, points_[static_cast<size_t>(id)]);
    };
  }

 private:
  std::vector<Point> points_;
  Fn fn_;
};

}  // namespace subseq

#endif  // SUBSEQ_METRIC_ORACLE_H_
