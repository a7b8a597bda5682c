// Candidate generation — step 5's combinatorial core (Section 7).
//
// The filter (steps 3-4) yields SegmentHits: (query segment, database
// window) pairs at distance <= epsilon. This module turns hits into
// verification candidates:
//  * per-hit expansion ranges (the paper: for a hit (SSQ_{a,b}, SSX_c)
//    consider SQ starting in [a - l - lambda0, a] and ending in
//    [b, b + l + lambda0], SX starting in [c - l, c] and ending in
//    [c + l, c + 2l], where l = lambda/2);
//  * chains of consecutive matched windows (Figure 12's "consecutive
//    windows"): if windows i and i+1 of the same sequence both have hits,
//    a similar pair of length about (k+2) * l may span them, and the
//    Type II search starts from the longest chains.

#ifndef SUBSEQ_FRAME_CANDIDATES_H_
#define SUBSEQ_FRAME_CANDIDATES_H_

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "subseq/core/sequence.h"
#include "subseq/core/types.h"
#include "subseq/frame/windowing.h"

namespace subseq {

/// One filter result: a query segment within epsilon of a database window.
struct SegmentHit {
  Interval query_segment;
  ObjectId window = kInvalidId;
  double distance = 0.0;
};

/// The bounded region of (SQ, SX) pairs that may extend a hit or a chain
/// into a full match. All intervals are clamped to the owning sequences.
struct CandidateRegion {
  SeqId seq = kInvalidId;
  /// SQ candidates: begin in [q_begin_min, q_begin_max],
  /// end in [q_end_min, q_end_max].
  int32_t q_begin_min = 0;
  int32_t q_begin_max = 0;
  int32_t q_end_min = 0;
  int32_t q_end_max = 0;
  /// SX candidates, same encoding.
  int32_t x_begin_min = 0;
  int32_t x_begin_max = 0;
  int32_t x_end_min = 0;
  int32_t x_end_max = 0;
};

/// A maximal run of consecutive matched windows in one sequence.
struct WindowChain {
  SeqId seq = kInvalidId;
  /// Window indices [first, first + length) within the sequence.
  int32_t first_window_index = 0;
  int32_t length = 0;
  /// Union of the query segments that hit any window of the chain.
  Interval query_span;
};

/// The inclusive SX-end range [first, second] a step-5 enumerator scans
/// for one (SX begin, SQ length) inside a region — empty when
/// first > second. The single source of truth for this bound: the
/// verifiers (region and chain search) and the budget's
/// RegionVerificationCount share it, so the budget charge can never
/// drift from the work the verifiers actually enumerate.
inline std::pair<int32_t, int32_t> SxEndRange(const CandidateRegion& region,
                                              int32_t xb, int32_t qlen,
                                              int32_t lambda,
                                              int32_t lambda0) {
  return {std::max({region.x_end_min, xb + lambda, xb + qlen - lambda0}),
          std::min(region.x_end_max, xb + qlen + lambda0)};
}

/// Groups hits into maximal chains of consecutive windows per sequence.
/// Chains are returned longest-first (the Type II verification order).
/// Deterministic: the chain order depends only on the set of hit windows,
/// not on the order of `hits`.
std::vector<WindowChain> BuildChains(std::span<const SegmentHit> hits,
                                     const WindowCatalog& catalog);

/// The paper's per-hit expansion region (Section 7, step 5).
/// `query_length` / sequence length clamp the ranges.
CandidateRegion ExpandHit(const SegmentHit& hit, const WindowCatalog& catalog,
                          int32_t lambda, int32_t lambda0,
                          int32_t query_length, int32_t sequence_length);

/// The exact number of (SQ, SX) pairs the step-5 verifier enumerates for
/// `region` — its verification cost — computed by arithmetic alone, no
/// distance work. Mirrors the verification loops exactly (qb, then
/// qe >= max(q_end_min, qb + lambda), then xb, then xe in
/// [max(x_end_min, xb + lambda, xb + qlen - lambda0),
///  min(x_end_max, xb + qlen + lambda0)]), so charging a region's count
/// against a budget before verifying it reproduces the serial
/// per-pair accounting exactly (tests/frame/candidates_test.cc
/// cross-checks against brute-force enumeration).
int64_t RegionVerificationCount(const CandidateRegion& region, int32_t lambda,
                                int32_t lambda0);

/// Expansion region for a whole chain: SX may start up to l before the
/// chain and end up to l after it; SQ ranges come from the chain's query
/// span expanded by l + lambda0 on both sides.
CandidateRegion ExpandChain(const WindowChain& chain,
                            const WindowCatalog& catalog, int32_t lambda,
                            int32_t lambda0, int32_t query_length,
                            int32_t sequence_length);

}  // namespace subseq

#endif  // SUBSEQ_FRAME_CANDIDATES_H_
