// MatchRequest / MatchResult — the serving subsystem's wire types.
//
// A MatchRequest is a self-contained, owned description of one matcher
// query (the library's RangeSearch / LongestMatch / NearestMatch calls,
// reified as data so they can sit in a queue). A MatchResult carries the
// outcome plus the same per-query accounting the library reports — the
// serving contract is that a request answered through the MatchServer is
// element-wise identical, matches and stats, to the same call made
// directly on a SubsequenceMatcher.

#ifndef SUBSEQ_SERVE_MATCH_REQUEST_H_
#define SUBSEQ_SERVE_MATCH_REQUEST_H_

#include <cmath>
#include <optional>
#include <vector>

#include "subseq/core/status.h"
#include "subseq/frame/matcher.h"

namespace subseq {

/// Which of the paper's three query types a request runs (Section 3.2).
enum class MatchQueryType {
  /// Type I — every similar pair at `epsilon` (RangeSearch).
  kRangeSearch,
  /// Type II — a longest similar pair at `epsilon` (LongestMatch).
  kLongestMatch,
  /// Type III — a closest pair, searching up to `epsilon_max` in steps of
  /// `epsilon_increment` (NearestMatch). Its one filter pass runs at
  /// `epsilon_max`, so it coalesces and uses the segment cache keyed on
  /// `epsilon_max`, like Types I and II on `epsilon`.
  kNearestMatch,
};

/// One queued matcher query. The request owns its query elements: unlike
/// the library's span-based calls, a submitted request outlives the
/// caller's stack frame, so the elements travel with it.
template <typename T>
struct MatchRequest {
  /// Query type; selects which of epsilon / epsilon_max / epsilon_increment
  /// apply.
  MatchQueryType type = MatchQueryType::kRangeSearch;
  /// The query sequence (owned).
  std::vector<T> query;
  /// Similarity threshold for kRangeSearch / kLongestMatch.
  double epsilon = 0.0;
  /// kNearestMatch: largest distance worth reporting.
  double epsilon_max = 0.0;
  /// kNearestMatch: resolution of the distance search (> 0).
  double epsilon_increment = 0.0;
  /// Index backend to answer through. Must be one of the kinds the server
  /// was started with; nullopt uses the server's first configured kind.
  std::optional<IndexKind> index_kind;
};

/// Field validation for one request, mirroring MatcherOptions::Validate():
/// explicit InvalidArgument messages at the serving front door instead of
/// deep-pipeline CHECKs or silent misbehavior. MatchServer::Submit runs
/// this before a request may enqueue, so the pipeline (and the coalescer,
/// whose epsilon grouping and cache key both assume finite epsilons — a
/// NaN never compares equal to itself and would neither coalesce nor ever
/// hit the cache) only ever sees well-formed requests. Only the fields
/// the request's type actually consumes are validated.
template <typename T>
Status ValidateMatchRequest(const MatchRequest<T>& request) {
  if (request.query.empty()) {
    return Status::InvalidArgument(
        "MatchRequest: query must be non-empty");
  }
  switch (request.type) {
    case MatchQueryType::kRangeSearch:
    case MatchQueryType::kLongestMatch:
      if (!std::isfinite(request.epsilon) || request.epsilon < 0.0) {
        return Status::InvalidArgument(
            "MatchRequest: epsilon must be finite and >= 0");
      }
      break;
    case MatchQueryType::kNearestMatch:
      return ValidateNearestSchedule(request.epsilon_max,
                                     request.epsilon_increment);
  }
  return Status::OK();
}

/// The outcome of one request.
struct MatchResult {
  /// OK, or the library error the underlying call produced (e.g.
  /// OutOfRange when Type I exceeds max_verifications, InvalidArgument
  /// for a bad request). Non-OK results leave the payload fields
  /// (matches / best) empty; `stats` still reports the work done up to
  /// the error, exactly as the direct library call would have left its
  /// stats out-param.
  Status status;
  /// kRangeSearch: every verified pair. Empty for the other types.
  std::vector<SubsequenceMatch> matches;
  /// kLongestMatch / kNearestMatch: the best pair, or nullopt when no
  /// pair exists within the thresholds.
  std::optional<SubsequenceMatch> best;
  /// Exact pipeline accounting, identical to what the direct library
  /// call reports into its MatchQueryStats out-param.
  MatchQueryStats stats;
};

}  // namespace subseq

#endif  // SUBSEQ_SERVE_MATCH_REQUEST_H_
