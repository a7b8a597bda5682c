// MatchServer<T> — the serving subsystem: many concurrent clients, one
// engine.
//
// PR 1 made the matcher a parallel *library*: one call uses all cores.
// The MatchServer is the step to *serving*: it owns the window catalog
// (steps 1-2, built once) with one prebuilt index per configured
// IndexKind, admits queries from any number of client threads, and runs
// an admission/coalescing loop on a dedicated service thread:
//
//   clients --Submit--> RequestQueue --DrainWait--> admission batch
//     -> PlanCoalesce: group by (IndexKind, epsilon — Type III's
//        epsilon_max, the one epsilon its filter runs at)
//     -> CoalescedFilterSegments: ONE shared BatchRangeQuery per group,
//        per-query demux of hits + per-query stats split
//     -> per-query step 5 (verification) dispatched to the ThreadPool
//        via SubmitDetached; the completion callback fulfills the
//        query's Future — the loop never blocks on verification and
//        immediately drains the arrivals that accumulated meanwhile.
//        The dispatched task is an entry point, not a confinement: Type
//        I's step 5 verifies candidate regions by chunked work-stealing
//        over exec.num_threads, which still fans out from inside a pool
//        worker — so one admitted query's verification tail spreads
//        across idle workers instead of serializing on the one detached
//        task that carried it. Types II and III run the serial chain
//        search on their task.
//
// Serving contract (the same determinism bar as the library): a request
// answered through the server is element-wise identical — matches,
// best-pair, and every MatchQueryStats field — to the same call made
// directly on a SubsequenceMatcher with the same options, at any
// concurrency level and any exec.num_threads setting. Coalescing, like
// threading, buys wall-clock time only.
//
// Live ingest: AppendSequence / RetireSequence derive a new immutable
// epoch (frame/matcher.h WithAppended / WithRetired — the old base
// index is shared, only the delta scan and tombstone mask rebuild) and
// publish it RCU-style: the whole serving state lives in one
// shared_ptr<const EpochState> that ServeBatch acquires ONCE per
// admission round, so every in-flight query runs start to finish
// against exactly one epoch while the next is built off-thread. When an
// epoch's delta grows past MatcherOptions::delta_merge_threshold
// windows, a background merge on the shared ThreadPool cold-rebuilds
// every kind over the database's next epoch and publishes the result —
// unless ingest advanced the epoch meanwhile, in which case the stale
// merge is discarded (publishes serialize on ingest_mu_, so an epoch id
// is only ever published once). The segment cache keys on the epoch, so
// a swap can never serve a stale hit; dead-epoch entries are swept
// lazily, a bounded slice per admission round.

#ifndef SUBSEQ_SERVE_MATCH_SERVER_H_
#define SUBSEQ_SERVE_MATCH_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "subseq/core/sequence.h"
#include "subseq/core/status.h"
#include "subseq/frame/matcher.h"
#include "subseq/serve/coalescer.h"
#include "subseq/serve/future.h"
#include "subseq/serve/match_request.h"
#include "subseq/serve/request_queue.h"
#include "subseq/serve/segment_cache.h"

namespace subseq {

/// Server configuration.
struct MatchServerOptions {
  /// Framework parameters shared by every index the server builds
  /// (lambda, lambda0, per-index tunables, exec). matcher.index_kind is
  /// superseded by `index_kinds` and only consulted as the default when
  /// `index_kinds` is empty.
  MatcherOptions matcher;
  /// The index backends to prebuild, one matcher pipeline each; requests
  /// pick one via MatchRequest::index_kind (default: the first entry).
  /// Empty defaults to {matcher.index_kind}. Duplicates are ignored.
  std::vector<IndexKind> index_kinds;
  /// Cap on requests admitted per coalescing round; 0 = drain everything
  /// pending. Bounds per-round memory under extreme backlog.
  size_t max_batch = 0;
  /// Byte budget of the cross-round segment-result cache
  /// (serve/segment_cache.h): unique segments' filter hit lists and
  /// per-hit exact distances are kept across admission rounds, so hot
  /// repeated segments skip both the index traversal and the distance
  /// fill on later rounds. The budget is split as a segmented LRU: new
  /// entries wait in a probation segment of a quarter of it, and an
  /// entry's first hit moves it to the protected rest — so segments
  /// that are never hit (distinct-query traffic) hold at most a quarter
  /// of the budget. Each entry is charged the heap it occupies
  /// (SegmentResultCache::EntryCharge), so the budget bounds the cache's
  /// memory. 0 disables the cache entirely (coalescing-only
  /// serving). Results and per-request stats are bit-identical either
  /// way — the cache, like coalescing, changes executed work only.
  size_t cache_capacity_bytes = 64ull << 20;  // 64 MiB, on by default
  /// When non-empty, Start loads every configured kind's index from this
  /// snapshot (opened once, shared across kinds, per
  /// matcher.snapshot_load_mode) instead of rebuilding — instant start.
  /// The snapshot must have been saved by SaveSnapshot (or
  /// SubsequenceMatcher::SaveIndex / BuildToSnapshot for a single kind)
  /// over the same database and options; missing kind blocks or any
  /// mismatch fail Start with a precise status. A server started from a
  /// snapshot answers bit-identically to one that rebuilt.
  std::string snapshot_path;
};

/// Aggregate serving counters; snapshot via MatchServer::stats().
struct ServeStats {
  /// Requests admitted into the coalescing loop.
  int64_t queries_admitted = 0;
  /// DrainWait rounds that admitted at least one request.
  int64_t admission_batches = 0;
  /// Shared BatchRangeQuery calls issued (one per coalesced group).
  int64_t filter_calls = 0;
  /// Requests whose filter shared a call with at least one other request
  /// — the cross-query coalescing the server exists for.
  int64_t coalesced_queries = 0;
  /// Index distance computations actually executed across all shared
  /// filter calls.
  int64_t filter_computations = 0;
  /// What the same filters would have cost run stand-alone (the sum of
  /// every request's reported MatchQueryStats::filter_computations). The
  /// gap to `filter_computations` is the work cross-query segment
  /// sharing eliminated.
  int64_t billed_filter_computations = 0;
  /// Segment queries answered through a bit-identical representative
  /// instead of their own index traversal — usually contributed by a
  /// concurrent query; a query's own internal repeats also count.
  int64_t segments_shared = 0;
  /// Unique segments answered from the cross-round SegmentResultCache
  /// (index traversal AND per-hit distance pass skipped).
  int64_t cache_hits = 0;
  /// Unique segments that had to go to the index and were then cached.
  int64_t cache_misses = 0;
  /// Cache entries evicted to stay within cache_capacity_bytes.
  int64_t cache_evictions = 0;
  /// Index distance computations the cache eliminated: the stand-alone
  /// cost of every warm unique segment, per round — what
  /// filter_computations would additionally have executed with the cache
  /// off (in-round sharing still applied). Billing is unaffected:
  /// billed_filter_computations >= filter_computations +
  /// cache_shared_computations always.
  int64_t cache_shared_computations = 0;
  /// The database epoch currently being served (a fresh Start serves
  /// its database's epoch, 0 for a bulk-loaded one; each ingest or
  /// merge publish advances it by one).
  uint64_t epoch = 0;
  /// Sequences appended / retired through the server so far.
  int64_t appends = 0;
  int64_t retires = 0;
  /// Background delta merges published (scheduled merges that lost the
  /// publish race to a newer epoch are not counted).
  int64_t merges = 0;
  /// Windows covered by the serving epoch's base index / its delta scan.
  int64_t base_windows = 0;
  int64_t delta_windows = 0;
};

/// The serving frontend over one sequence database. Move-pinned (neither
/// copyable nor movable): worker closures hold `this`. `db` and `dist`
/// must outlive the server. Thread-safe: Submit from any thread.
template <typename T>
class MatchServer {
 public:
  /// Builds the window catalog and one index per configured kind (the
  /// offline steps 1-2, run once here), then starts the service thread.
  /// Fails on invalid options, exactly like SubsequenceMatcher::Build.
  static Result<std::unique_ptr<MatchServer<T>>> Start(
      const SequenceDatabase<T>& db, const SequenceDistance<T>& dist,
      MatchServerOptions options = {});

  /// Drains and stops (Shutdown), then tears down the indexes.
  ~MatchServer();

  MatchServer(const MatchServer&) = delete;
  MatchServer& operator=(const MatchServer&) = delete;

  /// Enqueues one request; the returned future completes when the answer
  /// is ready. Never blocks on other queries' work. Invalid requests
  /// (empty query, non-finite or negative epsilon, non-positive
  /// epsilon_increment — see ValidateMatchRequest) fail fast: the future
  /// completes immediately with InvalidArgument and nothing enters the
  /// pipeline. Requests submitted after Shutdown complete immediately
  /// with an error status. Callable from any number of threads
  /// concurrently.
  Future<MatchResult> Submit(MatchRequest<T> request);

  /// Stops admitting, drains every queued and in-flight request to
  /// completion (their futures all complete), and joins the service
  /// thread. Idempotent; called by the destructor.
  void Shutdown();

  /// Appends one sequence as a new epoch: every configured kind derives
  /// its matcher (shared base + grown delta), and the new EpochState is
  /// published atomically. Requests admitted before the publish run
  /// entirely against the previous epoch; requests admitted after see
  /// the appended sequence. Synchronous (the epoch is serving on
  /// return); callable from any thread, serialized against other ingest
  /// calls. May schedule a background merge (see file comment). Returns
  /// the new epoch id, or Unavailable after Shutdown.
  Result<uint64_t> AppendSequence(Sequence<T> seq);

  /// Retires one sequence as a new epoch: its windows are tombstoned —
  /// masked out of every subsequent filter result — but never
  /// renumbered, so ObjectIds stay stable. Fails on out-of-range or
  /// already-retired ids, or Unavailable after Shutdown. Returns the
  /// new epoch id.
  Result<uint64_t> RetireSequence(SeqId seq);

  /// The serving pipeline for one configured kind (nullptr if the kind
  /// was not configured). The window catalog is shared state: every
  /// kind's pipeline partitions the database identically. The pointer
  /// is valid until the NEXT epoch publish (AppendSequence /
  /// RetireSequence / background merge) — callers interleaving ingest
  /// must re-fetch after each ingest call.
  const SubsequenceMatcher<T>* matcher(IndexKind kind) const;

  /// The configured kinds, in configuration order (requests default to
  /// the first).
  const std::vector<IndexKind>& index_kinds() const { return kinds_; }

  /// Writes one snapshot holding the shared window catalog plus every
  /// configured kind's index block — the file a later Start with
  /// options.snapshot_path reloads. Safe to call while serving: indexes
  /// are immutable after Start, so the save reads stable state.
  Status SaveSnapshot(const std::string& path) const;

  /// Aggregate serving counters so far. Exact once quiescent (after
  /// Shutdown or with no request in flight); monotonic always.
  ServeStats stats() const;

 private:
  struct Pending {
    MatchRequest<T> request;
    Promise<MatchResult> promise;
  };

  /// One immutable epoch's complete serving state: every configured
  /// kind's matcher, all at the same database epoch. Published behind a
  /// shared_ptr (RCU): readers acquire it once per admission round,
  /// dispatched verification tasks keep their round's state alive via
  /// the captured shared_ptr, and a dead epoch's matchers (and the base
  /// indexes only they reference) free when the last in-flight query
  /// drops the last reference.
  struct EpochState {
    std::vector<std::unique_ptr<SubsequenceMatcher<T>>> matchers;  // by kinds_
    uint64_t epoch = 0;
  };

  MatchServer() = default;

  /// The serving state for this instant (never null after Start).
  std::shared_ptr<const EpochState> AcquireState() const;
  /// Swaps the serving state (callers serialize on ingest_mu_).
  void PublishState(std::shared_ptr<const EpochState> next);
  /// Schedules a background merge if the current delta passed the
  /// threshold and none is in flight. Caller holds ingest_mu_.
  void MaybeScheduleMerge();
  /// Background merge body (pool task): cold-rebuilds `from`'s kinds at
  /// the next epoch id and publishes unless ingest advanced past
  /// `from->epoch` meanwhile.
  void RunMerge(std::shared_ptr<const EpochState> from);
  /// Shared tail of AppendSequence / RetireSequence.
  Result<uint64_t> PublishDerived(
      std::shared_ptr<EpochState> next);

  /// The admission/coalescing loop body (service thread).
  void ServeLoop();
  /// Plans and executes one admission batch.
  void ServeBatch(std::vector<Pending>* batch);
  /// Hands one request's remaining work to the pool as a detached task.
  void Dispatch(std::function<MatchResult()> work, Promise<MatchResult> promise);
  /// Step 5 (for Type III, its epsilon search too) for a request whose
  /// filter was coalesced.
  MatchResult RunFromHits(const SubsequenceMatcher<T>& m,
                          const MatchRequest<T>& request,
                          const std::vector<SegmentHit>& hits,
                          MatchQueryStats filter_stats) const;

  std::vector<IndexKind> kinds_;
  /// The published epoch (guarded by state_mu_; read via AcquireState —
  /// the lock covers only the shared_ptr copy, never any index work).
  std::shared_ptr<const EpochState> state_;
  mutable std::mutex state_mu_;
  /// Serializes ingest (append / retire / merge publish). Epoch ids are
  /// assigned and published only under this mutex, which is what makes
  /// them unique: a merge re-checks the current epoch at publish time
  /// and discards itself if ingest won the race.
  std::mutex ingest_mu_;
  bool merge_in_flight_ = false;  // guarded by ingest_mu_
  std::atomic<bool> ingest_closed_{false};
  int32_t delta_merge_threshold_ = 0;
  size_t max_batch_ = 0;
  /// Cross-round segment-result cache; nullptr when disabled. Touched
  /// only from the service thread (ServeBatch), so it needs no lock; the
  /// cache_* atomics below republish its counters for stats() readers.
  std::unique_ptr<SegmentResultCache> cache_;

  RequestQueue<Pending> queue_;
  std::thread service_;
  std::mutex shutdown_mu_;

  // Detached-task accounting: Shutdown waits until the last completion
  // callback has run.
  std::atomic<int64_t> in_flight_{0};
  mutable std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  std::atomic<int64_t> queries_admitted_{0};
  std::atomic<int64_t> admission_batches_{0};
  std::atomic<int64_t> filter_calls_{0};
  std::atomic<int64_t> coalesced_queries_{0};
  std::atomic<int64_t> filter_computations_{0};
  std::atomic<int64_t> billed_filter_computations_{0};
  std::atomic<int64_t> segments_shared_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};
  std::atomic<int64_t> cache_evictions_{0};
  std::atomic<int64_t> cache_shared_computations_{0};
  std::atomic<int64_t> appends_{0};
  std::atomic<int64_t> retires_{0};
  std::atomic<int64_t> merges_{0};
};

extern template class MatchServer<char>;
extern template class MatchServer<double>;
extern template class MatchServer<Point2d>;

}  // namespace subseq

#endif  // SUBSEQ_SERVE_MATCH_SERVER_H_
