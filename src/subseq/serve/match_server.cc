#include "subseq/serve/match_server.h"

#include <algorithm>
#include <string>

#include "subseq/exec/thread_pool.h"
#include "subseq/snapshot/reader.h"
#include "subseq/snapshot/writer.h"

namespace subseq {

namespace {

MatchResult ErrorResult(Status status) {
  MatchResult result;
  result.status = std::move(status);
  return result;
}

}  // namespace

template <typename T>
Result<std::unique_ptr<MatchServer<T>>> MatchServer<T>::Start(
    const SequenceDatabase<T>& db, const SequenceDistance<T>& dist,
    MatchServerOptions options) {
  std::vector<IndexKind> kinds = options.index_kinds;
  if (kinds.empty()) kinds.push_back(options.matcher.index_kind);
  // Dedupe preserving configuration order.
  std::vector<IndexKind> unique_kinds;
  for (const IndexKind kind : kinds) {
    if (std::find(unique_kinds.begin(), unique_kinds.end(), kind) ==
        unique_kinds.end()) {
      unique_kinds.push_back(kind);
    }
  }

  auto server = std::unique_ptr<MatchServer<T>>(new MatchServer<T>());
  server->max_batch_ = options.max_batch;
  if (options.cache_capacity_bytes > 0) {
    server->cache_ =
        std::make_unique<SegmentResultCache>(options.cache_capacity_bytes);
  }
  // Snapshot-backed start: open the file once and share it across every
  // kind's load (each kind has its own "idx.<kind>.*" block; the catalog
  // block is validated by each load against the live database). A load
  // failure fails Start — a server must never come up over a snapshot it
  // cannot fully verify.
  std::shared_ptr<const SnapshotFile> snapshot;
  if (!options.snapshot_path.empty()) {
    auto file = SnapshotFile::Open(options.snapshot_path,
                                   options.matcher.snapshot_load_mode);
    SUBSEQ_RETURN_NOT_OK(file.status());
    snapshot = std::move(file).ValueOrDie();
  }
  auto state = std::make_shared<EpochState>();
  for (const IndexKind kind : unique_kinds) {
    MatcherOptions matcher_options = options.matcher;
    matcher_options.index_kind = kind;
    auto matcher =
        snapshot != nullptr
            ? SubsequenceMatcher<T>::LoadIndexFrom(db, dist, matcher_options,
                                                   snapshot)
            : SubsequenceMatcher<T>::Build(db, dist, matcher_options);
    SUBSEQ_RETURN_NOT_OK(matcher.status());
    server->kinds_.push_back(kind);
    state->matchers.push_back(std::move(matcher).ValueOrDie());
  }
  state->epoch = state->matchers.front()->epoch();
  server->state_ = std::move(state);
  server->delta_merge_threshold_ = options.matcher.delta_merge_threshold;
  // A server started mid-epoch (a snapshot saved between ingests) may
  // already carry a delta past the threshold; merge it like any other.
  {
    std::lock_guard<std::mutex> lock(server->ingest_mu_);
    server->MaybeScheduleMerge();
  }
  server->service_ = std::thread([raw = server.get()] { raw->ServeLoop(); });
  return server;
}

template <typename T>
auto MatchServer<T>::AcquireState() const
    -> std::shared_ptr<const EpochState> {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

template <typename T>
void MatchServer<T>::PublishState(std::shared_ptr<const EpochState> next) {
  std::lock_guard<std::mutex> lock(state_mu_);
  state_ = std::move(next);
}

template <typename T>
Result<uint64_t> MatchServer<T>::AppendSequence(Sequence<T> seq) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (ingest_closed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("MatchServer: AppendSequence after Shutdown");
  }
  const std::shared_ptr<const EpochState> current = AcquireState();
  auto next = std::make_shared<EpochState>();
  next->matchers.reserve(current->matchers.size());
  for (const auto& m : current->matchers) {
    // Each kind's pipeline owns its database value, so each derives from
    // its own copy of the sequence; all advance to the same epoch id.
    auto derived = m->WithAppended(Sequence<T>(seq));
    SUBSEQ_RETURN_NOT_OK(derived.status());
    next->matchers.push_back(std::move(derived).ValueOrDie());
  }
  appends_.fetch_add(1, std::memory_order_relaxed);
  return PublishDerived(std::move(next));
}

template <typename T>
Result<uint64_t> MatchServer<T>::RetireSequence(SeqId seq) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (ingest_closed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("MatchServer: RetireSequence after Shutdown");
  }
  const std::shared_ptr<const EpochState> current = AcquireState();
  auto next = std::make_shared<EpochState>();
  next->matchers.reserve(current->matchers.size());
  for (const auto& m : current->matchers) {
    auto derived = m->WithRetired(seq);
    SUBSEQ_RETURN_NOT_OK(derived.status());
    next->matchers.push_back(std::move(derived).ValueOrDie());
  }
  retires_.fetch_add(1, std::memory_order_relaxed);
  return PublishDerived(std::move(next));
}

template <typename T>
Result<uint64_t> MatchServer<T>::PublishDerived(
    std::shared_ptr<EpochState> next) {
  next->epoch = next->matchers.front()->epoch();
  const uint64_t epoch = next->epoch;
  PublishState(std::move(next));
  MaybeScheduleMerge();
  return epoch;
}

template <typename T>
void MatchServer<T>::MaybeScheduleMerge() {
  if (merge_in_flight_) return;
  if (ingest_closed_.load(std::memory_order_acquire)) return;
  const std::shared_ptr<const EpochState> from = AcquireState();
  if (from == nullptr ||
      from->matchers.front()->delta_windows() < delta_merge_threshold_) {
    return;
  }
  merge_in_flight_ = true;
  // Dispatch-style accounting: Shutdown's idle wait covers the merge
  // task, so a live merge can never outlast the server.
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  ThreadPool::Shared().SubmitDetached([this, from] { RunMerge(from); },
                                      [this] {
                                        std::lock_guard<std::mutex> lock(
                                            idle_mu_);
                                        if (in_flight_.fetch_sub(
                                                1, std::memory_order_acq_rel) ==
                                            1) {
                                          idle_cv_.notify_all();
                                        }
                                      });
}

template <typename T>
void MatchServer<T>::RunMerge(std::shared_ptr<const EpochState> from) {
  // Cold rebuild of every kind over the database's NEXT epoch id — not
  // the same one. The bump is what keeps the epoch-keyed segment cache
  // exact: pre-merge entries bill the base+delta filter split, merged
  // entries the monolithic one, and the two must never share a cache
  // key. The rebuild runs outside every lock (it is the expensive part);
  // only the publish decision is serialized.
  auto next = std::make_shared<EpochState>();
  next->matchers.reserve(from->matchers.size());
  bool ok = true;
  for (const auto& m : from->matchers) {
    if (ingest_closed_.load(std::memory_order_acquire)) {
      ok = false;
      break;
    }
    auto merged = SubsequenceMatcher<T>::Build(m->database().NextEpoch(),
                                               m->distance(), m->options());
    if (!merged.ok()) {
      ok = false;  // leave the current epoch serving; never publish half
      break;
    }
    next->matchers.push_back(std::move(merged).ValueOrDie());
  }
  std::lock_guard<std::mutex> lock(ingest_mu_);
  merge_in_flight_ = false;
  // A failed rebuild leaves the current epoch serving and does NOT
  // reschedule (it would spin); the next ingest re-arms merging.
  if (!ok || ingest_closed_.load(std::memory_order_acquire)) return;
  bool current = true;
  {
    std::lock_guard<std::mutex> state_lock(state_mu_);
    current = state_->epoch == from->epoch;
  }
  if (current) {
    next->epoch = next->matchers.front()->epoch();
    PublishState(std::move(next));
    merges_.fetch_add(1, std::memory_order_relaxed);
  }
  // Ingest that landed while this merge built saw merge_in_flight_ and
  // skipped scheduling; re-check (publish or discard alike) so a
  // backlog cannot wedge unmerged.
  MaybeScheduleMerge();
}

template <typename T>
MatchServer<T>::~MatchServer() {
  Shutdown();
}

template <typename T>
void MatchServer<T>::Shutdown() {
  // Close ingest first: no new epoch publishes, and an in-flight merge
  // discards itself at its publish check. The idle wait below covers
  // merge tasks too (they share the in_flight_ accounting).
  ingest_closed_.store(true, std::memory_order_release);
  queue_.Close();
  {
    // Serialize the join: concurrent Shutdown callers all block here
    // until the service thread has exited and stopped dispatching.
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (service_.joinable()) service_.join();
  }
  // Wait for the last detached completion callback. After this, no task
  // references the server.
  std::unique_lock<std::mutex> lock(idle_mu_);
  idle_cv_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

template <typename T>
Status MatchServer<T>::SaveSnapshot(const std::string& path) const {
  // One coherent epoch: the state is acquired once, so a snapshot taken
  // mid-ingest captures exactly one published epoch (base + epoch
  // sections) even while newer epochs publish concurrently.
  const std::shared_ptr<const EpochState> state = AcquireState();
  if (state == nullptr || state->matchers.empty()) {
    return Status::Internal("MatchServer has no matcher to snapshot");
  }
  auto writer = SnapshotWriter::Create(path);
  SUBSEQ_RETURN_NOT_OK(writer.status());
  SnapshotWriter& w = *writer.value();
  // Every kind partitions the database identically, so the catalog block
  // is written once (the first matcher's) and each kind contributes only
  // its own index block.
  SUBSEQ_RETURN_NOT_OK(state->matchers.front()->SaveCatalogSections(w));
  for (const auto& matcher : state->matchers) {
    SUBSEQ_RETURN_NOT_OK(matcher->SaveIndexSections(w));
  }
  return w.Finish();
}

template <typename T>
const SubsequenceMatcher<T>* MatchServer<T>::matcher(IndexKind kind) const {
  const std::shared_ptr<const EpochState> state = AcquireState();
  for (size_t i = 0; i < kinds_.size(); ++i) {
    // The raw pointer outlives this call because state_ keeps the
    // EpochState alive until the next publish (see the accessor's doc).
    if (kinds_[i] == kind) return state->matchers[i].get();
  }
  return nullptr;
}

template <typename T>
ServeStats MatchServer<T>::stats() const {
  ServeStats s;
  s.queries_admitted = queries_admitted_.load(std::memory_order_relaxed);
  s.admission_batches = admission_batches_.load(std::memory_order_relaxed);
  s.filter_calls = filter_calls_.load(std::memory_order_relaxed);
  s.coalesced_queries = coalesced_queries_.load(std::memory_order_relaxed);
  s.filter_computations =
      filter_computations_.load(std::memory_order_relaxed);
  s.billed_filter_computations =
      billed_filter_computations_.load(std::memory_order_relaxed);
  s.segments_shared = segments_shared_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.cache_evictions = cache_evictions_.load(std::memory_order_relaxed);
  s.cache_shared_computations =
      cache_shared_computations_.load(std::memory_order_relaxed);
  s.appends = appends_.load(std::memory_order_relaxed);
  s.retires = retires_.load(std::memory_order_relaxed);
  s.merges = merges_.load(std::memory_order_relaxed);
  const std::shared_ptr<const EpochState> state = AcquireState();
  if (state != nullptr && !state->matchers.empty()) {
    s.epoch = state->epoch;
    s.base_windows = state->matchers.front()->base_windows();
    s.delta_windows = state->matchers.front()->delta_windows();
  }
  return s;
}

template <typename T>
Future<MatchResult> MatchServer<T>::Submit(MatchRequest<T> request) {
  Pending pending;
  pending.request = std::move(request);
  Future<MatchResult> future = pending.promise.GetFuture();
  Promise<MatchResult> promise = pending.promise;
  // Fail fast at the front door: a malformed request (empty query,
  // non-finite/negative epsilon, bad Type III schedule) never enters the
  // pipeline — it would otherwise die on deep CHECKs, poison the
  // coalescer's epsilon grouping (NaN != NaN), or silently return
  // nothing. Mirrors MatcherOptions::Validate() at build time.
  Status invalid = ValidateMatchRequest(pending.request);
  if (!invalid.ok()) {
    promise.Set(ErrorResult(std::move(invalid)));
    return future;
  }
  if (!queue_.Push(std::move(pending))) {
    promise.Set(ErrorResult(
        Status::Unavailable("MatchServer: submitted after Shutdown")));
  }
  return future;
}

template <typename T>
void MatchServer<T>::ServeLoop() {
  std::vector<Pending> batch;
  while (queue_.DrainWait(&batch, max_batch_)) {
    admission_batches_.fetch_add(1, std::memory_order_relaxed);
    queries_admitted_.fetch_add(static_cast<int64_t>(batch.size()),
                                std::memory_order_relaxed);
    ServeBatch(&batch);
  }
}

template <typename T>
void MatchServer<T>::ServeBatch(std::vector<Pending>* batch) {
  // THE epoch for this whole admission round: acquired once, captured by
  // every dispatched verification task. Every request in the batch runs
  // start to finish against these matchers even if ingest publishes a
  // newer epoch mid-round — and the shared_ptr keeps a superseded
  // epoch's indexes alive until the round's last task drops it.
  const std::shared_ptr<const EpochState> state = AcquireState();
  if (cache_ != nullptr) {
    // Amortized reclamation of dead-epoch entries (they can never be
    // served — they miss by key — this only returns their bytes).
    cache_->SweepDeadEpochs(state->epoch, 64);
    cache_evictions_.store(cache_->counters().evictions,
                           std::memory_order_relaxed);
  }

  // Resolve each request's pipeline; requests naming an unconfigured
  // kind fail fast and drop out of the plan.
  const size_t n = batch->size();
  std::vector<const SubsequenceMatcher<T>*> pipelines(n, nullptr);
  std::vector<CoalesceKey> keys(n);
  for (size_t i = 0; i < n; ++i) {
    Pending& p = (*batch)[i];
    const IndexKind kind = p.request.index_kind.value_or(kinds_.front());
    for (size_t k = 0; k < kinds_.size(); ++k) {
      if (kinds_[k] == kind) {
        pipelines[i] = state->matchers[k].get();
        break;
      }
    }
    if (pipelines[i] == nullptr) {
      p.promise.Set(ErrorResult(Status::InvalidArgument(
          "MatchRequest names an IndexKind the server was not started "
          "with")));
      continue;
    }
    keys[i].kind = kind;
    keys[i].epsilon = p.request.type == MatchQueryType::kNearestMatch
                          ? p.request.epsilon_max
                          : p.request.epsilon;
  }

  // Plan over the surviving requests (their original batch indices).
  std::vector<size_t> alive;
  std::vector<CoalesceKey> alive_keys;
  for (size_t i = 0; i < n; ++i) {
    if (pipelines[i] != nullptr) {
      alive.push_back(i);
      alive_keys.push_back(keys[i]);
    }
  }
  const std::vector<CoalesceGroup> groups = PlanCoalesce(alive_keys);

  for (const CoalesceGroup& group : groups) {
    // The shared filter call: steps 3-4 for every member at once. Runs
    // here on the service thread (its parallelism is inside the index);
    // meanwhile new submissions accumulate in the queue for the next
    // round — that backlog is what the next shared call coalesces.
    const SubsequenceMatcher<T>* m = pipelines[alive[group.members.front()]];
    std::vector<std::span<const T>> views;
    views.reserve(group.members.size());
    for (const size_t member : group.members) {
      const std::vector<T>& q = (*batch)[alive[member]].request.query;
      views.push_back(std::span<const T>(q));
    }
    CoalescedFilter filtered = CoalescedFilterSegments(
        *m, std::span<const std::span<const T>>(views), group.epsilon,
        cache_.get());
    filter_calls_.fetch_add(1, std::memory_order_relaxed);
    filter_computations_.fetch_add(filtered.total_filter_computations,
                                   std::memory_order_relaxed);
    billed_filter_computations_.fetch_add(
        filtered.billed_filter_computations, std::memory_order_relaxed);
    segments_shared_.fetch_add(
        filtered.segments_total - filtered.segments_unique,
        std::memory_order_relaxed);
    if (cache_ != nullptr) {
      cache_hits_.fetch_add(filtered.segments_cache_hits,
                            std::memory_order_relaxed);
      cache_misses_.fetch_add(filtered.segments_cache_misses,
                              std::memory_order_relaxed);
      cache_shared_computations_.fetch_add(
          filtered.cache_shared_computations, std::memory_order_relaxed);
      // Evictions are the cache's own monotonic count; republish it for
      // concurrent stats() readers (the cache itself is service-thread
      // only).
      cache_evictions_.store(cache_->counters().evictions,
                             std::memory_order_relaxed);
    }
    if (group.members.size() > 1) {
      coalesced_queries_.fetch_add(
          static_cast<int64_t>(group.members.size()),
          std::memory_order_relaxed);
    }

    // Step 5 per member, detached: the loop moves on to the next group /
    // admission round while pool workers verify. A Type I task's
    // RangeSearchFromHits fans candidate regions out across idle pool
    // workers even though it was entered from a worker, so a heavy
    // verification tail does not serialize on its one detached task.
    // Types II and III run the serial chain search on their task.
    for (size_t g = 0; g < group.members.size(); ++g) {
      Pending& p = (*batch)[alive[group.members[g]]];
      Dispatch(
          [this, state, m, request = std::move(p.request),
           hits = std::move(filtered.hits[g]),
           filter_stats = filtered.stats[g]] {
            return RunFromHits(*m, request, hits, filter_stats);
          },
          p.promise);
    }
  }
}

template <typename T>
void MatchServer<T>::Dispatch(std::function<MatchResult()> work,
                              Promise<MatchResult> promise) {
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  ThreadPool::Shared().SubmitDetached(
      [work = std::move(work), promise]() mutable {
        promise.Set(work());
      },
      [this] {
        // Decrement under the mutex (as ParallelFor does): were the
        // count dropped first, Shutdown's waiter could observe 0 and
        // destroy the server before this callback touches idle_mu_.
        std::lock_guard<std::mutex> lock(idle_mu_);
        if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          idle_cv_.notify_all();
        }
      });
}

template <typename T>
MatchResult MatchServer<T>::RunFromHits(
    const SubsequenceMatcher<T>& m, const MatchRequest<T>& request,
    const std::vector<SegmentHit>& hits, MatchQueryStats filter_stats) const {
  MatchResult result;
  result.stats = filter_stats;
  const std::span<const T> query(request.query);
  switch (request.type) {
    case MatchQueryType::kRangeSearch: {
      auto r =
          m.RangeSearchFromHits(query, hits, request.epsilon, &result.stats);
      if (!r.ok()) {
        result.status = r.status();
        return result;  // stats keep the work done before the error
      }
      result.matches = std::move(r).ValueOrDie();
      break;
    }
    case MatchQueryType::kLongestMatch: {
      auto r =
          m.LongestMatchFromHits(query, hits, request.epsilon, &result.stats);
      if (!r.ok()) {
        result.status = r.status();
        return result;  // stats keep the work done before the error
      }
      result.best = std::move(r).ValueOrDie();
      break;
    }
    case MatchQueryType::kNearestMatch: {
      auto r = m.NearestMatchFromHits(query, hits, request.epsilon_max,
                                      request.epsilon_increment,
                                      &result.stats);
      if (!r.ok()) {
        result.status = r.status();
        return result;  // stats keep the work done before the error
      }
      result.best = std::move(r).ValueOrDie();
      break;
    }
  }
  return result;
}

template class MatchServer<char>;
template class MatchServer<double>;
template class MatchServer<Point2d>;

}  // namespace subseq
