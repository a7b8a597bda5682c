// perfbench — the repository benchmark (see README.md here).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit SHA] [--out-dir DIR]
//
// Untraced (--trace 0): set-up, then rounds that each run a closed loop
// with nproc clients (capacity) and an open loop at the workload's fixed
// rate (latency), then the untimed correctness check; prints the
// end-to-end metrics, middle means over the rounds. Traced
// (--trace 1): the same phases with spans around every call into the
// library, then a one-client replay through the library's staged entry
// points; prints the per-layer metrics. The last stdout line is the JSON
// result; the exit code is non-zero when any request failed or answered
// wrongly.

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "loadgen.h"
#include "subseq/distance/simd/cpu_features.h"
#include "subseq/exec/stats_sink.h"
#include "subseq/frame/matcher.h"
#include "subseq/serve/match_server.h"
#include "subseq/snapshot/reader.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace subseq;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--commit") {
      args->commit = value;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

double Median(std::vector<double> v) { return NearestRank(std::move(v), 0.5); }

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

bool SameMatch(const SubsequenceMatch& a, const SubsequenceMatch& b) {
  return a == b && a.distance == b.distance;
}

/// The serving contract: a served answer equals the direct library call,
/// matches and stats. Under live ingest only where filter work is billed
/// may differ (delta scan vs merged index), so it is compared only when
/// `compare_billing`.
bool SameAnswer(const MatchResult& a, const MatchResult& b,
                bool compare_billing) {
  if (a.status.ok() != b.status.ok()) return false;
  if (a.best.has_value() != b.best.has_value()) return false;
  if (a.best.has_value() && !SameMatch(*a.best, *b.best)) return false;
  if (a.matches.size() != b.matches.size()) return false;
  for (size_t i = 0; i < a.matches.size(); ++i) {
    if (!SameMatch(a.matches[i], b.matches[i])) return false;
  }
  const MatchQueryStats& s = a.stats;
  const MatchQueryStats& t = b.stats;
  return s.segments == t.segments && s.hits == t.hits &&
         s.chains == t.chains && s.verifications == t.verifications &&
         (!compare_billing || s.filter_computations == t.filter_computations);
}

/// The request answered by a direct library call.
template <typename T>
MatchResult Direct(const SubsequenceMatcher<T>& m, const MatchRequest<T>& req) {
  MatchResult out;
  const std::span<const T> q(req.query);
  switch (req.type) {
    case MatchQueryType::kRangeSearch: {
      auto r = m.RangeSearch(q, req.epsilon, &out.stats);
      if (r.ok()) out.matches = std::move(r).ValueOrDie();
      out.status = r.status();
      break;
    }
    case MatchQueryType::kLongestMatch: {
      auto r = m.LongestMatch(q, req.epsilon, &out.stats);
      if (r.ok()) out.best = std::move(r).ValueOrDie();
      out.status = r.status();
      break;
    }
    case MatchQueryType::kNearestMatch: {
      auto r = m.NearestMatch(q, req.epsilon_max, req.epsilon_increment,
                              &out.stats);
      if (r.ok()) out.best = std::move(r).ValueOrDie();
      out.status = r.status();
      break;
    }
  }
  return out;
}

/// Counters the staged replay collects for the metric.* / frame.* rows.
struct ReplayCounters {
  int64_t filtered_requests = 0;  // requests that ran steps 3-5 staged
  int64_t naive_pairs = 0;        // segments x windows, summed
  int64_t matches = 0;
  MatchQueryStats stats;
};

/// One request through the library's staged entry points (steps 3, 4
/// index, 4 fill, 4 merge, 5), each inside its own span. Type III runs
/// whole. Equivalent to Direct(m, req).
template <typename T>
MatchResult ReplayStaged(const SubsequenceMatcher<T>& m,
                         const MatchRequest<T>& req, Tracer* tracer,
                         int64_t rid, int64_t parent, StatsSink* sink,
                         ReplayCounters* counters) {
  const std::span<const T> q(req.query);
  if (req.type == MatchQueryType::kNearestMatch) {
    Tracer::Scope span(tracer, "frame.nearest", rid, parent);
    MatchResult out = Direct(m, req);
    counters->matches += out.best.has_value() ? 1 : 0;
    return out;
  }
  MatchResult out;
  const ExecContext& exec = m.options().exec;
  SegmentQueryBatch batch;
  {
    Tracer::Scope span(tracer, "frame.step3", rid, parent);
    batch = m.MakeSegmentQueries(q, &out.stats);
  }
  StatsSink local;
  std::vector<std::vector<ObjectId>> ids;
  {
    Tracer::Scope span(tracer, "frame.step4_index", rid, parent);
    ids = m.BatchFilterWindows(batch.queries, req.epsilon, exec, &local);
  }
  out.stats.filter_computations += local.distance_computations();
  if (sink != nullptr) {
    sink->AddDistanceComputations(local.distance_computations());
    sink->AddResults(local.results());
    sink->AddLowerBoundPruned(local.lower_bound_pruned());
    sink->AddLbKimPruned(local.lb_kim_pruned());
    sink->AddLbErpPruned(local.lb_erp_pruned());
    sink->AddDeltaWindowsProbed(local.delta_windows_probed());
    sink->AddTombstonesMasked(local.tombstones_masked());
  }
  std::vector<std::span<const T>> segment_views;
  segment_views.reserve(batch.segments.size());
  for (const Interval& s : batch.segments) {
    segment_views.push_back(q.subspan(static_cast<size_t>(s.begin),
                                      static_cast<size_t>(s.length())));
  }
  const std::vector<std::span<const ObjectId>> id_views(ids.begin(), ids.end());
  std::vector<std::vector<double>> dists;
  {
    Tracer::Scope span(tracer, "frame.step4_fill", rid, parent);
    dists = m.SegmentHitDistances(segment_views, id_views, exec);
  }
  const std::vector<std::span<const double>> dist_views(dists.begin(),
                                                        dists.end());
  std::vector<SegmentHit> hits;
  {
    Tracer::Scope span(tracer, "frame.step4_merge", rid, parent);
    hits = m.MergeSegmentHits(q, batch.segments, id_views, dist_views, exec,
                              &out.stats);
  }
  {
    Tracer::Scope span(tracer, "frame.step5", rid, parent);
    if (req.type == MatchQueryType::kRangeSearch) {
      auto r = m.RangeSearchFromHits(q, hits, req.epsilon, &out.stats);
      if (r.ok()) out.matches = std::move(r).ValueOrDie();
      out.status = r.status();
    } else {
      auto r = m.LongestMatchFromHits(q, hits, req.epsilon, &out.stats);
      if (r.ok()) out.best = std::move(r).ValueOrDie();
      out.status = r.status();
    }
  }
  counters->filtered_requests += 1;
  counters->naive_pairs +=
      out.stats.segments * static_cast<int64_t>(m.catalog().num_windows());
  counters->matches += out.best.has_value() ? 1 : 0;
  counters->matches += static_cast<int64_t>(out.matches.size());
  return out;
}

/// A served answer kept for the correctness check, with the range of
/// ingest operations that may have been applied to the epoch it ran on.
struct Sample {
  uint64_t stream_index = 0;
  MatchResult served;
  int64_t ops_lo = 0;
  int64_t ops_hi = 0;
  PhaseTally* tally = nullptr;
};

/// Keeps at most `cap` samples, taking every `stride`-th request.
class Sampler {
 public:
  Sampler(uint64_t stride, size_t cap) : stride_(stride), cap_(cap) {}
  bool Wants(uint64_t i) const { return i % stride_ == 0; }
  void Offer(Sample sample) {
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.size() < cap_) samples_.push_back(std::move(sample));
  }
  std::vector<Sample>& samples() { return samples_; }

 private:
  const uint64_t stride_;
  const size_t cap_;
  std::mutex mu_;
  std::vector<Sample> samples_;  // guarded by mu_ while serving
};

// Request stream offsets of the phases (disjoint index ranges).
constexpr uint64_t kClosedBase = 0;
constexpr uint64_t kOpenBase = 1ull << 32;
constexpr uint64_t kCheckBase = 2ull << 32;
constexpr uint64_t kReplayBase = kOpenBase;  // replays the open-loop stream
constexpr uint64_t kRoundStride = 1ull << 24;  // closed-loop indexes per round

constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 2000;
constexpr double kSetupMinS = 0.15;
constexpr double kRoundSetupMinS = 0.03;  // per round; at least one start
constexpr int kRounds = 8;
constexpr double kClosedShare = 0.4;
constexpr double kOpenShare = 0.6;
constexpr double kReplayShare = 0.35;
constexpr double kWarmupShare = 0.1;  // of each closed-loop slice
constexpr double kDrainTimeoutS = 30.0;
constexpr size_t kSamplesPerPhase = 24;
constexpr int64_t kPostIngestChecks = 16;
constexpr int kStatsPollMs = 50;

template <typename T>
class BenchRun {
 public:
  BenchRun(Workload<T> w, const Args& args)
      : w_(std::move(w)), args_(args), tracer_(args.trace) {}

  int Execute() {
    PrintStamp();
    if (!Setup()) return Fatal("set-up failed");
    Progress("set-up done");
    if (!ServePhases()) return Fatal("set-up failed");
    Progress("serving phases done");
    CheckCorrectness();
    Progress("correctness check done");
    if (args_.trace && !Replay()) return Fatal("replay failed");
    server_->Shutdown();
    return Report();
  }

 private:
  void Progress(const char* what) const {
    std::fprintf(stderr, "perfbench: %.1fs %s\n", SecondsBetween(born_, Clock::now()),
                 what);
  }

  int Fatal(const std::string& what) {
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
    RemoveScratch();
    return 2;
  }

  std::string ScratchPath(const std::string& stem) const {
    const std::string dir = args_.out_dir.empty() ? "." : args_.out_dir;
    return dir + "/" + w_.name + "-" + std::to_string(getpid()) + "-" + stem;
  }
  void RemoveScratch() {
    std::error_code ec;
    for (const std::string& p : scratch_files_) std::filesystem::remove(p, ec);
  }

  void PrintStamp() {
    std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
                w_.name.c_str(), args_.seed, args_.seconds, args_.trace ? 1 : 0);
    std::printf("stamp commit=%s nproc=%d simd_active=%s simd_detected=%s "
                "rate_qps=%g\n",
                args_.commit.c_str(), ResolveHardwareConcurrency(),
                simd::SimdLevelName(simd::ActiveSimdLevel()),
                simd::SimdLevelName(simd::DetectedSimdLevel()), w_.rate_qps);
    std::printf("sizes");
    for (const auto& [k, v] : w_.sizes) std::printf(" %s=%g", k.c_str(), v);
    std::printf("\n");
  }

  // ------------------------------------------------------------ set-up
  bool Setup() {
    PhaseTally& tally = NewTally("setup");
    if (w_.boot_from_snapshot) {
      // Untimed preparation: the snapshot the timed Starts boot from.
      auto prep = MatchServer<T>::Start(w_.db, *w_.dist, w_.options);
      if (!prep.ok()) return false;
      const std::string path = ScratchPath("boot.snap");
      scratch_files_.push_back(path);
      Tracer::Scope span(&tracer_, "serve.save_snapshot", -1, -1);
      if (!prep.value()->SaveSnapshot(path).ok()) return false;
      w_.options.snapshot_path = path;
    }
    setup_tally_ = &tally;
    return TimeStarts(kSetupReps, kSetupMinS, /*keep=*/true);
  }

  /// Times MatchServer::Start at least `min_reps` times, and more while
  /// they total under `min_s` (so a start of microseconds still yields a
  /// steady figure), into setup_times_. The last server becomes server_
  /// when `keep`; otherwise each shuts down untimed. Set-up runs once
  /// before serving and once more between rounds, so setup_s spans
  /// the whole run like the other metrics.
  bool TimeStarts(int min_reps, double min_s, bool keep) {
    double total_s = 0.0;
    for (int rep = 0; rep < min_reps || (total_s < min_s && rep < kSetupMaxReps);
         ++rep) {
      if (keep) server_.reset();  // the previous rep's server shuts down untimed
      const Clock::time_point t0 = Clock::now();
      Result<std::unique_ptr<MatchServer<T>>> started = [&] {
        Tracer::Scope span(&tracer_, "serve.start", -1, -1);
        return MatchServer<T>::Start(w_.db, *w_.dist, w_.options);
      }();
      setup_times_.push_back(SecondsBetween(t0, Clock::now()));
      total_s += setup_times_.back();
      setup_tally_->Add(started.ok() ? Outcome::kOk : Outcome::kError);
      if (!started.ok()) {
        std::fprintf(stderr, "Start: %s\n", started.status().ToString().c_str());
        return false;
      }
      if (keep) server_ = std::move(started).ValueOrDie();
    }
    return true;
  }

  PhaseTally& NewTally(const std::string& phase) {
    tallies_.push_back(std::make_unique<PhaseTally>());
    tallies_.back()->phase = phase;
    return *tallies_.back();
  }

  // --------------------------------------------------- serving phases
  bool ServePhases() {
    // A traced run leaves kReplayShare of its time to the replay.
    const double serving_s = args_.seconds * (args_.trace ? 1.0 - kReplayShare : 1.0);
    const double closed_slice_s = kClosedShare * serving_s / kRounds;
    const double open_s = kOpenShare * serving_s;
    const int clients = ResolveHardwareConcurrency();
    std::mutex tally_mu;
    if (w_.warmup_requests > 0) {
      PhaseTally& warm_tally = NewTally("warmup");
      std::atomic<int64_t> next{0};
      std::vector<std::thread> warmers;
      for (int c = 0; c < clients; ++c) {
        warmers.emplace_back([&] {
          for (int64_t i = next.fetch_add(1); i < w_.warmup_requests;
               i = next.fetch_add(1)) {
            const MatchResult res =
                server_->Submit(w_.warmup(static_cast<uint64_t>(i))).Get();
            std::lock_guard<std::mutex> lock(tally_mu);
            warm_tally.Add(res.status.ok() ? Outcome::kOk : Outcome::kError);
          }
        });
      }
      for (std::thread& t : warmers) t.join();
    }
    const ServeStats before = server_->stats();

    // Background thread: applies ingest ops on their schedule and polls
    // the server's delta size, through every round.
    std::atomic<bool> stop{false};
    PhaseTally& ingest_tally = NewTally("ingest");
    std::thread background([&] { Background(&stop, &ingest_tally); });

    // Open-loop arrivals at the fixed rate, one schedule cut into kRounds
    // consecutive slices; untraced, enough of them that p99 has at least
    // kMinSamplesBeyond samples past it.
    const auto count = std::max<int64_t>(
        static_cast<int64_t>(std::ceil(w_.rate_qps * open_s)),
        args_.trace ? kRounds : SamplesNeeded(0.99));
    const uint64_t schedule_seed = MixSeed(args_.seed, 77);
    const std::vector<double> due = ArrivalSchedule(
        w_.rate_qps, count, [&](int64_t i) {
          return Rng(MixSeed(schedule_seed, static_cast<uint64_t>(i))).NextDouble();
        });
    PhaseTally& closed_tally = NewTally("closed_loop");
    PhaseTally& open_tally = NewTally("open_loop");
    closed_samples_ = std::make_unique<Sampler>(7, kSamplesPerPhase);
    open_samples_ = std::make_unique<Sampler>(
        std::max<uint64_t>(1, static_cast<uint64_t>(count) / kSamplesPerPhase),
        kSamplesPerPhase);
    std::vector<MatchQueryType> types(static_cast<size_t>(count));
    std::vector<int64_t> ops_lo(static_cast<size_t>(count), 0);
    std::vector<uint8_t> ok_flags(static_cast<size_t>(count), 0);
    std::vector<double> slice_qps, round_p50_ms, all_ms, nearest_ms, late_ms;
    bool started_ok = true;

    // The rounds alternate a closed-loop slice (capacity) and an
    // open-loop slice (latency), so a slow spell of the shared machine
    // lands in a few rounds of each, and the middle means over rounds
    // (MiddleMean) skip it.
    for (int round = 0; round < kRounds; ++round) {
      const uint64_t closed_base = kClosedBase + static_cast<uint64_t>(round) * kRoundStride;
      StartBurst();
      const ClosedLoopResult closed = RunClosedLoop(
          clients, closed_slice_s, kWarmupShare * closed_slice_s, [&](size_t i) {
            const uint64_t index = closed_base + i;
            MatchRequest<T> req = w_.request(index);
            const int64_t lo = ops_done_.load();
            MatchResult res = [&] {
              Tracer::Scope span(&tracer_, "serve.request", -1, -1);
              return server_->Submit(std::move(req)).Get();
            }();
            const bool ok = res.status.ok();
            {
              std::lock_guard<std::mutex> lock(tally_mu);
              closed_tally.Add(ok ? Outcome::kOk : Outcome::kError);
            }
            if (ok && closed_samples_->Wants(i)) {
              closed_samples_->Offer(
                  Sample{index, std::move(res), lo, ops_begun_.load(), &closed_tally});
            }
            return ok;
          });
      slice_qps.push_back(closed.capacity_qps);

      const size_t lo = static_cast<size_t>(count * round / kRounds);
      const size_t hi = static_cast<size_t>(count * (round + 1) / kRounds);
      std::vector<double> slice_due;
      for (size_t i = lo; i < hi; ++i) slice_due.push_back(due[i] - due[lo]);
      StartBurst();
      const OpenLoopResult open = RunOpenLoop(
          slice_due,
          [&](size_t k) {
            const size_t i = lo + k;
            MatchRequest<T> req = w_.request(kOpenBase + i);
            types[i] = req.type;
            ops_lo[i] = ops_done_.load();
            Tracer::Scope span(&tracer_, "serve.submit", static_cast<int64_t>(i), -1);
            return server_->Submit(std::move(req));
          },
          [&](size_t k, MatchResult res) {
            const size_t i = lo + k;
            ok_flags[i] = res.status.ok() ? 1 : 0;
            if (res.status.ok() && open_samples_->Wants(i)) {
              open_samples_->Offer(Sample{kOpenBase + i, std::move(res), ops_lo[i],
                                          ops_begun_.load(), &open_tally});
            }
          },
          kDrainTimeoutS);
      std::vector<double> round_ms;
      for (size_t k = 0; k < open.records.size(); ++k) {
        const OpenLoopRecord& r = open.records[k];
        if (!r.completed) {
          open_tally.Add(Outcome::kTimeout);
          continue;
        }
        open_tally.Add(ok_flags[lo + k] ? Outcome::kOk : Outcome::kError);
        round_ms.push_back(r.latency_ms());
        if (types[lo + k] == MatchQueryType::kNearestMatch) {
          nearest_ms.push_back(r.latency_ms());
        }
      }
      if (!round_ms.empty()) round_p50_ms.push_back(NearestRank(round_ms, 0.50));
      all_ms.insert(all_ms.end(), round_ms.begin(), round_ms.end());
      const std::vector<double> late = open.LatenessMs();
      late_ms.insert(late_ms.end(), late.begin(), late.end());
      if (!TimeStarts(1, kRoundSetupMinS, /*keep=*/false)) {
        started_ok = false;
        break;
      }
    }
    stop.store(true);
    background.join();
    setup_s_ = MiddleMean(setup_times_);

    capacity_qps_ = MiddleMean(slice_qps);
    open_completed_ = static_cast<int64_t>(all_ms.size());
    open_sent_ = count;
    p50_ms_ = MiddleMean(round_p50_ms);
    p90_ms_ = NearestRank(all_ms, 0.90);
    p99_ms_ = NearestRank(all_ms, 0.99);
    p99_supported_ = PercentileSupported(open_completed_, 0.99);
    nearest_p50_ms_ = NearestRank(nearest_ms, 0.50);
    late_p99_ms_ = NearestRank(late_ms, 0.99);
    serve_before_ = before;
    serve_after_ = server_->stats();
    return started_ok;
  }

  void Background(const std::atomic<bool>* stop, PhaseTally* tally) {
    Clock::time_point next_poll = Clock::now();
    size_t next_op = 0;
    while (!stop->load()) {
      const Clock::time_point now = Clock::now();
      if (now >= next_poll) {
        ServeStats s;
        {
          Tracer::Scope span(&tracer_, "serve.stats", -1, -1);
          s = server_->stats();
        }
        delta_samples_.push_back(static_cast<double>(s.delta_windows));
        next_poll = now + std::chrono::milliseconds(kStatsPollMs);
      }
      const Clock::time_point next_due = IngestDue(next_op);
      if (now >= next_due) {
        ApplyOp(next_op++, tally);
        continue;
      }
      std::unique_lock<std::mutex> lock(burst_mu_);
      burst_cv_.wait_until(lock, std::min(next_poll, next_due));
    }
  }

  /// Opens the next ingest burst now; Background applies its ops.
  void StartBurst() {
    if (!ingesting()) return;
    {
      std::lock_guard<std::mutex> lock(burst_mu_);
      burst_starts_.push_back(Clock::now());
    }
    burst_cv_.notify_all();
  }

  /// When ingest op k is due: its place in its burst over the burst rate
  /// after the burst opened; never while the burst is not open.
  Clock::time_point IngestDue(size_t k) {
    if (k >= w_.ingest.size()) return Clock::time_point::max();
    const auto burst = static_cast<size_t>(w_.ingest_burst);
    std::lock_guard<std::mutex> lock(burst_mu_);
    if (k / burst >= burst_starts_.size()) return Clock::time_point::max();
    return burst_starts_[k / burst] +
           std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
               static_cast<double>(k % burst) / w_.ingest_burst_hz));
  }

  void ApplyOp(size_t k, PhaseTally* tally) {
    const IngestOp<T>& op = w_.ingest[k];
    ops_begun_.fetch_add(1);
    const Clock::time_point t0 = Clock::now();
    Status status;
    if (op.append.has_value()) {
      Tracer::Scope span(&tracer_, "serve.append", static_cast<int64_t>(k), -1);
      status = server_->AppendSequence(*op.append).status();
      append_ms_.push_back(1e3 * SecondsBetween(t0, Clock::now()));
    } else {
      Tracer::Scope span(&tracer_, "serve.retire", static_cast<int64_t>(k), -1);
      status = server_->RetireSequence(op.retire).status();
    }
    tally->Add(status.ok() ? Outcome::kOk : Outcome::kError);
    if (!status.ok()) {
      std::fprintf(stderr, "ingest op %zu: %s\n", k, status.ToString().c_str());
    }
    ops_done_.fetch_add(1);
  }

  // ------------------------------------------------------ correctness
  bool ingesting() const { return !w_.ingest.empty(); }

  /// The database after the first k ingest ops.
  SequenceDatabase<T> DatabaseAfter(int64_t k) const {
    SequenceDatabase<T> db = w_.db;
    for (int64_t i = 0; i < k; ++i) {
      const IngestOp<T>& op = w_.ingest[static_cast<size_t>(i)];
      db = op.append.has_value() ? db.Append(*op.append) : db.Retire(op.retire);
    }
    return db;
  }

  /// Library matchers for every epoch 0..k, derived op by op from a cold
  /// build and compacted past the merge threshold as the server does.
  bool ExtendChain(int64_t k) {
    if (chain_.empty()) {
      auto built = SubsequenceMatcher<T>::Build(w_.db, *w_.dist, w_.options.matcher);
      if (!built.ok()) return false;
      chain_.push_back(std::move(built).ValueOrDie());
    }
    while (static_cast<int64_t>(chain_.size()) <= k) {
      const SubsequenceMatcher<T>& prev = *chain_.back();
      const IngestOp<T>& op = w_.ingest[chain_.size() - 1];
      Result<std::unique_ptr<SubsequenceMatcher<T>>> next = [&] {
        Tracer::Scope span(&tracer_, "frame.derive", -1, -1);
        return op.append.has_value() ? prev.WithAppended(*op.append)
                                     : prev.WithRetired(op.retire);
      }();
      if (!next.ok()) return false;
      std::unique_ptr<SubsequenceMatcher<T>> m = std::move(next).ValueOrDie();
      if (m->delta_windows() >= w_.options.matcher.delta_merge_threshold) {
        Tracer::Scope span(&tracer_, "frame.compact", -1, -1);
        auto compacted = m->Compact();
        if (!compacted.ok()) return false;
        m = std::move(compacted).ValueOrDie();
      }
      chain_.push_back(std::move(m));
    }
    return true;
  }

  void CheckCorrectness() {
    std::vector<Sample*> samples;
    for (Sample& s : closed_samples_->samples()) samples.push_back(&s);
    for (Sample& s : open_samples_->samples()) samples.push_back(&s);
    int64_t max_ops = ops_done_.load();
    if (!ExtendChain(max_ops)) {
      check_error_ = true;
      return;
    }
    for (Sample* s : samples) {
      const MatchRequest<T> req = w_.request(s->stream_index);
      bool matched = false;
      const int64_t hi = std::min(s->ops_hi, max_ops);
      for (int64_t k = std::min(s->ops_lo, hi); k <= hi && !matched; ++k) {
        matched = SameAnswer(s->served, Direct(*chain_[static_cast<size_t>(k)], req),
                             /*compare_billing=*/!ingesting());
      }
      ++checked_;
      if (!matched) {
        s->tally->MarkWrong();
        std::fprintf(stderr, "wrong answer: stream index %" PRIu64 "\n",
                     s->stream_index);
      }
    }
    if (!ingesting()) return;
    // Post-ingest: the live server against a cold build of the final db.
    auto cold = SubsequenceMatcher<T>::Build(DatabaseAfter(max_ops), *w_.dist,
                                             w_.options.matcher);
    if (!cold.ok()) {
      check_error_ = true;
      return;
    }
    PhaseTally& tally = NewTally("post_ingest");
    for (int64_t j = 0; j < kPostIngestChecks; ++j) {
      const MatchRequest<T> req = w_.request(kCheckBase + static_cast<uint64_t>(j));
      const MatchResult served = server_->Submit(req).Get();
      if (!served.status.ok()) {
        tally.Add(Outcome::kError);
      } else {
        tally.Add(SameAnswer(served, Direct(*cold.value(), req), false)
                      ? Outcome::kOk
                      : Outcome::kWrong);
      }
      ++checked_;
    }
  }

  // ---------------------------------------------------- traced replay
  const SubsequenceMatcher<T>& Library() const { return *chain_.back(); }

  bool Replay() {
    PhaseTally& tally = NewTally("replay");
    const double replay_s = kReplayShare * args_.seconds;
    // Ops still to apply continue interleaved with the replay, at one op
    // per ops_every requests, on the server and the library chain alike.
    size_t next_op = static_cast<size_t>(ops_done_.load());
    if (!ExtendChain(static_cast<int64_t>(next_op))) return false;
    constexpr int64_t ops_every = 4;
    const Clock::time_point start = Clock::now();
    std::vector<double> overhead_ms;
    StatsSink sink;
    ReplayCounters counters;
    int64_t rid = 0;
    std::vector<std::pair<std::vector<T>, std::vector<T>>> pairs;  // distance sample
    for (; rid < 20 || SecondsBetween(start, Clock::now()) < replay_s; ++rid) {
      if (ingesting() && rid % ops_every == ops_every - 1 &&
          next_op < w_.ingest.size()) {
        ApplyOp(next_op++, &tally);
        if (!ExtendChain(static_cast<int64_t>(next_op))) return false;
      }
      const MatchRequest<T> req = w_.request(kReplayBase + static_cast<uint64_t>(rid));
      const Clock::time_point s0 = Clock::now();
      MatchResult served;
      {
        Tracer::Scope span(&tracer_, "serve.request", rid, -1);
        served = server_->Submit(req).Get();
      }
      const double served_ms = 1e3 * SecondsBetween(s0, Clock::now());
      const Clock::time_point l0 = Clock::now();
      MatchResult replayed;
      {
        Tracer::Scope span(&tracer_, "replay.request", rid, -1);
        replayed = ReplayStaged(Library(), req, &tracer_, rid, span.id(), &sink,
                                &counters);
      }
      const double replay_ms = 1e3 * SecondsBetween(l0, Clock::now());
      overhead_ms.push_back(served_ms - replay_ms);
      counters.stats.segments += replayed.stats.segments;
      counters.stats.hits += replayed.stats.hits;
      counters.stats.chains += replayed.stats.chains;
      counters.stats.verifications += replayed.stats.verifications;
      tally.Add(!served.status.ok() ? Outcome::kError
                : SameAnswer(served, replayed, !ingesting()) ? Outcome::kOk
                                                            : Outcome::kWrong);
      if (pairs.size() < 256) CollectPairs(req, &pairs);
    }
    const double n_filtered = static_cast<double>(counters.filtered_requests);
    const double computations = static_cast<double>(sink.distance_computations());
    const double replayed = static_cast<double>(rid);

    layer_["serve.overhead_ms"] = Median(overhead_ms);
    for (const char* stage : {"frame.step3", "frame.step4_index", "frame.step4_fill",
                              "frame.step4_merge", "frame.step5", "frame.nearest",
                              "frame.derive"}) {
      layer_[std::string(stage) + "_ms"] = Median(tracer_.DurationsMs(stage));
    }
    layer_["frame.compact_s"] = 1e-3 * Median(tracer_.DurationsMs("frame.compact"));
    layer_["frame.segments_per_query"] =
        Ratio(static_cast<double>(counters.stats.segments), replayed);
    layer_["frame.hits_per_query"] =
        Ratio(static_cast<double>(counters.stats.hits), replayed);
    layer_["frame.chains_per_query"] =
        Ratio(static_cast<double>(counters.stats.chains), replayed);
    layer_["frame.verifications_per_query"] =
        Ratio(static_cast<double>(counters.stats.verifications), replayed);
    layer_["frame.verify_yield"] =
        Ratio(static_cast<double>(counters.matches),
              static_cast<double>(counters.stats.verifications));
    layer_["metric.filter_frac"] =
        Ratio(computations, static_cast<double>(counters.naive_pairs));
    layer_["metric.hit_precision"] =
        Ratio(static_cast<double>(sink.results()), computations);
    layer_["metric.lb_prune_frac"] =
        Ratio(static_cast<double>(sink.lower_bound_pruned()), computations);
    layer_["metric.lb_kim_frac"] =
        Ratio(static_cast<double>(sink.lb_kim_pruned()),
              static_cast<double>(sink.lower_bound_pruned()));
    layer_["metric.delta_probed_per_query"] =
        Ratio(static_cast<double>(sink.delta_windows_probed()), n_filtered);
    layer_["metric.tombstones_masked_per_query"] =
        Ratio(static_cast<double>(sink.tombstones_masked()), n_filtered);
    const double base_windows = static_cast<double>(Library().base_windows());
    layer_["metric.build_computations_per_window"] = Ratio(
        static_cast<double>(Library().index().build_stats().distance_computations),
        base_windows);
    layer_["metric.index_bytes_per_window"] = Ratio(
        static_cast<double>(Library().index().ComputeSpaceStats().approx_bytes),
        base_windows);
    MeasureDistance(pairs);
    if (!MeasureSnapshotAndExec()) return false;
    MeasureTraceOverhead();
    return true;
  }

  /// Up to 32 (segment, window) pairs from one request: its lambda/2
  /// segments against windows spread over the catalog.
  void CollectPairs(const MatchRequest<T>& req,
                    std::vector<std::pair<std::vector<T>, std::vector<T>>>* pairs) {
    const SubsequenceMatcher<T>& m = Library();
    const SegmentQueryBatch batch = m.MakeSegmentQueries(std::span<const T>(req.query));
    const WindowCatalog& catalog = m.catalog();
    Rng rng(MixSeed(args_.seed, pairs->size() + 991));
    for (size_t s = 0; s < batch.segments.size() && pairs->size() < 256; s += 4) {
      const Interval seg = batch.segments[s];
      const WindowRef& ref = catalog.at(static_cast<ObjectId>(
          rng.NextBounded(static_cast<uint64_t>(catalog.num_windows()))));
      const auto window = m.database().at(ref.seq).Subsequence(ref.span);
      pairs->emplace_back(
          std::vector<T>(req.query.begin() + seg.begin, req.query.begin() + seg.end),
          std::vector<T>(window.begin(), window.end()));
    }
  }

  /// distance.ns_per_cell via Compute, distance.batch_ns_per_cell via
  /// ComputeMany (each segment against every sampled window), repeated
  /// for at least 50 ms each.
  void MeasureDistance(
      const std::vector<std::pair<std::vector<T>, std::vector<T>>>& pairs) {
    const SequenceDistance<T>& dist = *w_.dist;
    double cells = 0.0;
    for (const auto& [a, b] : pairs) {
      cells += static_cast<double>(a.size() * b.size());
    }
    volatile double sink = 0.0;
    int reps = 0;
    const Clock::time_point t0 = Clock::now();
    do {
      Tracer::Scope span(&tracer_, "distance.compute", -1, -1);
      for (const auto& [a, b] : pairs) {
        sink = sink + dist.Compute(std::span<const T>(a), std::span<const T>(b));
      }
      ++reps;
    } while (SecondsBetween(t0, Clock::now()) < 0.05);
    layer_["distance.ns_per_cell"] =
        1e9 * SecondsBetween(t0, Clock::now()) / (cells * reps);

    std::vector<std::span<const T>> windows;
    for (const auto& p : pairs) windows.emplace_back(p.second);
    std::vector<double> out(windows.size());
    const size_t probes = std::min<size_t>(pairs.size(), 16);
    double batch_cells = 0.0;
    for (size_t k = 0; k < probes; ++k) {
      for (const auto& w : windows) {
        batch_cells += static_cast<double>(pairs[k].first.size() * w.size());
      }
    }
    reps = 0;
    const Clock::time_point t1 = Clock::now();
    do {
      Tracer::Scope span(&tracer_, "distance.compute_many", -1, -1);
      for (size_t k = 0; k < probes; ++k) {
        dist.ComputeMany(std::span<const T>(pairs[k].first), windows, out.data());
        sink = sink + out[0];
      }
      ++reps;
    } while (SecondsBetween(t1, Clock::now()) < 0.05);
    layer_["distance.batch_ns_per_cell"] =
        1e9 * SecondsBetween(t1, Clock::now()) / (batch_cells * reps);
  }

  /// snapshot.open_s / bytes_per_window over the library's index, and
  /// exec.query_speedup: whole-call replay time at one thread over time
  /// at nproc threads, on matchers loaded from that snapshot.
  bool MeasureSnapshotAndExec() {
    const SubsequenceMatcher<T>& base = *chain_.front();
    const std::string path = ScratchPath("index.snap");
    scratch_files_.push_back(path);
    {
      Tracer::Scope span(&tracer_, "snapshot.save", -1, -1);
      if (!base.SaveIndex(path).ok()) return false;
    }
    std::vector<double> open_s;
    uint64_t bytes = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point t0 = Clock::now();
      Tracer::Scope span(&tracer_, "snapshot.open", -1, -1);
      auto file = SnapshotFile::Open(path, SnapshotLoadMode::kEager);
      open_s.push_back(SecondsBetween(t0, Clock::now()));
      if (!file.ok()) return false;
      bytes = file.value()->file_size();
    }
    layer_["snapshot.open_s"] = Median(open_s);
    layer_["snapshot.bytes_per_window"] =
        Ratio(static_cast<double>(bytes), static_cast<double>(base.base_windows()));

    MatcherOptions one = w_.options.matcher;
    one.exec.num_threads = 1;
    auto seq = SubsequenceMatcher<T>::LoadIndex(base.database(), *w_.dist, one, path);
    auto par = SubsequenceMatcher<T>::LoadIndex(base.database(), *w_.dist,
                                                w_.options.matcher, path);
    if (!seq.ok() || !par.ok()) {
      std::fprintf(stderr, "LoadIndex: %s %s\n", seq.status().ToString().c_str(),
                   par.status().ToString().c_str());
      return false;
    }
    double t_seq = 0.0, t_par = 0.0;
    for (uint64_t j = 0; j < 12; ++j) {
      const MatchRequest<T> req = w_.request(kReplayBase + j);
      Clock::time_point t0 = Clock::now();
      { Tracer::Scope span(&tracer_, "exec.replay_1", static_cast<int64_t>(j), -1);
        Direct(*seq.value(), req); }
      t_seq += SecondsBetween(t0, Clock::now());
      t0 = Clock::now();
      { Tracer::Scope span(&tracer_, "exec.replay_n", static_cast<int64_t>(j), -1);
        Direct(*par.value(), req); }
      t_par += SecondsBetween(t0, Clock::now());
    }
    layer_["exec.query_speedup"] = Ratio(t_seq, t_par);
    return true;
  }

  /// trace.overhead_frac: the staged replay of the same requests with
  /// span recording on versus off, alternating which runs first.
  void MeasureTraceOverhead() {
    Tracer off(false);
    Tracer on(true);
    double t_off = 0.0, t_on = 0.0;
    ReplayCounters scratch;
    for (uint64_t j = 0; j < 12; ++j) {
      const MatchRequest<T> req = w_.request(kReplayBase + j);
      for (int side = 0; side < 2; ++side) {
        const bool traced = (side + static_cast<int>(j)) % 2 == 1;
        Tracer* t = traced ? &on : &off;
        const Clock::time_point t0 = Clock::now();
        {
          Tracer::Scope span(t, "replay.request", static_cast<int64_t>(j), -1);
          ReplayStaged(Library(), req, t, static_cast<int64_t>(j), span.id(),
                       nullptr, &scratch);
        }
        (traced ? t_on : t_off) += SecondsBetween(t0, Clock::now());
      }
    }
    layer_["trace.overhead_frac"] = Ratio(t_on - t_off, t_off);
  }

  // ------------------------------------------------------------ report
  int Report() {
    int64_t sent = 0, failed = 0;
    std::vector<PhaseTally> flat;
    for (const auto& t : tallies_) {
      flat.push_back(*t);
      sent += t->sent;
      failed += t->failed();
      std::printf("phase %-12s sent=%" PRId64 " succeeded=%" PRId64
                  " failed=%" PRId64 " (errors=%" PRId64 " timeouts=%" PRId64
                  " wrong=%" PRId64 ")\n",
                  t->phase.c_str(), t->sent, t->succeeded, t->failed(), t->errors,
                  t->timeouts, t->wrong);
    }
    if (check_error_) ++failed;
    const bool correct = failed == 0 && (args_.trace || p99_supported_);
    std::printf("checked %" PRId64 " answers against direct library calls\n",
                checked_);

    std::vector<std::tuple<std::string, double, std::string>> metrics;
    if (!args_.trace) {
      metrics = {{"setup_s", setup_s_, "s"},
                 {"capacity_qps", capacity_qps_, "req/s"},
                 {"p50_ms", p50_ms_, "ms"},
                 {"peak_rss_mb", PeakRssMiB(), "MiB"}};
      // Reported for reading only; BENCHMARK.json bounds metrics that
      // every workload has and that are never 0.
      std::printf("info fail_frac = %.6g ratio\n", FailFraction(flat));
      std::printf("info p90_ms = %.6g ms\n", p90_ms_);
      std::printf("info p99_ms = %.6g ms\n", p99_ms_);
      if (!std::isnan(nearest_p50_ms_)) {
        std::printf("info nearest_p50_ms = %.6g ms\n", nearest_p50_ms_);
      }
      if (!append_ms_.empty()) {
        std::printf("info append_p50_ms = %.6g ms\n", NearestRank(append_ms_, 0.5));
        std::printf("info append_p90_ms = %.6g ms (%zu appends)\n",
                    NearestRank(append_ms_, 0.9), append_ms_.size());
      }
      std::printf("info open_loop sent=%" PRId64 " completed=%" PRId64
                  " samples_beyond_p99=%" PRId64 "\n",
                  open_sent_, open_completed_,
                  SamplesBeyond(open_completed_, 0.99));
    } else {
      AddServeLayerMetrics();
      for (const auto& [name, value] : layer_) {
        metrics.emplace_back(name, std::isfinite(value) ? value : 0.0, UnitOf(name));
      }
      if (!args_.out_dir.empty()) {
        const std::string path = args_.out_dir + "/" + w_.name + "-seed" +
                                 std::to_string(args_.seed) + "-spans.json";
        if (tracer_.WriteJson(path)) std::printf("spans written to %s\n", path.c_str());
      }
    }
    for (const auto& [name, value, unit] : metrics) {
      std::printf("metric %s = %.6g %s\n", name.c_str(), value, unit.c_str());
    }
    WriteResultFile(metrics, sent, failed, correct);
    RemoveScratch();

    std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
                ", \"metrics\": {",
                correct ? "true" : "false", sent, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, value, unit] = metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  name.c_str(), value, unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

  void AddServeLayerMetrics() {
    const ServeStats& a = serve_before_;
    const ServeStats& b = serve_after_;
    const auto d = [](int64_t x, int64_t y) { return static_cast<double>(y - x); };
    const double admitted = d(a.queries_admitted, b.queries_admitted);
    layer_["serve.batch_size"] =
        Ratio(admitted, d(a.admission_batches, b.admission_batches));
    layer_["serve.coalesced_frac"] =
        Ratio(d(a.coalesced_queries, b.coalesced_queries), admitted);
    layer_["serve.shared_work_frac"] =
        1.0 - Ratio(d(a.filter_computations, b.filter_computations),
                    d(a.billed_filter_computations, b.billed_filter_computations));
    const double hits = d(a.cache_hits, b.cache_hits);
    layer_["serve.cache_hit_rate"] =
        Ratio(hits, hits + d(a.cache_misses, b.cache_misses));
    layer_["serve.cache_evictions"] = d(a.cache_evictions, b.cache_evictions);
    layer_["serve.merges"] = d(a.merges, b.merges);
    layer_["serve.epochs_advanced"] = static_cast<double>(b.epoch - a.epoch);
    double sum = 0.0;
    for (double v : delta_samples_) sum += v;
    layer_["serve.delta_windows_mean"] =
        Ratio(sum, static_cast<double>(delta_samples_.size()));
    layer_["serve.nearest_p50_ms"] = nearest_p50_ms_;
    layer_["serve.append_p50_ms"] = NearestRank(append_ms_, 0.5);
    layer_["serve.append_p90_ms"] = NearestRank(append_ms_, 0.9);
    layer_["loadgen.late_p99_ms"] = late_p99_ms_;
    layer_["loadgen.sent"] = static_cast<double>(open_sent_);
    layer_["loadgen.completed"] = static_cast<double>(open_completed_);
  }

  static std::string UnitOf(const std::string& name) {
    const auto ends = [&](const char* suffix) {
      const size_t n = std::strlen(suffix);
      return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_ms")) return "ms";
    if (ends("_s")) return "s";
    if (ends("ns_per_cell")) return "ns";
    if (ends("bytes_per_window")) return "bytes";
    if (ends("_frac") || ends("_rate") || ends("_yield") || ends("_precision") ||
        ends("speedup")) {
      return "ratio";
    }
    return "count";
  }

  void WriteResultFile(
      const std::vector<std::tuple<std::string, double, std::string>>& metrics,
      int64_t sent, int64_t failed, bool correct) {
    if (args_.out_dir.empty()) return;
    const std::string path = args_.out_dir + "/" + w_.name + "-seed" +
                             std::to_string(args_.seed) + "-trace" +
                             (args_.trace ? "1" : "0") + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"workload\": \"%s\", \"seed\": %" PRIu64
                    ", \"seconds\": %g, \"trace\": %d,\n",
                 w_.name.c_str(), args_.seed, args_.seconds, args_.trace ? 1 : 0);
    std::fprintf(f, "  \"commit\": \"%s\", \"nproc\": %d, \"simd_active\": \"%s\", "
                    "\"simd_detected\": \"%s\", \"rate_qps\": %g,\n",
                 args_.commit.c_str(), ResolveHardwareConcurrency(),
                 simd::SimdLevelName(simd::ActiveSimdLevel()),
                 simd::SimdLevelName(simd::DetectedSimdLevel()), w_.rate_qps);
    std::fprintf(f, "  \"sizes\": {");
    for (size_t i = 0; i < w_.sizes.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %g", i ? ", " : "", w_.sizes[i].first.c_str(),
                   w_.sizes[i].second);
    }
    std::fprintf(f, "},\n  \"phases\": [");
    for (size_t i = 0; i < tallies_.size(); ++i) {
      const PhaseTally& t = *tallies_[i];
      std::fprintf(f, "%s{\"phase\": \"%s\", \"sent\": %" PRId64
                      ", \"succeeded\": %" PRId64 ", \"failed\": %" PRId64 "}",
                   i ? ", " : "", t.phase.c_str(), t.sent, t.succeeded, t.failed());
    }
    std::fprintf(f, "],\n  \"correct\": %s, \"attempted\": %" PRId64
                    ", \"failed\": %" PRId64 ",\n  \"metrics\": {",
                 correct ? "true" : "false", sent, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, value, unit] = metrics[i];
      std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i ? "," : "", name.c_str(), value, unit.c_str());
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
  }

  const Clock::time_point born_ = Clock::now();
  Workload<T> w_;
  const Args args_;
  Tracer tracer_;
  std::unique_ptr<MatchServer<T>> server_;
  PhaseTally* setup_tally_ = nullptr;
  std::vector<double> setup_times_;
  std::vector<std::string> scratch_files_;
  std::vector<std::unique_ptr<PhaseTally>> tallies_;
  std::unique_ptr<Sampler> closed_samples_;
  std::unique_ptr<Sampler> open_samples_;
  std::vector<std::unique_ptr<SubsequenceMatcher<T>>> chain_;
  std::atomic<int64_t> ops_begun_{0};
  std::atomic<int64_t> ops_done_{0};
  std::vector<double> append_ms_;       // background thread, read after join
  std::vector<double> delta_samples_;   // background thread, read after join
  std::mutex burst_mu_;
  std::condition_variable burst_cv_;
  std::vector<Clock::time_point> burst_starts_;  // guarded by burst_mu_
  ServeStats serve_before_, serve_after_;
  std::map<std::string, double> layer_;
  double setup_s_ = 0.0, capacity_qps_ = 0.0, p50_ms_ = 0.0, p90_ms_ = 0.0,
         p99_ms_ = 0.0;
  double nearest_p50_ms_ = 0.0, late_p99_ms_ = 0.0;
  int64_t open_sent_ = 0, open_completed_ = 0, checked_ = 0;
  bool p99_supported_ = false;
  bool check_error_ = false;
};

template <typename T>
int RunWorkload(Workload<T> w, const Args& args) {
  BenchRun<T> run(std::move(w), args);
  return run.Execute();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload proteins_hot|songs_scan|traj_ingest "
                 "--seed N --seconds S --trace 0|1 [--commit SHA] [--out-dir DIR]\n");
    return 2;
  }
  if (args.workload == "proteins_hot") return RunWorkload(MakeProteinsHot(args.seed), args);
  if (args.workload == "songs_scan") return RunWorkload(MakeSongsScan(args.seed), args);
  if (args.workload == "traj_ingest") return RunWorkload(MakeTrajIngest(args.seed), args);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
