// The benchmark's three workloads, generated with the subseq/data
// generators: each database from a fixed dataset seed, the requests and
// the ingest stream from the run's seed. The program under test receives
// only these generated inputs. README.md says why each workload exists.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "loadgen.h"
#include "subseq/core/rng.h"
#include "subseq/core/sequence.h"
#include "subseq/data/motif.h"
#include "subseq/data/protein_gen.h"
#include "subseq/data/song_gen.h"
#include "subseq/data/trajectory_gen.h"
#include "subseq/distance/dtw.h"
#include "subseq/distance/erp.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/serve/match_server.h"

namespace perfbench {

/// One live-ingest operation: append `append`, or retire `retire`.
template <typename T>
struct IngestOp {
  std::optional<subseq::Sequence<T>> append;
  subseq::SeqId retire = subseq::kInvalidId;
};

template <typename T>
struct Workload {
  std::string name;
  subseq::SequenceDatabase<T> db;
  std::unique_ptr<const subseq::SequenceDistance<T>> dist;
  subseq::MatchServerOptions options;
  /// Open-loop arrival rate, fixed at about half of the capacity the
  /// workload measured at the commit that defined the benchmark.
  double rate_qps = 0.0;
  /// Request i of the workload's stream: a pure function of (seed, i).
  std::function<subseq::MatchRequest<T>(uint64_t)> request;
  /// Ingest operations, applied in order while serving: a burst of
  /// ingest_burst ops at ingest_burst_hz at the start of every closed- and
  /// open-loop slice.
  std::vector<IngestOp<T>> ingest;
  int32_t ingest_burst = 0;
  double ingest_burst_hz = 0.0;

  /// Start boots from a snapshot written in untimed preparation.
  bool boot_from_snapshot = false;
  /// Requests warmup(0) .. warmup(warmup_requests - 1), served untimed
  /// between set-up and the measured phases, so those start from a warm
  /// cache.
  int64_t warmup_requests = 0;
  std::function<subseq::MatchRequest<T>(uint64_t)> warmup;
  /// Sizes recorded in the run stamp.
  std::vector<std::pair<std::string, double>> sizes;
};

/// Seed of every workload's database. The database stands in for the
/// paper's fixed datasets, so it is the same for every run; --seed draws
/// everything that arrives at the server: requests, arrival times and
/// the ingest stream. Drawn per seed, the database alone moved proteins
/// capacity by 40% (reference-net filter work per query differs that much
/// between generated family structures), more than any usable bound.
inline constexpr uint64_t kDatasetSeed = 2012;

// Stream ids that keep the independent draws of one seed apart.
inline constexpr uint64_t kDbStream = 1;
inline constexpr uint64_t kPoolStream = 2;
inline constexpr uint64_t kRequestStream = 3;
inline constexpr uint64_t kIngestStream = 4;

inline constexpr int32_t kWindowLength = 20;

/// A uniformly placed cut of `length` elements from a database sequence
/// long enough to hold it.
template <typename T>
std::span<const T> RandomCut(const subseq::SequenceDatabase<T>& db,
                             int32_t length, subseq::Rng& rng) {
  for (;;) {
    const auto s = static_cast<subseq::SeqId>(
        rng.NextBounded(static_cast<uint64_t>(db.size())));
    const subseq::Sequence<T>& seq = db.at(s);
    if (seq.size() < length) continue;
    const auto begin = static_cast<int32_t>(rng.NextInt(0, seq.size() - length));
    return seq.Subsequence(subseq::Interval{begin, begin + length});
  }
}

/// A mutated database cut: the query model of every workload.
template <typename T>
std::vector<T> MutatedCut(const subseq::SequenceDatabase<T>& db,
                          int32_t length, const subseq::MotifOptions& mutation,
                          subseq::Rng& rng) {
  const std::span<const T> cut = RandomCut(db, length, rng);
  subseq::MotifPlanter planter(rng.NextU64());
  return planter.Mutate(cut, mutation);
}

// ------------------------------------------------------------ proteins_hot
// PROTEINS under Levenshtein through the reference net and the default
// segment cache. Type II requests over mutated database cuts:
// kProteinHotShare of them go to a hot set of kProteinHotSet cuts that
// fits the cache, the rest are fresh cuts, a tail that misses on a warm
// server. The hot set is many queries wide so that the median request
// cost averages over many of them; a Zipf head of a few queries made the
// median swing with whichever few queries the seed drew. The hot set, like
// the database, is fixed (a recorded query log) and the warm-up serves it
// once, so every run measures from the same cache contents; --seed draws
// which hot query each request repeats and the fresh tail cuts. A tail
// drawn from a bounded pool turns into hits as a run goes on, so capacity
// would rise through the run, and the more so the faster the machine.
inline constexpr int32_t kProteinWindows = 2000;
inline constexpr int32_t kProteinHotSet = 256;
inline constexpr double kProteinHotShare = 0.85;
inline constexpr double kProteinEpsilon = 2.0;
inline constexpr double kProteinRate = 80.0;

inline Workload<char> MakeProteinsHot(uint64_t seed) {
  using namespace subseq;
  Workload<char> w;
  w.name = "proteins_hot";
  ProteinGenOptions gen;
  gen.mean_length = 100;
  gen.family_fraction = 0.9;
  gen.seed = MixSeed(kDatasetSeed, kDbStream);
  w.db = ProteinGenerator(gen).GenerateDatabaseWithWindows(kProteinWindows,
                                                           kWindowLength);
  w.dist = std::make_unique<LevenshteinDistance<char>>();
  w.options.matcher.lambda = 2 * kWindowLength;
  w.options.matcher.lambda0 = 2;
  w.options.matcher.index_kind = IndexKind::kReferenceNet;
  w.rate_qps = kProteinRate;

  const int32_t query_length = w.options.matcher.lambda + 4;
  MotifOptions mutation;
  mutation.substitution_rate = 0.05;
  Rng rng(MixSeed(kDatasetSeed, kPoolStream));
  auto hot = std::make_shared<std::vector<std::vector<char>>>();
  for (int32_t p = 0; p < kProteinHotSet; ++p) {
    hot->push_back(MutatedCut(w.db, query_length, mutation, rng));
  }
  const auto ask = [](std::vector<char> query) {
    MatchRequest<char> req;
    req.type = MatchQueryType::kLongestMatch;
    req.query = std::move(query);
    req.epsilon = kProteinEpsilon;
    return req;
  };
  auto db = std::make_shared<const SequenceDatabase<char>>(w.db);
  w.request = [ask, hot, db, seed, query_length, mutation](uint64_t i) {
    Rng r(MixSeed(MixSeed(seed, kRequestStream), i));
    if (r.NextBool(kProteinHotShare)) return ask((*hot)[r.NextBounded(kProteinHotSet)]);
    return ask(MutatedCut(*db, query_length, mutation, r));
  };
  w.warmup_requests = kProteinHotSet;
  w.warmup = [ask, hot](uint64_t i) { return ask((*hot)[i]); };
  w.sizes = {{"windows", kProteinWindows},
             {"sequences", w.db.size()},
             {"hot_set", kProteinHotSet},
             {"hot_share", kProteinHotShare},
             {"query_length", query_length},
             {"epsilon", kProteinEpsilon}};
  return w;
}

// -------------------------------------------------------------- songs_scan
// SONGS under 1-D DTW: non-metric, so the matcher scans linearly behind
// the LB_Kim -> LB_Keogh cascade. Every request is distinct; ~80% Type I
// RangeSearch, ~20% Type III NearestMatch.
inline constexpr int32_t kSongWindows = 240;
inline constexpr int32_t kSongLambda = 20;
inline constexpr double kSongEpsilon = 2.5;
inline constexpr double kSongNearestMax = 3.0;
inline constexpr double kSongNearestStep = 1.0;
inline constexpr double kSongNearestShare = 0.2;
inline constexpr double kSongRate = 60.0;

inline Workload<double> MakeSongsScan(uint64_t seed) {
  using namespace subseq;
  Workload<double> w;
  w.name = "songs_scan";
  SongGenOptions gen;
  gen.mean_length = 80;
  gen.seed = MixSeed(kDatasetSeed, kDbStream);
  w.db = SongGenerator(gen).GenerateDatabaseWithWindows(kSongWindows,
                                                        kSongLambda / 2);
  w.dist = std::make_unique<DtwDistance1D>();
  w.options.matcher.lambda = kSongLambda;
  w.options.matcher.lambda0 = 2;
  w.options.matcher.index_kind = IndexKind::kLinearScan;
  w.rate_qps = kSongRate;

  const int32_t query_length = kSongLambda + 2;
  auto db = std::make_shared<const SequenceDatabase<double>>(w.db);
  w.request = [db, seed, query_length](uint64_t i) {
    Rng r(MixSeed(MixSeed(seed, kRequestStream), i));
    MotifOptions mutation;
    mutation.noise_sigma = 0.15;
    MatchRequest<double> req;
    req.query = MutatedCut(*db, query_length, mutation, r);
    if (r.NextBool(kSongNearestShare)) {
      req.type = MatchQueryType::kNearestMatch;
      req.epsilon_max = kSongNearestMax;
      req.epsilon_increment = kSongNearestStep;
    } else {
      req.type = MatchQueryType::kRangeSearch;
      req.epsilon = kSongEpsilon;
    }
    return req;
  };
  w.sizes = {{"windows", kSongWindows},
             {"sequences", w.db.size()},
             {"query_length", query_length},
             {"epsilon", kSongEpsilon},
             {"nearest_share", kSongNearestShare},
             {"nearest_epsilon_max", kSongNearestMax}};
  return w;
}

// ------------------------------------------------------------- traj_ingest
// TRAJ (2-D) under ERP through the reference net, booted from a
// snapshot. Distinct Type II requests while the same process appends
// trajectories and retires a few; the default delta_merge_threshold lets
// background merges run during the phase. Ingest comes in fixed-rate
// bursts with quiet gaps: a merge publishes only if no ingest op lands
// while it rebuilds, so under a steady stream of one op per second or
// faster every merge is discarded and the delta grows without bound.
// A burst opens every slice of the run rather than every few seconds of
// wall time, so slice k finds the same epoch, delta and merge state on
// every run however fast the machine is; on a wall-time schedule the
// capacity of one slice ranged over 4x with where a merge fell.
inline constexpr int32_t kTrajWindows = 3000;
inline constexpr int32_t kTrajLambda = 20;
inline constexpr double kTrajEpsilon = 4.0;
inline constexpr double kTrajRate = 60.0;
inline constexpr int32_t kTrajIngestBurst = 10;
inline constexpr double kTrajIngestBurstHz = 40.0;
inline constexpr int32_t kTrajIngestOps = 400;
inline constexpr int32_t kTrajRetireEvery = 10;  // every 10th op retires
inline constexpr int32_t kTrajDonorLength = 100;  // 10 windows per append

inline Workload<subseq::Point2d> MakeTrajIngest(uint64_t seed) {
  using namespace subseq;
  Workload<Point2d> w;
  w.name = "traj_ingest";
  TrajectoryGenOptions gen;
  gen.mean_length = 250;
  gen.seed = MixSeed(kDatasetSeed, kDbStream);
  w.db = TrajectoryGenerator(gen).GenerateDatabaseWithWindows(kTrajWindows,
                                                              kTrajLambda / 2);
  w.dist = std::make_unique<ErpDistance2D>();
  w.options.matcher.lambda = kTrajLambda;
  w.options.matcher.lambda0 = 2;
  w.options.matcher.index_kind = IndexKind::kReferenceNet;
  w.rate_qps = kTrajRate;
  w.boot_from_snapshot = true;

  const int32_t query_length = w.options.matcher.lambda + 4;
  auto db = std::make_shared<const SequenceDatabase<Point2d>>(w.db);
  w.request = [db, seed, query_length](uint64_t i) {
    Rng r(MixSeed(MixSeed(seed, kRequestStream), i));
    MotifOptions mutation;
    mutation.noise_sigma = 0.1;
    MatchRequest<Point2d> req;
    req.type = MatchQueryType::kLongestMatch;
    req.query = MutatedCut(*db, query_length, mutation, r);
    req.epsilon = kTrajEpsilon;
    return req;
  };

  TrajectoryGenOptions donor_gen = gen;
  donor_gen.seed = MixSeed(seed, kIngestStream);
  TrajectoryGenerator donors(donor_gen);
  Rng rng(MixSeed(seed, kIngestStream + 1));
  std::vector<SeqId> retirable(static_cast<size_t>(w.db.size()));
  for (size_t s = 0; s < retirable.size(); ++s) retirable[s] = static_cast<SeqId>(s);
  for (int32_t k = 0; k < kTrajIngestOps; ++k) {
    IngestOp<Point2d> op;
    if (k % kTrajRetireEvery == kTrajRetireEvery - 1 && !retirable.empty()) {
      const size_t pick = rng.NextBounded(retirable.size());
      op.retire = retirable[pick];
      retirable[pick] = retirable.back();
      retirable.pop_back();
    } else {
      op.append = donors.GenerateWithLength(kTrajDonorLength);
    }
    w.ingest.push_back(std::move(op));
  }
  w.ingest_burst = kTrajIngestBurst;
  w.ingest_burst_hz = kTrajIngestBurstHz;
  w.sizes = {{"windows", kTrajWindows},
             {"sequences", w.db.size()},
             {"query_length", query_length},
             {"epsilon", kTrajEpsilon},
             {"ingest_burst", kTrajIngestBurst},
             {"ingest_burst_hz", kTrajIngestBurstHz},
             {"retire_every", kTrajRetireEvery},
             {"append_length", kTrajDonorLength},
             {"delta_merge_threshold",
              w.options.matcher.delta_merge_threshold}};
  return w;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
