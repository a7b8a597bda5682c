// Thread-scaling of the execution layer: index construction and batched
// range queries on PROTEINS / Levenshtein at 1/2/4/8 threads, plus a
// shard sweep of the PartitionedIndex (1/2/4/8 contiguous shards of the
// same catalog behind per-shard reference nets), and the Levenshtein
// bit-parallel kernel against the row DP on the same windows.
//
// Prints a table and writes BENCH_parallel_scaling.json (machine-readable,
// consumed by CI trend tooling and gated by tools/bench_check.py). Also
// cross-checks that every thread count returns element-wise identical
// query results, and that every shard count returns the same hit sets as
// the monolithic scan — the determinism contracts of the exec and
// sharding layers.

#include <chrono>
#include <cstdio>
#include <vector>

#include <algorithm>
#include <memory>

#include "bench_common.h"
#include "subseq/core/check.h"
#include "subseq/core/rng.h"
#include "subseq/distance/dtw.h"
#include "subseq/distance/erp.h"
#include "subseq/distance/euclidean.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/distance/simd/cpu_features.h"
#include "subseq/frame/lb_prefilter.h"
#include "subseq/exec/exec_context.h"
#include "subseq/exec/stats_sink.h"
#include "subseq/frame/matcher.h"
#include "subseq/frame/window_oracle.h"
#include "subseq/frame/windowing.h"
#include "subseq/metric/linear_scan.h"
#include "subseq/metric/mv_index.h"
#include "subseq/metric/partitioned_index.h"
#include "subseq/metric/reference_net.h"

namespace subseq::bench {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

int Run() {
  Banner("parallel_scaling",
         "exec-layer thread scaling: build + batched queries (PROTEINS / "
         "Levenshtein)");

  const int32_t num_windows = Scaled(400, 5000);
  const int32_t num_queries = Scaled(60, 200);
  const double epsilon = 2.0;

  const SequenceDatabase<char> db = MakeProteinDb(num_windows, 2024);
  auto catalog =
      WindowCatalog::PartitionDatabase(db, kWindowLength).ValueOrDie();
  const LevenshteinDistance<char> dist;
  const WindowOracle<char> oracle(db, catalog, dist);
  const auto queries = MakeProteinQueries(db, catalog, num_queries, 7);
  std::vector<QueryDistanceFn> fns;
  fns.reserve(queries.size());
  for (const auto& q : queries) {
    fns.push_back(oracle.SegmentQuery(std::span<const char>(q)));
  }

  std::printf("windows=%d queries=%d epsilon=%.1f\n\n", oracle.size(),
              num_queries, epsilon);
  std::printf("%8s %12s %12s %14s %14s\n", "threads", "mv_build_ms",
              "rn_build_ms", "rn_query_ms", "scan_query_ms");

  std::vector<BenchRecord> records;
  std::vector<std::vector<ObjectId>> reference_results;
  double base_build = 0.0;
  double base_query = 0.0;
  for (const int32_t threads : {1, 2, 4, 8}) {
    ExecContext exec{threads};

    auto t0 = std::chrono::steady_clock::now();
    MvIndexOptions mv_options;
    mv_options.num_references = 20;
    mv_options.exec = exec;
    const MvIndex mv(oracle, mv_options);
    const double mv_build_ms = MillisSince(t0);

    t0 = std::chrono::steady_clock::now();
    ReferenceNetOptions rn_options;
    rn_options.exec = exec;
    const ReferenceNet rn = ReferenceNet::BuildAll(oracle, rn_options);
    const double rn_build_ms = MillisSince(t0);

    t0 = std::chrono::steady_clock::now();
    StatsSink sink;
    const auto rn_results = rn.BatchRangeQuery(fns, epsilon, exec, &sink);
    const double rn_query_ms = MillisSince(t0);

    const LinearScan scan(oracle.size());
    t0 = std::chrono::steady_clock::now();
    const auto scan_results = scan.BatchRangeQuery(fns, epsilon, exec,
                                                   nullptr);
    const double scan_query_ms = MillisSince(t0);

    // Determinism: every thread count must reproduce the 1-thread
    // results element-wise.
    if (reference_results.empty()) {
      reference_results = rn_results;
    } else {
      SUBSEQ_CHECK(rn_results == reference_results);
    }

    std::printf("%8d %12.1f %12.1f %14.1f %14.1f\n", threads, mv_build_ms,
                rn_build_ms, rn_query_ms, scan_query_ms);

    const double build_ms = mv_build_ms + rn_build_ms;
    const double query_ms = rn_query_ms + scan_query_ms;
    if (threads == 1) {
      base_build = build_ms;
      base_query = query_ms;
    }
    records.push_back(BenchRecord{
        "threads=" + std::to_string(threads),
        {{"threads", static_cast<double>(threads)},
         {"mv_build_ms", mv_build_ms},
         {"rn_build_ms", rn_build_ms},
         {"rn_query_ms", rn_query_ms},
         {"scan_query_ms", scan_query_ms},
         {"build_speedup", build_ms > 0.0 ? base_build / build_ms : 0.0},
         {"query_speedup", query_ms > 0.0 ? base_query / query_ms : 0.0},
         {"filter_computations",
          static_cast<double>(sink.distance_computations())}}});
  }

  // ------------------------------------------------------------ shard sweep
  // K contiguous shards, one reference net per shard, built and queried
  // through the PartitionedIndex at the hardware thread budget. Build cost is
  // super-linear in the shard size, so sharding wins build time twice:
  // less total work AND parallel shard construction.
  std::printf("\n%8s %12s %14s %13s %12s %14s\n", "shards", "build_ms",
              "build_comps", "build_spdup", "query_ms", "query_comps");

  const ExecContext shard_exec{};  // hardware threads
  const auto factory = [](const DistanceOracle& shard_oracle,
                          int32_t) -> Result<std::unique_ptr<RangeIndex>> {
    auto net = std::make_unique<ReferenceNet>(shard_oracle);
    for (ObjectId id = 0; id < shard_oracle.size(); ++id) {
      SUBSEQ_RETURN_NOT_OK(net->Insert(id));
    }
    return std::unique_ptr<RangeIndex>(std::move(net));
  };
  std::vector<std::vector<ObjectId>> scan_truth;
  {
    const LinearScan scan(oracle.size());
    scan_truth = scan.BatchRangeQuery(fns, epsilon, shard_exec, nullptr);
    for (auto& ids : scan_truth) std::sort(ids.begin(), ids.end());
  }
  double shard_base_build = 0.0;
  for (const int32_t shards : {1, 2, 4, 8}) {
    PartitionedIndexOptions options;
    options.num_parts = shards;
    options.exec = shard_exec;

    auto t0 = std::chrono::steady_clock::now();
    auto built = PartitionedIndex::Build(oracle, factory, options);
    SUBSEQ_CHECK(built.ok());
    const auto sharded = std::move(built).ValueOrDie();
    const double build_ms = MillisSince(t0);

    t0 = std::chrono::steady_clock::now();
    StatsSink sink;
    const auto results =
        sharded->BatchRangeQuery(fns, epsilon, shard_exec, &sink);
    const double query_ms = MillisSince(t0);

    // Exactness at every shard count: the merged hit sets must equal the
    // monolithic scan's (order within a query may differ across shard
    // counts; sets may not).
    SUBSEQ_CHECK(results.size() == scan_truth.size());
    for (size_t q = 0; q < results.size(); ++q) {
      std::vector<ObjectId> sorted = results[q];
      std::sort(sorted.begin(), sorted.end());
      SUBSEQ_CHECK(sorted == scan_truth[q]);
    }

    if (shards == 1) shard_base_build = build_ms;
    const double build_speedup =
        build_ms > 0.0 ? shard_base_build / build_ms : 0.0;
    const double build_comps = static_cast<double>(
        sharded->build_stats().distance_computations);
    std::printf("%8d %12.1f %14.0f %13.2f %12.1f %14lld\n", shards,
                build_ms, build_comps, build_speedup, query_ms,
                static_cast<long long>(sink.distance_computations()));

    records.push_back(BenchRecord{
        "shards=" + std::to_string(shards),
        {{"shards", static_cast<double>(shards)},
         {"shard_build_ms", build_ms},
         {"shard_build_computations", build_comps},
         {"shard_build_speedup", build_speedup},
         {"shard_query_ms", query_ms},
         {"shard_query_computations",
          static_cast<double>(sink.distance_computations())}}});
  }

  // ----------------------------------------------------------- routing
  // Pivot-routed cells vs the monolithic linear scan on SONGS /
  // Euclidean — random-walk windows cluster by level, so k-center
  // routing has real structure to exploit. Linear-scan cells make the
  // accounting exact: the monolithic scan bills Q*n, the routed index
  // bills Q*cells pivot distances plus every probed cell's members, so
  // routed_computations_saved is precisely the skipped members minus the
  // routing overhead. Both gated rows are deterministic count ratios
  // (tight tolerance in CI — the routing decisions are fixed by the data
  // and the padded cutoff, not by machine speed). Hit sets are CHECKed
  // equal to the monolithic scan's at every cell count.
  std::printf("\n%8s %12s %14s %15s %14s\n", "cells", "query_ms",
              "query_comps", "skip_rate", "comps_saved");
  {
    const SequenceDatabase<double> route_db = MakeSongDb(num_windows, 55);
    auto route_catalog =
        WindowCatalog::PartitionDatabase(route_db, kWindowLength)
            .ValueOrDie();
    const EuclideanDistance1D euclid;
    const WindowOracle<double> route_oracle(route_db, route_catalog,
                                            euclid);
    const auto route_queries =
        MakeSongQueries(route_db, route_catalog, num_queries, 13);
    const double route_epsilon = 4.0;
    std::vector<QueryDistanceFn> route_fns;
    route_fns.reserve(route_queries.size());
    for (const auto& q : route_queries) {
      route_fns.push_back(
          route_oracle.SegmentQuery(std::span<const double>(q)));
    }

    const auto scan_factory =
        [](const DistanceOracle& cell_oracle,
           int32_t) -> Result<std::unique_ptr<RangeIndex>> {
      return std::unique_ptr<RangeIndex>(
          std::make_unique<LinearScan>(cell_oracle.size()));
    };

    const LinearScan mono(route_oracle.size());
    StatsSink mono_sink;
    auto route_truth = mono.BatchRangeQuery(route_fns, route_epsilon,
                                            shard_exec, &mono_sink);
    for (auto& ids : route_truth) std::sort(ids.begin(), ids.end());
    const int64_t mono_computations = mono_sink.distance_computations();
    SUBSEQ_CHECK(mono_computations > 0);

    for (const int32_t cells : {4, 8}) {
      PartitionedIndexOptions options;
      options.kind = PartitionKind::kKCenter;
      options.num_parts = cells;
      options.exec = shard_exec;
      auto built = PartitionedIndex::Build(route_oracle, scan_factory, options);
      SUBSEQ_CHECK(built.ok());
      const auto routed = std::move(built).ValueOrDie();

      auto t0 = std::chrono::steady_clock::now();
      StatsSink sink;
      const auto results =
          routed->BatchRangeQuery(route_fns, route_epsilon, shard_exec,
                                  &sink);
      const double query_ms = MillisSince(t0);

      // Exactness at every cell count: routing must never lose a hit.
      SUBSEQ_CHECK(results.size() == route_truth.size());
      for (size_t q = 0; q < results.size(); ++q) {
        std::vector<ObjectId> sorted = results[q];
        std::sort(sorted.begin(), sorted.end());
        SUBSEQ_CHECK(sorted == route_truth[q]);
      }

      const double probed = static_cast<double>(sink.cells_probed());
      const double skipped = static_cast<double>(sink.cells_skipped());
      SUBSEQ_CHECK(probed + skipped > 0.0);
      const double skip_rate = skipped / (probed + skipped);
      const double saved =
          1.0 - static_cast<double>(sink.distance_computations()) /
                    static_cast<double>(mono_computations);
      SUBSEQ_CHECK(skip_rate > 0.0);
      SUBSEQ_CHECK(saved > 0.0);
      std::printf("%8d %12.1f %14lld %15.3f %14.3f\n",
                  routed->num_parts(), query_ms,
                  static_cast<long long>(sink.distance_computations()),
                  skip_rate, saved);

      records.push_back(BenchRecord{
          "routing_cells=" + std::to_string(cells),
          {{"routing_cells", static_cast<double>(cells)},
           {"routed_query_ms", query_ms},
           {"routed_query_computations",
            static_cast<double>(sink.distance_computations())},
           {"route_skip_rate", skip_rate},
           {"routed_computations_saved", saved}}});
    }
  }

  // ------------------------------------------------------ verify scaling
  // Step-5 thread scaling: the same PROTEINS database behind a full
  // matcher pipeline, hits precomputed, wall-clock of the Type I
  // verification phase (RangeSearchFromHits) at 1/2/4/8 threads.
  // Matches must be element-wise identical at every setting — the step-5
  // determinism contract — and the speedup ratio is what
  // tools/bench_check.py gates (wall-clock, so the gate runs with a wide
  // tolerance: on boxes with fewer cores than the thread budget the
  // ratio sits near 1.0).
  std::printf("\n%8s %12s %14s %15s\n", "vthreads", "verify_ms",
              "verify_spdup", "verifications");

  const int32_t num_vqueries = Scaled(4, 24);
  const int32_t vquery_len = 60;
  std::vector<std::vector<char>> vqueries;
  for (int32_t i = 0; i < num_vqueries; ++i) {
    const Sequence<char>& seq = db.at(i % db.size());
    SUBSEQ_CHECK(seq.size() >= vquery_len);
    const auto view = seq.Subsequence(Interval{0, vquery_len});
    vqueries.emplace_back(view.begin(), view.end());
  }
  const double verify_epsilon = 1.0;

  double base_verify = 0.0;
  std::vector<std::vector<SubsequenceMatch>> verify_truth;
  for (const int32_t threads : {1, 2, 4, 8}) {
    MatcherOptions moptions;
    moptions.lambda = 2 * kWindowLength;
    moptions.lambda0 = 2;
    moptions.index_kind = IndexKind::kReferenceNet;
    moptions.exec.num_threads = threads;
    auto matcher =
        std::move(SubsequenceMatcher<char>::Build(db, dist, moptions))
            .ValueOrDie();

    // Hits precomputed (untimed, at the same thread budget) so the timed
    // section is verification alone.
    std::vector<std::vector<SegmentHit>> hits;
    hits.reserve(vqueries.size());
    for (const auto& q : vqueries) {
      hits.push_back(matcher->FilterSegments(std::span<const char>(q),
                                             verify_epsilon));
    }

    int64_t verifications = 0;
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::vector<SubsequenceMatch>> matches;
    matches.reserve(vqueries.size());
    for (size_t q = 0; q < vqueries.size(); ++q) {
      MatchQueryStats stats;
      auto result = matcher->RangeSearchFromHits(
          std::span<const char>(vqueries[q]), hits[q], verify_epsilon,
          &stats);
      SUBSEQ_CHECK(result.ok());
      matches.push_back(std::move(result).ValueOrDie());
      verifications += stats.verifications;
    }
    const double verify_ms = MillisSince(t0);

    // Determinism: every thread budget must reproduce the
    // 1-thread matches element-wise.
    if (verify_truth.empty()) {
      verify_truth = matches;
    } else {
      SUBSEQ_CHECK(matches == verify_truth);
    }

    if (threads == 1) base_verify = verify_ms;
    const double verify_speedup =
        verify_ms > 0.0 ? base_verify / verify_ms : 0.0;
    std::printf("%8d %12.1f %14.2f %15lld\n", threads, verify_ms,
                verify_speedup, static_cast<long long>(verifications));
    records.push_back(BenchRecord{
        "verify_threads=" + std::to_string(threads),
        {{"verify_threads", static_cast<double>(threads)},
         {"verify_ms", verify_ms},
         {"verify_speedup", verify_speedup},
         {"verifications", static_cast<double>(verifications)}}});
  }

  // ------------------------------------------------ step-4 LB prefilter
  // SONGS / unconstrained DTW behind a LinearScan — the paper's
  // non-metric configuration — scanned plain, with the LB_Keogh
  // prunable payload, and with that payload plus the batched evaluator
  // (each block's survivors through one ComputeMany). Results, billed
  // computations and prune counts are CHECKed identical; the gated rows
  // are the prune rate and the exact DTW evaluations the prefilter saved
  // (deterministic counts, tight tolerance in CI) plus the wall-clock
  // ratios (wide tolerance).
  {
    const SequenceDatabase<double> song_db = MakeSongDb(num_windows, 77);
    auto song_catalog =
        WindowCatalog::PartitionDatabase(song_db, kWindowLength)
            .ValueOrDie();
    const DtwDistance1D dtw;
    const WindowOracle<double> song_oracle(song_db, song_catalog, dtw);
    const auto song_queries =
        MakeSongQueries(song_db, song_catalog, num_queries, 9);
    const double song_epsilon = 3.0;
    const ExecContext song_exec{};  // hardware threads

    std::vector<QueryDistanceFn> plain_fns;
    std::vector<QueryDistanceFn> prunable_fns;
    std::vector<QueryDistanceFn> batched_fns;
    for (const auto& q : song_queries) {
      SUBSEQ_CHECK(static_cast<int32_t>(q.size()) == kWindowLength);
      const std::span<const double> seg(q);
      plain_fns.push_back(song_oracle.SegmentQuery(seg));
      auto lb = MakeSegmentLowerBound(song_db, song_catalog, dtw, seg);
      SUBSEQ_CHECK(lb != nullptr);
      PrunableQueryFn prunable;
      prunable.fn = song_oracle.SegmentQuery(seg);
      prunable.lower_bound = std::move(lb);
      PrunableQueryFn batched = prunable;
      batched.many = song_oracle.SegmentQueryMany(seg);
      prunable_fns.push_back(QueryDistanceFn(std::move(prunable)));
      batched_fns.push_back(QueryDistanceFn(std::move(batched)));
    }

    const LinearScan song_scan(song_oracle.size());
    StatsSink plain_sink;
    auto t0 = std::chrono::steady_clock::now();
    const auto plain_results = song_scan.BatchRangeQuery(
        plain_fns, song_epsilon, song_exec, &plain_sink);
    const double plain_ms = MillisSince(t0);

    StatsSink pruned_sink;
    t0 = std::chrono::steady_clock::now();
    const auto pruned_results = song_scan.BatchRangeQuery(
        prunable_fns, song_epsilon, song_exec, &pruned_sink);
    const double pruned_ms = MillisSince(t0);

    // The prefilter determinism contract: identical hits, identical
    // billing; only lower_bound_pruned (and the wall-clock) moves.
    SUBSEQ_CHECK(pruned_results == plain_results);
    SUBSEQ_CHECK(pruned_sink.distance_computations() ==
                 plain_sink.distance_computations());
    SUBSEQ_CHECK(plain_sink.lower_bound_pruned() == 0);
    const double saved =
        static_cast<double>(pruned_sink.lower_bound_pruned());
    const double scanned = static_cast<double>(
        plain_sink.distance_computations());
    const double prune_rate = scanned > 0.0 ? saved / scanned : 0.0;
    SUBSEQ_CHECK(saved > 0.0);
    const double lb_speedup = pruned_ms > 0.0 ? plain_ms / pruned_ms : 0.0;

    // The batched evaluator changes executed work only: the same hits,
    // billing and prune decisions as the per-id prunable scan.
    StatsSink batched_sink;
    t0 = std::chrono::steady_clock::now();
    const auto batched_results = song_scan.BatchRangeQuery(
        batched_fns, song_epsilon, song_exec, &batched_sink);
    const double batched_ms = MillisSince(t0);
    SUBSEQ_CHECK(batched_results == plain_results);
    SUBSEQ_CHECK(batched_sink.distance_computations() ==
                 plain_sink.distance_computations());
    SUBSEQ_CHECK(batched_sink.lower_bound_pruned() ==
                 pruned_sink.lower_bound_pruned());
    // The gated ratio: per-id prunable scan over batched scan, each the
    // best of interleaved single-thread repeats — a one-shot, pool-wide
    // scan of ~1 ms swings several-fold with thread wake-ups alone.
    const ExecContext one_thread{.num_threads = 1};
    double per_id_best_ms = 0.0;
    double batched_best_ms = 0.0;
    for (int r = 0; r < Scaled(9, 15); ++r) {
      t0 = std::chrono::steady_clock::now();
      song_scan.BatchRangeQuery(prunable_fns, song_epsilon, one_thread,
                                nullptr);
      const double per_id_ms = MillisSince(t0);
      t0 = std::chrono::steady_clock::now();
      song_scan.BatchRangeQuery(batched_fns, song_epsilon, one_thread,
                                nullptr);
      const double one_batched_ms = MillisSince(t0);
      if (r == 0 || per_id_ms < per_id_best_ms) per_id_best_ms = per_id_ms;
      if (r == 0 || one_batched_ms < batched_best_ms) {
        batched_best_ms = one_batched_ms;
      }
    }
    const double scan_batch_speedup =
        batched_best_ms > 0.0 ? per_id_best_ms / batched_best_ms : 0.0;
    std::printf("\n%-18s %12.1f %12.1f %12.1f %13.3f %14.0f %8.2f\n",
                "lb_prefilter", plain_ms, pruned_ms, batched_ms, prune_rate,
                saved, scan_batch_speedup);
    records.push_back(BenchRecord{
        "lb_prefilter",
        {{"lb_plain_ms", plain_ms},
         {"lb_pruned_ms", pruned_ms},
         {"lb_batched_ms", batched_ms},
         {"lb_prune_rate", prune_rate},
         {"filter_computations_saved", saved},
         {"lb_prefilter_speedup", lb_speedup},
         {"scan_batch_speedup", scan_batch_speedup}}});

    // -------------------------------------------- batched distance fill
    // The SegmentHitDistances shape: one segment against many gathered
    // windows, per-hit Compute loop vs one ComputeMany batch through the
    // vertical 4-lane DTW kernel (DTW is the distance this linear-scan
    // configuration actually fills hits with). Outputs are CHECKed
    // bit-identical (the ComputeMany contract); the gated row is the
    // speedup ratio.
    std::vector<std::span<const double>> window_views;
    window_views.reserve(static_cast<size_t>(song_catalog.num_windows()));
    for (ObjectId w = 0; w < song_catalog.num_windows(); ++w) {
      window_views.push_back(song_oracle.WindowView(w));
    }
    const std::span<const double> seg0(song_queries.front());
    const int reps = Scaled(8, 25);
    std::vector<double> loop_out(window_views.size());
    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      for (size_t w = 0; w < window_views.size(); ++w) {
        loop_out[w] = dtw.Compute(seg0, window_views[w]);
      }
    }
    const double loop_ms = MillisSince(t0);
    std::vector<double> batch_out(window_views.size());
    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      dtw.ComputeMany(seg0, window_views, batch_out.data());
    }
    const double batch_ms = MillisSince(t0);
    SUBSEQ_CHECK(batch_out == loop_out);
    const double batch_speedup = batch_ms > 0.0 ? loop_ms / batch_ms : 0.0;
    std::printf("%-18s %12.1f %12.1f %14.2f\n", "simd_batch", loop_ms,
                batch_ms, batch_speedup);
    records.push_back(BenchRecord{
        "simd_batch",
        {{"simd_loop_ms", loop_ms},
         {"simd_batch_ms", batch_ms},
         {"simd_batch_speedup", batch_speedup}}});

    // --------------------------------------------- staged LB cascade
    // The same SONGS scan with the full cascade: a feature table turns
    // the DTW prefilter into Kim -> Keogh and enables the ERP sum
    // bound. Hits and billing are CHECKed against the plain scans; the
    // gated rows are the per-stage prune rates — deterministic count
    // ratios (decisions fixed by the data and the padded cutoff).
    const auto song_features = BuildLbFeatureTable(song_db, song_catalog);
    const auto make_prunable =
        [&](const SequenceDistance<double>& cascade_dist,
            const WindowOracle<double>& cascade_oracle) {
          std::vector<QueryDistanceFn> out;
          for (const auto& q : song_queries) {
            const std::span<const double> seg(q);
            auto lb = MakeSegmentLowerBound(song_db, song_catalog,
                                            cascade_dist, seg,
                                            song_features);
            SUBSEQ_CHECK(lb != nullptr);
            PrunableQueryFn prunable;
            prunable.fn = cascade_oracle.SegmentQuery(seg);
            prunable.lower_bound = std::move(lb);
            out.push_back(QueryDistanceFn(std::move(prunable)));
          }
          return out;
        };

    StatsSink cascade_sink;
    t0 = std::chrono::steady_clock::now();
    const auto cascade_results = song_scan.BatchRangeQuery(
        make_prunable(dtw, song_oracle), song_epsilon, song_exec,
        &cascade_sink);
    const double cascade_ms = MillisSince(t0);
    SUBSEQ_CHECK(cascade_results == plain_results);
    SUBSEQ_CHECK(cascade_sink.distance_computations() ==
                 plain_sink.distance_computations());
    SUBSEQ_CHECK(cascade_sink.lb_kim_pruned() > 0);
    const double lb_kim_prune_rate =
        static_cast<double>(cascade_sink.lb_kim_pruned()) / scanned;

    const ErpDistance1D erp;
    const WindowOracle<double> erp_oracle(song_db, song_catalog, erp);
    std::vector<QueryDistanceFn> erp_plain_fns;
    for (const auto& q : song_queries) {
      erp_plain_fns.push_back(
          erp_oracle.SegmentQuery(std::span<const double>(q)));
    }
    StatsSink erp_plain_sink;
    t0 = std::chrono::steady_clock::now();
    const auto erp_plain_results = song_scan.BatchRangeQuery(
        erp_plain_fns, song_epsilon, song_exec, &erp_plain_sink);
    const double erp_plain_ms = MillisSince(t0);
    StatsSink erp_cascade_sink;
    t0 = std::chrono::steady_clock::now();
    const auto erp_cascade_results = song_scan.BatchRangeQuery(
        make_prunable(erp, erp_oracle), song_epsilon, song_exec,
        &erp_cascade_sink);
    const double erp_cascade_ms = MillisSince(t0);
    SUBSEQ_CHECK(erp_cascade_results == erp_plain_results);
    SUBSEQ_CHECK(erp_cascade_sink.distance_computations() ==
                 erp_plain_sink.distance_computations());
    SUBSEQ_CHECK(erp_cascade_sink.lb_erp_pruned() ==
                 erp_cascade_sink.lower_bound_pruned());
    SUBSEQ_CHECK(erp_cascade_sink.lb_erp_pruned() > 0);
    const double erp_prune_rate =
        static_cast<double>(erp_cascade_sink.lb_erp_pruned()) /
        static_cast<double>(erp_plain_sink.distance_computations());

    std::printf("%-18s %12.1f %12.1f %13.3f %14.3f\n", "lb_cascade",
                cascade_ms, erp_cascade_ms, lb_kim_prune_rate,
                erp_prune_rate);
    records.push_back(BenchRecord{
        "lb_cascade",
        {{"cascade_dtw_ms", cascade_ms},
         {"erp_plain_ms", erp_plain_ms},
         {"erp_cascade_ms", erp_cascade_ms},
         {"lb_kim_prune_rate", lb_kim_prune_rate},
         {"erp_prune_rate", erp_prune_rate}}});

    // ------------------------------ the cascade at every segment length
    // Step 3 cuts query segments of lengths l - lambda0 .. l + lambda0
    // against windows of length l. LB_Kim and the ERP sum bounds need no
    // equal lengths, so all 2 * lambda0 + 1 lengths get a bound (LB_Keogh
    // still runs on the l-length ones only). Rows: the Kim-stage and
    // 1-D sum-bound prune rates on the SONGS catalog, and the 2-D sum
    // bound's on a TRAJ catalog, each over segments of every length at
    // lambda0 = 2 — deterministic count ratios like the rows above. Hits
    // and billing are CHECKed against the unpruned scans.
    constexpr int32_t kLambda0 = 2;
    struct LengthSweep {
      double kim_rate = 0.0;
      double erp_rate = 0.0;
      double plain_ms = 0.0;
      double cascade_ms = 0.0;
    };
    const auto sweep_lengths = [&]<typename T>(
                                   const SequenceDatabase<T>& db,
                                   const WindowCatalog& catalog,
                                   const SequenceDistance<T>& dist,
                                   const auto& make_queries, double epsilon) {
      const WindowOracle<T> oracle(db, catalog, dist);
      const auto features = BuildLbFeatureTable(db, catalog);
      const LinearScan scan(oracle.size());
      LengthSweep out;
      StatsSink plain_sink;
      StatsSink cascade_sink;
      for (int32_t length = kWindowLength - kLambda0;
           length <= kWindowLength + kLambda0; ++length) {
        const std::vector<std::vector<T>> segments = make_queries(length);
        std::vector<QueryDistanceFn> plain;
        std::vector<QueryDistanceFn> pruned;
        for (const auto& q : segments) {
          const std::span<const T> seg(q);
          plain.push_back(oracle.SegmentQuery(seg));
          PrunableQueryFn prunable;
          prunable.fn = oracle.SegmentQuery(seg);
          prunable.lower_bound =
              MakeSegmentLowerBound(db, catalog, dist, seg, features);
          SUBSEQ_CHECK(prunable.lower_bound != nullptr);
          pruned.push_back(QueryDistanceFn(std::move(prunable)));
        }
        auto t = std::chrono::steady_clock::now();
        const auto want =
            scan.BatchRangeQuery(plain, epsilon, song_exec, &plain_sink);
        out.plain_ms += MillisSince(t);
        t = std::chrono::steady_clock::now();
        const auto got =
            scan.BatchRangeQuery(pruned, epsilon, song_exec, &cascade_sink);
        out.cascade_ms += MillisSince(t);
        SUBSEQ_CHECK(got == want);
      }
      SUBSEQ_CHECK(cascade_sink.distance_computations() ==
                   plain_sink.distance_computations());
      const double scanned =
          static_cast<double>(plain_sink.distance_computations());
      out.kim_rate =
          static_cast<double>(cascade_sink.lb_kim_pruned()) / scanned;
      out.erp_rate =
          static_cast<double>(cascade_sink.lb_erp_pruned()) / scanned;
      return out;
    };
    const auto song_cuts = [&](int32_t length) {
      return MakeSongQueries(song_db, song_catalog, num_queries, 9, length);
    };
    const LengthSweep dtw_lengths =
        sweep_lengths(song_db, song_catalog, dtw, song_cuts, song_epsilon);
    const LengthSweep erp_lengths =
        sweep_lengths(song_db, song_catalog, erp, song_cuts, song_epsilon);
    const SequenceDatabase<Point2d> traj_db = MakeTrajDb(num_windows, 79);
    const WindowCatalog traj_catalog =
        WindowCatalog::PartitionDatabase(traj_db, kWindowLength).ValueOrDie();
    const ErpDistance2D erp2d;
    const LengthSweep erp2d_lengths = sweep_lengths(
        traj_db, traj_catalog, erp2d,
        [&](int32_t length) {
          return MakeTrajQueries(traj_db, traj_catalog, num_queries, 11,
                                 length);
        },
        /*epsilon=*/8.0);
    SUBSEQ_CHECK(dtw_lengths.kim_rate > 0.0 && erp_lengths.erp_rate > 0.0 &&
                 erp2d_lengths.erp_rate > 0.0);
    std::printf("%-18s %13.3f %14.3f %14.3f %12.1f %12.1f\n",
                "lb_cascade_lengths", dtw_lengths.kim_rate,
                erp_lengths.erp_rate, erp2d_lengths.erp_rate,
                erp2d_lengths.plain_ms, erp2d_lengths.cascade_ms);
    records.push_back(BenchRecord{
        "lb_cascade_lengths",
        {{"lb_kim_lengths_prune_rate", dtw_lengths.kim_rate},
         {"erp_lengths_prune_rate", erp_lengths.erp_rate},
         {"erp2d_prune_rate", erp2d_lengths.erp_rate},
         {"erp2d_plain_ms", erp2d_lengths.plain_ms},
         {"erp2d_cascade_ms", erp2d_lengths.cascade_ms}}});

    constexpr double kTrajEpsilon = 8.0;

    // ------------------------------------ the reference-net node gate
    // The TRAJ segments of the row above (2-D ERP, every length
    // l - lambda0 .. l + lambda0, the same epsilon) answered by a
    // reference net over the window oracle twice: plain queries, then
    // prunable ones with no feature table (a tree base builds none, so
    // the sum bound reads each window's elements). Hits and billed node
    // calls are CHECKed equal: the gate skips only exact calls whose
    // result the walk would not use. refnet_gate_rate — gated over
    // billed node calls — is a deterministic count ratio; the two
    // timings are ungated.
    {
      const WindowOracle<Point2d> oracle(traj_db, traj_catalog, erp2d);
      const ReferenceNet net = ReferenceNet::BuildAll(oracle);
      StatsSink plain_sink;
      StatsSink gated_sink;
      double plain_ms = 0.0;
      double gated_ms = 0.0;
      for (int32_t length = kWindowLength - kLambda0;
           length <= kWindowLength + kLambda0; ++length) {
        const std::vector<std::vector<Point2d>> segments =
            MakeTrajQueries(traj_db, traj_catalog, num_queries, 11, length);
        std::vector<QueryDistanceFn> plain;
        std::vector<QueryDistanceFn> gated;
        for (const auto& q : segments) {
          const std::span<const Point2d> seg(q);
          plain.push_back(oracle.SegmentQuery(seg));
          PrunableQueryFn prunable;
          prunable.fn = oracle.SegmentQuery(seg);
          prunable.lower_bound =
              MakeSegmentLowerBound(traj_db, traj_catalog, erp2d, seg);
          SUBSEQ_CHECK(prunable.lower_bound != nullptr);
          gated.push_back(QueryDistanceFn(std::move(prunable)));
        }
        auto t = std::chrono::steady_clock::now();
        const auto want =
            net.BatchRangeQuery(plain, kTrajEpsilon, song_exec, &plain_sink);
        plain_ms += MillisSince(t);
        t = std::chrono::steady_clock::now();
        const auto got =
            net.BatchRangeQuery(gated, kTrajEpsilon, song_exec, &gated_sink);
        gated_ms += MillisSince(t);
        SUBSEQ_CHECK(got == want);
      }
      SUBSEQ_CHECK(gated_sink.distance_computations() ==
                   plain_sink.distance_computations());
      SUBSEQ_CHECK(plain_sink.lower_bound_pruned() == 0);
      SUBSEQ_CHECK(gated_sink.lb_erp_pruned() ==
                   gated_sink.lower_bound_pruned());
      const double refnet_gate_rate =
          static_cast<double>(gated_sink.lower_bound_pruned()) /
          static_cast<double>(gated_sink.distance_computations());
      SUBSEQ_CHECK(refnet_gate_rate > 0.0);
      std::printf("%-18s %13.3f %14.1f %14.1f\n", "refnet_lb_gate",
                  refnet_gate_rate, plain_ms, gated_ms);
      records.push_back(BenchRecord{
          "refnet_lb_gate",
          {{"refnet_gate_rate", refnet_gate_rate},
           {"refnet_plain_ms", plain_ms},
           {"refnet_gated_ms", gated_ms}}});
    }

    // ------------------------------------------------ the prefix memo
    // Step 4 with one DP per (segment start, window): a reference-net
    // matcher at lambda0 = 2 over this TRAJ catalog (2-D ERP, the node
    // gate on) and over the PROTEINS catalog (Levenshtein), each fed the
    // segments of mutated query cuts. BatchFilterWindows walks each
    // start's 2 * lambda0 + 1 segments as one unit that answers their node
    // calls from one ComputePrefixes column per window; its hits and
    // per-segment billing are CHECKed equal to a direct, memo-free call
    // of the same index on the same batch. prefix_memo_rate — billed node
    // calls the memo answered without a DP, over all billed node calls —
    // is a deterministic count ratio; the two timings, at one thread, are
    // ungated.
    {
      struct MemoRow {
        double rate = 0.0;
        double direct_ms = 0.0;
        double memo_ms = 0.0;
      };
      const auto memo_row = [&]<typename T>(
                                const SequenceDatabase<T>& memo_db,
                                const SequenceDistance<T>& memo_dist,
                                const std::vector<std::vector<T>>& cuts,
                                double memo_epsilon) {
        MatcherOptions options;
        options.lambda = 2 * kWindowLength;
        options.lambda0 = kLambda0;
        options.index_kind = IndexKind::kReferenceNet;
        const auto matcher =
            SubsequenceMatcher<T>::Build(memo_db, memo_dist, options)
                .ValueOrDie();
        const ExecContext one_thread = SequentialExec();
        StatsSink direct_sink;
        StatsSink memo_sink;
        MemoRow row;
        for (const std::vector<T>& cut : cuts) {
          const SegmentQueryBatch batch =
              matcher->MakeSegmentQueries(std::span<const T>(cut));
          std::vector<QueryStats> direct_split(batch.queries.size());
          std::vector<QueryStats> memo_split(batch.queries.size());
          auto t = std::chrono::steady_clock::now();
          const auto want = matcher->index().BatchRangeQuery(
              batch.queries, memo_epsilon, one_thread, &direct_sink,
              direct_split.data());
          row.direct_ms += MillisSince(t);
          t = std::chrono::steady_clock::now();
          const auto got = matcher->BatchFilterWindows(
              batch.queries, memo_epsilon, one_thread, &memo_sink,
              memo_split.data());
          row.memo_ms += MillisSince(t);
          SUBSEQ_CHECK(got == want);
          for (size_t s = 0; s < batch.queries.size(); ++s) {
            SUBSEQ_CHECK(memo_split[s].distance_computations ==
                         direct_split[s].distance_computations);
            SUBSEQ_CHECK(memo_split[s].lower_bound_pruned ==
                         direct_split[s].lower_bound_pruned);
          }
        }
        SUBSEQ_CHECK(direct_sink.prefix_memo_hits() == 0);
        row.rate = static_cast<double>(memo_sink.prefix_memo_hits()) /
                   static_cast<double>(memo_sink.distance_computations());
        SUBSEQ_CHECK(row.rate > 0.0);
        return row;
      };
      const int32_t cut_length = 2 * kWindowLength + 4;
      const MemoRow traj = memo_row(
          traj_db, erp2d,
          MakeTrajQueries(traj_db, traj_catalog, num_queries, 12, cut_length),
          kTrajEpsilon);
      const MemoRow proteins = memo_row(
          db, dist,
          MakeProteinQueries(db, catalog, num_queries, 13, cut_length),
          epsilon);
      std::printf("%-18s %13.3f %14.3f %12.1f %12.1f %12.1f %12.1f\n",
                  "prefix_memo", traj.rate, proteins.rate, traj.direct_ms,
                  traj.memo_ms, proteins.direct_ms, proteins.memo_ms);
      records.push_back(BenchRecord{
          "prefix_memo",
          {{"traj_prefix_memo_rate", traj.rate},
           {"proteins_prefix_memo_rate", proteins.rate},
           {"traj_prefix_direct_ms", traj.direct_ms},
           {"traj_prefix_memo_ms", traj.memo_ms},
           {"proteins_prefix_direct_ms", proteins.direct_ms},
           {"proteins_prefix_memo_ms", proteins.memo_ms}}});
    }

    // ------------------------------------------- anti-diagonal DP
    // One long single pair per distance — the plain-Compute path the
    // wavefront kernels accelerate (no batch of 4 to fill). Values are
    // CHECKed identical with the wavefront forced vs disabled; the
    // gated row is the wall-clock ratio (same machine, same run).
    {
      Rng rng(4242);
      const int32_t long_n = Scaled(1200, 3000);
      std::vector<double> a, b;
      for (int32_t i = 0; i < long_n; ++i) {
        a.push_back(rng.NextDouble(0.0, 10.0));
        b.push_back(rng.NextDouble(0.0, 10.0));
      }
      const int ad_reps = Scaled(3, 8);
      simd::SetAntidiagThresholdForTesting(-1);
      t0 = std::chrono::steady_clock::now();
      double rows_dtw = 0.0, rows_erp = 0.0;
      for (int r = 0; r < ad_reps; ++r) {
        rows_dtw = dtw.Compute(a, b);
        rows_erp = erp.Compute(a, b);
      }
      const double rows_ms = MillisSince(t0);
      simd::SetAntidiagThresholdForTesting(1);
      t0 = std::chrono::steady_clock::now();
      double waves_dtw = 0.0, waves_erp = 0.0;
      for (int r = 0; r < ad_reps; ++r) {
        waves_dtw = dtw.Compute(a, b);
        waves_erp = erp.Compute(a, b);
      }
      const double waves_ms = MillisSince(t0);
      simd::ClearAntidiagThresholdForTesting();
      SUBSEQ_CHECK(waves_dtw == rows_dtw);
      SUBSEQ_CHECK(waves_erp == rows_erp);
      const double antidiag_speedup =
          waves_ms > 0.0 ? rows_ms / waves_ms : 0.0;
      std::printf("%-18s %12.1f %12.1f %14.2f\n", "antidiag", rows_ms,
                  waves_ms, antidiag_speedup);
      records.push_back(BenchRecord{
          "antidiag",
          {{"antidiag_rows_ms", rows_ms},
           {"antidiag_waves_ms", waves_ms},
           {"antidiag_speedup", antidiag_speedup}}});
    }
  }

  // ------------------------------------------- Levenshtein kernel
  // Every PROTEINS query against every window, through the char instance
  // (the bit-parallel kernel at these lengths) and through the double
  // instance (the row DP) on the same bytes widened. Values are CHECKed
  // equal; the gated ratio is DP time over kernel time, each the best of
  // interleaved single-thread repeats as for scan_batch_speedup. A
  // collapse to ~1x means char stopped taking the kernel.
  {
    std::vector<std::vector<double>> wide_windows;
    for (ObjectId w = 0; w < oracle.size(); ++w) {
      const std::span<const char> window = oracle.WindowView(w);
      wide_windows.emplace_back(window.begin(), window.end());
    }
    std::vector<std::vector<double>> wide_queries;
    for (const auto& q : queries) wide_queries.emplace_back(q.begin(), q.end());
    const LevenshteinDistance<double> dp;
    std::vector<double> kernel_out(queries.size() * wide_windows.size());
    std::vector<double> dp_out(kernel_out.size());
    double kernel_best_ms = 0.0;
    double dp_best_ms = 0.0;
    for (int r = 0; r < Scaled(5, 3); ++r) {
      auto t0 = std::chrono::steady_clock::now();
      size_t k = 0;
      for (const auto& q : queries) {
        for (ObjectId w = 0; w < oracle.size(); ++w) {
          kernel_out[k++] = dist.Compute(q, oracle.WindowView(w));
        }
      }
      const double kernel_ms = MillisSince(t0);
      t0 = std::chrono::steady_clock::now();
      k = 0;
      for (const auto& q : wide_queries) {
        for (const auto& window : wide_windows) {
          dp_out[k++] = dp.Compute(q, window);
        }
      }
      const double dp_ms = MillisSince(t0);
      if (r == 0 || kernel_ms < kernel_best_ms) kernel_best_ms = kernel_ms;
      if (r == 0 || dp_ms < dp_best_ms) dp_best_ms = dp_ms;
    }
    SUBSEQ_CHECK(kernel_out == dp_out);
    const double lev_kernel_speedup =
        kernel_best_ms > 0.0 ? dp_best_ms / kernel_best_ms : 0.0;
    std::printf("%-18s %12.1f %12.1f %14.2f\n", "levenshtein_kernel",
                dp_best_ms, kernel_best_ms, lev_kernel_speedup);
    records.push_back(BenchRecord{
        "levenshtein_kernel",
        {{"lev_dp_ms", dp_best_ms},
         {"lev_kernel_ms", kernel_best_ms},
         {"lev_pairs", static_cast<double>(kernel_out.size())},
         {"lev_kernel_speedup", lev_kernel_speedup}}});
  }

  const std::string path = "BENCH_parallel_scaling.json";
  if (!WriteBenchJson(path, "parallel_scaling", records)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace subseq::bench

int main() { return subseq::bench::Run(); }
