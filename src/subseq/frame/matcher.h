// SubsequenceMatcher<T> — the paper's five-step framework (Section 7):
//
//   1. partition each database sequence into windows of length l = lambda/2
//   2. index all windows in a metric range index (reference net by default)
//   3. extract query segments of lengths l - lambda0 .. l + lambda0
//   4. range-query the index for each segment -> SegmentHits
//   5. expand hits/chains into candidate (SQ, SX) pairs and verify
//
// Steps 1-2 are offline (Build); 3-5 run per query. Three query types are
// supported (Section 3.2):
//   Type I   RangeSearch   — all similar pairs
//   Type II  LongestMatch  — maximize |SQ| subject to similarity
//   Type III NearestMatch  — minimize distance subject to the length floor
//
// Requirements on the distance: consistency always (otherwise the filter
// may dismiss true matches — Build refuses); metricity whenever a metric
// index is selected. DTW (consistent, non-metric) is usable with
// IndexKind::kLinearScan.

#ifndef SUBSEQ_FRAME_MATCHER_H_
#define SUBSEQ_FRAME_MATCHER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "subseq/core/sequence.h"
#include "subseq/core/status.h"
#include "subseq/distance/distance.h"
#include "subseq/exec/exec_context.h"
#include "subseq/frame/candidates.h"
#include "subseq/frame/epoch_base.h"
#include "subseq/frame/window_oracle.h"
#include "subseq/frame/windowing.h"
#include "subseq/metric/cover_tree.h"
#include "subseq/metric/linear_scan.h"
#include "subseq/metric/mv_index.h"
#include "subseq/metric/range_index.h"
#include "subseq/metric/reference_net.h"
#include "subseq/snapshot/format.h"

namespace subseq {

class ResidencyGauge;
class SnapshotFile;
class SnapshotWriter;
struct LbFeatureTable;

/// Which index backs the window filter. Snapshots store the value
/// (idx.<kind>.top), so the values are fixed: never renumber one, and
/// never reuse 3, the retired vp-tree's value.
enum class IndexKind {
  kReferenceNet = 0,
  kCoverTree = 1,
  kMvIndex = 2,
  kLinearScan = 4,
};

/// Framework parameters.
struct MatcherOptions {
  /// lambda — minimum length of a reported subsequence (Section 3.1).
  /// Must be even and >= 2; windows have length lambda / 2.
  int32_t lambda = 40;
  /// lambda0 — maximum length difference between SQ and SX; also the
  /// query-segment length slack. Must satisfy 0 <= lambda0 < lambda / 2.
  int32_t lambda0 = 2;
  /// Index used for step 4.
  IndexKind index_kind = IndexKind::kReferenceNet;
  ReferenceNetOptions reference_net;
  CoverTreeOptions cover_tree;
  MvIndexOptions mv_index;
  /// Step-4 lower-bound pruning cascade (frame/lb_prefilter.h): every
  /// query segment — each of the 2 * lambda0 + 1 segment lengths — gets
  /// an admissible per-window lower bound where its distance has one.
  /// The linear scan skips exact evaluations a stage already rules out,
  /// and the reference-net walk skips the exact call at every node whose
  /// bound proves it adds nothing (metric/reference_net.h). Unconstrained
  /// 1-D DTW runs LB_Kim over precomputed window features at any segment
  /// length, then the LB_Keogh envelope over the survivors of the
  /// window-length segment; 1-D ERP runs |sum(Q) - sum(C)| and 2-D ERP
  /// ||sum(Q) - sum(C)||_2 over the window sums. Matches, per-query
  /// stats, and billed filter_computations are identical on or off —
  /// pruned candidates and gated nodes stay billed whichever stage cut
  /// them, and the padded cutoff (metric/oracle.h:LowerBoundPruneCutoff,
  /// plus the ERP bounds' own rounding slack) forbids false dismissals —
  /// so the knob trades wall-clock time only; MatchQueryStats is
  /// unaffected, and the work actually saved is visible in
  /// QueryStats::lower_bound_pruned (attributed per stage by
  /// lb_kim_pruned / lb_erp_pruned) / the StatsSink. The window feature
  /// tables follow the epochs: a linear-scan base builds one at Build /
  /// LoadIndex / Compact, shared by every epoch derived from it, and
  /// each epoch with a live delta builds one of its delta windows only.
  /// A tree base builds none: the ERP bound computes the sums of a
  /// window no table covers from its elements. Under routing the cascade
  /// is rebound to each probed cell's materialized member windows, so it
  /// keeps pruning (and gating) inside cells. The cover tree and the MV
  /// index do not read the bound.
  bool lb_prefilter = true;
  /// Safety cap on step-5 distance verifications per query; exceeded =>
  /// Status::OutOfRange (Type I can be combinatorial by design). Must be
  /// >= 1: 0 would reject every query whose filter produces any
  /// candidate, and negative values are invalid rather than "unlimited"
  /// — Validate() (and so Build) refuses both explicitly. Each pair is
  /// charged before its distance is computed, so an exhausted query
  /// reports verifications == max_verifications. Type I charges every
  /// candidate region's whole count before verifying any, so
  /// budget-exceeded is raised iff the serial walk would raise it, at
  /// any exec setting and with no distance work. Type III's growth
  /// rounds draw on one budget.
  int64_t max_verifications = 5'000'000;
  /// Thread budget for index construction (step 2), the batched segment
  /// filter (step 4) and Type I's step-5 region verification.
  /// num_threads = 0 (the default) uses the hardware concurrency; 1 is
  /// fully sequential. Results and stats are identical at any setting —
  /// the knob trades wall-clock time only. Pushed down into
  /// reference_net / mv_index at Build unless that index's own exec was
  /// set explicitly (num_threads != 0).
  ///
  /// exec.num_shards > 1 partitions the window catalog into that many
  /// contiguous shards and builds one index of index_kind per shard
  /// behind a PartitionedIndex (metric/partitioned_index.h): builds
  /// parallelize across shards (and do less total work for super-linear
  /// builds), and step 4 fans each segment across shards with a
  /// shard-order merge. Matches and all pipeline stats except
  /// filter_computations are identical to the unsharded index at any
  /// shard count (pruning scope differs across K small indexes vs one
  /// large one; LinearScan is identical on that count too). 0 or 1 =
  /// one monolithic index.
  ///
  /// exec.routing_cells > 1 instead clusters the catalog into that many
  /// pivot-routed k-center cells behind the same PartitionedIndex:
  /// deterministic k-center pivots, per-cell covering radii, and step 4
  /// probes only the cells whose radius can contain an epsilon match —
  /// the triangle inequality as *cross-cell* pruning. Builds parallelize
  /// across cells like sharding, but filter_computations deliberately
  /// SHRINK (skipped cells are neither evaluated nor billed; the
  /// decisions are observable as cells_probed/cells_skipped). Matches
  /// and verification stats stay element-wise identical to the
  /// monolithic index at any cell count. Requires a metric distance and
  /// is mutually exclusive with num_shards > 1. 0 or 1 = off.
  ExecContext exec;

  /// Live-ingest compaction point: when a matcher's delta (windows
  /// appended since the base epoch, served by a per-epoch LinearScan on
  /// top of the base index) reaches this many windows, the serving
  /// layer (serve/MatchServer) compacts delta into base off-thread by
  /// rebuilding the index cold over the current epoch's contents — the
  /// merge output is byte-identical to a cold Build of that epoch
  /// (ascending-id insertion invariance). Matches and verification
  /// stats are identical at any threshold; only where filter work is
  /// billed (delta scan vs merged index) moves. Must be >= 1.
  int32_t delta_merge_threshold = 256;

  /// How LoadIndex / LoadIndexFrom materialize snapshot bytes: kEager
  /// copies the file into private memory; kMmap maps it read-only so
  /// large arrays (the MV-index pivot table) stay demand-paged on disk.
  /// Matches, stats, and every observable are identical in both modes —
  /// the knob trades startup time and resident memory only.
  SnapshotLoadMode snapshot_load_mode = SnapshotLoadMode::kEager;

  /// Validates the framework parameters (lambda, lambda0, index_kind,
  /// max_verifications, exec knobs) with explicit messages for the edge
  /// cases; Build calls this before touching the database. The distance
  /// property checks (consistency, metricity) live in Build, which has
  /// the distance at hand.
  Status Validate() const;
};

/// Tunables of SubsequenceMatcher::BuildToSnapshot — the out-of-core,
/// part-by-part builder.
struct SnapshotBuildOptions {
  /// Catalog windows fed to an insertion-built backend (reference net,
  /// cover tree) per batch before the residency gauge is charged again.
  /// 0 = one batch per part. Any batch size produces byte-identical
  /// snapshots: insertions happen in ascending id order regardless of
  /// how they are batched. Table-built backends (MV-index, linear scan)
  /// always materialize a whole part at once.
  int32_t batch_windows = 0;
};

/// The Type III schedule rule: epsilon_max finite and >= 0,
/// epsilon_increment finite and > 0. NearestMatch, NearestMatchFromHits
/// and the serving front door (serve/match_request.h) all enforce it;
/// InvalidArgument names the offending field.
Status ValidateNearestSchedule(double epsilon_max, double epsilon_increment);

/// A verified pair of similar subsequences.
struct SubsequenceMatch {
  SeqId seq = kInvalidId;  // database sequence
  Interval query;          // SQ within the query
  Interval db;             // SX within the database sequence
  double distance = 0.0;

  friend bool operator==(const SubsequenceMatch& a,
                         const SubsequenceMatch& b) {
    return a.seq == b.seq && a.query == b.query && a.db == b.db;
  }
};

/// Accounting for one query through the pipeline.
struct MatchQueryStats {
  int64_t segments = 0;                // query segments extracted (step 3)
  int64_t filter_computations = 0;     // index distance computations (step 4)
  int64_t hits = 0;                    // segment hits (step 4 output)
  int64_t chains = 0;                  // consecutive-window chains
  int64_t verifications = 0;           // step-5 distance computations
};

/// Step 3 packaged for the index: the extracted query segments and,
/// aligned one-to-one with them, the per-segment query distance
/// functions ready to hand to RangeIndex::BatchRangeQuery. The functions
/// capture views into the query the batch was made from, so the query
/// storage must outlive the batch. Produced by
/// SubsequenceMatcher::MakeSegmentQueries; the serving layer concatenates
/// batches from many concurrent queries into one shared index call.
struct SegmentQueryBatch {
  /// Segment intervals within the query, in extraction order.
  std::vector<Interval> segments;
  /// queries[i] measures query[segments[i]] against database windows.
  std::vector<QueryDistanceFn> queries;
};

/// The framework. Holds a shared copy of the (epoch-versioned) database
/// — cheap: sequence storage is shared between epochs — and a reference
/// to the distance, which must outlive the matcher. Move-only.
///
/// Epoch versioning: a matcher built by Build covers exactly its
/// database's epoch with an empty delta. WithAppended / WithRetired
/// derive a NEW matcher one epoch later that shares this matcher's
/// immutable base index (frame/epoch_base.h) and serves the difference
/// through a small LinearScan delta (appended windows) plus a tombstone
/// mask (retired windows, never renumbered). Every query entry point
/// answers element-wise identically — matches AND verification stats —
/// to a cold Build over the same epoch's database; of the filter
/// accounting, only where distance computations are billed (delta scan
/// vs merged index; masked tombstones are observable via
/// QueryStats::delta_windows_probed / tombstones_masked) can move, the
/// same sanctioned freedom sharding and routing already have.
template <typename T>
class SubsequenceMatcher {
 public:
  /// Builds windows + index (steps 1-2). Validates options and the
  /// distance's properties.
  static Result<std::unique_ptr<SubsequenceMatcher<T>>> Build(
      const SequenceDatabase<T>& db, const SequenceDistance<T>& dist,
      MatcherOptions options = {});

  SubsequenceMatcher(const SubsequenceMatcher&) = delete;
  SubsequenceMatcher& operator=(const SubsequenceMatcher&) = delete;

  /// A new matcher one epoch later with `seq` appended: shares this
  /// matcher's base index, extends the catalog (the new sequence's
  /// windows get the next dense ids), and grows the LinearScan delta.
  /// This matcher is unchanged and stays fully usable.
  Result<std::unique_ptr<SubsequenceMatcher<T>>> WithAppended(
      Sequence<T> seq) const;

  /// A new matcher one epoch later with sequence `seq` retired: shares
  /// the base index and masks the sequence's windows via the tombstone
  /// set — no window is renumbered, so ObjectIds stay stable. Fails if
  /// `seq` is out of range or already retired.
  Result<std::unique_ptr<SubsequenceMatcher<T>>> WithRetired(SeqId seq) const;

  /// A cold rebuild over this matcher's current epoch: the delta is
  /// merged into a fresh base (empty delta; tombstoned windows remain
  /// in the index, masked at query time). The result is byte-identical
  /// — SaveIndex for SaveIndex — to Build over database() and answers
  /// every query element-wise identically to this matcher (matches AND
  /// verification stats; see the class comment for the filter-billing
  /// caveat). The serving layer runs this off-thread when the delta
  /// passes MatcherOptions::delta_merge_threshold.
  Result<std::unique_ptr<SubsequenceMatcher<T>>> Compact() const;

  /// Steps 3-4: all (query segment, window) pairs within epsilon.
  /// Equivalent to MakeSegmentQueries + one BatchFilterWindows over
  /// options().exec + MergeSegmentHits; callers that coalesce the filter
  /// across queries (serve/MatchServer) use those entry points directly.
  std::vector<SegmentHit> FilterSegments(std::span<const T> query,
                                         double epsilon,
                                         MatchQueryStats* stats = nullptr) const;

  /// The single step-4 filter entry point: answers a batch of window
  /// queries against base index + delta scan, then subtracts tombstoned
  /// windows — result[i] holds every LIVE window within epsilon of
  /// queries[i], with delta hits appended after the base index's hits
  /// (callers restore the canonical order per segment, exactly as they
  /// already do for backend-order hits). Billing: the base index bills
  /// as always; every delta window scanned is billed into the sink /
  /// per_query splits (and counted in delta_windows_probed); masked
  /// tombstones are observable-but-unbilled (tombstones_masked), like
  /// routed cell skips. per_query[i].result_count reflects the masked
  /// (returned) hit count, keeping the slot contract exact.
  ///
  /// Over a tree base with lambda0 > 0, the batch runs as one unit per
  /// query start: segments whose SegmentQueryFn views begin at the same
  /// element (under one oracle) are prefixes of the longest of them. The
  /// units share exec under work stealing, and each walks its segments
  /// through the base index on one thread, answering their calls from a
  /// memo local to the unit that maps each touched window to ONE
  /// SequenceDistance::ComputePrefixes column of that longest segment.
  /// Every walk reads its own segment's value, so results, billing and
  /// every other per-query stat equal a direct index().BatchRangeQuery
  /// of the same batch; the calls the memo answered without a DP count
  /// in prefix_memo_hits. A linear-scan base, lambda0 = 0 and the delta
  /// scan take one flat batch. With an empty delta and no tombstones the
  /// hits are exactly index().BatchRangeQuery's. Thread-safe.
  std::vector<std::vector<ObjectId>> BatchFilterWindows(
      std::span<const QueryDistanceFn> queries, double epsilon,
      const ExecContext& exec, StatsSink* sink = nullptr,
      QueryStats* per_query = nullptr) const;

  /// Step 3 alone: extracts the query's segments and builds one index
  /// query function per segment (the range-query constructions step 4
  /// issues). Each function is the exact, memo-free
  /// WindowOracle::SegmentQuery, so any index may run it directly. When
  /// this matcher's step 4 runs a linear scan (a linear-scan base or a
  /// live delta) each function carries the PrunableQueryFn scan
  /// payload, and a reference-net base gets the payload for its node
  /// gate. Pure and thread-safe; `query`'s storage must outlive the
  /// returned batch. `stats` (optional) receives the segment count.
  SegmentQueryBatch MakeSegmentQueries(std::span<const T> query,
                                       MatchQueryStats* stats = nullptr) const;

  /// The deterministic hit merge behind step 4's output: demuxes batched
  /// index results (batched[i] answering segments[i] — views into the
  /// result of RangeIndex::BatchRangeQuery over a MakeSegmentQueries
  /// batch, or any per-segment gather from a larger cross-query call;
  /// views let the serving coalescer fan one shared result out to many
  /// queries without copying) into SegmentHits in the canonical order
  /// (segment order, ascending window id within a segment), then fills
  /// each hit's exact segment-to-window distance, which step 5 orders
  /// verification by. The canonical order makes step 5's input — and so
  /// matches and verification stats — depend only on the hit *set*, not
  /// on the index backend's traversal order or shard count. Results are
  /// element-wise identical at any `exec` setting. `stats` (optional)
  /// receives the hit count. Thread-safe.
  std::vector<SegmentHit> MergeSegmentHits(
      std::span<const T> query, std::span<const Interval> segments,
      std::span<const std::span<const ObjectId>> batched,
      const ExecContext& exec, MatchQueryStats* stats = nullptr) const;

  /// MergeSegmentHits with *precomputed* per-hit distances:
  /// batched_distances[i][j] must be the exact segment-to-window distance
  /// of batched[i][j] (as SegmentHitDistances computes it), and the merge
  /// consumes them instead of re-running the distance fill — so N owners
  /// of one shared segment (the serving coalescer's fan-out, warm cache
  /// entries) pay the pass once per unique segment instead of once per
  /// owner. Output is element-wise identical to the computing overload:
  /// the canonical order is restored by the same per-segment sort, and
  /// the distance fill is deterministic, so precomputed values match
  /// recomputed ones bitwise. Thread-safe.
  std::vector<SegmentHit> MergeSegmentHits(
      std::span<const T> query, std::span<const Interval> segments,
      std::span<const std::span<const ObjectId>> batched,
      std::span<const std::span<const double>> batched_distances,
      const ExecContext& exec, MatchQueryStats* stats = nullptr) const;

  /// The exact per-hit distance pass, factored out of MergeSegmentHits:
  /// result[s][i] = d(segments[s], window windows[s][i]), computed as ONE
  /// flat parallel section over all (segment, hit) pairs — per-segment
  /// hit lists are often tiny, so parallelizing per segment would
  /// serialize the fill. This is the fill step 5 orders verification by;
  /// callers that share segments across owners (serve/coalescer.cc) run
  /// it once per unique segment and hand the results to the precomputed
  /// MergeSegmentHits overload / the cross-round cache. Pure,
  /// deterministic (slot-addressed writes), and thread-safe.
  std::vector<std::vector<double>> SegmentHitDistances(
      std::span<const std::span<const T>> segments,
      std::span<const std::span<const ObjectId>> windows,
      const ExecContext& exec) const;

  /// Type I: every pair (SQ, SX) with |SQ| >= lambda, |SX| >= lambda,
  /// ||SQ| - |SX|| <= lambda0 and d(SQ, SX) <= epsilon.
  Result<std::vector<SubsequenceMatch>> RangeSearch(
      std::span<const T> query, double epsilon,
      MatchQueryStats* stats = nullptr) const;

  /// Step 5 of Type I from precomputed hits: expansion + verification of
  /// `hits` (as produced by FilterSegments / MergeSegmentHits at this
  /// epsilon). Each hit's `distance` is taken as given — the exact
  /// per-hit distances may come from any source (a fresh MergeSegmentHits
  /// fill, the precomputed-distances overload, or the serving layer's
  /// cross-round cache); no distance is ever re-derived here.
  /// RangeSearch == FilterSegments + RangeSearchFromHits; the
  /// serving layer calls this with hits demuxed from a coalesced filter.
  /// `stats` accumulates verification counts only (the filter already
  /// accounted for its own work). Thread-safe.
  ///
  /// Candidate regions are verified concurrently over
  /// options().exec.num_threads with chunked work-stealing scheduling
  /// (region costs are skewed) and a deterministic merge in region order,
  /// then ascending (SQ, SX) within a region — the exact serial order.
  /// The verification budget charges whole regions before they verify,
  /// so matches, stats, and budget-exceeded errors are element-wise
  /// identical at any thread count; on exhaustion no distance work runs
  /// at all (the serial path burns the whole budget first — same
  /// observables, less work).
  Result<std::vector<SubsequenceMatch>> RangeSearchFromHits(
      std::span<const T> query, std::span<const SegmentHit> hits,
      double epsilon, MatchQueryStats* stats = nullptr) const;

  /// Type II: a match maximizing |SQ| subject to the Type I constraints,
  /// or nullopt if no similar pair exists at this epsilon.
  Result<std::optional<SubsequenceMatch>> LongestMatch(
      std::span<const T> query, double epsilon,
      MatchQueryStats* stats = nullptr) const;

  /// Step 5 of Type II from precomputed hits: chain building + the
  /// longest-first chain search. LongestMatch == FilterSegments +
  /// LongestMatchFromHits; same contract as RangeSearchFromHits.
  ///
  /// The search runs serially on the calling thread at any exec setting:
  /// it carries the best match's length from chain to chain and stops at
  /// the first chain that cannot beat it, so it computes exactly the
  /// distances it bills as verifications.
  Result<std::optional<SubsequenceMatch>> LongestMatchFromHits(
      std::span<const T> query, std::span<const SegmentHit> hits,
      double epsilon, MatchQueryStats* stats = nullptr) const;

  /// Type III (Section 7): binary-searches the smallest epsilon that
  /// produces any segment hit, then runs the Type II chain search at that
  /// epsilon, growing it by epsilon_increment until a verified pair
  /// appears. The returned match's distance is within epsilon_increment
  /// of the true minimum (the paper's algorithm: "if we find some
  /// results, the current epsilon is optimal"). Returns nullopt if no
  /// pair exists with distance <= epsilon_max. Rejects a schedule that
  /// ValidateNearestSchedule refuses with InvalidArgument before any
  /// work. NearestMatch == FilterSegments at epsilon_max +
  /// NearestMatchFromHits, so steps 3-4 run exactly once: `stats` bills
  /// one filter pass (segments, filter_computations, hits) at
  /// epsilon_max, plus the chains and verifications of every growth
  /// round.
  Result<std::optional<SubsequenceMatch>> NearestMatch(
      std::span<const T> query, double epsilon_max, double epsilon_increment,
      MatchQueryStats* stats = nullptr) const;

  /// Steps after the filter of Type III, from the hits at epsilon_max (as
  /// produced by FilterSegments / MergeSegmentHits at epsilon_max). Every
  /// hit carries its exact distance and a range query returns exactly
  /// the windows within epsilon, so the hit set at any epsilon <=
  /// epsilon_max is `hits` restricted to distance <= epsilon, in the same
  /// canonical order: the binary search and every growth round read
  /// their probe off `hits` instead of filtering again, and each round
  /// runs LongestMatchFromHits' chain search on its restriction. All
  /// rounds draw on one max_verifications budget; exhausting it returns
  /// OutOfRange. Same contract as RangeSearchFromHits: `stats`
  /// accumulates chains and verifications only. Validates the schedule
  /// like NearestMatch. Thread-safe.
  Result<std::optional<SubsequenceMatch>> NearestMatchFromHits(
      std::span<const T> query, std::span<const SegmentHit> hits,
      double epsilon_max, double epsilon_increment,
      MatchQueryStats* stats = nullptr) const;

  /// Serializes the window catalog and the built index (steps 1-2) as a
  /// versioned snapshot at `path` (snapshot/format.h). The encoding is
  /// canonical: saving a loaded matcher reproduces the file byte for
  /// byte. The database itself is NOT stored — a snapshot is the index
  /// over a database the loader must supply unchanged (the catalog
  /// sections record the sequence lengths so a mismatched database is
  /// rejected at load).
  Status SaveIndex(const std::string& path) const;

  /// SaveIndex's catalog block alone ("catalog.meta", ".seq_lengths").
  /// Multi-matcher containers (serve/MatchServer) write it once per file
  /// and then one index block per matcher via SaveIndexSections.
  Status SaveCatalogSections(SnapshotWriter& writer) const;

  /// SaveIndex's index block alone ("idx.<kind>.*" sections for this
  /// matcher's index_kind). Kind tokens are disjoint, so matchers of
  /// different kinds over the same catalog coexist in one file.
  Status SaveIndexSections(SnapshotWriter& writer) const;

  /// Rebuilds a matcher from a snapshot instead of re-running step 2.
  /// `options` must describe the index the snapshot holds: same lambda
  /// (the catalog's window length is checked), same index_kind (the
  /// snapshot must contain that kind's block), same backend tunables and
  /// resolved partition (each backend verifies its stored build
  /// options) — a loaded matcher must equal the fresh build it replaces,
  /// and answers element-wise identically (matches AND stats, including
  /// restored build counters). The file is opened per
  /// options.snapshot_load_mode and fully checksum-validated first.
  static Result<std::unique_ptr<SubsequenceMatcher<T>>> LoadIndex(
      const SequenceDatabase<T>& db, const SequenceDistance<T>& dist,
      MatcherOptions options, const std::string& path);

  /// LoadIndex over an already-open snapshot — containers hosting
  /// several matchers open the file once and share it; the matcher keeps
  /// the shared_ptr alive for as long as any backend aliases its bytes.
  static Result<std::unique_ptr<SubsequenceMatcher<T>>> LoadIndexFrom(
      const SequenceDatabase<T>& db, const SequenceDistance<T>& dist,
      MatcherOptions options, std::shared_ptr<const SnapshotFile> file);

  /// Out-of-core Build + SaveIndex: streams the window catalog part by
  /// part, building and serializing ONE part's index at a time and
  /// freeing it before the next, so peak residency is O(part) — not
  /// O(catalog) — while the resulting file is byte-identical to
  /// Build(...) followed by SaveIndex(path) at any batch size. Only
  /// k-center cell selection reads the whole catalog first. `gauge`
  /// (optional) is charged with the windows alive in the partial build
  /// at every step; tests assert its peak stays O(batch + part).
  static Status BuildToSnapshot(const SequenceDatabase<T>& db,
                                const SequenceDistance<T>& dist,
                                MatcherOptions options,
                                const std::string& path,
                                const SnapshotBuildOptions& build = {},
                                ResidencyGauge* gauge = nullptr);

  const WindowCatalog& catalog() const { return *catalog_; }
  /// The BASE index (windows [0, base_windows())). Step 4 goes through
  /// BatchFilterWindows, which adds the delta scan and tombstone mask
  /// on top; direct index() queries see the base alone.
  const RangeIndex& index() const { return *base_->index; }
  const MatcherOptions& options() const { return options_; }
  int32_t window_length() const { return catalog_->window_length(); }
  /// The current epoch's database (retired sequences included, marked).
  const SequenceDatabase<T>& database() const { return *db_; }
  const SequenceDistance<T>& distance() const { return dist_; }
  /// The database's monotone epoch id this matcher serves.
  uint64_t epoch() const { return db_->epoch_id(); }
  /// Windows covered by the base index / appended since the base epoch.
  int32_t base_windows() const { return base_->num_windows; }
  int32_t delta_windows() const {
    return catalog_->num_windows() - base_->num_windows;
  }
  /// Catalog windows masked because their sequence is retired.
  int64_t num_tombstoned_windows() const { return num_tombstoned_windows_; }
  /// The scan cascade's window feature tables (frame/lb_prefilter.h):
  /// the base's, shared by every epoch derived from it and non-null only
  /// for a linear-scan base, and this epoch's own table of its delta
  /// windows, non-null only for a non-empty delta. Both are nullptr when
  /// the prefilter is off or reads no features for the distance.
  const LbFeatureTable* base_lb_features() const {
    return base_->lb_features.get();
  }
  const LbFeatureTable* delta_lb_features() const {
    return delta_lb_features_.get();
  }

 private:
  SubsequenceMatcher(std::shared_ptr<const SequenceDatabase<T>> db,
                     const SequenceDistance<T>& dist, MatcherOptions options)
      : db_(std::move(db)), dist_(dist), options_(options) {}

  /// The shared front half of Build / LoadIndexFrom / BuildToSnapshot:
  /// validates options and the distance's properties, applies the exec
  /// pushdown, and materializes the catalog + window oracle (steps 1 and
  /// 3's machinery) plus the tombstone mask — everything except the
  /// base index and the delta.
  static Result<std::unique_ptr<SubsequenceMatcher<T>>> MakeShell(
      const SequenceDatabase<T>& db, const SequenceDistance<T>& dist,
      MatcherOptions options);

  /// Wraps a freshly built/loaded index (covering the first
  /// `base_windows` catalog windows) into this matcher's shared
  /// EpochBase — with the base feature table when the base is a linear
  /// scan — and builds the LinearScan delta over the rest. MakeShell
  /// must have run; `snapshot` is non-null for loaded indexes.
  void AdoptBase(std::unique_ptr<RangeIndex> index,
                 std::unique_ptr<PrefixOracle> prefix,
                 std::shared_ptr<const SnapshotFile> snapshot,
                 int32_t base_windows);

  /// The LinearScan delta over windows [base, num_windows) and its
  /// feature table, when the delta is non-empty. base_ and catalog_
  /// must be set.
  void BuildDelta();

  /// The shared tail of WithAppended / WithRetired: a matcher over
  /// `db` (one epoch past this matcher's) sharing this matcher's base.
  Result<std::unique_ptr<SubsequenceMatcher<T>>> DeriveEpoch(
      SequenceDatabase<T> db) const;

  /// Verifies all pairs in a region; invokes `on_match` for each pair
  /// within epsilon. The caller has charged the region's whole
  /// RegionVerificationCount against the budget.
  template <typename OnMatch>
  void VerifyRegion(std::span<const T> query, const CandidateRegion& region,
                    double epsilon, MatchQueryStats* stats,
                    OnMatch&& on_match) const;

  /// Type II step 5 over `hits`: chain building plus the serial
  /// longest-first chain search. Each pair charges *budget before its
  /// distance is computed; returns false once the budget runs out.
  /// Otherwise *longest is the longest match (the earliest chain wins a
  /// tie), or nullopt.
  bool ChainSearch(std::span<const T> query, std::span<const SegmentHit> hits,
                   double epsilon, int64_t* budget, MatchQueryStats* stats,
                   std::optional<SubsequenceMatch>* longest) const;

  /// The current epoch's database. Heap-held so the window oracle (and
  /// the shared EpochBase, for a fresh build) can reference it beyond
  /// any single matcher's lifetime.
  std::shared_ptr<const SequenceDatabase<T>> db_;
  const SequenceDistance<T>& dist_;
  MatcherOptions options_;
  /// Current epoch's catalog/oracle (all windows, delta included). For
  /// a fresh build these are shared into base_; a derived matcher owns
  /// fresh ones while base_ keeps the base epoch's.
  std::shared_ptr<const WindowCatalog> catalog_;
  std::shared_ptr<const WindowOracle<T>> oracle_;
  /// The scan cascade's feature table of this epoch's delta windows
  /// [base, num_windows) — the base's own table lives in base_ — built
  /// when the delta is non-empty, the prefilter is on and the cascade
  /// reads features for the distance; nullptr otherwise. Shared into
  /// every segment's LbCascade.
  std::shared_ptr<const LbFeatureTable> delta_lb_features_;
  /// The immutable base: index over windows [0, base_->num_windows),
  /// shared across every matcher derived from the same build/load.
  std::shared_ptr<const EpochBase<T>> base_;
  /// LinearScan over the delta windows [base, num_windows) with local
  /// ids 0..delta-1; nullptr when the delta is empty.
  std::unique_ptr<LinearScan> delta_index_;
  /// window_tombstones_[w] != 0 iff window w's sequence is retired.
  /// Empty when nothing is retired.
  std::vector<uint8_t> window_tombstones_;
  int64_t num_tombstoned_windows_ = 0;
};

extern template class SubsequenceMatcher<char>;
extern template class SubsequenceMatcher<double>;
extern template class SubsequenceMatcher<Point2d>;

}  // namespace subseq

#endif  // SUBSEQ_FRAME_MATCHER_H_
