#include "subseq/metric/mv_index.h"

#include <algorithm>
#include <cmath>

#include "subseq/distance/distance.h"

#include "subseq/core/check.h"
#include "subseq/core/rng.h"
#include "subseq/exec/parallel_for.h"
#include "subseq/exec/stats_sink.h"
#include "subseq/snapshot/reader.h"
#include "subseq/snapshot/writer.h"

namespace subseq {

MvIndex::MvIndex(const DistanceOracle& oracle, MvIndexOptions options)
    : oracle_(oracle), options_(options), num_objects_(oracle.size()) {
  SUBSEQ_CHECK(options_.num_references > 0);
  const int32_t n = num_objects_;
  const int32_t k = std::min(options_.num_references, n);
  if (n == 0) return;

  // Candidate pool and evaluation sample (without replacement when small).
  Rng rng(options_.seed);
  const int32_t pool = std::min(options_.sample_size, n);
  std::vector<ObjectId> ids(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  // Partial Fisher-Yates: the first `pool` entries are a uniform sample.
  for (int32_t i = 0; i < pool; ++i) {
    const int32_t j =
        i + static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(n - i)));
    std::swap(ids[static_cast<size_t>(i)], ids[static_cast<size_t>(j)]);
  }

  // Maximum-variance selection: score each candidate by the variance of
  // its distances to the sample, take the top k. Candidates are scored in
  // parallel chunks; each candidate's accumulation stays sequential over
  // the sample, so every variance — and the selection — is identical at
  // any thread count.
  std::vector<std::pair<double, ObjectId>> scored(static_cast<size_t>(pool));
  StatsSink build_sink;
  ParallelFor(options_.exec, pool,
              [&](int64_t lo, int64_t hi, int32_t) {
                for (int64_t c = lo; c < hi; ++c) {
                  const ObjectId cand = ids[static_cast<size_t>(c)];
                  double sum = 0.0;
                  double sum_sq = 0.0;
                  for (int32_t s = 0; s < pool; ++s) {
                    const double d =
                        oracle_.Distance(cand, ids[static_cast<size_t>(s)]);
                    sum += d;
                    sum_sq += d * d;
                  }
                  const double mean = sum / pool;
                  const double var = sum_sq / pool - mean * mean;
                  scored[static_cast<size_t>(c)] = {var, cand};
                }
                build_sink.AddDistanceComputations((hi - lo) * pool);
              });
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  references_.reserve(static_cast<size_t>(k));
  for (int32_t j = 0; j < k; ++j) {
    references_.push_back(scored[static_cast<size_t>(j)].second);
  }

  // Precompute the n x k pivot table, one chunk of rows per thread.
  table_storage_.resize(static_cast<size_t>(n) * static_cast<size_t>(k));
  ParallelFor(
      options_.exec, n,
      [&](int64_t lo, int64_t hi, int32_t) {
        for (int64_t x = lo; x < hi; ++x) {
          for (int32_t j = 0; j < k; ++j) {
            table_storage_[static_cast<size_t>(x) * static_cast<size_t>(k) +
                           static_cast<size_t>(j)] =
                oracle_.Distance(static_cast<ObjectId>(x),
                                 references_[static_cast<size_t>(j)]);
          }
        }
        build_sink.AddDistanceComputations((hi - lo) * k);
      },
      /*grain=*/16);
  table_ = table_storage_;
  build_stats_.distance_computations = build_sink.distance_computations();
}

namespace {

struct MvIndexMetaRec {
  int32_t num_objects;
  int32_t num_references_stored;
  int32_t opt_num_references;
  int32_t opt_sample_size;
  uint64_t seed;
  int64_t build_distance_computations;
};
static_assert(sizeof(MvIndexMetaRec) == 32);

}  // namespace

Status MvIndex::SaveSections(SnapshotWriter& writer,
                             const std::string& prefix) const {
  MvIndexMetaRec meta{};
  meta.num_objects = num_objects_;
  meta.num_references_stored = static_cast<int32_t>(references_.size());
  meta.opt_num_references = options_.num_references;
  meta.opt_sample_size = options_.sample_size;
  meta.seed = options_.seed;
  meta.build_distance_computations = build_stats_.distance_computations;
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodStruct(prefix + "meta", meta));
  SUBSEQ_RETURN_NOT_OK(writer.AppendPodSection<ObjectId>(
      prefix + "refs", references_));
  return writer.AppendPodSection<double>(prefix + "table", table_);
}

Result<std::unique_ptr<MvIndex>> MvIndex::LoadSections(
    std::shared_ptr<const SnapshotFile> file, const std::string& prefix,
    const DistanceOracle& oracle, const MvIndexOptions& options) {
  MvIndexMetaRec meta{};
  SUBSEQ_RETURN_NOT_OK(ReadPodStruct(*file, prefix + "meta", &meta));
  const auto bad = [&](const std::string& why) {
    return Status::InvalidArgument("mv-index snapshot sections '" + prefix +
                                   "*': " + why);
  };
  if (meta.num_objects != oracle.size()) {
    return bad("indexes " + std::to_string(meta.num_objects) +
               " objects but the oracle holds " +
               std::to_string(oracle.size()));
  }
  if (meta.opt_num_references != options.num_references ||
      meta.opt_sample_size != options.sample_size ||
      meta.seed != options.seed) {
    return bad("saved with num_references=" +
               std::to_string(meta.opt_num_references) + " sample_size=" +
               std::to_string(meta.opt_sample_size) + " seed=" +
               std::to_string(meta.seed) + " but the load requested " +
               std::to_string(options.num_references) + "/" +
               std::to_string(options.sample_size) + "/" +
               std::to_string(options.seed) +
               "; a loaded index must equal the fresh build it replaces");
  }
  const int32_t n = meta.num_objects;
  const int32_t k = meta.num_references_stored;
  const int32_t expected_k = n == 0 ? 0 : std::min(options.num_references, n);
  if (k != expected_k) {
    return bad("stores " + std::to_string(k) + " references, expected " +
               std::to_string(expected_k));
  }

  auto index = std::unique_ptr<MvIndex>(
      new MvIndex(oracle, options, LoadTag{}));
  index->num_objects_ = n;
  index->build_stats_.distance_computations = meta.build_distance_computations;
  SUBSEQ_RETURN_NOT_OK(
      ReadPodSection<ObjectId>(*file, prefix + "refs", &index->references_));
  if (static_cast<int32_t>(index->references_.size()) != k) {
    return bad("refs section holds " +
               std::to_string(index->references_.size()) +
               " entries but meta records " + std::to_string(k));
  }
  for (const ObjectId r : index->references_) {
    if (r < 0 || r >= n) {
      return bad("reference id " + std::to_string(r) + " out of range");
    }
  }
  auto table = PodSectionView<double>(*file, prefix + "table");
  if (!table.ok()) return table.status();
  if (table.value().size() !=
      static_cast<size_t>(n) * static_cast<size_t>(k)) {
    return bad("table holds " + std::to_string(table.value().size()) +
               " cells, expected " + std::to_string(n) + " x " +
               std::to_string(k));
  }
  index->table_ = table.value();
  index->backing_ = std::move(file);

  // Seeded spot-check: recompute a deterministic sample of table cells
  // against the oracle. Catches a checksum-intact snapshot loaded
  // against the wrong dataset or distance.
  if (n > 0 && k > 0) {
    Rng rng(0x11C9DC58E6F4A7B3ULL ^
            (static_cast<uint64_t>(n) << 8) ^ static_cast<uint64_t>(k));
    const size_t cells = static_cast<size_t>(n) * static_cast<size_t>(k);
    const size_t checks = std::min<size_t>(cells, 64);
    for (size_t c = 0; c < checks; ++c) {
      const size_t cell = static_cast<size_t>(rng.NextBounded(cells));
      const ObjectId x = static_cast<ObjectId>(cell / static_cast<size_t>(k));
      const ObjectId r =
          index->references_[cell % static_cast<size_t>(k)];
      if (oracle.Distance(x, r) != index->table_[cell]) {
        return bad("stored pivot distances disagree with the oracle — was "
                   "the index saved for a different dataset or distance?");
      }
    }
  }
  return index;
}

std::vector<ObjectId> MvIndex::RangeQuery(const QueryDistanceFn& query,
                                          double epsilon,
                                          QueryStats* stats) const {
  std::vector<ObjectId> results;
  int64_t computations = 0;
  const int32_t n = num_objects_;
  const int32_t k = static_cast<int32_t>(references_.size());
  if (n > 0) {
    // Distances from the query to each reference.
    std::vector<double> dq(static_cast<size_t>(k));
    for (int32_t j = 0; j < k; ++j) {
      ++computations;
      dq[static_cast<size_t>(j)] = query(references_[static_cast<size_t>(j)]);
    }
    for (ObjectId x = 0; x < n; ++x) {
      double lower = 0.0;
      double upper = kInfiniteDistance;
      const double* row =
          &table_[static_cast<size_t>(x) * static_cast<size_t>(k)];
      for (int32_t j = 0; j < k; ++j) {
        const double dr = dq[static_cast<size_t>(j)];
        lower = std::max(lower, std::fabs(dr - row[j]));
        upper = std::min(upper, dr + row[j]);
      }
      if (lower > epsilon) continue;  // pruned, no computation
      if (upper <= epsilon) {
        results.push_back(x);  // accepted, no computation
        continue;
      }
      ++computations;
      if (query(x) <= epsilon) results.push_back(x);
    }
  }
  if (stats != nullptr) {
    stats->distance_computations = computations;
    stats->result_count = static_cast<int64_t>(results.size());
  }
  return results;
}

SpaceStats MvIndex::ComputeSpaceStats() const {
  SpaceStats s;
  s.num_objects = num_objects_;
  s.num_nodes = static_cast<int64_t>(references_.size());
  s.num_list_entries = static_cast<int64_t>(table_.size());
  s.avg_parents = static_cast<double>(references_.size());
  s.num_levels = 1;
  s.approx_bytes = static_cast<int64_t>(table_.size()) * 8 +
                   static_cast<int64_t>(references_.size()) * 4;
  return s;
}

}  // namespace subseq
