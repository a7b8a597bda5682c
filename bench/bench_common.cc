#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "subseq/core/check.h"
#include "subseq/data/motif.h"
#include "subseq/distance/simd/cpu_features.h"
#include "subseq/metric/linear_scan.h"
#include "subseq/metric/mv_index.h"
#include "subseq/metric/reference_net.h"

namespace subseq::bench {

bool FullScale() {
  const char* v = std::getenv("SUBSEQ_BENCH_SCALE");
  return v != nullptr && std::strcmp(v, "full") == 0;
}

void Banner(const std::string& figure, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("scale: %s (set SUBSEQ_BENCH_SCALE=full for paper sizes)\n",
              FullScale() ? "full" : "ci");
  std::printf("================================================================\n");
}

SequenceDatabase<char> MakeProteinDb(int32_t num_windows, uint64_t seed) {
  ProteinGenOptions options;
  options.mean_length = 400;
  options.seed = seed;
  options.family_fraction = 0.9;
  ProteinGenerator gen(options);
  return gen.GenerateDatabaseWithWindows(num_windows, kWindowLength);
}

SequenceDatabase<double> MakeSongDb(int32_t num_windows, uint64_t seed) {
  SongGenOptions options;
  options.mean_length = 300;
  options.seed = seed;
  SongGenerator gen(options);
  return gen.GenerateDatabaseWithWindows(num_windows, kWindowLength);
}

SequenceDatabase<Point2d> MakeTrajDb(int32_t num_windows, uint64_t seed) {
  TrajectoryGenOptions options;
  options.mean_length = 250;
  options.seed = seed;
  TrajectoryGenerator gen(options);
  return gen.GenerateDatabaseWithWindows(num_windows, kWindowLength);
}

namespace {

// Half mutated database cuts (each starting at a random window, of
// `length` elements: the window itself at the window length), half
// fresh generator output.
template <typename T, typename MakeFresh, typename MutateWindow>
std::vector<std::vector<T>> MakeQueries(const SequenceDatabase<T>& db,
                                        const WindowCatalog& catalog,
                                        int32_t count, uint64_t seed,
                                        int32_t length,
                                        MakeFresh&& make_fresh,
                                        MutateWindow&& mutate) {
  SUBSEQ_CHECK(catalog.num_windows() > 0);
  Rng rng(seed);
  std::vector<std::vector<T>> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int32_t i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      const ObjectId w = static_cast<ObjectId>(
          rng.NextBounded(static_cast<uint64_t>(catalog.num_windows())));
      const WindowRef& ref = catalog.at(w);
      const Sequence<T>& seq = db.at(ref.seq);
      const int32_t begin = std::min(ref.span.begin, seq.size() - length);
      SUBSEQ_CHECK(begin >= 0);
      const auto view = seq.Subsequence(Interval{begin, begin + length});
      queries.push_back(mutate(view, &rng));
    } else {
      queries.push_back(make_fresh(&rng, length));
    }
  }
  return queries;
}

}  // namespace

std::vector<std::vector<char>> MakeProteinQueries(
    const SequenceDatabase<char>& db, const WindowCatalog& catalog,
    int32_t count, uint64_t seed, int32_t length) {
  return MakeQueries<char>(
      db, catalog, count, seed, length,
      [](Rng* rng, int32_t length) {
        ProteinGenOptions options;
        options.seed = rng->NextU64();
        options.family_fraction = 0.0;
        ProteinGenerator gen(options);
        return gen.GenerateWithLength(length).elements();
      },
      [](std::span<const char> w, Rng* rng) {
        MotifPlanter planter(rng->NextU64());
        MotifOptions options;
        options.substitution_rate = 0.10;
        return planter.Mutate(w, options);
      });
}

std::vector<std::vector<double>> MakeSongQueries(
    const SequenceDatabase<double>& db, const WindowCatalog& catalog,
    int32_t count, uint64_t seed, int32_t length) {
  return MakeQueries<double>(
      db, catalog, count, seed, length,
      [](Rng* rng, int32_t n) {
        SongGenOptions options;
        options.seed = rng->NextU64();
        SongGenerator gen(options);
        return gen.GenerateWithLength(n).elements();
      },
      [](std::span<const double> w, Rng* rng) {
        std::vector<double> out(w.begin(), w.end());
        for (double& v : out) {
          if (rng->NextBool(0.2)) {
            v = std::clamp(v + static_cast<double>(rng->NextInt(-2, 2)),
                           0.0, 11.0);
          }
        }
        return out;
      });
}

std::vector<std::vector<Point2d>> MakeTrajQueries(
    const SequenceDatabase<Point2d>& db, const WindowCatalog& catalog,
    int32_t count, uint64_t seed, int32_t length) {
  return MakeQueries<Point2d>(
      db, catalog, count, seed, length,
      [](Rng* rng, int32_t n) {
        TrajectoryGenOptions options;
        options.seed = rng->NextU64();
        TrajectoryGenerator gen(options);
        return gen.GenerateWithLength(n).elements();
      },
      [](std::span<const Point2d> w, Rng* rng) {
        std::vector<Point2d> out(w.begin(), w.end());
        for (Point2d& p : out) {
          p.x += 0.3 * rng->NextGaussian();
          p.y += 0.3 * rng->NextGaussian();
        }
        return out;
      });
}

namespace {

// JSON string escaping (quotes, backslashes, control characters).
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// JSON has no inf/nan literals; emit null for non-finite metrics.
void PrintJsonNumber(std::FILE* f, double value) {
  if (std::isfinite(value)) {
    std::fprintf(f, "%.17g", value);
  } else {
    std::fprintf(f, "null");
  }
}

}  // namespace

bool WriteBenchJson(const std::string& path, const std::string& benchmark,
                    const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n  \"scale\": \"%s\",\n",
               EscapeJson(benchmark).c_str(), FullScale() ? "full" : "ci");
  std::fprintf(f, "  \"nproc\": %d,\n  \"simd\": \"%s\",\n",
               ResolveHardwareConcurrency(),
               simd::SimdLevelName(simd::ActiveSimdLevel()));
  std::fprintf(f, "  \"records\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f, "    {\"name\": \"%s\"", EscapeJson(r.name).c_str());
    for (const auto& [key, value] : r.metrics) {
      std::fprintf(f, ", \"%s\": ", EscapeJson(key).c_str());
      PrintJsonNumber(f, value);
    }
    std::fprintf(f, "}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

std::unique_ptr<RangeIndex> BuildIndex(const std::string& kind,
                                       const DistanceOracle& oracle) {
  if (kind == "rn" || kind == "rn-5" || kind == "ct") {
    // The cover tree is the net capped at one parent per node.
    ReferenceNetOptions options;
    if (kind == "rn-5") options.max_parents = 5;
    if (kind == "ct") options.max_parents = 1;
    auto net = std::make_unique<ReferenceNet>(oracle, options);
    for (ObjectId id = 0; id < oracle.size(); ++id) {
      SUBSEQ_CHECK(net->Insert(id).ok());
    }
    return net;
  }
  if (kind == "mv-5" || kind == "mv-20" || kind == "mv-50") {
    MvIndexOptions options;
    options.num_references = std::atoi(kind.c_str() + 3);
    return std::make_unique<MvIndex>(oracle, options);
  }
  if (kind == "scan") {
    return std::make_unique<LinearScan>(oracle.size());
  }
  SUBSEQ_CHECK(false);
  return nullptr;
}

}  // namespace subseq::bench
