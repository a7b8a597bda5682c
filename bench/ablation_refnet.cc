// Ablation (beyond the paper's figures): the reference net's two design
// knobs on PROTEINS / Levenshtein —
//  * eps' (base radius): how level granularity affects build cost, space
//    and query pruning;
//  * num_max (parent cap), including num_max = 1, the single-parent net
//    that is the cover tree (IndexKind::kCoverTree builds exactly this),
//    which isolates the benefit of Figure 2's multi-parenting.

#include <cstdio>

#include "bench_common.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/metric/reference_net.h"

namespace subseq::bench {
namespace {

void Run() {
  Banner("Ablation", "reference-net design knobs (eps', num_max), PROTEINS");
  const int32_t windows = Scaled(2000, 20000);
  const int32_t num_queries = Scaled(30, 100);

  const auto db = MakeProteinDb(windows, 95);
  auto catalog = WindowCatalog::PartitionDatabase(db, kWindowLength);
  const LevenshteinDistance<char> lev;
  const WindowOracle<char> oracle(db, catalog.value(), lev);
  const auto queries =
      MakeProteinQueries(db, catalog.value(), num_queries, 96);

  std::printf("%8s %8s | %12s %10s %10s | %9s %9s %9s\n", "eps'",
              "num_max", "build-comp", "entries", "MB", "q@1", "q@2",
              "q@4");
  // Note: powers of two are equivalent for eps' (they only shift level
  // indices); the interesting knob is the fractional part relative to the
  // distance quantization.
  for (const double base_radius : {0.6, 0.8, 1.0, 1.3, 1.7}) {
    for (const int32_t max_parents : {0, 1, 5}) {
      ReferenceNetOptions options;
      options.base_radius = base_radius;
      options.max_parents = max_parents;
      ReferenceNet net(oracle, options);
      for (ObjectId id = 0; id < oracle.size(); ++id) {
        const Status s = net.Insert(id);
        SUBSEQ_CHECK(s.ok());
      }
      const SpaceStats space = net.ComputeSpaceStats();
      std::printf("%8.2f %8d | %12lld %10lld %10.3f |", base_radius,
                  max_parents,
                  static_cast<long long>(
                      net.build_stats().distance_computations),
                  static_cast<long long>(space.num_list_entries),
                  static_cast<double>(space.approx_bytes) / 1e6);
      for (const double eps : {1.0, 2.0, 4.0}) {
        const double frac =
            AvgComputationFraction(net, oracle, queries, eps);
        std::printf(" %8.1f%%", 100.0 * frac);
      }
      std::printf("\n");
    }
  }
  std::printf("\nReading guide: num_max = 0 is unlimited, 1 is the cover "
              "tree (IndexKind::kCoverTree),\n5 is the paper's RN-5. q@e = "
              "average %% of naive distance computations at range e.\n");
}

}  // namespace
}  // namespace subseq::bench

int main() {
  subseq::bench::Run();
  return 0;
}
