// Figure 5: reference-net space overhead on PROTEINS / Levenshtein.
//
// Paper's observations to reproduce:
//  * the number of index nodes grows linearly with the number of windows;
//  * the average reference-list size (= average parents per node) stays
//    small (below ~4);
//  * total index size stays in the low megabytes at 100K windows.

#include <cstdio>

#include "bench_common.h"
#include "subseq/distance/levenshtein.h"
#include "subseq/metric/reference_net.h"

namespace subseq::bench {
namespace {

void Run() {
  Banner("Figure 5", "reference-net space overhead, PROTEINS/Levenshtein");
  const std::vector<int32_t> sizes =
      FullScale()
          ? std::vector<int32_t>{10000, 25000, 50000, 75000, 100000}
          : std::vector<int32_t>{1000, 2000, 4000, 8000};

  const LevenshteinDistance<char> lev;
  std::printf("%10s %12s %12s %14s %12s %12s\n", "windows", "rn nodes",
              "rn entries", "avg parents", "rn MB", "ct MB");
  for (const int32_t n : sizes) {
    const auto db = MakeProteinDb(n, 21);
    auto catalog = WindowCatalog::PartitionDatabase(db, kWindowLength);
    const WindowOracle<char> oracle(db, catalog.value(), lev);
    const auto rn = BuildIndex("rn", oracle);
    const auto ct = BuildIndex("ct", oracle);
    const SpaceStats s = rn->ComputeSpaceStats();
    const SpaceStats c = ct->ComputeSpaceStats();
    std::printf("%10d %12lld %12lld %14.2f %12.3f %12.3f\n", oracle.size(),
                static_cast<long long>(s.num_nodes),
                static_cast<long long>(s.num_list_entries), s.avg_parents,
                static_cast<double>(s.approx_bytes) / 1e6,
                static_cast<double>(c.approx_bytes) / 1e6);
  }
  std::printf("\nExpected shape: nodes and entries linear in windows; "
              "avg parents small (< ~4);\nreference net a small constant "
              "factor larger than the cover tree.\n");
}

}  // namespace
}  // namespace subseq::bench

int main() {
  subseq::bench::Run();
  return 0;
}
