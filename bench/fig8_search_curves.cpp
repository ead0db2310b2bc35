// Figure 8: best-candidate inference cost as a function of search time on B1,
// for the three GMorph variants and the random-sampling baseline, at each
// accuracy-drop threshold. Prints the (search time, best cost) series each
// curve in the figure plots; cost is FLOPs (see bench_common.h).
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace gmorph;
  using namespace gmorph::bench;
  PrintHeader("Figure 8: search progress on B1 (cost of best model vs search time)",
              "paper Fig. 8");

  const Variant variants[] = {Variant::kBase, Variant::kP, Variant::kPR, Variant::kRandom};
  for (double threshold : {0.0, 0.01, 0.02}) {
    std::printf("--- accuracy drop < %.0f%% ---\n", threshold * 100);
    for (Variant v : variants) {
      SearchSummary s = RunSearchCached(/*bench_index=*/1, threshold, v);
      std::printf("%-13s total=%6.1fs final=%5.2fx  curve:", VariantName(v).c_str(),
                  s.search_seconds, s.speedup);
      for (size_t i = 0; i < s.trace.size(); ++i) {
        // Thin long traces to at most 8 printed points.
        const size_t stride = std::max<size_t>(1, s.trace.size() / 8);
        if (i % stride == 0 || i + 1 == s.trace.size()) {
          std::printf(" (%.1fs,%.1fMF)", s.trace[i].elapsed_seconds,
                      static_cast<double>(s.trace[i].best_flops) / 1e6);
        }
      }
      std::printf("\n");
      // One JSON line per trace point: the full search-cost trajectory
      // (machine-parseable, like micro_ops/table3).
      for (size_t i = 0; i < s.trace.size(); ++i) {
        EmitJsonLine(JsonLine()
                         .Key("bench").String("B1")
                         .Key("threshold").Fixed(threshold, 3)
                         .Key("variant").String(VariantName(v))
                         .Key("iteration").Int(i + 1)
                         .Key("elapsed_seconds").Fixed(s.trace[i].elapsed_seconds, 3)
                         .Key("best_flops").Int(s.trace[i].best_flops)
                         .Key("cache_hit").Bool(s.trace[i].cache_hit));
      }
    }
    std::printf("\n");
  }
  std::printf("Expected shape: the filtered variants (wP, wP+R) reach low-cost candidates in\n"
              "less search time; random sampling converges slowest (paper Fig. 8).\n");
  return 0;
}
