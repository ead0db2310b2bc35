// Figure 7 + Tables 7/8/9: normalized cost and speedup of the three GMorph
// variants on B1-B7 for accuracy-drop thresholds 0%, 1%, 2%.
//
// Search results are cached in GMORPH_CACHE_DIR, so table5_search_time /
// fig8 / table3 reuse these runs instead of repeating them. The cached
// objective is FLOPs (contention-proof); the wall-clock columns are measured
// live from the cached fused model when this binary prints.
#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace gmorph;
  using namespace gmorph::bench;
  const double thresholds[] = {0.0, 0.01, 0.02};
  const Variant variants[] = {Variant::kBase, Variant::kP, Variant::kPR};

  PrintHeader("Figure 7 / Tables 7-9: speedups of GMorph variants",
              "paper Fig. 7 and appendix Tables 7, 8, 9");

  for (double threshold : thresholds) {
    std::printf("--- accuracy drop < %.0f%% ---\n", threshold * 100);
    PrintRow({"Benchmark", "Orig MFLOP", "GMorph", "wP", "wP+R", "lat(ms)", "latFused",
              "latSpeedup"});
    for (int b = 1; b <= kNumBenchmarks; ++b) {
      std::vector<std::string> row = {BenchId(b)};
      SearchSummary base;
      bool first = true;
      for (Variant v : variants) {
        SearchSummary s = RunSearchCached(b, threshold, v);
        if (first) {
          base = s;
          row.push_back(Fmt(static_cast<double>(s.original_flops) / 1e6, 2));
          first = false;
        }
        row.push_back(Fmt(s.speedup) + "x");
      }
      const LatencyPair lat = MeasureSummaryLatency(b, base);
      row.push_back(Fmt(lat.original_ms));
      row.push_back(Fmt(lat.best_ms));
      row.push_back(lat.best_ms > 0 ? Fmt(lat.original_ms / lat.best_ms) + "x" : "-");
      PrintRow(row);
    }
    std::printf("\n");
  }
  std::printf("GMorph/wP/wP+R columns: compute speedup (original FLOPs / fused FLOPs) of the\n"
              "best model meeting the threshold; lat* columns: live wall-clock latency of the\n"
              "base variant's fused model (Figure 7's normalized latency = 1/latSpeedup).\n");
  return 0;
}
