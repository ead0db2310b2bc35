// Table 5: search time (ST) of GMorph vs GMorph w P vs GMorph w P+R per
// benchmark and accuracy threshold, with the savings from predictive
// filtering. Reuses the cached searches shared with fig7_speedups.
//
// Besides the human-readable table it prints one JSON line per search run
// with the per-stage wall-time breakdown and the evaluation-cache hit count
// (machine-parseable, like micro_ops/table3).
#include <cstdio>
#include <string>

#include "bench/bench_common.h"

namespace {

void PrintJson(int bench, double threshold, const std::string& variant,
               const gmorph::bench::SearchSummary& s) {
  gmorph::bench::EmitJsonLine(gmorph::bench::JsonLine()
                                  .Key("bench").String(gmorph::bench::BenchId(bench))
                                  .Key("threshold").Fixed(threshold, 3)
                                  .Key("variant").String(variant)
                                  .Key("search_seconds").Fixed(s.search_seconds, 3)
                                  .Key("finetuned").Int(s.candidates_finetuned)
                                  .Key("filtered").Int(s.candidates_filtered)
                                  .Key("cache_hits").Int(s.cache_hits)
                                  .Key("stage_sample_s").Fixed(s.stage_seconds.sample, 3)
                                  .Key("stage_verify_s").Fixed(s.stage_seconds.verify, 3)
                                  .Key("stage_profile_s").Fixed(s.stage_seconds.profile, 3)
                                  .Key("stage_finetune_s").Fixed(s.stage_seconds.finetune, 3)
                                  .Key("stage_score_s").Fixed(s.stage_seconds.score, 3));
}

}  // namespace

int main() {
  using namespace gmorph;
  using namespace gmorph::bench;
  PrintHeader("Table 5: search time and predictive-filtering savings", "paper Table 5");

  for (double threshold : {0.0, 0.01, 0.02}) {
    std::printf("--- accuracy drop < %.0f%% ---\n", threshold * 100);
    PrintRow({"Benchmark", "ST(s)", "ST w P(s)", "saving", "ST w P+R", "saving",
              "finetuned", "filtered", "cached"});
    for (int b = 1; b <= kNumBenchmarks; ++b) {
      SearchSummary base = RunSearchCached(b, threshold, Variant::kBase);
      SearchSummary p = RunSearchCached(b, threshold, Variant::kP);
      SearchSummary pr = RunSearchCached(b, threshold, Variant::kPR);
      auto saving = [&](double t) {
        return base.search_seconds > 0.0
                   ? Fmt(100.0 * (1.0 - t / base.search_seconds), 0) + "%"
                   : std::string("-");
      };
      PrintRow({BenchId(b), Fmt(base.search_seconds, 1),
                Fmt(p.search_seconds, 1), saving(p.search_seconds),
                Fmt(pr.search_seconds, 1), saving(pr.search_seconds),
                std::to_string(pr.candidates_finetuned),
                std::to_string(pr.candidates_filtered),
                std::to_string(pr.cache_hits)});
      PrintJson(b, threshold, "base", base);
      PrintJson(b, threshold, "p", p);
      PrintJson(b, threshold, "pr", pr);
    }
    std::printf("\n");
  }
  return 0;
}
