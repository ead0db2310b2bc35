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
  std::printf("{\"bench\": \"B%d\", \"threshold\": %.3f, \"variant\": \"%s\", "
              "\"search_seconds\": %.3f, \"finetuned\": %d, \"filtered\": %d, "
              "\"cache_hits\": %d, \"stage_sample_s\": %.3f, \"stage_verify_s\": %.3f, "
              "\"stage_profile_s\": %.3f, \"stage_finetune_s\": %.3f, \"stage_score_s\": %.3f}\n",
              bench, threshold, variant.c_str(), s.search_seconds, s.candidates_finetuned,
              s.candidates_filtered, s.cache_hits, s.stage_seconds.sample, s.stage_seconds.verify,
              s.stage_seconds.profile, s.stage_seconds.finetune, s.stage_seconds.score);
  std::fflush(stdout);
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
