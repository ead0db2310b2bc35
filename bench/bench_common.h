// Shared harness for the paper-reproduction benches (one binary per table /
// figure; see DESIGN.md §3).
//
// All benches run scaled-down versions of the paper's experiments so the full
// suite finishes on one CPU core. GMORPH_BENCH_SCALE (a float, default 1.0)
// multiplies dataset sizes and iteration counts: set it to 2-4 for closer-to-
// paper fidelity or 0.5 for a quick smoke run.
#ifndef GMORPH_BENCH_BENCH_COMMON_H_
#define GMORPH_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/abs_graph.h"
#include "src/core/gmorph.h"
#include "src/data/benchmarks.h"
#include "src/data/teacher.h"
#include "src/obs/json.h"

namespace gmorph::bench {

// GMORPH_BENCH_SCALE, clamped to [0.25, 8].
double BenchScaleFactor();

// Scales a count by the bench factor with a floor.
int Scaled(int base, int min_value = 1);

// The dataset/model scale used by all benches (paper-shaped, CPU-sized).
BenchmarkScale DefaultScale();

// A benchmark with its teachers pre-trained and scored.
struct PreparedBenchmark {
  BenchmarkDef def;
  std::vector<std::unique_ptr<TaskModel>> teachers;
  std::vector<TaskModel*> teacher_ptrs;
  std::vector<double> teacher_scores;
};

PreparedBenchmark PrepareBenchmark(int index, uint64_t seed, int teacher_epochs = 6);

// Directory for cross-binary caching (teacher checkpoints, search results):
// ResolveCacheDir(), so an empty GMORPH_CACHE_DIR counts as unset and the
// default is "gmorph_bench_cache" under the cwd.
std::string CacheDir();

// Benchmark `index` with teachers trained once per process AND checkpointed
// to the cache dir, so each bench binary pays teacher training at most once
// per suite run. Seeds are fixed (1000 + index) so all benches agree.
PreparedBenchmark& GetBenchmark(int index);

// The GMorph variants evaluated in §6 plus the random-sampling baseline.
enum class Variant { kBase, kP, kPR, kRandom };
std::string VariantName(Variant v);

// One search run's cached summary (everything fig7/fig8/table3/5/7/8/9 need).
//
// Bench searches optimize FLOPs rather than wall-clock latency: FLOPs are
// deterministic and immune to CPU contention, so cached results stay valid.
// `speedup` is the FLOPs ratio; benches that report wall-clock numbers
// measure them live from `best_graph_path` on an idle machine.
struct SearchSummary {
  int64_t original_flops = 0;
  int64_t best_flops = 0;
  double speedup = 1.0;  // original_flops / best_flops
  double search_seconds = 0.0;
  int candidates_finetuned = 0;
  int candidates_filtered = 0;
  int cache_hits = 0;  // candidates served by the evaluation cache this run
  StageSeconds stage_seconds;  // sample/verify/profile/finetune/score breakdown
  std::vector<double> teacher_scores;
  std::vector<double> best_task_scores;
  struct TracePoint {
    double elapsed_seconds = 0.0;
    int64_t best_flops = 0;
    bool cache_hit = false;
  };
  std::vector<TracePoint> trace;
  std::string best_graph_path;  // serialized trained best graph
};

// Rebuilds the original (unfused) graph of a benchmark from its teachers.
AbsGraph OriginalGraph(int bench_index);

// Timed runs behind every original-against-fused latency a bench reports.
// The two sides are timed interleaved (InterleavedMediansMs), one warm-up
// round first, so host load hits both alike.
inline constexpr int kLatencyRuns = 31;

// Loads the cached best graph of a search and measures the live wall-clock
// batch-1 latency of (original, best) on the eager engine. Used by benches
// that report milliseconds.
struct LatencyPair {
  double original_ms = 0.0;
  double best_ms = 0.0;
};
LatencyPair MeasureSummaryLatency(int bench_index, const SearchSummary& summary);

// Runs (or loads from cache) one GMorph search for (benchmark, threshold,
// variant). Deterministic for fixed inputs and GMORPH_BENCH_SCALE.
SearchSummary RunSearchCached(int bench_index, double threshold, Variant variant);

// Search options used by the evaluation benches; `threshold` is the allowed
// accuracy drop (fraction).
GMorphOptions DefaultSearchOptions(double threshold, uint64_t seed);

// Transcript caching for benches whose computation is not otherwise cached
// (fig1-3, table4, serving). If a recorded transcript for `name` exists, it
// is printed and true is returned — the caller should exit immediately.
// Otherwise stdout is redirected into the transcript (committed atomically at
// normal exit) and false is returned.
bool ReplayOrBeginRecord(const std::string& name);

// ---- JSON emission ----

// Starts one JSON result line: an open object in obs::kSpacedJson, e.g.
// {"op": "gemm", "gflops": 1.25}. Every bench's machine-parseable lines start
// here, so the line format stays uniform.
obs::JsonWriter JsonLine();

// Closes `line` and prints it to stdout (flushed). The first call arms the obs
// subsystem from the environment (GMORPH_TRACE / GMORPH_METRICS) and
// registers an atexit hook that appends one final
//   {"metrics_snapshot": {...}}
// line carrying the metrics-registry snapshot, so every bench transcript ends
// with its counters/histograms.
void EmitJsonLine(obs::JsonWriter& line);

// ---- Table formatting ----

// Prints a header like "== Figure 7: ... ==" plus the scale note.
void PrintHeader(const std::string& title, const std::string& paper_ref);

// Prints a row of cells padded to width 12.
void PrintRow(const std::vector<std::string>& cells);

std::string Fmt(double value, int precision = 2);

// The benchmark id "B<index>" every table prints.
std::string BenchId(int index);

}  // namespace gmorph::bench

#endif  // GMORPH_BENCH_BENCH_COMMON_H_
