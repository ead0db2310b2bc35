// gmorph_cli: run a GMorph fusion from a configuration file — the workflow
// the paper describes in §3 (well-trained DNNs + a config with the metric,
// accuracy threshold, fine-tuning hyper-parameters and search budget).
//
// Usage:
//   gmorph_cli [--trace <out.json>] [--metrics <out.json>]
//              [--flight-recorder=<out.json>] <config-file>
//   gmorph_cli --resume <checkpoint> <config-file>
//   gmorph_cli --dump-plan <config-file>
//   gmorph_cli --profile <config-file>
//   gmorph_cli --autotune <config-file>
//   gmorph_cli --quantize <config-file>
//   gmorph_cli --export-plan <config-file> <out.plan>
//   gmorph_cli --serve <config-file>
//   gmorph_cli --verify [--list-rules] [--format=text|json|sarif]
//              [--Werror=<rule|prefix>] [--Wno=<rule|prefix>]
//              [--baseline=<file>] <file>
//   gmorph_cli --print-default-config
//
// --trace writes a Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing) covering the whole run; --metrics writes the metrics
// registry snapshot at exit. Both combine with any mode and are also
// reachable via the GMORPH_TRACE / GMORPH_METRICS environment variables.
// --flight-recorder starts the serving flight recorder (a fixed-size ring of
// request lifecycle events) and dumps it as JSON at exit; it combines with
// any mode but only --serve (and code using the serving layer) records
// events.
//
// --resume continues an interrupted search from a checkpoint written by a
// previous run (config keys `checkpoint_path` / `checkpoint_every`). The
// config must describe the same search (seed, thresholds, policy, ...); the
// continuation reproduces the uninterrupted run's results exactly.
//
// --dump-plan skips search and teacher training: it materializes the
// benchmark's multi-task graph (or a fused graph saved by a previous run via
// `input_graph = <file>`), lowers it through the FusedEngine execution
// planner, and prints the plan in the `gmorph-plan v1` text format that
// --export-plan writes and --verify reads (values with their buffers, groups,
// buffers, steps with their solvers), then a per-step latency profile over
// `profile_runs` runs at the configured batch size.
//
// --profile runs the perf-counter roofline profiler on the configured
// benchmark's execution plan (or `input_graph`): the machine's compute and
// bandwidth ceilings are probed once and cached in the fingerprinted
// `gmorph-machine v1` artifact (config key `machine_db`, else
// $GMORPH_MACHINE_DB, else <cache dir>/gmorph.machine), the plan is run
// `profile_runs` times at the configured batch with per-step hardware
// counters (cycles, instructions, LLC loads/misses, branch misses) enabled,
// and each step is attributed against the roofline: achieved GFLOP/s, GB/s,
// arithmetic intensity, IPC, LLC miss rate, branch MPKI, and a
// compute/memory-bound label with percent-of-roof. Where perf_event_open is
// denied (containers, CI) the report degrades to "counters unavailable" and
// still carries the full time/flops/roofline half. `profile_json = <path>`
// additionally writes the report as JSON.
//
// --autotune benchmarks every applicable kernel solver on each problem shape
// the configured benchmark's execution plan runs (conv im2col GEMMs, linear
// GEMMs, max-pools, at batch 1 and the configured batch_size) and records the
// winners in the tuning DB. The DB location is the config key `tune_db`, else
// $GMORPH_TUNE_DB, else <cache dir>/gmorph.tunedb next to the eval cache.
// Already-tuned shapes are reused, so re-running against a warm DB performs
// zero benchmarks. Any later run with GMORPH_TUNE_DB pointing at the file
// (or the default location) resolves kernels through the tuned winners.
//
// --quantize runs int8 post-training quantization on the configured
// benchmark's execution plan (or a fused graph via `input_graph`): the f32
// plan is scored and timed on the synthetic test split, calibrated on
// `quant_calib_batches` x `quant_calib_batch_size` representative inputs, the
// "gmorph-quant v1" recipe is written to `quant_recipe`, applied, and the
// int8 plan re-scored so the report isolates exactly the latency gain and
// accuracy drop int8 adds. During a search, `quantize_search = true`
// additionally scores every elite candidate's int8 plan (mixed-precision
// winners).
//
// --export-plan lowers the configured benchmark (or `input_graph`) through
// the FusedEngine planner and writes the execution plan as a `gmorph-plan v1`
// text file — the artifact `--verify` lints and the CI plan-lint job sweeps.
// `export_quantized = true` calibrates int8 first so the exported plan
// carries the mixed-precision step dtypes.
//
// --serve runs the real threaded multi-model server (src/serving/server.h)
// on the configured benchmark graph (or `input_graph`): it builds
// `serve_replicas` engine replicas, calibrates per-batch-size service times,
// replays an open-loop Poisson arrival stream of `serve_requests` requests at
// `serve_qps` against the wall clock, and reports throughput / latency
// percentiles / batch and shed counts. `serve_sla_ms` > 0 turns on SLA-aware
// admission; `serve_swap = true` hot-swaps a freshly built engine into slot 0
// mid-run to prove no in-flight request is dropped. Exits nonzero if any
// admitted request was lost. Combine with --metrics for the serving.*
// histograms and --flight-recorder=<path> for the per-request event record
// (dumped at Drain()/Stop(); on a lost request the dump is what pinpoints
// where its lifecycle stopped).
//
// --verify lints a file through the unified analysis driver
// (src/analysis/driver.h) and exits nonzero on any error diagnostic. The file
// kind is sniffed from its head (binary graph or weight-file magic, or the
// shared "gmorph-<kind> vN" header line); unknown files fall back to being
// parsed as a search config naming a benchmark, whose graph is built,
// verified, lowered and plan-checked. Plans additionally run the
// dtype-propagation analysis (plan.dtype.*) and the peak-memory certifier
// (plan.mem.*).
//   --list-rules          print the full rule catalog and exit;
//   --format=F            text (default) | json | sarif (SARIF 2.1.0);
//   --Werror=<rule|pfx>   promote matching warnings to errors;
//   --Wno=<rule|pfx>      drop matching warnings/notes (never errors);
//   --baseline=<file>     suppress known findings ("rule.id node path" lines).
// Exit codes: 0 clean after policy, 1 errors survived, 2 unreadable input.
//
// The config selects one of the built-in benchmarks (B1-B7), pre-trains its
// task-specific teachers on the synthetic datasets, runs the search, and
// writes the fused model (binary graph) and an optional Graphviz rendering.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/driver.h"
#include "src/analysis/plan_io.h"
#include "src/analysis/rules.h"
#include "src/common/check.h"
#include "src/common/config.h"
#include "src/common/logging.h"
#include "src/common/parallel_for.h"
#include "src/core/dot_export.h"
#include "src/core/eval_cache.h"
#include "src/core/gmorph.h"
#include "src/core/graph_io.h"
#include "src/core/model_parser.h"
#include "src/core/search_checkpoint.h"
#include "src/data/benchmarks.h"
#include "src/data/teacher.h"
#include "src/kernels/autotune.h"
#include "src/kernels/machine.h"
#include "src/kernels/tune_db.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/perf_counters.h"
#include "src/obs/trace.h"
#include "src/quant/recipe.h"
#include "src/runtime/engine.h"
#include "src/runtime/fused_engine.h"
#include "src/runtime/quant_scoring.h"
#include "src/runtime/roofline.h"
#include "src/serving/flight_recorder.h"
#include "src/serving/server.h"

namespace {

// Set by the peeled --flight-recorder=<path> flag; ServeMode threads it into
// ServerOptions so the server dumps the ring at Drain()/Stop() too.
std::string g_flight_recorder_path;

constexpr const char* kDefaultConfig = R"(# GMorph search configuration (paper §3)
benchmark = 1                 # built-in benchmark B1..B7 (Table 2)
metric = latency              # latency | flops
accuracy_drop_threshold = 0.01
iterations = 20               # graph mutation optimization rounds
max_mutations_per_pass = 2
policy = sa                   # sa | random
predictive_termination = true
rule_based_filtering = true

# Fine-tuning (accuracy estimator)
finetune_epochs = 6
eval_interval = 2             # the paper's delta
batch_size = 32
learning_rate = 0.001

# Data / model scale
train_size = 128
test_size = 64
cnn_width = 8
noise_stddev = 1.6
teacher_epochs = 6

seed = 42
verbose = true
output_graph = fused_model.gmorph
output_dot = fused_model.dot

# Parallel search: candidates sampled per round / fine-tuning workers
parallel_candidates = 1
search_threads = 1

# Evaluation cache: reuse verify/fine-tune outcomes across runs.
# cache_dir empty resolves $GMORPH_CACHE_DIR, then gmorph_bench_cache/.
use_eval_cache = false
cache_dir =

# Kernel autotuning (`gmorph_cli --autotune`): solver winners are written
# here and picked up by any run via GMORPH_TUNE_DB. Empty resolves
# $GMORPH_TUNE_DB, then <cache dir>/gmorph.tunedb.
tune_db =

# Roofline profiling (`gmorph_cli --profile`): runs per profile, machine
# ceiling artifact location (empty resolves $GMORPH_MACHINE_DB, then
# <cache dir>/gmorph.machine), optional JSON report path.
profile_runs = 10
machine_db =
profile_json =

# Checkpoint/resume: write a resumable checkpoint every N iterations (and at
# search end); continue with `gmorph_cli --resume <checkpoint> <config>`.
checkpoint_path =
checkpoint_every = 0

# Int8 post-training quantization (`gmorph_cli --quantize`, and per-elite
# scoring during search when quantize_search is on). The recipe is written to
# quant_recipe and lintable via `gmorph_cli --verify`.
quantize_search = false
quant_recipe = gmorph.quantrecipe
quant_calib_batches = 2
quant_calib_batch_size = 16
quant_drop_budget = 0.01

# Threaded serving (`gmorph_cli --serve`): open-loop Poisson load against the
# real multi-replica server. serve_engine is eager | fused; serve_sla_ms > 0
# sheds provably-late requests at admission; serve_swap hot-swaps slot 0
# mid-run to exercise the zero-drop swap path.
serve_engine = fused
serve_replicas = 2
serve_max_batch = 8
serve_qps = 500
serve_requests = 200
serve_sla_ms = 0
serve_swap = true
)";

// Builds the configured benchmark's multi-task graph, or loads the fused
// graph named by `input_graph`. Fills a one-line description for banners.
bool BuildConfiguredGraph(const gmorph::Config& config, gmorph::AbsGraph* graph,
                          std::string* label) {
  using namespace gmorph;
  const int bench_index = static_cast<int>(config.GetInt("benchmark", 1));
  const std::string graph_path = config.GetString("input_graph", "");
  if (!graph_path.empty()) {
    if (!LoadGraph(graph_path, *graph)) {
      std::fprintf(stderr, "failed to load %s\n", graph_path.c_str());
      return false;
    }
    *label = "fused graph " + graph_path + " (benchmark B" + std::to_string(bench_index) + ")";
    return true;
  }
  BenchmarkScale scale;
  scale.train_size = 1;  // datasets are unused here; keep materialization cheap
  scale.test_size = 1;
  scale.cnn_width = config.GetInt("cnn_width", 8);
  const uint64_t seed = static_cast<uint64_t>(config.GetInt("seed", 42));
  BenchmarkDef def = MakeBenchmark(bench_index, scale, seed);
  std::vector<ModelSpec> specs;
  for (const auto& task : def.tasks) {
    specs.push_back(task.model);
  }
  *graph = ParseModelSpecs(specs);
  *label = "unfused benchmark B" + std::to_string(bench_index) + " (" +
           std::to_string(def.tasks.size()) + " tasks)";
  return true;
}

// Lowers the configured benchmark (or a saved fused graph) into an execution
// plan and prints it with a per-step profile. No search, no teacher training.
int DumpPlanMode(const gmorph::Config& config) {
  using namespace gmorph;
  const uint64_t seed = static_cast<uint64_t>(config.GetInt("seed", 42));
  AbsGraph graph;
  std::string label;
  if (!BuildConfiguredGraph(config, &graph, &label)) {
    return 2;
  }
  std::printf("plan for %s\n", label.c_str());

  Rng rng(seed);
  MultiTaskModel model(graph, rng);
  FusedEngine engine(&model);
  std::ostringstream plan_text;
  PlanToText(engine.ExportPlan(), plan_text);
  std::printf("%s\n", plan_text.str().c_str());

  const int64_t batch = config.GetInt("batch_size", 1);
  const int runs = static_cast<int>(config.GetInt("profile_runs", 10));
  const Shape input_shape = graph.node(graph.root()).output_shape.WithBatch(batch);
  const Tensor input = Tensor::Zeros(input_shape);
  engine.Run(input);  // warmup: binds buffers, grows scratch arenas
  engine.ResetProfile();
  for (int r = 0; r < runs; ++r) {
    engine.Run(input);
  }
  std::printf("per-step profile (batch %lld, %d runs):\n", static_cast<long long>(batch), runs);
  double total_ms = 0.0;
  for (const auto& step : engine.Profile()) {
    total_ms += step.total_ms;
    std::printf("  %-32s node%-3d calls=%-4lld %8.3f ms\n", step.label.c_str(), step.node,
                static_cast<long long>(step.calls), step.total_ms);
  }
  std::printf("  %-32s %8.3f ms total step time\n", "", total_ms);
  return 0;
}

// Runs the perf-counter roofline profiler on the configured plan: machine
// ceilings from the cached/probed artifact, per-step hardware counters, and
// compute/memory-bound attribution (see usage comment).
int ProfileMode(const gmorph::Config& config) {
  using namespace gmorph;
  const uint64_t seed = static_cast<uint64_t>(config.GetInt("seed", 42));
  AbsGraph graph;
  std::string label;
  if (!BuildConfiguredGraph(config, &graph, &label)) {
    return 2;
  }
  Rng rng(seed);
  MultiTaskModel model(graph, rng);
  FusedEngine engine(&model);
  std::printf("profiling %s (%d plan steps)\n", label.c_str(), engine.num_steps());

  // The ceilings the steps are attributed against: cached when the artifact
  // was written by this build at this thread count, probed (and saved) else.
  bool probed = false;
  const std::string machine_path =
      kernels::ResolveMachinePath(config.GetString("machine_db", ""));
  const kernels::MachineCeilings ceilings =
      kernels::LoadOrProbeMachineCeilings(machine_path, &probed);
  std::printf("machine ceilings %s %s\n", probed ? "probed ->" : "cached from",
              machine_path.c_str());

  const int64_t batch = config.GetInt("batch_size", 1);
  const int runs = std::max(1, static_cast<int>(config.GetInt("profile_runs", 10)));
  const Shape input_shape = graph.node(graph.root()).output_shape.WithBatch(batch);
  const Tensor input = Tensor::Zeros(input_shape);
  engine.Run(input);  // warmup: binds buffers, grows scratch arenas
  obs::EnableStepCounters();
  engine.ResetProfile();
  for (int r = 0; r < runs; ++r) {
    engine.Run(input);
  }
  obs::DisableStepCounters();

  const RooflineReport report = BuildRooflineReport(engine.Profile(), ceilings, batch, runs);
  std::fputs(RooflineReportText(report).c_str(), stdout);

  const std::string json_path = config.GetString("profile_json", "");
  if (!json_path.empty()) {
    if (!obs::WriteJsonFile(json_path, RooflineReportJson(report) + "\n")) {
      std::fprintf(stderr, "profile: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("profile JSON written to %s\n", json_path.c_str());
  }
  return 0;
}

// Benchmarks the applicable solvers on every kernel shape the configured
// plan executes and records the winners in the tuning DB (see usage comment).
int AutotuneMode(const gmorph::Config& config) {
  using namespace gmorph;
  const uint64_t seed = static_cast<uint64_t>(config.GetInt("seed", 42));
  AbsGraph graph;
  std::string label;
  if (!BuildConfiguredGraph(config, &graph, &label)) {
    return 2;
  }
  Rng rng(seed);
  MultiTaskModel model(graph, rng);
  FusedEngine engine(&model);

  // Tune both the per-sample descriptors (what plan annotation resolves) and
  // the configured batch (what Run() bindings resolve); convs are
  // batch-independent so the union stays small.
  const int64_t batch = config.GetInt("batch_size", 1);
  std::set<kernels::ProblemDesc> dedup;
  for (const kernels::ProblemDesc& d : engine.KernelProblems(1)) {
    dedup.insert(d);
  }
  if (batch != 1) {
    for (const kernels::ProblemDesc& d : engine.KernelProblems(batch)) {
      dedup.insert(d);
    }
  }
  const std::vector<kernels::ProblemDesc> descs(dedup.begin(), dedup.end());

  const std::string db_path = kernels::ResolveTuneDbPath(config.GetString("tune_db", ""));
  auto db = std::make_shared<kernels::TuneDb>();
  const kernels::TuneDb::LoadStats loaded = db->Load(db_path);
  std::printf("autotuning %s: %zu shapes, db %s (%d prior entries)\n", label.c_str(),
              descs.size(), db_path.c_str(), loaded.entries);

  kernels::AutotuneOptions opts;
  opts.warmup = static_cast<int>(config.GetInt("autotune_warmup", 1));
  opts.repeats = static_cast<int>(config.GetInt("autotune_repeats", 5));
  opts.force = config.GetBool("autotune_force", false);
  int tuned = 0;
  int reused = 0;
  for (const kernels::TuneResult& r : kernels::TuneProblems(descs, *db, opts)) {
    std::printf("  %-52s -> %-12s %8.2f GF/s%s\n", kernels::ProblemKey(r.desc).c_str(),
                r.winner.c_str(), r.winner_gflops, r.reused ? " (cached)" : "");
    ++(r.reused ? reused : tuned);
  }
  if (!db->Save(db_path)) {
    std::fprintf(stderr, "failed to write tuning DB %s\n", db_path.c_str());
    return 2;
  }
  // Later work in this process (and tests driving the CLI in-process) should
  // resolve through the freshly tuned winners immediately.
  kernels::SetGlobalTuneDb(db);
  std::printf("tuned %d shape(s), reused %d, %lld total entries -> %s\n", tuned, reused,
              static_cast<long long>(db->size()), db_path.c_str());
  return 0;
}

// Calibrates the configured benchmark's plan on representative inputs, writes
// the quantization recipe, applies it, and reports the f32 vs int8 latency
// and per-task test scores (see usage comment).
int QuantizeMode(const gmorph::Config& config) {
  using namespace gmorph;
  const int bench_index = static_cast<int>(config.GetInt("benchmark", 1));
  const uint64_t seed = static_cast<uint64_t>(config.GetInt("seed", 42));
  BenchmarkScale scale;
  scale.train_size = config.GetInt("train_size", 128);
  scale.test_size = config.GetInt("test_size", 64);
  scale.cnn_width = config.GetInt("cnn_width", 8);
  scale.noise_stddev = static_cast<float>(config.GetDouble("noise_stddev", 1.6));
  BenchmarkDef def = MakeBenchmark(bench_index, scale, seed);

  // The plan to quantize: a fused graph saved by a previous search (with its
  // trained weights), or the unfused benchmark.
  AbsGraph graph;
  std::string label;
  if (!BuildConfiguredGraph(config, &graph, &label)) {
    return 2;
  }
  Rng rng(seed);
  MultiTaskModel model(graph, rng);
  FusedEngine engine(&model);
  std::printf("quantizing %s (%d plan steps)\n", label.c_str(), engine.num_steps());

  // f32 baseline through the same engine, so the reported drop isolates
  // exactly what int8 adds.
  const int64_t batch = config.GetInt("batch_size", 32);
  const std::vector<double> f32_scores = EngineEvaluateMultiTask(engine, def.test, batch);
  const Shape input_shape = graph.node(graph.root()).output_shape.WithBatch(batch);
  const Tensor input = Tensor::Zeros(input_shape);
  const double f32_ms = MeasureEngineLatencyMs(engine, input, /*warmup=*/1, /*repeats=*/5);

  // Calibrate on slices of the representative (train) inputs.
  std::vector<Tensor> calib;
  const int calib_batches = static_cast<int>(config.GetInt("quant_calib_batches", 2));
  const int64_t calib_batch = config.GetInt("quant_calib_batch_size", 16);
  int64_t start = 0;
  for (int b = 0; b < calib_batches && start < def.train.size(); ++b) {
    const int64_t count = std::min<int64_t>(calib_batch, def.train.size() - start);
    calib.push_back(def.train.InputBatch(start, count));
    start += count;
  }
  const quant::QuantRecipe recipe = engine.Calibrate(calib);

  const std::string recipe_path = config.GetString("quant_recipe", "gmorph.quantrecipe");
  std::string error;
  if (!quant::SaveQuantRecipe(recipe, recipe_path, &error)) {
    std::fprintf(stderr, "failed to write recipe: %s\n", error.c_str());
    return 2;
  }
  const int applied = engine.Quantize(recipe);
  std::printf("calibrated %zu step(s) -> %s; %d step(s) now int8\n", recipe.steps.size(),
              recipe_path.c_str(), applied);
  if (applied == 0) {
    std::fprintf(stderr, "no step of the plan is quantizable\n");
    return 2;
  }

  const std::vector<double> int8_scores = EngineEvaluateMultiTask(engine, def.test, batch);
  const double int8_ms = MeasureEngineLatencyMs(engine, input, /*warmup=*/1, /*repeats=*/5);
  std::printf("latency (batch %lld): f32 %.3f ms -> int8 %.3f ms (%.2fx)\n",
              static_cast<long long>(batch), f32_ms, int8_ms,
              int8_ms > 0.0 ? f32_ms / int8_ms : 0.0);
  for (size_t t = 0; t < f32_scores.size(); ++t) {
    const std::string name = t < def.tasks.size() ? def.tasks[t].name : "task" + std::to_string(t);
    std::printf("  %-13s f32 %.3f -> int8 %.3f (drop %+.4f)\n", name.c_str(), f32_scores[t],
                int8_scores[t], f32_scores[t] - int8_scores[t]);
  }
  return 0;
}

// Lints one file through the unified analysis driver (see usage comment).
// `args` is everything after --verify: flags plus one input path.
int VerifyMode(const std::vector<std::string>& args) {
  using namespace gmorph;
  AnalysisOptions options;
  AnalysisFormat format = AnalysisFormat::kText;
  std::string path;
  for (const std::string& arg : args) {
    if (arg == "--list-rules") {
      std::fputs(ListRulesText().c_str(), stdout);
      return 0;
    }
    if (arg.rfind("--format=", 0) == 0) {
      const std::string value = arg.substr(9);
      if (value == "text") {
        format = AnalysisFormat::kText;
      } else if (value == "json") {
        format = AnalysisFormat::kJson;
      } else if (value == "sarif") {
        format = AnalysisFormat::kSarif;
      } else {
        std::fprintf(stderr, "verify: unknown --format '%s' (want text|json|sarif)\n",
                     value.c_str());
        return 2;
      }
    } else if (arg.rfind("--Werror=", 0) == 0) {
      options.werror.push_back(arg.substr(9));
    } else if (arg.rfind("--Wno=", 0) == 0) {
      options.wno.push_back(arg.substr(6));
    } else if (arg.rfind("--baseline=", 0) == 0) {
      options.baseline_path = arg.substr(11);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "verify: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else if (!path.empty()) {
      std::fprintf(stderr, "verify: more than one input file ('%s' and '%s')\n", path.c_str(),
                   arg.c_str());
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "verify: no input file (or use --list-rules)\n");
    return 2;
  }
  // The analysis layer cannot link the runtime; lowering verified graphs into
  // plans for the plan passes is injected here.
  options.plan_from_graph = [](const AbsGraph& graph, uint64_t seed) {
    Rng rng(seed);
    MultiTaskModel model(graph, rng);
    FusedEngine engine(&model);
    return engine.ExportPlan();
  };
  const AnalysisReport report = AnalyzeFile(path, options);
  std::fputs(RenderAnalysis(report, format).c_str(), stdout);
  return report.exit_code();
}

// Lowers the configured benchmark (or a saved fused graph) into an execution
// plan and writes it as a `gmorph-plan v1` text file — the artifact the
// analysis driver lints. `export_quantized = true` calibrates on a small
// representative split and applies int8 first, so the exported plan carries
// the mixed-precision step dtypes.
int ExportPlanMode(const gmorph::Config& config, const std::string& out_path) {
  using namespace gmorph;
  const uint64_t seed = static_cast<uint64_t>(config.GetInt("seed", 42));
  AbsGraph graph;
  std::string label;
  if (!BuildConfiguredGraph(config, &graph, &label)) {
    return 2;
  }
  Rng rng(seed);
  MultiTaskModel model(graph, rng);
  FusedEngine engine(&model);
  int quantized = 0;
  if (config.GetBool("export_quantized", false)) {
    const int calib_batches = static_cast<int>(config.GetInt("quant_calib_batches", 2));
    const int64_t calib_batch = config.GetInt("quant_calib_batch_size", 16);
    // Calibration needs representative inputs; materialize just enough of the
    // benchmark's train split to fill the calibration batches.
    BenchmarkScale scale;
    scale.train_size = std::max<int64_t>(1, calib_batches * calib_batch);
    scale.test_size = 1;
    scale.cnn_width = config.GetInt("cnn_width", 8);
    scale.noise_stddev = static_cast<float>(config.GetDouble("noise_stddev", 1.6));
    const int bench_index = static_cast<int>(config.GetInt("benchmark", 1));
    BenchmarkDef def = MakeBenchmark(bench_index, scale, seed);
    std::vector<Tensor> calib;
    int64_t start = 0;
    for (int b = 0; b < calib_batches && start < def.train.size(); ++b) {
      const int64_t count = std::min<int64_t>(calib_batch, def.train.size() - start);
      calib.push_back(def.train.InputBatch(start, count));
      start += count;
    }
    quantized = engine.Quantize(engine.Calibrate(calib));
    if (quantized == 0) {
      std::fprintf(stderr, "export-plan: no step of the plan is quantizable\n");
      return 2;
    }
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "export-plan: cannot write %s\n", out_path.c_str());
    return 2;
  }
  PlanToText(engine.ExportPlan(), out);
  if (!out) {
    std::fprintf(stderr, "export-plan: failed writing %s\n", out_path.c_str());
    return 2;
  }
  std::printf("exported plan for %s (%d step(s), %d int8) -> %s\n", label.c_str(),
              engine.num_steps(), quantized, out_path.c_str());
  return 0;
}

// Runs the real threaded server on the configured graph under open-loop
// Poisson load, with an optional mid-run hot-swap (see usage comment). Exits
// nonzero when any admitted request was lost — the bench/CI drop check.
int ServeMode(const gmorph::Config& config) {
  using namespace gmorph;
  AbsGraph graph;
  std::string label;
  if (!BuildConfiguredGraph(config, &graph, &label)) {
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(config.GetInt("seed", 42));
  const int num_replicas = static_cast<int>(config.GetInt("serve_replicas", 2));
  const int max_batch = static_cast<int>(config.GetInt("serve_max_batch", 8));
  const double qps = config.GetDouble("serve_qps", 500.0);
  const int num_requests = static_cast<int>(config.GetInt("serve_requests", 200));
  const double sla_ms = config.GetDouble("serve_sla_ms", 0.0);
  const bool do_swap = config.GetBool("serve_swap", true);
  const EngineKind kind = config.GetString("serve_engine", "fused") == "eager"
                              ? EngineKind::kEager
                              : EngineKind::kFused;
  GMORPH_CHECK(num_replicas >= 1 && max_batch >= 1 && num_requests >= 1 && qps > 0.0);

  std::printf("serving %s: %d replica(s), max_batch %d, %.0f qps x %d requests%s\n",
              label.c_str(), num_replicas, max_batch, qps, num_requests,
              do_swap ? ", hot-swap mid-run" : "");
  std::vector<EngineReplica> replicas;
  for (int i = 0; i < num_replicas; ++i) {
    replicas.push_back(MakeEngineReplica(kind, graph, seed + static_cast<uint64_t>(i)));
  }
  const Shape row = graph.node(graph.root()).output_shape;
  ReplicaPool pool(std::move(replicas), row, max_batch);
  const ServiceTimeTable table =
      CalibrateServiceTimes(*pool.engine(0), row, max_batch,
                            static_cast<int>(config.GetInt("calibration_runs", 3)));
  std::printf("calibrated service times (ms):");
  for (double ms : table.ms()) {
    std::printf(" %.3f", ms);
  }
  std::printf("\n");

  ServerOptions options;
  options.max_batch = max_batch;
  options.sla_ms = sla_ms;
  options.flight_recorder_path = g_flight_recorder_path;
  // Always record in serve mode (an event is one fetch_add + a slot write):
  // the lost-request dump below must have content even without the flag.
  StartFlightRecorder();
  ThreadedServer server(&pool, table, options);

  Rng rng(seed);
  const Tensor sample = Tensor::RandomGaussian(row, rng, 0.5f);
  const std::vector<double> arrivals = GenerateArrivalsMs(qps, num_requests, seed);
  const double t0 = server.NowMs();
  for (int i = 0; i < num_requests; ++i) {
    const double wait_ms = t0 + arrivals[static_cast<size_t>(i)] - server.NowMs();
    if (wait_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(wait_ms * 1000.0)));
    }
    server.Submit(&sample);
    if (do_swap && i == num_requests / 2) {
      EngineReplica retired = server.SwapReplica(
          0, MakeEngineReplica(kind, graph, seed + 1000));
      GMORPH_CHECK(static_cast<bool>(retired));
    }
  }
  server.Drain();
  server.Stop();

  const ServingStats stats = server.Stats();
  const int64_t lost = server.submitted() - server.completed() - server.shed();
  std::printf("served %lld request(s) in %d batch(es), shed %lld, swaps %lld, lost %lld\n",
              static_cast<long long>(server.completed()), stats.num_batches,
              static_cast<long long>(server.shed()),
              static_cast<long long>(pool.swap_count()), static_cast<long long>(lost));
  std::printf("throughput %.1f qps | latency ms p50 %.3f p95 %.3f p99 %.3f mean %.3f | "
              "mean batch %.2f\n",
              stats.throughput_qps, stats.p50_latency_ms, stats.p95_latency_ms,
              stats.p99_latency_ms, stats.mean_latency_ms, stats.mean_batch_size);
  if (lost != 0) {
    std::fprintf(stderr, "serve: %lld admitted request(s) were lost\n",
                 static_cast<long long>(lost));
    // The flight recorder is the forensic record for exactly this failure;
    // dump it even when the user did not ask for a path.
    const std::string dump = g_flight_recorder_path.empty() ? "gmorph_flight_lost.json"
                                                            : g_flight_recorder_path;
    if (WriteFlightRecorderJson(dump)) {
      std::fprintf(stderr, "serve: flight recorder dumped to %s\n", dump.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gmorph;
  // Observability flags are peeled off before mode parsing so they combine
  // with every mode; the env vars cover processes the CLI spawns indirectly.
  obs::InitTracingFromEnv();
  obs::InitMetricsFromEnv();
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      obs::WriteTraceJsonAtExit(argv[++i]);
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      obs::WriteMetricsJsonAtExit(argv[++i]);
    } else if (std::strncmp(argv[i], "--flight-recorder=", 18) == 0) {
      g_flight_recorder_path = argv[i] + 18;
      WriteFlightRecorderJsonAtExit(g_flight_recorder_path);
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc == 2 && std::strcmp(argv[1], "--print-default-config") == 0) {
    std::fputs(kDefaultConfig, stdout);
    return 0;
  }
  const bool dump_plan = argc == 3 && std::strcmp(argv[1], "--dump-plan") == 0;
  const bool profile = argc == 3 && std::strcmp(argv[1], "--profile") == 0;
  const bool autotune = argc == 3 && std::strcmp(argv[1], "--autotune") == 0;
  const bool quantize = argc == 3 && std::strcmp(argv[1], "--quantize") == 0;
  const bool verify = argc >= 2 && std::strcmp(argv[1], "--verify") == 0;
  const bool resume = argc == 4 && std::strcmp(argv[1], "--resume") == 0;
  const bool export_plan = argc == 4 && std::strcmp(argv[1], "--export-plan") == 0;
  const bool serve = argc == 3 && std::strcmp(argv[1], "--serve") == 0;
  if (argc != 2 && !dump_plan && !profile && !autotune && !quantize && !verify && !resume &&
      !export_plan && !serve) {
    std::fprintf(stderr,
                 "usage: %s [--trace <out.json>] [--metrics <out.json>]\n"
                 "                [--flight-recorder=<out.json>] <config-file>\n"
                 "       %s --resume <checkpoint> <config-file>\n"
                 "       %s --dump-plan <config-file>\n"
                 "       %s --profile <config-file>\n"
                 "       %s --autotune <config-file>\n"
                 "       %s --quantize <config-file>\n"
                 "       %s --export-plan <config-file> <out.plan>\n"
                 "       %s --serve <config-file>\n"
                 "       %s --verify [--list-rules] [--format=text|json|sarif]\n"
                 "                [--Werror=<rule|prefix>] [--Wno=<rule|prefix>]\n"
                 "                [--baseline=<file>]\n"
                 "                <graph|weights|plan|config|evalcache|checkpoint|tunedb|"
                 "quantrecipe|machine>\n"
                 "       %s --print-default-config > gmorph.cfg\n",
                 argv[0], argv[0], argv[0], argv[0], argv[0], argv[0], argv[0], argv[0],
                 argv[0], argv[0]);
    return 2;
  }
  if (verify) {
    try {
      return VerifyMode(std::vector<std::string>(argv + 2, argv + argc));
    } catch (const CheckError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  Config config;
  try {
    config = Config::FromFile(
        argv[resume                                                                     ? 3
             : (dump_plan || profile || autotune || quantize || export_plan || serve) ? 2
                                                                                        : 1]);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // Load the checkpoint before the (expensive) teacher pre-training so a
  // corrupt file fails fast with its diagnostics.
  SearchCheckpoint checkpoint;
  if (resume) {
    CheckpointLoadResult loaded = TryLoadCheckpoint(argv[2]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot resume from %s:\n%s", argv[2],
                   loaded.diagnostics.ToString().c_str());
      return 2;
    }
    checkpoint = std::move(*loaded.checkpoint);
  }

  // kernel_threads overrides GMORPH_NUM_THREADS / hardware concurrency.
  // Validated before the (expensive) teacher pre-training below.
  if (config.Has("kernel_threads")) {
    const int kernel_threads = static_cast<int>(config.GetInt("kernel_threads", 0));
    if (kernel_threads < 1) {
      std::fprintf(stderr, "config error: kernel_threads must be >= 1, got %d\n",
                   kernel_threads);
      return 2;
    }
    SetKernelThreads(kernel_threads);
  }

  if (dump_plan || profile || autotune || quantize || export_plan || serve) {
    try {
      return dump_plan   ? DumpPlanMode(config)
             : profile   ? ProfileMode(config)
             : autotune  ? AutotuneMode(config)
             : quantize  ? QuantizeMode(config)
             : serve     ? ServeMode(config)
                         : ExportPlanMode(config, argv[3]);
    } catch (const CheckError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  const int bench_index = static_cast<int>(config.GetInt("benchmark", 1));
  BenchmarkScale scale;
  scale.train_size = config.GetInt("train_size", 128);
  scale.test_size = config.GetInt("test_size", 64);
  scale.cnn_width = config.GetInt("cnn_width", 8);
  scale.noise_stddev = static_cast<float>(config.GetDouble("noise_stddev", 1.6));
  const uint64_t seed = static_cast<uint64_t>(config.GetInt("seed", 42));

  std::printf("building benchmark B%d and pre-training teachers...\n", bench_index);
  BenchmarkDef def = MakeBenchmark(bench_index, scale, seed);
  Rng rng(seed);
  std::vector<std::unique_ptr<TaskModel>> teachers;
  std::vector<TaskModel*> ptrs;
  for (size_t t = 0; t < def.tasks.size(); ++t) {
    teachers.push_back(std::make_unique<TaskModel>(def.tasks[t].model, rng));
    TeacherTrainOptions topts;
    topts.epochs = static_cast<int>(config.GetInt("teacher_epochs", 6));
    const double score = TrainTeacher(*teachers.back(), def.train, def.test, t, topts);
    std::printf("  %-13s %-13s %s = %.3f\n", def.tasks[t].name.c_str(),
                def.tasks[t].model.name.c_str(), MetricKindName(def.tasks[t].metric).c_str(),
                score);
    ptrs.push_back(teachers.back().get());
  }

  GMorphOptions options;
  options.accuracy_drop_threshold = config.GetDouble("accuracy_drop_threshold", 0.01);
  options.iterations = static_cast<int>(config.GetInt("iterations", 20));
  options.max_mutations_per_pass =
      static_cast<int>(config.GetInt("max_mutations_per_pass", 2));
  options.policy = config.GetString("policy", "sa") == "random" ? PolicyKind::kRandom
                                                                : PolicyKind::kSimulatedAnnealing;
  options.predictive_termination = config.GetBool("predictive_termination", true);
  options.rule_based_filtering = config.GetBool("rule_based_filtering", true);
  options.metric = config.GetString("metric", "latency") == "flops" ? OptimizeMetric::kFlops
                                                                    : OptimizeMetric::kLatency;
  options.finetune.max_epochs = static_cast<int>(config.GetInt("finetune_epochs", 6));
  options.finetune.eval_interval = static_cast<int>(config.GetInt("eval_interval", 2));
  options.finetune.batch_size = config.GetInt("batch_size", 32);
  options.finetune.lr = static_cast<float>(config.GetDouble("learning_rate", 1e-3));
  options.parallel_candidates = static_cast<int>(config.GetInt("parallel_candidates", 1));
  options.num_threads = static_cast<int>(config.GetInt("search_threads", 1));
  options.seed = seed;
  options.verbose = config.GetBool("verbose", true);
  options.use_eval_cache = config.GetBool("use_eval_cache", false);
  options.cache_dir = config.GetString("cache_dir", "");
  options.checkpoint_path = config.GetString("checkpoint_path", "");
  options.checkpoint_every = static_cast<int>(config.GetInt("checkpoint_every", 0));
  options.quant.enabled = config.GetBool("quantize_search", false);
  if (options.quant.enabled) {
    options.quant.calib_batches = static_cast<int>(config.GetInt("quant_calib_batches", 2));
    options.quant.calib_batch_size = config.GetInt("quant_calib_batch_size", 16);
    options.quant.drop_budget = config.GetDouble("quant_drop_budget", 0.01);
    options.quant_score = ScoreQuantizedEngine;
  }
  if (options.verbose) {
    SetLogLevel(LogLevel::kInfo);
  }
  if (resume && checkpoint.options_hash != SearchOptionsHash(options)) {
    std::fprintf(stderr,
                 "cannot resume from %s: the checkpoint was written under different search "
                 "options (hash %016llx, config gives %016llx)\n",
                 argv[2], static_cast<unsigned long long>(checkpoint.options_hash),
                 static_cast<unsigned long long>(SearchOptionsHash(options)));
    return 2;
  }

  if (resume) {
    std::printf("resuming at iteration %d of %d (drop < %.1f%%)...\n", checkpoint.next_iteration,
                options.iterations, options.accuracy_drop_threshold * 100);
  } else {
    std::printf("searching (%d iterations, drop < %.1f%%)...\n", options.iterations,
                options.accuracy_drop_threshold * 100);
  }
  GMorph gmorph(ptrs, &def.train, &def.test, options);
  GMorphResult result = resume ? gmorph.Resume(checkpoint) : gmorph.Run();

  std::printf("\nsearch finished in %.1fs: %.2f ms -> %.2f ms (%.2fx), FLOPs %.2fx\n",
              result.search_seconds, result.original_latency_ms, result.best_latency_ms,
              result.speedup,
              static_cast<double>(result.original_flops) /
                  static_cast<double>(std::max<int64_t>(1, result.best_flops)));
  std::printf("  %d finetuned, %d filtered, %d rejected, %d cache hit(s), %d checkpoint(s)\n",
              result.candidates_finetuned, result.candidates_filtered,
              result.candidates_rejected, result.cache_hits, result.checkpoints_written);
  std::printf(
      "  stage seconds: sample %.2f, verify %.2f, profile %.2f, finetune %.2f, score %.2f\n",
      result.stage_seconds.sample, result.stage_seconds.verify, result.stage_seconds.profile,
      result.stage_seconds.finetune, result.stage_seconds.score);
  for (size_t t = 0; t < def.tasks.size(); ++t) {
    std::printf("  %-13s teacher %.3f -> fused %.3f\n", def.tasks[t].name.c_str(),
                result.teacher_scores[t], result.best_task_scores[t]);
  }
  if (result.best_quant.has_value()) {
    const QuantOutcome& q = *result.best_quant;
    std::printf("  int8 plan: %d step(s) quantized, %.2f ms, worst drop vs f32 %+.4f [%s]\n",
                q.quantized_steps, q.latency_ms, q.max_drop,
                q.within_budget ? "within budget" : "over budget");
  }
  std::printf("\n%s", result.best_graph.ToString().c_str());

  const std::string graph_path = config.GetString("output_graph", "");
  if (!graph_path.empty()) {
    if (SaveGraph(graph_path, result.best_graph)) {
      std::printf("fused model written to %s\n", graph_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", graph_path.c_str());
    }
  }
  const std::string dot_path = config.GetString("output_dot", "");
  if (!dot_path.empty()) {
    if (WriteDotFile(dot_path, result.best_graph, def.id)) {
      std::printf("graphviz rendering written to %s (render: dot -Tpng %s)\n",
                  dot_path.c_str(), dot_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", dot_path.c_str());
    }
  }
  return 0;
}
