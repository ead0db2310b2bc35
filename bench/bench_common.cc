#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "src/common/check.h"
#include "src/common/text_artifact.h"
#include "src/core/graph_io.h"
#include "src/core/model_parser.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/serialization.h"

namespace gmorph::bench {

double BenchScaleFactor() {
  static const double factor = [] {
    const char* env = std::getenv("GMORPH_BENCH_SCALE");
    if (env == nullptr) {
      return 1.0;
    }
    const double v = std::atof(env);
    return std::clamp(v > 0.0 ? v : 1.0, 0.25, 8.0);
  }();
  return factor;
}

int Scaled(int base, int min_value) {
  return std::max(min_value, static_cast<int>(base * BenchScaleFactor()));
}

BenchmarkScale DefaultScale() {
  BenchmarkScale s;
  s.train_size = Scaled(128);
  s.test_size = Scaled(160);
  s.cnn_width = 4;
  s.image_size = 32;
  // High enough that teachers land below 100% and accuracy drops are
  // measurable (the paper's tasks sit at 50-92%, Table 6), low enough that
  // teachers are strong distillation sources at this data scale.
  s.noise_stddev = 1.0f;
  return s;
}

PreparedBenchmark PrepareBenchmark(int index, uint64_t seed, int teacher_epochs) {
  PreparedBenchmark p;
  p.def = MakeBenchmark(index, DefaultScale(), seed);
  Rng rng(seed * 977 + 13);
  for (size_t t = 0; t < p.def.tasks.size(); ++t) {
    p.teachers.push_back(std::make_unique<TaskModel>(p.def.tasks[t].model, rng));
    TeacherTrainOptions opts;
    opts.epochs = teacher_epochs;
    const double score = TrainTeacher(*p.teachers.back(), p.def.train, p.def.test, t, opts);
    p.teacher_scores.push_back(score);
    p.teacher_ptrs.push_back(p.teachers.back().get());
  }
  return p;
}

GMorphOptions DefaultSearchOptions(double threshold, uint64_t seed) {
  GMorphOptions o;
  o.accuracy_drop_threshold = threshold;
  o.iterations = Scaled(4);
  o.max_mutations_per_pass = 1;  // deeper sharing accrues via elite chaining
  // FLOPs objective: deterministic under CPU contention (see SearchSummary).
  o.metric = OptimizeMetric::kFlops;
  // Recovering a real cross-branch share at this data scale takes ~8-24
  // epochs (mild candidates early-stop far sooner). eval_interval 3 is the
  // paper's delta; predictive termination can fire from epoch 12 on.
  o.finetune.max_epochs = 10;
  o.finetune.eval_interval = 3;
  o.finetune.batch_size = 16;
  o.finetune.lr = 3e-3f;
  // Stronger exploitation than the paper constants so the switch to elites
  // happens inside a short search budget (see sampling_policy.h).
  o.annealing.alpha = 0.85;
  o.annealing.initial_temp = 1.0;
  o.annealing.max_elites = 4;
  o.latency.measured_runs = 3;
  o.seed = seed;
  return o;
}

std::string CacheDir() {
  static const std::string dir = [] {
    std::string d = ResolveCacheDir();
    std::error_code ec;
    std::filesystem::create_directories(d, ec);
    return d;
  }();
  return dir;
}

namespace {

std::string ScaleTag() {
  const BenchmarkScale s = DefaultScale();
  std::ostringstream os;
  os << "s" << static_cast<int>(BenchScaleFactor() * 100) << "_n" << s.train_size << "_w"
     << s.cnn_width;
  return os.str();
}

constexpr int kTeacherEpochs = 6;

}  // namespace

PreparedBenchmark& GetBenchmark(int index) {
  static std::map<int, PreparedBenchmark> cache;
  auto it = cache.find(index);
  if (it != cache.end()) {
    return it->second;
  }
  const uint64_t seed = 1000 + static_cast<uint64_t>(index);
  PreparedBenchmark p;
  p.def = MakeBenchmark(index, DefaultScale(), seed);
  Rng rng(seed * 977 + 13);
  for (size_t t = 0; t < p.def.tasks.size(); ++t) {
    p.teachers.push_back(std::make_unique<TaskModel>(p.def.tasks[t].model, rng));
    TaskModel& teacher = *p.teachers.back();
    const std::string ckpt = CacheDir() + "/teacher_b" + std::to_string(index) + "_t" +
                             std::to_string(t) + "_" + ScaleTag() + ".bin";
    std::vector<std::vector<Tensor>> weights;
    bool loaded = false;
    if (LoadWeights(ckpt, weights) && weights.size() == teacher.num_blocks()) {
      try {
        teacher.ImportWeights(weights);
        loaded = true;
      } catch (const CheckError&) {
        loaded = false;  // stale checkpoint from an older format: retrain
      }
    }
    if (loaded) {
      p.teacher_scores.push_back(EvaluateTeacher(teacher, p.def.test, t));
    } else {
      TeacherTrainOptions opts;
      opts.epochs = kTeacherEpochs;
      p.teacher_scores.push_back(TrainTeacher(teacher, p.def.train, p.def.test, t, opts));
      SaveWeights(ckpt, teacher.ExportWeights());
    }
    p.teacher_ptrs.push_back(&teacher);
  }
  return cache.emplace(index, std::move(p)).first->second;
}

std::string VariantName(Variant v) {
  switch (v) {
    case Variant::kBase:
      return "GMorph";
    case Variant::kP:
      return "GMorph w P";
    case Variant::kPR:
      return "GMorph w P+R";
    case Variant::kRandom:
      return "Random";
  }
  return "?";
}

namespace {

std::string VariantTag(Variant v) {
  switch (v) {
    case Variant::kBase:
      return "base";
    case Variant::kP:
      return "p";
    case Variant::kPR:
      return "pr";
    case Variant::kRandom:
      return "rand";
  }
  return "x";
}

// Bumped whenever the summary layout changes; a version mismatch invalidates
// old cached summaries (they are recomputed, not misparsed).
constexpr const char* kSummaryVersion = "gmorph-summary-v2";

bool LoadSummary(const std::string& path, SearchSummary& s) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string version;
  size_t teachers = 0;
  size_t trace = 0;
  in >> version;
  if (version != kSummaryVersion) {
    return false;
  }
  in >> s.original_flops >> s.best_flops >> s.speedup >> s.search_seconds >>
      s.candidates_finetuned >> s.candidates_filtered >> s.cache_hits >> teachers >> trace >>
      s.best_graph_path;
  in >> s.stage_seconds.sample >> s.stage_seconds.verify >> s.stage_seconds.profile >>
      s.stage_seconds.finetune >> s.stage_seconds.score;
  if (!in) {
    return false;
  }
  s.teacher_scores.resize(teachers);
  s.best_task_scores.resize(teachers);
  for (auto& v : s.teacher_scores) {
    in >> v;
  }
  for (auto& v : s.best_task_scores) {
    in >> v;
  }
  s.trace.resize(trace);
  for (auto& point : s.trace) {
    int hit = 0;
    in >> point.elapsed_seconds >> point.best_flops >> hit;
    point.cache_hit = hit != 0;
  }
  return static_cast<bool>(in);
}

void SaveSummary(const std::string& path, const SearchSummary& s) {
  std::ofstream out(path);
  out << kSummaryVersion << "\n";
  out << s.original_flops << " " << s.best_flops << " " << s.speedup << " "
      << s.search_seconds << " " << s.candidates_finetuned << " " << s.candidates_filtered
      << " " << s.cache_hits << " " << s.teacher_scores.size() << " " << s.trace.size() << " "
      << s.best_graph_path << "\n";
  out << s.stage_seconds.sample << " " << s.stage_seconds.verify << " "
      << s.stage_seconds.profile << " " << s.stage_seconds.finetune << " "
      << s.stage_seconds.score << "\n";
  for (double v : s.teacher_scores) {
    out << v << " ";
  }
  out << "\n";
  for (double v : s.best_task_scores) {
    out << v << " ";
  }
  out << "\n";
  for (const auto& point : s.trace) {
    out << point.elapsed_seconds << " " << point.best_flops << " " << (point.cache_hit ? 1 : 0)
        << "\n";
  }
}

}  // namespace

SearchSummary RunSearchCached(int bench_index, double threshold, Variant variant) {
  std::ostringstream key;
  key << "search_b" << bench_index << "_t" << static_cast<int>(threshold * 1000) << "_"
      << VariantTag(variant) << "_" << ScaleTag();
  const std::string summary_path = CacheDir() + "/" + key.str() + ".txt";
  SearchSummary summary;
  if (LoadSummary(summary_path, summary)) {
    return summary;
  }

  PreparedBenchmark& p = GetBenchmark(bench_index);
  GMorphOptions options = DefaultSearchOptions(
      threshold, /*seed=*/static_cast<uint64_t>(bench_index) * 7919 + 17);
  options.predictive_termination = variant == Variant::kP || variant == Variant::kPR;
  options.rule_based_filtering = variant == Variant::kPR;
  if (variant == Variant::kRandom) {
    options.policy = PolicyKind::kRandom;
  }
  // Content-addressed evaluation cache: repeated suite runs (and overlapping
  // variants, which sample many identical candidates) skip re-fine-tuning.
  options.use_eval_cache = true;
  options.cache_dir = CacheDir();
  GMorph gmorph(p.teacher_ptrs, &p.def.train, &p.def.test, options);
  GMorphResult result = gmorph.Run();

  summary.original_flops = result.original_flops;
  summary.best_flops = result.best_flops;
  summary.speedup = static_cast<double>(result.original_flops) /
                    static_cast<double>(std::max<int64_t>(1, result.best_flops));
  summary.search_seconds = result.search_seconds;
  summary.candidates_finetuned = result.candidates_finetuned;
  summary.candidates_filtered = result.candidates_filtered;
  summary.cache_hits = result.cache_hits;
  summary.stage_seconds = result.stage_seconds;
  summary.teacher_scores = result.teacher_scores;
  summary.best_task_scores = result.best_task_scores;
  for (const IterationRecord& rec : result.trace) {
    summary.trace.push_back({rec.elapsed_seconds, rec.best_flops, rec.cache_hit});
  }
  summary.best_graph_path = CacheDir() + "/" + key.str() + "_graph.bin";
  SaveGraph(summary.best_graph_path, result.best_graph);
  SaveSummary(summary_path, summary);
  return summary;
}

AbsGraph OriginalGraph(int bench_index) {
  PreparedBenchmark& p = GetBenchmark(bench_index);
  return ParseTaskModels(
      std::vector<const TaskModel*>(p.teacher_ptrs.begin(), p.teacher_ptrs.end()));
}

LatencyPair MeasureSummaryLatency(int bench_index, const SearchSummary& summary) {
  Rng rng(37);
  AbsGraph original = OriginalGraph(bench_index);
  AbsGraph best;
  if (!LoadGraph(summary.best_graph_path, best)) {
    return {};
  }
  MultiTaskModel original_model(original, rng);
  MultiTaskModel best_model(best, rng);
  LatencyOptions opts;
  opts.measured_runs = 5;
  LatencyPair pair;
  pair.original_ms = MeasureLatencyMs(original_model, opts);
  pair.best_ms = MeasureLatencyMs(best_model, opts);
  return pair;
}

namespace {

std::string g_record_tmp_path;
std::string g_record_final_path;

void CommitTranscript() {
  if (g_record_tmp_path.empty()) {
    return;
  }
  std::fflush(stdout);
  std::error_code ec;
  std::filesystem::rename(g_record_tmp_path, g_record_final_path, ec);
}

}  // namespace

bool ReplayOrBeginRecord(const std::string& name) {
  const std::string path = CacheDir() + "/out_" + name + "_" + ScaleTag() + ".txt";
  std::ifstream cached(path);
  if (cached) {
    std::ostringstream buffer;
    buffer << cached.rdbuf();
    std::fputs(buffer.str().c_str(), stdout);
    std::fputs("(replayed cached transcript; delete the cache dir to recompute)\n", stdout);
    return true;
  }
  g_record_final_path = path;
  g_record_tmp_path = path + ".tmp";
  if (std::freopen(g_record_tmp_path.c_str(), "w", stdout) == nullptr) {
    g_record_tmp_path.clear();
    return false;  // recording unavailable; run normally
  }
  std::atexit(CommitTranscript);
  return false;
}

namespace {

// Arms tracing/metrics from GMORPH_TRACE / GMORPH_METRICS once per process
// and registers the metrics-snapshot trailer line. atexit ordering (LIFO)
// puts the trailer before ReplayOrBeginRecord's transcript commit, so
// recorded transcripts include it.
void InitObsOnce() {
  static const bool done = [] {
    obs::InitTracingFromEnv();
    obs::InitMetricsFromEnv();
    std::atexit([] {
      const std::string snapshot = obs::MetricsRegistry::Global().ToJson();
      EmitJsonLine(JsonLine().Key("metrics_snapshot").Raw(snapshot));
    });
    return true;
  }();
  (void)done;
}

}  // namespace

obs::JsonWriter JsonLine() {
  obs::JsonWriter line(obs::kSpacedJson);
  line.BeginObject();
  return line;
}

void EmitJsonLine(obs::JsonWriter& line) {
  InitObsOnce();
  std::printf("%s\n", line.EndObject().Take().c_str());
  std::fflush(stdout);
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  InitObsOnce();
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("(reproduces %s; scaled substrate — compare shapes/ratios, not absolute values;"
              " GMORPH_BENCH_SCALE=%.2f)\n\n",
              paper_ref.c_str(), BenchScaleFactor());
}

void PrintRow(const std::vector<std::string>& cells) {
  for (const std::string& cell : cells) {
    std::printf("%-13s", cell.c_str());
  }
  std::printf("\n");
}

std::string Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string BenchId(int index) {
  // append, not `"B" + std::to_string(index)`: GCC 12 reports a false
  // -Wrestrict on the inlined insert that operator+ performs.
  return std::string("B").append(std::to_string(index));
}

}  // namespace gmorph::bench
