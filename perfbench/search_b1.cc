// search-b1: the paper's headline search (GMorph "w P+R") on B1 —
// Age/Gender/Ethnicity over three VGG-13s with a 2% accuracy-drop limit —
// followed by the engine phases (engine_phases.h) on the graph it found.
//
// Every run does identical work. The search optimizes FLOPs, so it samples,
// filters and fine-tunes the same candidates each time; a latency objective
// would rank candidates by noisy wall-clock and wander. Its dataset,
// teachers and candidate stream come from kSeedOfRecord rather than the run
// seed, because a search's path follows its data: across seeds 1-5 a
// nine-iteration search fine-tuned 8-9 candidates in 11.4-13.3 s and ended
// anywhere from 1.00x to 1.70x fewer FLOPs. The run seed picks the inputs
// the found graph is measured and checked on.
//
// Set-up is what a user does before serving the first inference: build the
// data, train the teachers, search, and build and warm the engines. The
// search is most of it, so setup_s is the search's gate; core.search_s
// times the search alone. Set-up repeats kSetups times and every repetition
// must walk the same candidates. Almost all of its time is distillation
// fine-tuning in nn/tensor/kernels plus the core pipeline.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/engine_phases.h"
#include "perfbench/workloads.h"
#include "src/common/parallel_for.h"
#include "src/core/finetune.h"
#include "src/core/gmorph.h"
#include "src/data/benchmarks.h"
#include "src/data/eval.h"
#include "src/data/teacher.h"

namespace perfbench {

namespace {

using namespace gmorph;

constexpr int kBenchmarkIndex = 1;
constexpr double kDropThreshold = 0.02;
constexpr int kThreads = 3;      // search workers and the search's kernel threads
constexpr int kIterations = 6;  // two rounds of three candidates
constexpr uint64_t kSeedOfRecord = 3;
constexpr int kSetups = 2;  // set-ups (searches) per run; setup_s is their median
constexpr int kWarmupRuns = 300;  // per engine phase, part of set-up
constexpr int kRounds = 24;
constexpr int kInputs = 8;  // distinct inputs cycled per engine phase

BenchmarkScale Scale() {
  BenchmarkScale s;
  s.train_size = 128;
  s.test_size = 160;
  s.cnn_width = 4;
  s.image_size = 32;
  s.noise_stddev = 1.0f;
  return s;
}

GMorphOptions SearchOptions(uint64_t seed) {
  GMorphOptions o;
  o.accuracy_drop_threshold = kDropThreshold;
  o.iterations = kIterations;
  o.max_mutations_per_pass = 1;
  o.predictive_termination = true;
  o.rule_based_filtering = true;
  o.metric = OptimizeMetric::kFlops;
  o.finetune.max_epochs = 10;
  o.finetune.eval_interval = 3;
  o.finetune.batch_size = 16;
  o.finetune.lr = 3e-3f;
  o.annealing.alpha = 0.85;
  o.annealing.initial_temp = 1.0;
  o.annealing.max_elites = 4;
  o.latency.measured_runs = 3;
  o.parallel_candidates = kThreads;
  o.num_threads = kThreads;
  o.use_eval_cache = false;
  o.seed = Rng::MixSeed(seed, 3);
  return o;
}

struct Prepared {
  BenchmarkDef def;
  std::vector<std::unique_ptr<TaskModel>> teachers;
  double build_s = 0.0;
  double train_s = 0.0;
};

Prepared Prepare(uint64_t seed, int64_t index) {
  Prepared p;
  const double t0 = NowSeconds();
  {
    BenchSpan span("data/build", index);
    p.def = MakeBenchmark(kBenchmarkIndex, Scale(), Rng::MixSeed(seed, 1));
  }
  const double t1 = NowSeconds();
  Rng rng(Rng::MixSeed(seed, 2));
  for (size_t t = 0; t < p.def.tasks.size(); ++t) {
    BenchSpan span("nn/teacher_train", index * 10 + static_cast<int64_t>(t));
    p.teachers.push_back(std::make_unique<TaskModel>(p.def.tasks[t].model, rng));
    TeacherTrainOptions opts;
    opts.epochs = 6;
    TrainTeacher(*p.teachers.back(), p.def.train, p.def.test, t, opts);
  }
  p.build_s = t1 - t0;
  p.train_s = NowSeconds() - t1;
  return p;
}

// Candidate counts that must repeat exactly between searches of one seed.
std::vector<int64_t> Signature(const GMorphResult& r) {
  std::vector<int64_t> sig = {r.best_flops, r.candidates_finetuned, r.candidates_filtered,
                              r.candidates_rejected, r.cache_hits};
  for (const IterationRecord& rec : r.trace) {
    sig.push_back(rec.candidate_flops);
    sig.push_back(rec.met_target ? 1 : 0);
    sig.push_back(rec.terminated_early ? 1 : 0);
  }
  return sig;
}

// Verifies the best graph and rescores it on the test split. Returns the
// problems found. The found graph's engine outputs are checked by the
// engine phases.
std::vector<std::string> CheckResult(const GMorphResult& result, const MultiTaskDataset& test) {
  std::vector<std::string> problems;
  Rng rng(Rng::MixSeed(kSeedOfRecord, 4));
  MultiTaskModel model(result.best_graph, rng);
  const std::vector<Tensor> logits = PredictAllTasks(model, test);
  std::vector<double> rescored;
  for (size_t t = 0; t < logits.size() && t < test.tasks.size(); ++t) {
    rescored.push_back(ComputeMetric(logits[t], test.tasks[t]));
  }
  SearchResultValid(result.best_graph, result.teacher_scores, rescored, kDropThreshold,
                    &problems);
  return problems;
}

// Engine inputs: test rows from an offset the run seed picks; calibration
// uses train rows of the same distribution.
std::optional<EnginePhases> Deploy(const AbsGraph& graph, const BenchmarkDef& def,
                                   uint64_t seed, int64_t index) {
  Rng pick(Rng::MixSeed(seed, 5));
  const int64_t start = pick.NextInt(static_cast<int>(def.test.size()) - 9 * kInputs + 1);
  std::vector<Tensor> inputs_b1, inputs_b8;
  for (int i = 0; i < kInputs; ++i) {
    inputs_b1.push_back(def.test.InputBatch(start + i, 1));
    inputs_b8.push_back(def.test.InputBatch(start + 8 * (i + 1), 8));
  }
  std::optional<EnginePhases> engines;
  engines.emplace(graph, Rng::MixSeed(kSeedOfRecord, 4), std::move(inputs_b1),
                  std::move(inputs_b8),
                  std::vector<Tensor>{def.train.InputBatch(0, 16), def.train.InputBatch(16, 16)},
                  kWarmupRuns, index);
  return engines;
}

}  // namespace

void RunSearchB1(const Settings& settings, Report& report) {
  std::vector<double> setup_s, build_s, train_s, search_s;
  std::vector<GMorphResult> results;
  std::optional<EnginePhases> engines;
  int64_t failed = 0;
  for (int i = 0; i < kSetups; ++i) {
    engines.reset();
    RunOnOwnThread([&] {
      // Teachers train on one kernel thread: on a shared host, a three-thread
      // fork/join per op waits on whichever vCPU is being stolen, and their
      // training time spread 2.1-4.7 s across ten runs.
      SetKernelThreads(1);
      const double t0 = NowSeconds();
      Prepared prepared = Prepare(kSeedOfRecord, i);
      std::vector<TaskModel*> teachers;
      for (auto& t : prepared.teachers) {
        teachers.push_back(t.get());
      }
      SetKernelThreads(kThreads);
      GMorph gmorph(teachers, &prepared.def.train, &prepared.def.test,
                    SearchOptions(kSeedOfRecord));
      const double t1 = NowSeconds();
      {
        BenchSpan span("core/search", i);
        results.push_back(gmorph.Run());
      }
      const double t2 = NowSeconds();
      SetKernelThreads(1);

      const GMorphResult& r = results.back();
      std::vector<std::string> problems;
      {
        BenchSpan span("analysis/result_check", i);
        problems = CheckResult(r, prepared.def.test);
      }
      if (i > 0 && Signature(r) != Signature(results.front())) {
        problems.push_back("search " + std::to_string(i) + " took a different path than search 0");
      }
      for (const std::string& p : problems) {
        report.Fail(p);
      }
      failed += problems.empty() ? 0 : 1;

      const double t3 = NowSeconds();
      engines = Deploy(r.best_graph, prepared.def, settings.seed, i);
      setup_s.push_back((t2 - t0) + (NowSeconds() - t3));
      search_s.push_back(t2 - t1);
      build_s.push_back(prepared.build_s);
      train_s.push_back(prepared.train_s);
      std::printf("set-up %d: search %.3f s on %d threads, FLOPs %lld -> %lld, finetuned %d "
                  "filtered %d\n",
                  i, search_s.back(), kThreads, static_cast<long long>(r.original_flops),
                  static_cast<long long>(r.best_flops), r.candidates_finetuned,
                  r.candidates_filtered);
    });
  }
  report.Phase("search", static_cast<int64_t>(results.size()), failed);
  std::printf("search-b1: %d iterations, seed of record %llu, evaluation cache off; engines on "
              "%d kernel thread(s)\n",
              kIterations, static_cast<unsigned long long>(kSeedOfRecord), KernelThreads());

  for (int round = 0; round < kRounds; ++round) {
    engines->Round(settings.seconds / (3.0 * kRounds), report);
  }
  engines->Finish(report);

  const GMorphResult& r = results.front();
  report.EndToEnd("throughput_per_s", engines->B8SamplesPerSecond(), "1/s");
  report.EndToEnd("flops_speedup",
                  static_cast<double>(r.original_flops) /
                      static_cast<double>(std::max<int64_t>(1, r.best_flops)),
                  "x");
  report.EndToEnd("setup_s", Median(setup_s), "s");

  // Stage seconds, counts and round efficiency of the first search (every
  // search walks the same candidates).
  report.Layer("data.build_s", Median(build_s), "s");
  report.Layer("nn.teacher_train_s", Median(train_s), "s");
  report.Layer("core.search_s", Median(search_s), "s");
  report.Layer("core.sample_s", r.stage_seconds.sample, "s");
  report.Layer("analysis.verify_s", r.stage_seconds.verify, "s");
  report.Layer("core.profile_s", r.stage_seconds.profile, "s");
  report.Layer("nn.finetune_worker_s", r.stage_seconds.finetune, "s");
  report.Layer("core.score_s", r.stage_seconds.score, "s");
  // Rounds are synchronous: each lasts as long as its slowest candidate.
  double worker_s = 0.0;
  double round_wall_s = 0.0;
  for (size_t i = 0; i < r.trace.size(); i += kThreads) {
    double slowest = 0.0;
    for (size_t j = i; j < std::min(r.trace.size(), i + kThreads); ++j) {
      worker_s += r.trace[j].finetune_seconds;
      slowest = std::max(slowest, r.trace[j].finetune_seconds);
    }
    round_wall_s += slowest;
  }
  report.Layer("core.round_efficiency",
               round_wall_s > 0.0 ? worker_s / (kThreads * round_wall_s) : 0.0, "ratio");
  int64_t duplicate = 0;
  int64_t met = 0;
  int64_t early = 0;
  for (const IterationRecord& rec : r.trace) {
    duplicate += rec.duplicate ? 1 : 0;
    met += rec.met_target ? 1 : 0;
    early += rec.terminated_early ? 1 : 0;
  }
  report.Layer("core.candidates_sampled", static_cast<double>(r.trace.size()), "count");
  report.Layer("core.candidates_duplicate", static_cast<double>(duplicate), "count");
  report.Layer("core.candidates_filtered", r.candidates_filtered, "count");
  report.Layer("core.candidates_rejected", r.candidates_rejected, "count");
  report.Layer("core.candidates_finetuned", r.candidates_finetuned, "count");
  report.Layer("core.candidates_met_target", static_cast<double>(met), "count");
  report.Layer("core.terminated_early", static_cast<double>(early), "count");
  report.Layer("core.useful_finetune_share",
               r.candidates_finetuned > 0
                   ? static_cast<double>(met) / static_cast<double>(r.candidates_finetuned)
                   : 0.0,
               "ratio");
  report.Layer("core.cache_hits", r.cache_hits, "count");
  if (r.cache_hits != 0) {
    report.Fail("the evaluation cache served " + std::to_string(r.cache_hits) + " candidates");
  }
}

}  // namespace perfbench
