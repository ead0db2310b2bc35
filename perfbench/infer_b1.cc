// infer-b1: the engine phases (engine_phases.h) on a fixed fusion of B1:
// three VGG-13s after kMutations sharing mutations, a shared trunk and then
// three branches, on one kernel thread.
//
// All of the work is runtime plan execution, the conv and pool kernels and
// quant: no module fallbacks, no allocation per Run(), no queue, no search.
// A second kernel thread would add the pool's fork/join, but on a shared
// host that join waits on whichever vCPU the hypervisor is stealing: in the
// same minutes, batch-1 p90 read 4.7-6.3 ms on two threads and 1.34-1.36 ms
// on one. The kernel pool is loaded by search-b1's serial search phases.
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "perfbench/engine_phases.h"
#include "perfbench/workloads.h"
#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/core/model_parser.h"
#include "src/core/mutation.h"
#include "src/data/benchmarks.h"

namespace perfbench {

namespace {

using namespace gmorph;

constexpr int kThreads = 1;  // kernel threads, the caller included
constexpr int kMutations = 4;
// The sharing mutations are drawn from this fixed stream, not from the run
// seed, so every seed executes the same plan; the seed drives weights,
// calibration data and inputs.
constexpr uint64_t kStructureSeed = 1;
constexpr int kSetups = 5;        // set-ups per run; setup_s is their median
constexpr int kWarmupRuns = 300;  // per phase, part of set-up
constexpr int kRounds = 24;
constexpr int kInputs = 8;  // distinct inputs cycled per phase

struct Built {
  double flops_speedup = 0.0;
  std::optional<EnginePhases> engines;
};

void Build(uint64_t seed, int64_t index, Built& b) {
  BenchmarkScale scale;
  scale.train_size = 32;
  scale.test_size = 8 * (kInputs + 1);
  BenchmarkDef def;
  {
    BenchSpan span("data/build", index);
    def = MakeBenchmark(1, scale, Rng::MixSeed(seed, 1));
  }
  Rng weights(Rng::MixSeed(seed, 2));
  std::vector<std::unique_ptr<TaskModel>> tasks;
  std::vector<const TaskModel*> task_ptrs;
  for (const BenchmarkTask& task : def.tasks) {
    tasks.push_back(std::make_unique<TaskModel>(task.model, weights));
    task_ptrs.push_back(tasks.back().get());
  }
  const AbsGraph original = ParseTaskModels(task_ptrs);
  Rng structure(kStructureSeed);
  std::optional<AbsGraph> mutated =
      SampleMutatePass(original, kMutations, ShapeSimilarity::kSimilar, structure);
  GMORPH_CHECK(mutated.has_value(), "no sharing mutation applies to B1");
  b.flops_speedup =
      static_cast<double>(original.TotalFlops()) / static_cast<double>(mutated->TotalFlops());

  // Inputs are test rows, calibration uses train rows: one distribution.
  std::vector<Tensor> inputs_b1, inputs_b8;
  for (int i = 0; i < kInputs; ++i) {
    inputs_b1.push_back(def.test.InputBatch(i, 1));
    inputs_b8.push_back(def.test.InputBatch(8 * (i + 1), 8));
  }
  b.engines.emplace(*mutated, Rng::MixSeed(seed, 3), std::move(inputs_b1), std::move(inputs_b8),
                    std::vector<Tensor>{def.train.InputBatch(0, 16), def.train.InputBatch(16, 16)},
                    kWarmupRuns, index);
}

}  // namespace

void RunInferB1(const Settings& settings, Report& report) {
  SetKernelThreads(kThreads);

  std::vector<double> setup_s;
  Built built;
  for (int i = 0; i < kSetups; ++i) {
    built.engines.reset();
    RunOnOwnThread([&] {
      const double t0 = NowSeconds();
      Build(settings.seed, i, built);
      setup_s.push_back(NowSeconds() - t0);
    });
  }
  EnginePhases& engines = *built.engines;
  std::printf("infer-b1: %d kernel thread(s), fused FLOPs %.4fx fewer\n", KernelThreads(),
              built.flops_speedup);

  for (int round = 0; round < kRounds; ++round) {
    engines.Round(settings.seconds / (3.0 * kRounds), report);
  }
  engines.Finish(report);
  report.EndToEnd("throughput_per_s", engines.B8SamplesPerSecond(), "1/s");
  report.EndToEnd("flops_speedup", built.flops_speedup, "x");
  report.EndToEnd("setup_s", Median(setup_s), "s");
}

}  // namespace perfbench
