// The deployment every workload measures: the workload's fused model on a
// FusedEngine in f32 and, after Calibrate/Quantize, in int8, driven by one
// caller in a closed loop. Three phases (f32 batch 1, f32 batch 8, int8
// batch 1) run interleaved in rounds, so drift within a run (on a shared
// host, mostly CPU time stolen by other guests) hits all three alike; each
// figure is the median over rounds.
//
// Outputs are checked as they are produced: every kCheckEvery-th f32 output
// against an EagerEngine reference computed at set-up, every int8 output
// bitwise against the first int8 run of its input, and each input's first
// int8 output within a relative L2 error of its f32 reference.
#ifndef GMORPH_PERFBENCH_ENGINE_PHASES_H_
#define GMORPH_PERFBENCH_ENGINE_PHASES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/report.h"
#include "perfbench/workloads.h"
#include "src/core/abs_graph.h"
#include "src/core/multitask_model.h"
#include "src/runtime/fused_engine.h"

namespace perfbench {

class EnginePhases {
 public:
  // Builds the f32 and the int8 engine, each over its own model of `graph`
  // (weights the graph does not pin are drawn from `weight_seed`), records
  // the reference outputs, calibrates int8 on `calibration` and runs
  // `warmup_runs` of each batch-1 phase and an eighth as many at batch 8.
  // Inputs are cycled round-robin. `index` numbers the set-up's spans.
  EnginePhases(const gmorph::AbsGraph& graph, uint64_t weight_seed,
               std::vector<gmorph::Tensor> inputs_b1, std::vector<gmorph::Tensor> inputs_b8,
               const std::vector<gmorph::Tensor>& calibration, int warmup_runs, int64_t index);

  // Runs each of the three phases for `phase_seconds`; failed checks go to
  // `report`.
  void Round(double phase_seconds, Report& report);

  // Counts each phase's operations and failures, and reports p50_ms, p90_ms
  // and int8_p50_ms plus the runtime, kernels and quant layer metrics.
  // throughput_per_s is the workload's to report (see B8SamplesPerSecond).
  void Finish(Report& report);

  // Median over rounds of samples/s in the closed-loop batch-8 phase.
  double B8SamplesPerSecond() const { return Median(b8_tput_rounds_); }

  gmorph::FusedEngine& fused() { return *fused_; }

 private:
  struct Phase {
    std::vector<double> all_ms;         // every Run()'s wall time
    std::vector<double> p50_rounds;
    std::vector<double> p90_rounds;
    int64_t runs = 0;
    int64_t failed = 0;
  };

  template <typename Check>
  void Timed(gmorph::FusedEngine& engine, const std::vector<gmorph::Tensor>& inputs,
             double seconds, Phase& phase, Check check);

  std::unique_ptr<gmorph::MultiTaskModel> model_;
  std::unique_ptr<gmorph::MultiTaskModel> int8_model_;
  std::unique_ptr<gmorph::FusedEngine> fused_;
  std::unique_ptr<gmorph::FusedEngine> int8_;
  std::vector<gmorph::Tensor> inputs_b1_;
  std::vector<gmorph::Tensor> inputs_b8_;
  std::vector<std::vector<gmorph::Tensor>> want_b1_;  // eager reference outputs
  std::vector<std::vector<gmorph::Tensor>> want_b8_;
  std::vector<std::vector<gmorph::Tensor>> int8_first_;  // first int8 output per input
  std::vector<double> int8_rel_err_;  // per input, against the eager f32 output
  double plan_build_ms_ = 0.0;
  double calibrate_ms_ = 0.0;
  double quantize_ms_ = 0.0;
  int int8_steps_ = 0;

  Phase f32_b1_;
  Phase f32_b8_;
  Phase int8_b1_;
  std::vector<double> b8_tput_rounds_;
  std::vector<double> steal_rounds_;
  StealMeter steal_;
  StepSplit f32_split_;
  StepSplit int8_split_;
  int64_t alloc_bytes_ = 0;
  int64_t span_index_ = 0;
};

}  // namespace perfbench

#endif  // GMORPH_PERFBENCH_ENGINE_PHASES_H_
