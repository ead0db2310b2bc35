// The benchmark's three workloads. Each runs one pass (set-up, measurement,
// output checks) under the settings' seed and time budget and fills the
// report with every end-to-end metric. Why each workload exists, and which
// layer it loads, is in perfbench/README.md.
#ifndef GMORPH_PERFBENCH_WORKLOADS_H_
#define GMORPH_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "perfbench/report.h"
#include "src/runtime/fused_engine.h"

namespace perfbench {

// GMorph "w P+R" search on B1 at a fixed budget, FLOPs objective, then the
// engine phases on the graph it found.
void RunSearchB1(const Settings& settings, Report& report);
// The engine phases on a fixed-structure B1 fusion.
void RunInferB1(const Settings& settings, Report& report);
// Open-loop serving of a fixed-structure B6 fusion on the threaded server,
// interleaved with the engine phases on the same graph.
void RunServeB6(const Settings& settings, Report& report);

// Step time of a FusedEngine split by step kind (FusedEngine::Profile()).
struct StepSplit {
  double conv_ms = 0.0;
  double pool_ms = 0.0;
  double linear_ms = 0.0;
  double module_ms = 0.0;
  double other_ms = 0.0;
  double conv_flops = 0.0;  // per sample per Run(), summed over conv steps
  double total_ms() const { return conv_ms + pool_ms + linear_ms + module_ms + other_ms; }
  // Sums the times; conv_flops is a per-Run property and is kept.
  void Add(const StepSplit& other);
  // The times divided by `runs` (at least 1).
  StepSplit PerRun(int64_t runs) const;
};
// Classifies every step of the profile by its label and sums its time.
StepSplit SplitProfile(const std::vector<gmorph::FusedEngine::StepProfile>& profile);

// Records the step split as runtime.step_ms.* layer metrics.
void ReportStepSplit(const StepSplit& split, Report& report);

// Peak resident set size in MB (VmHWM), 0 when /proc is unreadable.
double PeakRssMb();

}  // namespace perfbench

#endif  // GMORPH_PERFBENCH_WORKLOADS_H_
