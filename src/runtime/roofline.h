// Roofline attribution over a FusedEngine step profile.
//
// Combines three ingredients into one per-step report:
//   wall time + calls      — the engine's existing step profile,
//   hardware counters      — per-step perf_event deltas (when available),
//   flops / bytes          — the planner's per-step cost model,
// against the machine's measured ceilings (kernels::MachineCeilings): each
// step's arithmetic intensity (flop/byte) is compared to the ridge point
// peak_gflops / triad_gbps and the step is classified compute-bound or
// memory-bound with its percent-of-roof. A step without a cost model (flops
// 0) would be labeled "opaque" rather than misattributed; every step the
// planner emits today has one.
//
// Counters may be unavailable (perf_event_open denied); the report then
// carries counters_available = false with the reason and every derived
// counter column reads 0 — the time/flops/roofline half is unaffected.
#ifndef GMORPH_SRC_RUNTIME_ROOFLINE_H_
#define GMORPH_SRC_RUNTIME_ROOFLINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernels/machine.h"
#include "src/runtime/fused_engine.h"

namespace gmorph {

struct RooflineStep {
  std::string label;
  std::string solver;
  int node = -1;
  int64_t calls = 0;
  double total_ms = 0.0;
  double ms_per_call = 0.0;
  double flops_per_call = 0.0;  // batch applied
  double bytes_per_call = 0.0;
  double gflops = 0.0;          // achieved
  double gbps = 0.0;            // achieved logical traffic rate
  double intensity = 0.0;       // flop / byte
  // Derived from the counter deltas; 0 when counters were unavailable.
  double ipc = 0.0;
  double llc_miss_rate = 0.0;        // LLC load misses / LLC loads
  double branch_mpki = 0.0;          // branch misses per kilo-instruction
  // "compute" | "memory" | "opaque" (no cost model) | "idle" (never ran).
  std::string bound;
  double pct_of_roof = 0.0;  // achieved rate / binding ceiling, in percent
};

struct RooflineReport {
  kernels::MachineCeilings ceilings;
  bool counters_available = false;
  std::string counters_error;  // why, when unavailable
  int64_t batch = 1;
  int runs = 0;
  double total_ms = 0.0;             // sum over steps
  std::vector<RooflineStep> steps;   // plan order
  std::vector<int> hot;              // top-k step indices by total_ms
};

// Builds the report from an engine profile taken over `runs` executions at
// `batch`. `top_k` bounds the hot list (clamped to the step count).
RooflineReport BuildRooflineReport(const std::vector<FusedEngine::StepProfile>& profile,
                                   const kernels::MachineCeilings& ceilings, int64_t batch,
                                   int runs, int top_k = 5);

// Per-step text table (fixed-width, one line per step, hot list + ceilings
// in the footer).
std::string RooflineReportText(const RooflineReport& report);

// Single JSON object: machine ceilings, counter availability, per-step
// records, and the hot list.
std::string RooflineReportJson(const RooflineReport& report);

}  // namespace gmorph

#endif  // GMORPH_SRC_RUNTIME_ROOFLINE_H_
