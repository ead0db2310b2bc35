#include <algorithm>
#include <string>

#include "perfbench/workloads.h"
#include "src/obs/proc_stats.h"

namespace perfbench {

namespace {

bool StartsWith(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void StepSplit::Add(const StepSplit& other) {
  conv_ms += other.conv_ms;
  pool_ms += other.pool_ms;
  linear_ms += other.linear_ms;
  module_ms += other.module_ms;
  other_ms += other.other_ms;
  conv_flops = other.conv_flops;
}

StepSplit StepSplit::PerRun(int64_t runs) const {
  const double n = static_cast<double>(std::max<int64_t>(1, runs));
  StepSplit s = *this;
  s.conv_ms /= n;
  s.pool_ms /= n;
  s.linear_ms /= n;
  s.module_ms /= n;
  s.other_ms /= n;
  return s;
}

// Step labels are set by the plan lowering: "<tag> a->b k.." for folded
// convolutions, "linear"/"head"/"adapter.linear" for GEMMs, "maxpool",
// "gap" and "meanpool" for pools, and "<block> (module)" for fallbacks.
StepSplit SplitProfile(const std::vector<gmorph::FusedEngine::StepProfile>& profile) {
  StepSplit split;
  for (const gmorph::FusedEngine::StepProfile& step : profile) {
    const std::string& label = step.label;
    if (EndsWith(label, " (module)")) {
      split.module_ms += step.total_ms;
    } else if (StartsWith(label, "conv") || StartsWith(label, "res.") ||
               StartsWith(label, "adapter.conv")) {
      split.conv_ms += step.total_ms;
      split.conv_flops += step.flops;
    } else if (StartsWith(label, "linear") || StartsWith(label, "head") ||
               StartsWith(label, "adapter.linear")) {
      split.linear_ms += step.total_ms;
    } else if (StartsWith(label, "maxpool") || StartsWith(label, "gap") ||
               StartsWith(label, "meanpool")) {
      split.pool_ms += step.total_ms;
    } else {
      split.other_ms += step.total_ms;
    }
  }
  return split;
}

void ReportStepSplit(const StepSplit& split, Report& report) {
  report.Layer("runtime.step_ms.conv", split.conv_ms, "ms");
  report.Layer("runtime.step_ms.pool", split.pool_ms, "ms");
  report.Layer("runtime.step_ms.linear", split.linear_ms, "ms");
  report.Layer("runtime.step_ms.module", split.module_ms, "ms");
}

double PeakRssMb() {
  gmorph::obs::ProcessMemory mem;
  if (!gmorph::obs::ReadProcessMemory(&mem)) {
    return 0.0;
  }
  return static_cast<double>(mem.peak_rss_bytes) / (1024.0 * 1024.0);
}

}  // namespace perfbench
