// Shared plumbing of the end-to-end benchmark: run settings, the metric
// report and its result line, order statistics, and the benchmark's own
// trace spans.
#ifndef GMORPH_PERFBENCH_REPORT_H_
#define GMORPH_PERFBENCH_REPORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

struct Settings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // fresh per run; everything the run writes goes here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Everything one pass of a workload measured. End-to-end metrics form the
// untraced result line; layer metrics form the traced one.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;

  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  // Counts one phase's operations and prints "phase <name> attempted N failed M".
  void Phase(const std::string& name, int64_t attempted, int64_t failed);
  // Records a failed output check (also flips `correct`).
  void Fail(const std::string& what);
  const Metric* Find(const std::string& name) const;
};

// Every end-to-end metric the untraced run reports, in output order, with
// its unit. Every workload measures each of them.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames();

// Every layer metric the traced run reports, in output order, with its unit.
// A workload fills the ones its layers exercise; the rest read 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string ResultJson(const Report& report, const std::vector<Metric>& metrics);

// ---- Order statistics ----

double Median(std::vector<double> values);
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

// The highest of p50/p90/p99/p99.9 that still has at least ten samples
// beyond it, with its value and the sample count.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  size_t samples = 0;
};
Tail SupportedTail(const std::vector<double>& values);
// Prints "tail <name> p<P>=<value> <unit> n=<count>".
void PrintTail(const std::string& name, const std::vector<double>& values,
               const std::string& unit);

double NowSeconds();  // steady clock

// Runs `fn` on a thread of its own, waits for it and rethrows what it threw.
// Set-up runs this way so that its spans keep their own trace ring: the
// measured loop records ~40 engine-step spans per Run() and wraps the
// calling thread's ring many times over.
void RunOnOwnThread(const std::function<void()>& fn);

// CPU time the hypervisor stole from this guest, as a share of all CPU time
// of all CPUs ("steal" in /proc/stat), between successive Share() calls.
// Reads 0 where /proc/stat is unavailable.
class StealMeter {
 public:
  StealMeter() { Share(); }
  double Share();

 private:
  long long steal_ = 0;
  long long total_ = 0;
};

// ---- Trace spans ----

// A span in the "bench" category named "<layer>/<what>#<index>", where the
// index counts operations of that name within the run. A no-op while
// tracing is off.
class BenchSpan {
 public:
  BenchSpan(const char* name, int64_t index);

 private:
  gmorph::obs::TraceSpan span_;
};

}  // namespace perfbench

#endif  // GMORPH_PERFBENCH_REPORT_H_
