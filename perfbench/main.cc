// perfbench: the end-to-end benchmark program.
//
//   perfbench --workload <search-b1|infer-b1|serve-b6> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints the resolved settings, one "metric <name> <value> <unit>" line per
// metric and, last, the result line. With --trace 0 the result carries the
// end-to-end metrics. With --trace 1 the workload runs twice, untraced and
// then traced: the result carries the layer metrics of the traced pass plus
// obs.trace_overhead_pct for each timed end-to-end metric, and the trace is
// written to <workdir>/trace.json.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/kernels/tune_db.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

extern char** environ;

namespace perfbench {

namespace {

// Inherited GMORPH_* variables (thread count, tuning DB, cache dir, tracing,
// metrics, verification, perf counters, log level) would change what the
// library does; drop them all before the first library call reads one.
void ClearGmorphEnvironment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("GMORPH_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
  }
}

bool ParseArgs(int argc, char** argv, Settings* s) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      s->workload = value;
    } else if (flag == "--seed") {
      s->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      s->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      s->trace = value == "1";
    } else if (flag == "--workdir") {
      s->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !s->workload.empty() && s->seconds > 0.0 && !s->workdir.empty();
}

using WorkloadFn = void (*)(const Settings&, Report&);

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "search-b1") {
    return RunSearchB1;
  }
  if (name == "infer-b1") {
    return RunInferB1;
  }
  if (name == "serve-b6") {
    return RunServeB6;
  }
  return nullptr;
}

// Runs one pass and adds what every workload reports.
Report RunPass(WorkloadFn fn, const Settings& settings) {
  gmorph::obs::GetCounter("kernels.resolve_db_hits").Reset();
  Report report;
  fn(settings, report);
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  const int64_t db_hits = gmorph::obs::GetCounter("kernels.resolve_db_hits").Value();
  report.Layer("kernels.resolve_db_hits", static_cast<double>(db_hits), "count");
  if (db_hits != 0) {
    report.Fail("kernel resolution consulted a tuning DB " + std::to_string(db_hits) + " times");
  }
  return report;
}

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %s %.6g %s\n", kind, m.name.c_str(), m.value, m.unit.c_str());
  }
}

// Worsening of each timed end-to-end metric under tracing, in percent. The
// timed metrics are those LayerMetricNames() lists an overhead entry for.
void AddTraceOverhead(const Report& untraced, Report& traced) {
  const auto& names = LayerMetricNames();
  for (const Metric& base : untraced.end_to_end) {
    const std::string key = "obs.trace_overhead_pct." + base.name;
    const Metric* with = traced.Find(base.name);
    const bool timed = std::any_of(names.begin(), names.end(),
                                   [&](const auto& entry) { return entry.first == key; });
    if (!timed || with == nullptr || base.value == 0.0) {
      continue;
    }
    const double change = (with->value - base.value) / base.value * 100.0;
    traced.Layer(key, base.name == "throughput_per_s" ? -change : change, "%");
  }
}

// The untraced result: every end-to-end metric in the fixed order. Returns
// false, naming the culprit on stderr, when the workload left one out or
// reported it in another unit.
bool EndToEndResult(const Report& report, std::vector<Metric>* out) {
  for (const auto& [name, unit] : EndToEndMetricNames()) {
    const Metric* m = report.Find(name);
    if (m == nullptr || m->unit != unit) {
      std::fprintf(stderr, "workload did not report end-to-end metric %s in %s\n", name.c_str(),
                   unit.c_str());
      return false;
    }
    out->push_back(*m);
  }
  return true;
}

// The traced result: every layer metric in the fixed order, 0 where the
// workload's layers did no such work.
std::vector<Metric> LayerResult(const Report& report) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : LayerMetricNames()) {
    const Metric* m = report.Find(name);
    out.push_back({name, m != nullptr ? m->value : 0.0, unit});
  }
  return out;
}

}  // namespace

int Main(int argc, char** argv) {
  ClearGmorphEnvironment();
  Settings settings;
  if (!ParseArgs(argc, argv, &settings)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <search-b1|infer-b1|serve-b6> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir>\n");
    return 2;
  }
  const WorkloadFn fn = FindWorkload(settings.workload);
  if (fn == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", settings.workload.c_str());
    return 2;
  }
  if (chdir(settings.workdir.c_str()) != 0) {
    std::fprintf(stderr, "cannot enter workdir '%s'\n", settings.workdir.c_str());
    return 2;
  }
  gmorph::obs::SetCurrentThreadName("bench-main");
  std::printf("settings workload=%s seed=%llu seconds=%g trace=%d nproc=%u\n",
              settings.workload.c_str(), static_cast<unsigned long long>(settings.seed),
              settings.seconds, settings.trace ? 1 : 0, std::thread::hardware_concurrency());
  std::printf("build %s\n", gmorph::kernels::BuildFingerprint().c_str());

  Report untraced = RunPass(fn, settings);
  std::vector<Metric> end_to_end;
  if (!EndToEndResult(untraced, &end_to_end)) {
    return 1;
  }
  PrintMetrics("end_to_end", end_to_end);
  if (!settings.trace) {
    std::fflush(stdout);
    std::printf("%s\n", ResultJson(untraced, end_to_end).c_str());
    return 0;
  }

  gmorph::obs::StartTracing();
  Report traced = RunPass(fn, settings);
  gmorph::obs::StopTracing();
  const std::string trace_path = settings.workdir + "/trace.json";
  if (!gmorph::obs::WriteTraceJson(trace_path)) {
    traced.Fail("could not write " + trace_path);
  }
  std::printf("trace %s events=%zu dropped=%zu\n", trace_path.c_str(),
              gmorph::obs::TraceEventCount(), gmorph::obs::TraceDroppedCount());
  AddTraceOverhead(untraced, traced);
  traced.attempted += untraced.attempted;
  traced.failed += untraced.failed;
  traced.correct = traced.correct && untraced.correct;
  const std::vector<Metric> layers = LayerResult(traced);
  PrintMetrics("layer", layers);
  std::fflush(stdout);
  std::printf("%s\n", ResultJson(traced, layers).c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
