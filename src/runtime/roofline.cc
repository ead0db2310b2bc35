#include "src/runtime/roofline.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "src/obs/json.h"
#include "src/obs/perf_counters.h"

namespace gmorph {
namespace {

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

void AppendJsonNumber(std::string& out, const char* key, double v, bool* first) {
  if (!*first) {
    out += ',';
  }
  *first = false;
  out += '"';
  out += key;
  out += "\":";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void AppendJsonString(std::string& out, const char* key, const std::string& v, bool* first) {
  if (!*first) {
    out += ',';
  }
  *first = false;
  out += '"';
  out += key;
  out += "\":";
  obs::AppendJsonString(out, v);
}

}  // namespace

RooflineReport BuildRooflineReport(const std::vector<FusedEngine::StepProfile>& profile,
                                   const kernels::MachineCeilings& ceilings, int64_t batch,
                                   int runs, int top_k) {
  RooflineReport report;
  report.ceilings = ceilings;
  report.counters_available = obs::PerfCountersAvailable();
  report.counters_error = obs::PerfCountersError();
  report.batch = batch;
  report.runs = runs;
  const double ridge = ceilings.RidgeIntensity();
  for (const FusedEngine::StepProfile& p : profile) {
    RooflineStep s;
    s.label = p.label;
    s.solver = p.solver;
    s.node = p.node;
    s.calls = p.calls;
    s.total_ms = p.total_ms;
    s.ms_per_call = p.calls > 0 ? p.total_ms / static_cast<double>(p.calls) : 0.0;
    s.flops_per_call = p.flops * static_cast<double>(batch);
    s.bytes_per_call = p.bytes * static_cast<double>(batch);
    if (s.ms_per_call > 0.0) {
      s.gflops = s.flops_per_call / (s.ms_per_call * 1e6);
      s.gbps = s.bytes_per_call / (s.ms_per_call * 1e6);
    }
    s.intensity = s.bytes_per_call > 0.0 ? s.flops_per_call / s.bytes_per_call : 0.0;
    if (p.counters.valid) {
      s.ipc = p.counters.Ipc();
      s.llc_miss_rate = p.counters.LlcMissRate();
      s.branch_mpki = p.counters.instructions > 0
                          ? 1000.0 * static_cast<double>(p.counters.branch_misses) /
                                static_cast<double>(p.counters.instructions)
                          : 0.0;
    }
    if (p.calls == 0) {
      s.bound = "idle";
    } else if (s.flops_per_call <= 0.0) {
      s.bound = "opaque";
    } else if (s.intensity < ridge) {
      s.bound = "memory";
      s.pct_of_roof =
          ceilings.triad_gbps > 0.0 ? 100.0 * s.gbps / ceilings.triad_gbps : 0.0;
    } else {
      s.bound = "compute";
      s.pct_of_roof =
          ceilings.peak_gflops > 0.0 ? 100.0 * s.gflops / ceilings.peak_gflops : 0.0;
    }
    report.total_ms += s.total_ms;
    report.steps.push_back(std::move(s));
  }
  std::vector<int> order(report.steps.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return report.steps[static_cast<size_t>(a)].total_ms >
           report.steps[static_cast<size_t>(b)].total_ms;
  });
  const int k = std::min<int>(top_k, static_cast<int>(order.size()));
  report.hot.assign(order.begin(), order.begin() + k);
  return report;
}

std::string RooflineReportText(const RooflineReport& report) {
  std::ostringstream os;
  os << "roofline: batch=" << report.batch << " runs=" << report.runs << " ceilings: "
     << Fmt("%.1f", report.ceilings.peak_gflops) << " GFLOP/s, "
     << Fmt("%.1f", report.ceilings.triad_gbps) << " GB/s (ridge "
     << Fmt("%.2f", report.ceilings.RidgeIntensity()) << " flop/B, threads "
     << report.ceilings.threads << ")\n";
  if (report.counters_available) {
    os << "counters: available\n";
  } else {
    os << "counters: unavailable (" << report.counters_error << ")\n";
  }
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %9s %9s %8s %8s %7s %6s %8s %7s %-8s %6s\n",
                "step", "total_ms", "ms/call", "GFLOP/s", "GB/s", "flop/B", "IPC",
                "LLCmiss%", "brMPKI", "bound", "%roof");
  os << line;
  for (const RooflineStep& s : report.steps) {
    std::string label = s.label;
    if (label.size() > 28) {
      label.resize(28);
    }
    std::snprintf(line, sizeof(line),
                  "%-28s %9.3f %9.4f %8.2f %8.2f %7.2f %6.2f %8.2f %7.2f %-8s %6.1f\n",
                  label.c_str(), s.total_ms, s.ms_per_call, s.gflops, s.gbps, s.intensity,
                  s.ipc, 100.0 * s.llc_miss_rate, s.branch_mpki, s.bound.c_str(),
                  s.pct_of_roof);
    os << line;
  }
  os << "total: " << Fmt("%.3f", report.total_ms) << " ms across "
     << report.steps.size() << " steps\n";
  os << "hot steps:";
  for (const int i : report.hot) {
    const RooflineStep& s = report.steps[static_cast<size_t>(i)];
    os << "  [" << i << "] " << s.label << " (" << Fmt("%.3f", s.total_ms) << " ms, "
       << s.bound << ")";
  }
  os << "\n";
  return os.str();
}

std::string RooflineReportJson(const RooflineReport& report) {
  std::string out = "{";
  bool first = true;
  AppendJsonString(out, "report", "roofline", &first);
  AppendJsonNumber(out, "batch", static_cast<double>(report.batch), &first);
  AppendJsonNumber(out, "runs", report.runs, &first);
  AppendJsonNumber(out, "total_ms", report.total_ms, &first);
  out += ",\"machine\":{";
  bool mfirst = true;
  AppendJsonNumber(out, "peak_gflops", report.ceilings.peak_gflops, &mfirst);
  AppendJsonNumber(out, "triad_gbps", report.ceilings.triad_gbps, &mfirst);
  AppendJsonNumber(out, "ridge_intensity", report.ceilings.RidgeIntensity(), &mfirst);
  AppendJsonNumber(out, "threads", report.ceilings.threads, &mfirst);
  out += '}';
  out += ",\"counters_available\":";
  out += report.counters_available ? "true" : "false";
  if (!report.counters_available) {
    out += ',';
    bool efirst = true;
    AppendJsonString(out, "counters_error", report.counters_error, &efirst);
  }
  out += ",\"steps\":[";
  for (size_t i = 0; i < report.steps.size(); ++i) {
    const RooflineStep& s = report.steps[i];
    if (i > 0) {
      out += ',';
    }
    out += '{';
    bool sf = true;
    AppendJsonString(out, "label", s.label, &sf);
    AppendJsonString(out, "solver", s.solver, &sf);
    AppendJsonNumber(out, "node", s.node, &sf);
    AppendJsonNumber(out, "calls", static_cast<double>(s.calls), &sf);
    AppendJsonNumber(out, "total_ms", s.total_ms, &sf);
    AppendJsonNumber(out, "ms_per_call", s.ms_per_call, &sf);
    AppendJsonNumber(out, "flops_per_call", s.flops_per_call, &sf);
    AppendJsonNumber(out, "bytes_per_call", s.bytes_per_call, &sf);
    AppendJsonNumber(out, "gflops", s.gflops, &sf);
    AppendJsonNumber(out, "gbps", s.gbps, &sf);
    AppendJsonNumber(out, "intensity", s.intensity, &sf);
    AppendJsonNumber(out, "ipc", s.ipc, &sf);
    AppendJsonNumber(out, "llc_miss_rate", s.llc_miss_rate, &sf);
    AppendJsonNumber(out, "branch_mpki", s.branch_mpki, &sf);
    AppendJsonString(out, "bound", s.bound, &sf);
    AppendJsonNumber(out, "pct_of_roof", s.pct_of_roof, &sf);
    out += '}';
  }
  out += "],\"hot\":[";
  for (size_t i = 0; i < report.hot.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(report.hot[i]);
  }
  out += "]}";
  return out;
}

}  // namespace gmorph
