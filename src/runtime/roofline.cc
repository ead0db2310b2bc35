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
  // Every number, counts included, prints as %.6g.
  obs::JsonWriter w(obs::kCompactJson);
  w.BeginObject().Key("report").String("roofline");
  w.Key("batch").Number(static_cast<double>(report.batch)).Key("runs").Number(report.runs);
  w.Key("total_ms").Number(report.total_ms).Key("machine").BeginObject();
  w.Key("peak_gflops").Number(report.ceilings.peak_gflops);
  w.Key("triad_gbps").Number(report.ceilings.triad_gbps);
  w.Key("ridge_intensity").Number(report.ceilings.RidgeIntensity());
  w.Key("threads").Number(report.ceilings.threads).EndObject();
  w.Key("counters_available").Bool(report.counters_available);
  if (!report.counters_available) {
    w.Key("counters_error").String(report.counters_error);
  }
  w.Key("steps").BeginArray();
  for (const RooflineStep& s : report.steps) {
    w.BeginObject().Key("label").String(s.label).Key("solver").String(s.solver);
    w.Key("node").Number(s.node).Key("calls").Number(static_cast<double>(s.calls));
    w.Key("total_ms").Number(s.total_ms).Key("ms_per_call").Number(s.ms_per_call);
    w.Key("flops_per_call").Number(s.flops_per_call);
    w.Key("bytes_per_call").Number(s.bytes_per_call);
    w.Key("gflops").Number(s.gflops).Key("gbps").Number(s.gbps);
    w.Key("intensity").Number(s.intensity).Key("ipc").Number(s.ipc);
    w.Key("llc_miss_rate").Number(s.llc_miss_rate).Key("branch_mpki").Number(s.branch_mpki);
    w.Key("bound").String(s.bound).Key("pct_of_roof").Number(s.pct_of_roof).EndObject();
  }
  w.EndArray().Key("hot").BeginArray();
  for (const int i : report.hot) {
    w.Int(i);
  }
  w.EndArray().EndObject();
  return w.Take();
}

}  // namespace gmorph
