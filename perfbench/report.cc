#include "perfbench/report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

void Report::EndToEnd(const std::string& name, double value, const std::string& unit) {
  end_to_end.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value, const std::string& unit) {
  layers.push_back({name, value, unit});
}

void Report::Phase(const std::string& name, int64_t phase_attempted, int64_t phase_failed) {
  attempted += phase_attempted;
  failed += phase_failed;
  if (phase_failed != 0) {
    correct = false;
  }
  std::printf("phase %s attempted %lld failed %lld\n", name.c_str(),
              static_cast<long long>(phase_attempted), static_cast<long long>(phase_failed));
}

void Report::Fail(const std::string& what) {
  correct = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

const Metric* Report::Find(const std::string& name) const {
  for (const auto* list : {&end_to_end, &layers}) {
    for (const Metric& m : *list) {
      if (m.name == name) {
        return &m;
      }
    }
  }
  return nullptr;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"flops_speedup", "x"},
      {"p50_ms", "ms"},
      {"p90_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"int8_p50_ms", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"data.build_s", "s"},
      {"nn.teacher_train_s", "s"},
      {"core.sample_s", "s"},
      {"analysis.verify_s", "s"},
      {"core.profile_s", "s"},
      {"nn.finetune_worker_s", "s"},
      {"core.score_s", "s"},
      {"core.round_efficiency", "ratio"},
      {"core.candidates_sampled", "count"},
      {"core.candidates_duplicate", "count"},
      {"core.candidates_filtered", "count"},
      {"core.candidates_rejected", "count"},
      {"core.candidates_finetuned", "count"},
      {"core.candidates_met_target", "count"},
      {"core.terminated_early", "count"},
      {"core.useful_finetune_share", "ratio"},
      {"core.cache_hits", "count"},
      {"core.search_s", "s"},
      {"runtime.plan_build_ms", "ms"},
      {"runtime.replica_build_ms", "ms"},
      {"runtime.plan_steps", "count"},
      {"runtime.fallback_steps", "count"},
      {"runtime.step_ms.conv", "ms"},
      {"runtime.step_ms.pool", "ms"},
      {"runtime.step_ms.linear", "ms"},
      {"runtime.step_ms.module", "ms"},
      {"runtime.residual_share", "ratio"},
      {"runtime.alloc_bytes_per_run", "B"},
      {"runtime.b8_ms_per_sample", "ms"},
      {"runtime.eager_p50_ms", "ms"},
      {"runtime.run_p99_ms", "ms"},
      {"runtime.service_ms_b1", "ms"},
      {"runtime.service_ms_b8", "ms"},
      {"kernels.conv_gflops", "GFLOP/s"},
      {"kernels.resolve_db_hits", "count"},
      {"quant.calibrate_ms", "ms"},
      {"quant.quantize_ms", "ms"},
      {"quant.int8_steps", "count"},
      {"quant.int8_step_ms", "ms"},
      {"quant.int8_max_rel_err", "ratio"},
      {"serving.request_p50_ms", "ms"},
      {"serving.request_p90_ms", "ms"},
      {"serving.submit_us_p50", "us"},
      {"serving.queue_wait_p50_ms", "ms"},
      {"serving.queue_wait_p90_ms", "ms"},
      {"serving.request_p99_ms", "ms"},
      {"serving.mean_batch.moderate", "count"},
      {"serving.mean_batch.overload", "count"},
      {"serving.capacity_efficiency", "ratio"},
      {"serving.requests", "count"},
      {"serving.batches", "count"},
      {"serving.shed", "count"},
      {"serving.lost", "count"},
      {"serving.generator_late_p99_ms", "ms"},
      {"serving.generator_late_max_ms", "ms"},
      {"obs.trace_overhead_pct.p50_ms", "%"},
      {"obs.trace_overhead_pct.p90_ms", "%"},
      {"obs.trace_overhead_pct.throughput_per_s", "%"},
      {"obs.trace_overhead_pct.int8_p50_ms", "%"},
      {"obs.trace_overhead_pct.setup_s", "%"},
  };
  return names;
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ResultJson(const Report& report, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (report.correct && report.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
       << JsonNumber(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Tail SupportedTail(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double beyond = static_cast<double>(values.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) {
      tail.percentile = p;
    }
  }
  tail.value = Quantile(values, tail.percentile / 100.0);
  return tail;
}

void PrintTail(const std::string& name, const std::vector<double>& values,
               const std::string& unit) {
  const Tail t = SupportedTail(values);
  std::printf("tail %s p%g=%.4f %s n=%zu\n", name.c_str(), t.percentile, t.value, unit.c_str(),
              t.samples);
}

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RunOnOwnThread(const std::function<void()>& fn) {
  std::exception_ptr error;
  std::thread thread([&] {
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  });
  thread.join();
  if (error) {
    std::rethrow_exception(error);
  }
}

double StealMeter::Share() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  long long field = 0;
  long long total = 0;
  long long steal = 0;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    steal = i == 7 ? field : steal;
  }
  const long long d_total = total - total_;
  const long long d_steal = steal - steal_;
  total_ = total;
  steal_ = steal;
  return d_total > 0 ? static_cast<double>(d_steal) / static_cast<double>(d_total) : 0.0;
}

namespace {

std::string SpanName(const char* name, int64_t index) {
  if (!gmorph::obs::TraceEnabled()) {
    return std::string();
  }
  return std::string(name) + "#" + std::to_string(index);
}

}  // namespace

BenchSpan::BenchSpan(const char* name, int64_t index)
    : span_(SpanName(name, index), gmorph::obs::TraceCat::kBench) {}

}  // namespace perfbench
