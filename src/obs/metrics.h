// Process-wide metrics: named counters, gauges, and fixed-bucket latency
// histograms with p50/p95/p99 quantile readout, feeding a JSON snapshot
// exporter.
//
// Naming scheme (DESIGN.md "Observability"): dot-separated
// "<area>.<metric>[_<unit>]" — e.g. "search.cache_hits",
// "serving.request_latency_ms", "engine.runs". Instruments are created on
// first lookup and live for the process lifetime, so hot paths should resolve
// the reference once and record through it (recording itself is atomic and
// lock-free; only the name lookup takes the registry mutex).
#ifndef GMORPH_SRC_OBS_METRICS_H_
#define GMORPH_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gmorph::obs {

class Counter {
 public:
  void Increment(int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: `bounds` are the inclusive upper edges of the first
// N buckets (must be strictly increasing); one overflow bucket catches the
// rest. Observe() is lock-free (relaxed atomic adds plus CAS loops for
// sum/min/max); quantiles interpolate linearly inside the covering bucket and
// clamp to the observed min/max, so the estimate is never off by more than
// one bucket width.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Min() const;
  double Max() const;
  double Mean() const;
  // q in [0, 1]; returns 0 when empty.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<int64_t> BucketCounts() const;  // bounds().size() + 1 entries

  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// Exponential latency buckets in milliseconds: 1us .. ~134s, factor 2.
std::vector<double> DefaultLatencyBucketsMs();

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Creates on first lookup; the returned reference is stable for the process
  // lifetime. A histogram's bucket layout is fixed by its first lookup.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name, std::vector<double> bounds = {});

  // Single-line JSON snapshot:
  //   {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
  //    "sum":..,"min":..,"max":..,"mean":..,"p50":..,"p95":..,"p99":..}}}
  std::string ToJson() const;

  // Zeroes every registered instrument (tests; instruments stay registered).
  void Reset();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

// Shorthands resolving through the global registry.
inline Counter& GetCounter(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name);
}
inline Gauge& GetGauge(const std::string& name) {
  return MetricsRegistry::Global().GetGauge(name);
}
inline Histogram& GetHistogram(const std::string& name, std::vector<double> bounds = {}) {
  return MetricsRegistry::Global().GetHistogram(name, std::move(bounds));
}

// If GMORPH_METRICS=<path> is set: registers an atexit hook writing the
// global registry's JSON snapshot there. Idempotent; returns true when armed.
bool InitMetricsFromEnv();

// Writes the snapshot to `path` at process exit (gmorph_cli --metrics).
void WriteMetricsJsonAtExit(const std::string& path);

}  // namespace gmorph::obs

#endif  // GMORPH_SRC_OBS_METRICS_H_
