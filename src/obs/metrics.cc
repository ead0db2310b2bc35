#include "src/obs/metrics.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "src/common/check.h"
#include "src/obs/json.h"
#include "src/obs/proc_stats.h"

namespace gmorph::obs {
namespace {

// CAS add/min/max on atomic<double> (fetch_add on floating atomics is spotty
// across standard libraries; the CAS loop is portable and contention here is
// negligible).
void AtomicAdd(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  GMORPH_CHECK(!bounds_.empty(), "histogram needs at least one bucket bound");
  for (size_t i = 1; i < bounds_.size(); ++i) {
    GMORPH_CHECK(bounds_[i] > bounds_[i - 1], "histogram bounds must be strictly increasing");
  }
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
}

void Histogram::Observe(double value) {
  const size_t bucket =
      static_cast<size_t>(std::lower_bound(bounds_.begin(), bounds_.end(), value) -
                          bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    // First observation seeds min/max (0-initialized atomics would otherwise
    // clamp all-positive samples at 0). Racy first-few observations still
    // converge: the seeding store is followed by the same CAS min/max below.
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  }
  AtomicAdd(sum_, value);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

double Histogram::Min() const { return min_.load(std::memory_order_relaxed); }
double Histogram::Max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::Mean() const {
  const int64_t n = Count();
  return n > 0 ? Sum() / static_cast<double>(n) : 0.0;
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::Quantile(double q) const {
  const std::vector<int64_t> counts = BucketCounts();
  int64_t total = 0;
  for (int64_t c : counts) {
    total += c;
  }
  if (total == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, nearest-rank with interpolation
  // inside the covering bucket).
  const double rank = q * static_cast<double>(total - 1) + 1.0;
  int64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    const double before = static_cast<double>(cumulative);
    cumulative += counts[i];
    if (rank <= static_cast<double>(cumulative)) {
      // Linear interpolation across the bucket's span, clamped to the
      // observed extremes so single-bucket distributions stay exact.
      const double lo = i == 0 ? Min() : bounds_[i - 1];
      const double hi = i < bounds_.size() ? bounds_[i] : Max();
      const double frac = (rank - before) / static_cast<double>(counts[i]);
      const double est = lo + (hi - lo) * frac;
      return std::clamp(est, Min(), Max());
    }
  }
  return Max();
}

void Histogram::Reset() {
  for (size_t i = 0; i < bounds_.size() + 1; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> DefaultLatencyBucketsMs() {
  std::vector<double> bounds;
  for (double b = 0.001; b < 2e5; b *= 2.0) {
    bounds.push_back(b);
  }
  return bounds;
}

// ---- Registry ----

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();  // leaked: usable from atexit hooks
  return *impl;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto& slot = i.counters[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto& slot = i.gauges[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name, std::vector<double> bounds) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto& slot = i.histograms[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(bounds.empty() ? DefaultLatencyBucketsMs()
                                                      : std::move(bounds));
  }
  return *slot;
}

std::string MetricsRegistry::ToJson() const {
  // Refresh the proc.* memory gauges first (GetGauge takes the registry
  // mutex, so this must happen before the snapshot lock below) — every
  // snapshot then carries current RSS figures without per-site wiring.
  if (this == &Global()) {
    UpdateProcessMemoryGauges();
  }
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  JsonWriter w(kCompactJson);
  w.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, counter] : i.counters) {
    w.Key(name).Int(counter->Value());
  }
  w.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, gauge] : i.gauges) {
    w.Key(name).Number(gauge->Value());
  }
  w.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, hist] : i.histograms) {
    w.Key(name).BeginObject().Key("count").Int(hist->Count()).Key("sum").Number(hist->Sum());
    w.Key("min").Number(hist->Min()).Key("max").Number(hist->Max());
    w.Key("mean").Number(hist->Mean()).Key("p50").Number(hist->Quantile(0.50));
    w.Key("p95").Number(hist->Quantile(0.95)).Key("p99").Number(hist->Quantile(0.99));
    w.EndObject();
  }
  w.EndObject().EndObject();
  return w.Take();
}

void MetricsRegistry::Reset() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  for (auto& [name, counter] : i.counters) {
    counter->Reset();
  }
  for (auto& [name, gauge] : i.gauges) {
    gauge->Reset();
  }
  for (auto& [name, hist] : i.histograms) {
    hist->Reset();
  }
}

namespace {

std::string RenderMetricsLine() { return MetricsRegistry::Global().ToJson() + "\n"; }

}  // namespace

void WriteMetricsJsonAtExit(const std::string& path) {
  WriteJsonFileAtExit(path, RenderMetricsLine);
}

bool InitMetricsFromEnv() {
  static const bool armed = ArmFromEnv("GMORPH_METRICS", WriteMetricsJsonAtExit);
  return armed;
}

}  // namespace gmorph::obs
