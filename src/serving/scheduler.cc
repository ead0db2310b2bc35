#include "src/serving/scheduler.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/obs/trace.h"

namespace gmorph {

ServiceTimeTable::ServiceTimeTable(std::vector<double> ms) : ms_(std::move(ms)) {
  GMORPH_CHECK(!ms_.empty(), "service-time table must have at least batch size 1");
  min_ms_ = ms_.front();
  for (double m : ms_) {
    GMORPH_CHECK(m > 0.0, "service times must be positive");
    min_ms_ = std::min(min_ms_, m);
  }
}

double ServiceTimeTable::BatchMs(int batch) const {
  GMORPH_CHECK(batch >= 1 && batch <= max_batch());
  return ms_[static_cast<size_t>(batch - 1)];
}

ServiceTimeTable CalibrateServiceTimes(InferenceEngine& engine, const Shape& per_sample_input,
                                       int max_batch, int repeats, int warmup) {
  GMORPH_CHECK(max_batch >= 1 && repeats >= 1);
  obs::TraceSpan calibrate_span("serving/calibrate", obs::TraceCat::kServing);
  std::vector<double> service(static_cast<size_t>(max_batch));
  for (int b = 1; b <= max_batch; ++b) {
    // One preallocated input per batch size, reused across every calibration
    // run — measured times then exclude input-allocation noise and the
    // engine's steady-state (warmed binding) path is what gets calibrated.
    const Tensor input = Tensor::Zeros(per_sample_input.WithBatch(b));
    service[static_cast<size_t>(b - 1)] = MeasureEngineLatencyMs(engine, input, warmup, repeats);
  }
  return ServiceTimeTable(std::move(service));
}

std::vector<double> GenerateArrivalsMs(double arrival_qps, int num_requests, uint64_t seed) {
  GMORPH_CHECK(arrival_qps > 0.0 && num_requests > 0);
  Rng rng(seed);
  std::vector<double> arrival(static_cast<size_t>(num_requests));
  double t = 0.0;
  const double mean_gap_ms = 1000.0 / arrival_qps;
  for (auto& a : arrival) {
    double u = rng.NextDouble();
    while (u <= 1e-12) {
      u = rng.NextDouble();
    }
    t += -std::log(u) * mean_gap_ms;
    a = t;
  }
  return arrival;
}

std::vector<double> GenerateBurstyArrivalsMs(double mean_qps, double burst_factor,
                                             double phase_ms, int num_requests, uint64_t seed) {
  GMORPH_CHECK(mean_qps > 0.0 && num_requests > 0);
  GMORPH_CHECK(burst_factor >= 1.0 && phase_ms > 0.0);
  Rng rng(seed);
  std::vector<double> arrival(static_cast<size_t>(num_requests));
  double t = 0.0;
  bool burst = true;  // start hot, like real diurnal traces replayed from a peak
  double phase_end = phase_ms;
  for (auto& a : arrival) {
    const double rate = burst ? mean_qps * burst_factor : mean_qps / burst_factor;
    double u = rng.NextDouble();
    while (u <= 1e-12) {
      u = rng.NextDouble();
    }
    t += -std::log(u) * (1000.0 / rate);
    while (t > phase_end) {
      burst = !burst;
      phase_end += phase_ms;
    }
    a = t;
  }
  return arrival;
}

bool DeadlineUnmeetable(double now_ms, double deadline_ms, int queued_ahead,
                        const ServiceTimeTable& table, int max_batch, int servers) {
  GMORPH_CHECK(!table.empty());
  GMORPH_CHECK(queued_ahead >= 0 && servers >= 1);
  const int cap = std::max(1, std::min(max_batch, table.max_batch()));
  // Optimistic schedule: the queue ahead packs into completely full batches
  // spread evenly over all replicas, every batch round (including this
  // request's own) runs at the table's fastest service time, and every server
  // is free right now.
  const double batches_ahead = std::floor(static_cast<double>(queued_ahead) / cap);
  const double rounds_ahead = std::floor(batches_ahead / servers);
  const double earliest_completion = now_ms + (rounds_ahead + 1.0) * table.MinMs();
  return earliest_completion > deadline_ms;
}

ServingStats StatsBuilder::Finalize(double makespan_ms, const ServiceTimeTable& table) const {
  ServingStats stats;
  stats.service_time_ms = table.ms();
  stats.num_batches = num_batches_;
  stats.num_completed = static_cast<int>(latencies_.size());
  stats.num_shed = num_shed_;
  if (latencies_.empty()) {
    return stats;
  }
  std::vector<double> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (double l : sorted) {
    sum += l;
  }
  auto percentile = [&](double p) {
    const size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
  };
  stats.mean_latency_ms = sum / static_cast<double>(latencies_.size());
  stats.p50_latency_ms = percentile(0.50);
  stats.p95_latency_ms = percentile(0.95);
  stats.p99_latency_ms = percentile(0.99);
  if (num_batches_ > 0) {
    stats.mean_batch_size =
        static_cast<double>(served_total_) / static_cast<double>(num_batches_);
  }
  stats.throughput_qps = makespan_ms > 0.0
                             ? static_cast<double>(served_total_) / (makespan_ms / 1000.0)
                             : 0.0;
  return stats;
}

ServingMetrics& ServingMetrics::Get() {
  static ServingMetrics* metrics = new ServingMetrics{
      obs::GetHistogram("serving.request_latency_ms"),
      obs::GetHistogram("serving.batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256}),
      obs::GetHistogram("serving.queue_depth",
                        {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
      obs::GetHistogram("serving.queue_wait_ms"),
      obs::GetCounter("serving.requests"),
      obs::GetCounter("serving.batches"),
      obs::GetCounter("serving.shed"),
      obs::GetCounter("serving.engine_swaps"),
  };
  return *metrics;
}

void NameServingTraceLanes() {
  for (int l = 0; l < kServingNumRequestLanes; ++l) {
    obs::SetVirtualLaneName(kServingRequestLaneBase + l, "serve/requests-" + std::to_string(l));
  }
}

void EmitRequestSpan(double anchor_us, double arrival_ms, double latency_ms,
                     int64_t request_index) {
  obs::RecordManualSpan(
      "request", obs::TraceCat::kServing, anchor_us + arrival_ms * 1e3, latency_ms * 1e3,
      kServingRequestLaneBase + static_cast<int>(request_index % kServingNumRequestLanes));
}

}  // namespace gmorph
