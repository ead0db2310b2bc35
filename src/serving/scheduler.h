// Scheduling policy of the threaded server (server.h), which serves
// `gmorph_cli --serve`, bench/serving_throughput and perfbench's serve-b6.
//
// Everything policy-shaped lives here: arrival-schedule generation, the
// calibrated service-time table (one calibration path, CalibrateServiceTimes),
// batch forming, SLA-aware admission (shed a request whose deadline is
// provably unmeetable from the calibrated service times), the stats
// aggregation that turns per-request latencies into ServingStats, and the obs
// instruments / trace lanes the server records through.
#ifndef GMORPH_SRC_SERVING_SCHEDULER_H_
#define GMORPH_SRC_SERVING_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "src/obs/metrics.h"
#include "src/runtime/engine.h"

namespace gmorph {

struct ServingStats {
  double throughput_qps = 0.0;  // completed requests / makespan
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double mean_batch_size = 0.0;
  int num_batches = 0;
  int num_completed = 0;
  int num_shed = 0;  // rejected by SLA admission
  // service_time_ms[b-1] = calibrated latency of batch size b.
  std::vector<double> service_time_ms;
};

// Calibrated per-batch-size service times; the server's admission bound and
// the benches' capacity estimates are priced from one of these.
class ServiceTimeTable {
 public:
  ServiceTimeTable() = default;
  // ms[b-1] = service time of batch size b; every entry must be > 0.
  explicit ServiceTimeTable(std::vector<double> ms);

  bool empty() const { return ms_.empty(); }
  int max_batch() const { return static_cast<int>(ms_.size()); }
  // batch in [1, max_batch()].
  double BatchMs(int batch) const;
  // Fastest entry: the sound lower bound admission control prices batches at.
  double MinMs() const { return min_ms_; }
  const std::vector<double>& ms() const { return ms_; }

 private:
  std::vector<double> ms_;
  double min_ms_ = 0.0;
};

// Measures the real per-batch-size latency of `engine` for batch sizes
// 1..max_batch (median of `repeats` timed runs after `warmup`, one
// preallocated input per batch size reused across every run so measured times
// exclude allocation noise). This is the single calibration path.
ServiceTimeTable CalibrateServiceTimes(InferenceEngine& engine, const Shape& per_sample_input,
                                       int max_batch, int repeats, int warmup = 1);

// Poisson arrival schedule: absolute arrival times in milliseconds from t=0,
// exponential inter-arrival gaps with mean 1000/arrival_qps. Deterministic
// given the seed; the bench load generators replay it against the wall clock.
std::vector<double> GenerateArrivalsMs(double arrival_qps, int num_requests, uint64_t seed);

// Bursty variant: a two-state modulated Poisson process alternating between a
// burst phase at `mean_qps * burst_factor` and a quiet phase at
// `mean_qps / burst_factor`, switching every `phase_ms` of generated time.
// burst_factor 1 degenerates to GenerateArrivalsMs.
std::vector<double> GenerateBurstyArrivalsMs(double mean_qps, double burst_factor,
                                             double phase_ms, int num_requests, uint64_t seed);

// Batch forming: how many of `queued` requests the next batch takes
// (continuous batching — everything waiting, capped by max_batch).
inline int NextBatchSize(int queued, int max_batch) {
  return queued < max_batch ? queued : max_batch;
}

// SLA admission: true when the deadline provably cannot be met. The bound is
// strictly optimistic — the `queued_ahead` requests ahead are assumed to ride
// completely full batches spread evenly over `servers` replicas, every batch
// is priced at the table's fastest service time, and in-flight work is
// ignored — so a true result means no schedule can save the request and
// shedding it is safe, while a false result only means "not provably late"
// (the request may still miss its SLA). The threaded server passes its
// replica count as `servers`.
bool DeadlineUnmeetable(double now_ms, double deadline_ms, int queued_ahead,
                        const ServiceTimeTable& table, int max_batch, int servers);

// Accumulates per-request / per-batch observations into ServingStats. Not
// thread-safe; the threaded server records under its stats lock.
class StatsBuilder {
 public:
  void AddLatency(double latency_ms) { latencies_.push_back(latency_ms); }
  void AddBatch(int size) {
    ++num_batches_;
    served_total_ += size;
  }
  void AddShed(int count = 1) { num_shed_ += count; }

  int num_completed() const { return static_cast<int>(latencies_.size()); }
  int num_shed() const { return num_shed_; }

  // Sorts the recorded latencies (percentile index p*(n-1), clamped to the
  // observed range) and derives throughput from `makespan_ms`. The
  // service-time table is echoed into the stats for reporting.
  ServingStats Finalize(double makespan_ms, const ServiceTimeTable& table) const;

 private:
  std::vector<double> latencies_;
  int num_batches_ = 0;
  int64_t served_total_ = 0;
  int num_shed_ = 0;
};

// The obs instruments the server records through, resolved once (metric
// names are part of the serving contract: DESIGN.md "Observability").
struct ServingMetrics {
  obs::Histogram& latency_ms;     // serving.request_latency_ms
  obs::Histogram& batch_size;     // serving.batch_size
  obs::Histogram& queue_depth;    // serving.queue_depth
  obs::Histogram& queue_wait_ms;  // serving.queue_wait_ms (admit -> run-start)
  obs::Counter& requests;       // serving.requests (admitted + shed)
  obs::Counter& batches;        // serving.batches
  obs::Counter& shed;           // serving.shed
  obs::Counter& swaps;          // serving.engine_swaps (hot-swaps applied)

  static ServingMetrics& Get();
};

// Trace lanes for per-request spans: requests round-robin across a small pool
// of virtual lanes so overlapping lifecycles stay readable in Perfetto,
// anchored at the server's start-of-serving clock. Lane ids sit clear of real
// thread ids.
inline constexpr int kServingRequestLaneBase = 1001;
inline constexpr int kServingNumRequestLanes = 32;

// Names the request lanes "serve/requests-<n>" (idempotent).
void NameServingTraceLanes();

// Records one completed request as a manual span on its round-robin lane.
// `anchor_us` is the MonotonicNowNs-based microsecond timestamp of t=0 of the
// server's clock. No-op when tracing is disabled.
void EmitRequestSpan(double anchor_us, double arrival_ms, double latency_ms,
                     int64_t request_index);

}  // namespace gmorph

#endif  // GMORPH_SRC_SERVING_SCHEDULER_H_
