#include "src/serving/server.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/obs/timing.h"
#include "src/obs/trace.h"
#include "src/serving/flight_recorder.h"

namespace gmorph {

ThreadedServer::ThreadedServer(ReplicaPool* pool, ServiceTimeTable table,
                               const ServerOptions& options)
    : pool_(pool), table_(std::move(table)), options_(options) {
  GMORPH_CHECK(pool_ != nullptr && pool_->size() >= 1);
  GMORPH_CHECK(options_.max_batch >= 1 && options_.max_batch <= pool_->max_batch());
  GMORPH_CHECK(options_.sla_ms >= 0.0);
  GMORPH_CHECK(options_.sla_ms == 0.0 || !table_.empty(),
               "SLA admission needs a calibrated service-time table");
  t0_ns_ = MonotonicNowNs();
  anchor_us_ = static_cast<double>(t0_ns_) * 1e-3;
  NameServingTraceLanes();
  if (!options_.flight_recorder_path.empty()) {
    StartFlightRecorder();
  }
  workers_.reserve(static_cast<size_t>(pool_->size()));
  for (int slot = 0; slot < pool_->size(); ++slot) {
    workers_.emplace_back([this, slot] { WorkerLoop(slot); });
  }
}

ThreadedServer::~ThreadedServer() { Stop(); }

double ThreadedServer::NowMs() const {
  return static_cast<double>(MonotonicNowNs() - t0_ns_) * 1e-6;
}

bool ThreadedServer::Submit(const Tensor* sample) {
  ServingMetrics& m = ServingMetrics::Get();
  std::lock_guard<std::mutex> lock(mu_);
  GMORPH_CHECK(!stopping_, "Submit() after Stop()");
  const double now = NowMs();
  const int64_t index = submitted_++;
  m.requests.Increment();
  RecordFlightEvent(FlightEventKind::kAdmit, now, index);
  if (first_arrival_ms_ < 0.0) {
    first_arrival_ms_ = now;
  }
  if (options_.sla_ms > 0.0 &&
      DeadlineUnmeetable(now, now + options_.sla_ms, static_cast<int>(queue_.size()), table_,
                         options_.max_batch, pool_->size())) {
    stats_.AddShed();
    m.shed.Increment();
    RecordFlightEvent(FlightEventKind::kShed, now, index);
    return false;
  }
  queue_.push_back(Pending{sample, now, index});
  RecordFlightEvent(FlightEventKind::kEnqueue, now, index);
  ++in_flight_;
  work_available_.notify_one();
  return true;
}

void ThreadedServer::WorkerLoop(int slot) {
  obs::SetCurrentThreadName("serve-" + std::to_string(slot));
  ServingMetrics& m = ServingMetrics::Get();
  std::vector<Pending> batch;
  std::vector<const Tensor*> rows;
  batch.reserve(static_cast<size_t>(options_.max_batch));
  rows.reserve(static_cast<size_t>(options_.max_batch));
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) {
          return;
        }
        continue;
      }
      // Continuous batching: take everything waiting, up to the cap.
      const int size = NextBatchSize(static_cast<int>(queue_.size()), options_.max_batch);
      m.queue_depth.Observe(static_cast<double>(queue_.size()));
      batch.clear();
      rows.clear();
      for (int i = 0; i < size; ++i) {
        batch.push_back(queue_.front());
        rows.push_back(queue_.front().sample);
        queue_.pop_front();
      }
      const double formed_ms = NowMs();
      RecordFlightEvent(FlightEventKind::kBatchFormed, formed_ms,
                        static_cast<int64_t>(batch.size()), slot);
      for (const Pending& p : batch) {
        // Queue wait = admit -> run-start; batch formation is the run start.
        m.queue_wait_ms.Observe(formed_ms - p.arrival_ms);
        RecordFlightEvent(FlightEventKind::kRunStart, formed_ms, p.index, slot);
      }
    }
    {
      obs::TraceSpan span("serving/batch", obs::TraceCat::kServing);
      pool_->RunBatch(slot, rows);
    }
    const double done_ms = NowMs();
    const bool tracing = obs::TraceEnabled();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const Pending& p : batch) {
        const double latency_ms = done_ms - p.arrival_ms;
        stats_.AddLatency(latency_ms);
        m.latency_ms.Observe(latency_ms);
        RecordFlightEvent(FlightEventKind::kDone, done_ms, p.index, slot);
        if (tracing) {
          EmitRequestSpan(anchor_us_, p.arrival_ms, latency_ms, p.index);
        }
      }
      stats_.AddBatch(static_cast<int>(batch.size()));
      m.batch_size.Observe(static_cast<double>(batch.size()));
      m.batches.Increment();
      last_completion_ms_ = std::max(last_completion_ms_, done_ms);
      in_flight_ -= static_cast<int>(batch.size());
      if (in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

void ThreadedServer::Drain() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock, [&] { return in_flight_ == 0; });
  }
  if (!options_.flight_recorder_path.empty()) {
    WriteFlightRecorderJson(options_.flight_recorder_path);
  }
}

void ThreadedServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) {
      return;
    }
    stopping_ = true;
    work_available_.notify_all();
  }
  for (std::thread& worker : workers_) {
    worker.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    joined_ = true;
  }
  if (!options_.flight_recorder_path.empty()) {
    WriteFlightRecorderJson(options_.flight_recorder_path);
  }
}

EngineReplica ThreadedServer::SwapReplica(int slot, EngineReplica incoming, bool warm) {
  EngineReplica previous = pool_->Swap(slot, std::move(incoming), warm);
  ServingMetrics::Get().swaps.Increment();
  RecordFlightEvent(FlightEventKind::kSwap, NowMs(), slot);
  return previous;
}

ServingStats ThreadedServer::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  const double makespan_ms = stats_.num_completed() > 0 && first_arrival_ms_ >= 0.0
                                 ? last_completion_ms_ - first_arrival_ms_
                                 : 0.0;
  return stats_.Finalize(makespan_ms, table_);
}

int64_t ThreadedServer::submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_;
}

int64_t ThreadedServer::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.num_completed();
}

int64_t ThreadedServer::shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.num_shed();
}

}  // namespace gmorph
