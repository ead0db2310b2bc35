// Real threaded multi-model server, running the scheduling policy of
// scheduler.h on fused-engine replicas under wall-clock load.
//
// Architecture:
//
//   Submit() ──► lock-guarded request queue ──► worker threads (one per
//   replica slot) forming continuous/dynamic batches: each worker takes
//   everything queued up to max_batch (NextBatchSize), gathers the request
//   payloads into its replica's prebound batch storage, and runs the engine.
//
//   - SLA admission happens in Submit(): a request whose deadline is provably
//     unmeetable from the calibrated service-time table (DeadlineUnmeetable,
//     priced over all replicas) is shed immediately instead of queued.
//   - Hot-swap: SwapReplica() atomically replaces a slot's engine under load
//     (ReplicaPool::Swap); the in-flight batch completes on the old engine
//     and nothing queued is dropped.
//   - Observability: latency / batch-size / queue-depth flow into the
//     serving.* histograms (ServingMetrics), and completed requests are
//     emitted as per-request trace lanes anchored at the server's clock
//     origin.
//
// Replica workers are dedicated threads (named "serve-<slot>"), deliberately
// *not* tasks on the process kernel pool: a batch's kernels parallelize on
// that pool, so parking long-running server loops there would starve the very
// parallelism each batch needs.
#ifndef GMORPH_SRC_SERVING_SERVER_H_
#define GMORPH_SRC_SERVING_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "src/serving/replica_pool.h"
#include "src/serving/scheduler.h"

namespace gmorph {

struct ServerOptions {
  int max_batch = 8;
  // SLA admission deadline per request (ms after arrival); 0 accepts all.
  double sla_ms = 0.0;
  // When non-empty: arms the flight recorder at construction and writes its
  // JSON dump here at every Drain() and at Stop() — the black-box record of
  // every scheduling decision this server took.
  std::string flight_recorder_path;
};

class ThreadedServer {
 public:
  // `pool` must outlive the server. `table` prices SLA admission; it may be
  // empty only when options.sla_ms == 0. Workers start immediately.
  ThreadedServer(ReplicaPool* pool, ServiceTimeTable table, const ServerOptions& options);
  ~ThreadedServer();  // Stop()s.

  ThreadedServer(const ThreadedServer&) = delete;
  ThreadedServer& operator=(const ThreadedServer&) = delete;

  // Submits one request (non-blocking). `sample` is the per-sample input row
  // (null = zero payload) and must stay alive until the request completes.
  // Returns false when SLA admission shed the request.
  bool Submit(const Tensor* sample = nullptr);

  // Blocks until every admitted request has completed.
  void Drain();

  // Drains the queue, then joins the workers. Idempotent; the destructor
  // calls it. Submit() after Stop() is an error.
  void Stop();

  // Hot-swap passthrough (ReplicaPool::Swap) that also counts the swap in
  // serving.engine_swaps. Safe under full load; returns the previous replica.
  EngineReplica SwapReplica(int slot, EngineReplica incoming, bool warm = true);

  // Snapshot of everything observed so far (callable mid-load or after Stop).
  // Throughput is completed work over [first arrival, last completion].
  ServingStats Stats() const;

  int64_t submitted() const;  // admitted + shed
  int64_t completed() const;
  int64_t shed() const;

  // Milliseconds since the server's clock origin (MonotonicNowNs based);
  // arrivals and latencies are measured on this clock.
  double NowMs() const;

 private:
  struct Pending {
    const Tensor* sample = nullptr;
    double arrival_ms = 0.0;
    int64_t index = 0;  // submission index (trace-lane round-robin)
  };

  void WorkerLoop(int slot);

  ReplicaPool* pool_;
  ServiceTimeTable table_;
  ServerOptions options_;
  int64_t t0_ns_ = 0;
  double anchor_us_ = 0.0;

  mutable std::mutex mu_;  // guards queue_, stats_, counters, stopping_
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  bool joined_ = false;
  int in_flight_ = 0;  // queued + currently-batched requests
  StatsBuilder stats_;
  int64_t submitted_ = 0;
  double first_arrival_ms_ = -1.0;
  double last_completion_ms_ = 0.0;

  std::vector<std::thread> workers_;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_SERVING_SERVER_H_
