// Ablation (paper §7 Discussion): online model-serving throughput of the
// original multi-DNNs vs the GMorph-fused model. The paper argues the
// one-time search cost buys higher queries-per-second; this bench quantifies
// it with the *real threaded server* (src/serving/server.h) under open-loop
// Poisson and bursty load, sweeping arrival rates into saturation, and
// contrasts continuous batching across replicas against serial batch-1
// serving. One JSON line per swept configuration: throughput, latency
// percentiles, mean batch size, shed count — the saturation curves.
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "src/core/graph_io.h"
#include "src/core/model_parser.h"
#include "src/runtime/engine.h"
#include "src/serving/server.h"
#include "src/serving/serving_sim.h"

namespace {

using namespace gmorph;

// Replays an absolute-arrival-time schedule against the wall clock (open
// loop: submission never waits for completions) and drains.
ServingStats RunOpenLoop(ThreadedServer& server, const std::vector<double>& arrivals_ms,
                         const Tensor* sample) {
  const double t0 = server.NowMs();
  for (double arrival : arrivals_ms) {
    const double wait_ms = t0 + arrival - server.NowMs();
    if (wait_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(wait_ms * 1000.0)));
    }
    server.Submit(sample);
  }
  server.Drain();
  server.Stop();
  return server.Stats();
}

}  // namespace

int main() {
  if (gmorph::bench::ReplayOrBeginRecord("serving")) {
    return 0;
  }
  using namespace gmorph::bench;
  PrintHeader("Serving saturation: threaded server, original vs fused (paper §7)",
              "paper §7 'Applicability of GMorph'");

  SearchSummary s = RunSearchCached(/*bench_index=*/1, /*threshold=*/0.01, Variant::kBase);
  PreparedBenchmark& p = GetBenchmark(1);
  AbsGraph original_graph = ParseTaskModels(
      std::vector<const TaskModel*>(p.teacher_ptrs.begin(), p.teacher_ptrs.end()));
  AbsGraph best_graph;
  if (!LoadGraph(s.best_graph_path, best_graph)) {
    std::fprintf(stderr, "missing cached best graph; run fig7_speedups first\n");
    return 1;
  }
  const Shape input = original_graph.node(0).output_shape;
  Rng rng(71);
  const Tensor sample = Tensor::RandomGaussian(input, rng, 0.5f);
  const int num_requests = Scaled(240);
  constexpr int kReplicas = 2;
  constexpr int kMaxBatch = 8;

  const auto print_json = [](const char* mode, const char* model, const char* load,
                             double arrival, const ServingStats& st, int64_t lost) {
    obs::JsonWriter line = JsonLine();
    line.Key("mode").String(mode).Key("model").String(model).Key("load").String(load);
    line.Key("arrival_qps").Fixed(arrival, 0).Key("throughput_qps").Fixed(st.throughput_qps, 1);
    line.Key("p50_ms").Fixed(st.p50_latency_ms, 3).Key("p95_ms").Fixed(st.p95_latency_ms, 3);
    line.Key("p99_ms").Fixed(st.p99_latency_ms, 3).Key("mean_batch").Fixed(st.mean_batch_size, 2);
    line.Key("shed").Int(st.num_shed).Key("lost").Int(lost).Key("service_time_ms").BeginArray();
    for (const double ms : st.service_time_ms) {
      line.Fixed(ms, 3);
    }
    EmitJsonLine(line.EndArray());
  };

  PrintRow({"mode", "model", "load", "arrivalQPS", "qps", "p50(ms)", "p99(ms)", "meanBatch",
            "shed"});
  int failures = 0;
  for (const char* which : {"original", "fused"}) {
    const AbsGraph& graph = which[0] == 'o' ? original_graph : best_graph;
    // Shared calibration: one fused-engine replica measured once, and the
    // same table prices both serving modes.
    EngineReplica probe = MakeEngineReplica(EngineKind::kFused, graph, 71);
    const ServiceTimeTable table =
        CalibrateServiceTimes(*probe.engine, input, kMaxBatch, /*repeats=*/2);
    // Sweep arrival rates relative to serial batch-1 capacity so the last
    // point saturates both modes regardless of machine speed.
    const double serial_capacity_qps = 1000.0 / table.BatchMs(1);
    for (double load_factor : {0.5, 1.5, 3.0}) {
      const double qps = serial_capacity_qps * load_factor;
      const std::vector<double> arrivals = GenerateArrivalsMs(qps, num_requests, 71);
      for (const char* mode : {"serial-b1", "threaded"}) {
        const bool serial = mode[0] == 's';
        std::vector<EngineReplica> replicas;
        for (int i = 0; i < (serial ? 1 : kReplicas); ++i) {
          replicas.push_back(
              MakeEngineReplica(EngineKind::kFused, graph, 71 + static_cast<uint64_t>(i)));
        }
        ReplicaPool pool(std::move(replicas), input, serial ? 1 : kMaxBatch);
        ServerOptions options;
        options.max_batch = serial ? 1 : kMaxBatch;
        ThreadedServer server(&pool, table, options);
        const ServingStats st = RunOpenLoop(server, arrivals, &sample);
        const int64_t lost = server.submitted() - server.completed() - server.shed();
        failures += lost != 0 ? 1 : 0;
        print_json(mode, which, "poisson", qps, st, lost);
        PrintRow({mode, which, "poisson", Fmt(qps, 0), Fmt(st.throughput_qps, 0),
                  Fmt(st.p50_latency_ms), Fmt(st.p99_latency_ms), Fmt(st.mean_batch_size, 1),
                  Fmt(static_cast<double>(st.num_shed), 0)});
      }
    }
  }

  // Hot-swap under saturating bursty load on the fused model: replicas are
  // replaced mid-stream while producers flood; zero admitted requests may be
  // lost (FusedInf-style on-demand model exchange).
  {
    EngineReplica probe = MakeEngineReplica(EngineKind::kFused, best_graph, 71);
    const ServiceTimeTable table =
        CalibrateServiceTimes(*probe.engine, input, kMaxBatch, /*repeats=*/2);
    const double qps = 2.0 * 1000.0 / table.BatchMs(1);
    std::vector<EngineReplica> replicas;
    replicas.push_back(MakeEngineReplica(EngineKind::kFused, best_graph, 71));
    replicas.push_back(MakeEngineReplica(EngineKind::kFused, best_graph, 72));
    ReplicaPool pool(std::move(replicas), input, kMaxBatch);
    ServerOptions options;
    options.max_batch = kMaxBatch;
    ThreadedServer server(&pool, table, options);
    const std::vector<double> arrivals =
        GenerateBurstyArrivalsMs(qps, /*burst_factor=*/3.0, /*phase_ms=*/25.0, num_requests, 71);
    std::thread swapper([&] {
      for (int swap = 0; swap < 4; ++swap) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        server.SwapReplica(swap % 2, MakeEngineReplica(EngineKind::kFused, best_graph,
                                                       100 + static_cast<uint64_t>(swap)));
      }
    });
    const ServingStats st = RunOpenLoop(server, arrivals, &sample);
    swapper.join();
    const int64_t lost = server.submitted() - server.completed() - server.shed();
    failures += lost != 0 ? 1 : 0;
    EmitJsonLine(JsonLine()
                     .Key("mode").String("threaded-hotswap")
                     .Key("model").String("fused")
                     .Key("load").String("bursty")
                     .Key("arrival_qps").Fixed(qps, 0)
                     .Key("throughput_qps").Fixed(st.throughput_qps, 1)
                     .Key("p50_ms").Fixed(st.p50_latency_ms, 3)
                     .Key("p95_ms").Fixed(st.p95_latency_ms, 3)
                     .Key("p99_ms").Fixed(st.p99_latency_ms, 3)
                     .Key("mean_batch").Fixed(st.mean_batch_size, 2)
                     .Key("shed").Int(st.num_shed)
                     .Key("swaps").Int(pool.swap_count())
                     .Key("lost").Int(lost));
    PrintRow({"threaded-hotswap", "fused", "bursty", Fmt(qps, 0), Fmt(st.throughput_qps, 0),
              Fmt(st.p50_latency_ms), Fmt(st.p99_latency_ms), Fmt(st.mean_batch_size, 1),
              Fmt(static_cast<double>(st.num_shed), 0)});
  }

  std::printf("\nExpected shape: at saturating arrival rates the threaded server out-serves\n"
              "serial batch-1, the fused model out-serves the original, and the hot-swap\n"
              "line reports lost 0.\n");
  if (failures != 0) {
    std::fprintf(stderr, "%d serving run(s) lost admitted requests\n", failures);
    return 1;
  }
  return 0;
}
