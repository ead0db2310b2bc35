#include "src/serving/serving_sim.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/check.h"
#include "src/core/model_parser.h"
#include "src/models/zoo.h"
#include "src/serving/scheduler.h"
#include "tests/test_util.h"

namespace gmorph {
namespace {

ServingOptions Opts(double qps, int n = 200, int max_batch = 4) {
  ServingOptions o;
  o.arrival_qps = qps;
  o.num_requests = n;
  o.max_batch = max_batch;
  o.seed = 9;
  return o;
}

// ---- Scheduler core (shared by the simulator and the threaded server) ----

TEST(SchedulerCoreTest, ArrivalsDeterministicAndIncreasing) {
  const std::vector<double> a = GenerateArrivalsMs(500.0, 100, 7);
  const std::vector<double> b = GenerateArrivalsMs(500.0, 100, 7);
  ASSERT_EQ(a.size(), 100u);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.front(), 0.0);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(a[i], a[i - 1]);
  }
  // Mean gap approximately 1000/qps = 2ms.
  EXPECT_NEAR(a.back() / 100.0, 2.0, 1.0);
}

TEST(SchedulerCoreTest, BurstyArrivalsMatchMeanRateAndDegenerate) {
  const std::vector<double> bursty = GenerateBurstyArrivalsMs(400.0, 4.0, 50.0, 400, 3);
  ASSERT_EQ(bursty.size(), 400u);
  for (size_t i = 1; i < bursty.size(); ++i) {
    EXPECT_GT(bursty[i], bursty[i - 1]);
  }
  // burst_factor 1 is exactly the plain Poisson stream.
  EXPECT_EQ(GenerateBurstyArrivalsMs(400.0, 1.0, 50.0, 100, 3),
            GenerateArrivalsMs(400.0, 100, 3));
}

TEST(SchedulerCoreTest, ServiceTimeTableBasics) {
  ServiceTimeTable table({2.0, 1.5, 3.0});
  EXPECT_EQ(table.max_batch(), 3);
  EXPECT_DOUBLE_EQ(table.BatchMs(1), 2.0);
  EXPECT_DOUBLE_EQ(table.BatchMs(3), 3.0);
  EXPECT_DOUBLE_EQ(table.MinMs(), 1.5);
  EXPECT_THROW(ServiceTimeTable({1.0, 0.0}), CheckError);
  EXPECT_THROW(ServiceTimeTable(std::vector<double>{}), CheckError);
}

TEST(SchedulerCoreTest, NextBatchSizeCapsAtMax) {
  EXPECT_EQ(NextBatchSize(3, 8), 3);
  EXPECT_EQ(NextBatchSize(9, 8), 8);
  EXPECT_EQ(NextBatchSize(8, 8), 8);
}

TEST(SchedulerCoreTest, DeadlineUnmeetableBounds) {
  ServiceTimeTable table({2.0, 2.5, 3.0, 3.5});
  // Empty queue: the request needs one fastest batch (2ms).
  EXPECT_FALSE(DeadlineUnmeetable(10.0, 12.0, 0, table, 4));
  EXPECT_TRUE(DeadlineUnmeetable(10.0, 11.9, 0, table, 4));
  // 8 queued ahead = 2 full batches before ours: earliest = now + 3 * 2ms.
  EXPECT_FALSE(DeadlineUnmeetable(0.0, 6.0, 8, table, 4));
  EXPECT_TRUE(DeadlineUnmeetable(0.0, 5.9, 8, table, 4));
  // With 2 servers those 2 batches run in one round: earliest = now + 2 * 2ms.
  EXPECT_FALSE(DeadlineUnmeetable(0.0, 4.0, 8, table, 4, /*servers=*/2));
  EXPECT_TRUE(DeadlineUnmeetable(0.0, 3.9, 8, table, 4, /*servers=*/2));
}

TEST(SchedulerCoreTest, StatsBuilderPercentilesMonotone) {
  StatsBuilder builder;
  for (int i = 100; i >= 1; --i) {
    builder.AddLatency(static_cast<double>(i));
  }
  builder.AddBatch(60);
  builder.AddBatch(40);
  builder.AddShed(5);
  const ServingStats stats = builder.Finalize(1000.0, ServiceTimeTable({1.0}));
  EXPECT_EQ(stats.num_completed, 100);
  EXPECT_EQ(stats.num_shed, 5);
  EXPECT_EQ(stats.num_batches, 2);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 50.0);
  EXPECT_DOUBLE_EQ(stats.throughput_qps, 100.0);
  EXPECT_LE(stats.p50_latency_ms, stats.p95_latency_ms);
  EXPECT_LE(stats.p95_latency_ms, stats.p99_latency_ms);
  EXPECT_DOUBLE_EQ(stats.mean_latency_ms, 50.5);
}

// ---- Virtual-time simulator (ported onto the scheduler interface) ----

TEST(ServingSimTest, DeterministicGivenSeed) {
  const std::vector<double> service = {1.0, 1.5, 1.8, 2.0};
  ServingStats a = SimulateServingWithServiceTimes(service, Opts(500));
  ServingStats b = SimulateServingWithServiceTimes(service, Opts(500));
  EXPECT_DOUBLE_EQ(a.throughput_qps, b.throughput_qps);
  EXPECT_DOUBLE_EQ(a.p99_latency_ms, b.p99_latency_ms);
}

// The scheduler refactor must reproduce the pre-refactor simulator bit for
// bit: these values were captured from SimulateServingWithServiceTimes at
// commit 962824e (printed with %.17g, which round-trips doubles exactly).
TEST(ServingSimGoldenTest, ModerateLoad) {
  const ServingStats s = SimulateServingWithServiceTimes({1.0, 1.5, 1.8, 2.0}, Opts(500));
  EXPECT_DOUBLE_EQ(s.throughput_qps, 526.71210027565724);
  EXPECT_DOUBLE_EQ(s.mean_latency_ms, 1.4116585115686704);
  EXPECT_DOUBLE_EQ(s.p50_latency_ms, 1.0);
  EXPECT_DOUBLE_EQ(s.p95_latency_ms, 2.5018407745938021);
  EXPECT_DOUBLE_EQ(s.p99_latency_ms, 2.8704984281333665);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 1.1494252873563218);
  EXPECT_EQ(s.num_batches, 174);
}

TEST(ServingSimGoldenTest, LightLoad) {
  const ServingStats s = SimulateServingWithServiceTimes({2.0, 3.0, 4.0, 5.0}, Opts(50));
  EXPECT_DOUBLE_EQ(s.throughput_qps, 52.782414573315855);
  EXPECT_DOUBLE_EQ(s.mean_latency_ms, 2.1797279905536233);
  EXPECT_DOUBLE_EQ(s.p95_latency_ms, 3.7318229312713811);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 1.0101010101010102);
  EXPECT_EQ(s.num_batches, 198);
}

TEST(ServingSimGoldenTest, Overload) {
  const ServingStats s =
      SimulateServingWithServiceTimes({1.0, 1.0, 1.0, 1.0}, Opts(100000, 400));
  EXPECT_DOUBLE_EQ(s.throughput_qps, 3960.3960396039602);
  EXPECT_DOUBLE_EQ(s.mean_latency_ms, 49.284422053349537);
  EXPECT_DOUBLE_EQ(s.p50_latency_ms, 49.120332549910586);
  EXPECT_DOUBLE_EQ(s.p99_latency_ms, 96.002738069742179);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 3.9603960396039604);
  EXPECT_EQ(s.num_batches, 101);
}

TEST(ServingSimGoldenTest, WideBatchTable) {
  ServingOptions o = Opts(2000, 300, 8);
  o.seed = 123;
  const ServingStats s =
      SimulateServingWithServiceTimes({0.5, 0.8, 1.1, 1.3, 1.4, 1.5, 1.6, 1.7}, o);
  EXPECT_DOUBLE_EQ(s.throughput_qps, 2106.3368757130756);
  EXPECT_DOUBLE_EQ(s.mean_latency_ms, 1.1614815337371898);
  EXPECT_DOUBLE_EQ(s.p50_latency_ms, 1.1515078770027287);
  EXPECT_DOUBLE_EQ(s.p95_latency_ms, 2.0873606743716948);
  EXPECT_DOUBLE_EQ(s.p99_latency_ms, 2.3963216729406933);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 1.6304347826086956);
  EXPECT_EQ(s.num_batches, 184);
}

TEST(ServingSimGoldenTest, BatchCapBelowTable) {
  ServingOptions o = Opts(900, 250, 6);
  o.seed = 7;
  const ServingStats s =
      SimulateServingWithServiceTimes({3.0, 3.2, 3.4, 3.6, 3.8, 4.0, 4.2, 4.4}, o);
  EXPECT_DOUBLE_EQ(s.throughput_qps, 800.76572580825041);
  EXPECT_DOUBLE_EQ(s.mean_latency_ms, 5.1545956835720093);
  EXPECT_DOUBLE_EQ(s.p50_latency_ms, 5.1266822829772991);
  EXPECT_DOUBLE_EQ(s.p95_latency_ms, 6.8900434028062927);
  EXPECT_DOUBLE_EQ(s.p99_latency_ms, 7.1119876515491853);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 2.7777777777777777);
  EXPECT_EQ(s.num_batches, 90);
}

TEST(ServingSimTest, LatencyAtLeastServiceTime) {
  const std::vector<double> service = {2.0, 3.0, 4.0, 5.0};
  ServingStats s = SimulateServingWithServiceTimes(service, Opts(50));
  EXPECT_GE(s.p50_latency_ms, 2.0);
  EXPECT_LE(s.p50_latency_ms, s.p95_latency_ms);
  EXPECT_LE(s.p95_latency_ms, s.p99_latency_ms);
}

TEST(ServingSimTest, LightLoadNoBatching) {
  // Arrivals far apart relative to service time: every batch has one request
  // and latency approximately equals the single-request service time.
  const std::vector<double> service = {1.0, 1.2, 1.4, 1.6};
  ServingStats s = SimulateServingWithServiceTimes(service, Opts(/*qps=*/10));
  EXPECT_NEAR(s.mean_batch_size, 1.0, 0.05);
  EXPECT_NEAR(s.mean_latency_ms, 1.0, 0.2);
}

TEST(ServingSimTest, OverloadSaturatesAtBatchCapacity) {
  // Service 1ms regardless of batch size, max_batch 4 => capacity 4000 qps.
  const std::vector<double> service = {1.0, 1.0, 1.0, 1.0};
  ServingStats s = SimulateServingWithServiceTimes(service, Opts(/*qps=*/100000, 400));
  EXPECT_NEAR(s.mean_batch_size, 4.0, 0.1);
  EXPECT_NEAR(s.throughput_qps, 4000.0, 300.0);
}

TEST(ServingSimTest, FasterServiceHigherThroughputUnderOverload) {
  const std::vector<double> slow = {4.0, 4.4, 4.8, 5.2};
  const std::vector<double> fast = {2.0, 2.2, 2.4, 2.6};
  ServingStats s_slow = SimulateServingWithServiceTimes(slow, Opts(5000, 300));
  ServingStats s_fast = SimulateServingWithServiceTimes(fast, Opts(5000, 300));
  EXPECT_GT(s_fast.throughput_qps, s_slow.throughput_qps * 1.5);
  EXPECT_LT(s_fast.p95_latency_ms, s_slow.p95_latency_ms);
}

TEST(ServingSimTest, MaxBatchCapsBatchSize) {
  const std::vector<double> service = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  ServingOptions o = Opts(100000, 200, /*max_batch=*/3);
  ServingStats s = SimulateServingWithServiceTimes(service, o);
  EXPECT_LE(s.mean_batch_size, 3.0 + 1e-9);
}

TEST(ServingSimTest, RejectsEmptyServiceTimes) {
  EXPECT_THROW(SimulateServingWithServiceTimes({}, Opts(10)), CheckError);
}

TEST(ServingSimTest, SlaAdmissionShedsProvablyLateRequests) {
  // 1ms service, overload: queues grow without bound, so with a 5ms SLA most
  // requests become provably unmeetable at arrival and are shed instead of
  // queued — and the ones that are admitted keep their latency near the SLA.
  const std::vector<double> service = {1.0, 1.0, 1.0, 1.0};
  ServingOptions o = Opts(100000, 400);
  o.sla_ms = 5.0;
  const ServingStats s = SimulateServingWithServiceTimes(service, o);
  EXPECT_GT(s.num_shed, 0);
  EXPECT_EQ(s.num_completed + s.num_shed, 400);
  // Without an SLA the same overload drives p99 far beyond it (golden: 96ms);
  // admission keeps the served tail bounded by the optimistic-schedule slack.
  EXPECT_LT(s.p99_latency_ms, 10.0);
  // Determinism with shedding active.
  const ServingStats t = SimulateServingWithServiceTimes(service, o);
  EXPECT_EQ(t.num_shed, s.num_shed);
  EXPECT_DOUBLE_EQ(t.throughput_qps, s.throughput_qps);
}

TEST(ServingSimTest, GenerousSlaShedsNothingAndMatchesBaseline) {
  const std::vector<double> service = {1.0, 1.5, 1.8, 2.0};
  ServingOptions o = Opts(500);
  o.sla_ms = 1e9;
  const ServingStats with_sla = SimulateServingWithServiceTimes(service, o);
  const ServingStats baseline = SimulateServingWithServiceTimes(service, Opts(500));
  EXPECT_EQ(with_sla.num_shed, 0);
  EXPECT_DOUBLE_EQ(with_sla.throughput_qps, baseline.throughput_qps);
  EXPECT_DOUBLE_EQ(with_sla.p99_latency_ms, baseline.p99_latency_ms);
}

TEST(ServingSimTest, EndToEndWithRealEngine) {
  Rng rng(5);
  VisionModelOptions opts;
  opts.base_width = 4;
  opts.classes = 2;
  AbsGraph g = ParseModelSpecs({MakeVgg11(opts)});
  MultiTaskModel model(g, rng);
  EagerEngine engine(&model);
  ServingOptions so = Opts(200, 60, 4);
  so.calibration_runs = 1;
  ServingStats s = SimulateServing(engine, g.node(0).output_shape, so);
  EXPECT_GT(s.throughput_qps, 0.0);
  EXPECT_EQ(s.service_time_ms.size(), 4u);
  // Larger batches take no less wall time than batch 1. One calibration run
  // per size is too noisy to show it, so the two sizes are timed here,
  // interleaved.
  const Tensor x1 = Tensor::Zeros(g.node(0).output_shape.WithBatch(1));
  const Tensor x4 = Tensor::Zeros(g.node(0).output_shape.WithBatch(4));
  const auto [b1_ms, b4_ms] = testing::InterleavedMediansMs([&] { engine.Run(x1); },
                                                            [&] { engine.Run(x4); }, /*runs=*/31);
  EXPECT_GE(b4_ms, b1_ms * 0.8);
}

TEST(SchedulerCoreTest, CalibrateServiceTimesSharedPath) {
  Rng rng(5);
  VisionModelOptions opts;
  opts.base_width = 4;
  opts.classes = 2;
  AbsGraph g = ParseModelSpecs({MakeVgg11(opts)});
  MultiTaskModel model(g, rng);
  EagerEngine engine(&model);
  const ServiceTimeTable table =
      CalibrateServiceTimes(engine, g.node(0).output_shape, /*max_batch=*/3, /*repeats=*/1);
  EXPECT_EQ(table.max_batch(), 3);
  EXPECT_GT(table.MinMs(), 0.0);
  for (int b = 1; b <= 3; ++b) {
    EXPECT_GT(table.BatchMs(b), 0.0);
  }
}

}  // namespace
}  // namespace gmorph
