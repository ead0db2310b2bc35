// Scheduling policy of the threaded server: arrival schedules, the
// service-time table and its calibration, batch forming, SLA admission and
// the stats finalization.
#include "src/serving/scheduler.h"

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/core/model_parser.h"
#include "src/models/zoo.h"

namespace gmorph {
namespace {

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
  EXPECT_FALSE(DeadlineUnmeetable(10.0, 12.0, 0, table, 4, /*servers=*/1));
  EXPECT_TRUE(DeadlineUnmeetable(10.0, 11.9, 0, table, 4, /*servers=*/1));
  // 8 queued ahead = 2 full batches before ours: earliest = now + 3 * 2ms.
  EXPECT_FALSE(DeadlineUnmeetable(0.0, 6.0, 8, table, 4, /*servers=*/1));
  EXPECT_TRUE(DeadlineUnmeetable(0.0, 5.9, 8, table, 4, /*servers=*/1));
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
  // Index p*(n-1) into the sorted latencies 1..100: 49.5, 94.05 and 98.01
  // truncate to indices 49, 94 and 98.
  EXPECT_DOUBLE_EQ(stats.p50_latency_ms, 50.0);
  EXPECT_DOUBLE_EQ(stats.p95_latency_ms, 95.0);
  EXPECT_DOUBLE_EQ(stats.p99_latency_ms, 99.0);
  EXPECT_DOUBLE_EQ(stats.mean_latency_ms, 50.5);
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
