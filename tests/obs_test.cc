// Tests for the observability subsystem (src/obs/): tracing ring buffers and
// Chrome-trace export, metrics registry, the disabled fast path, and the
// interleaved timing loop.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/core/model_parser.h"
#include "src/core/multitask_model.h"
#include "src/models/zoo.h"
#include "src/obs/metrics.h"
#include "src/obs/timing.h"
#include "src/obs/trace.h"
#include "src/runtime/fused_engine.h"

namespace gmorph {
namespace {

// Parsed form of one exported "ph":"X" event.
struct ParsedEvent {
  std::string name;
  std::string cat;
  int tid = -1;
  double ts_us = 0.0;
  double dur_us = 0.0;
  double end_us() const { return ts_us + dur_us; }
};

// The exporter writes one event per line in a fixed field order; this scanner
// doubles as a format check (a line that is neither metadata nor a complete
// event fails the test).
std::vector<ParsedEvent> ParseTraceEvents(const std::string& json) {
  std::vector<ParsedEvent> events;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) {
      eol = json.size();
    }
    std::string line = json.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line[0] == ',') {
      line.erase(0, 1);
    }
    if (line.rfind("{\"name\":", 0) != 0) {
      continue;  // array open/close, metadata prefix line
    }
    char name[64] = {0};
    char cat[32] = {0};
    ParsedEvent e;
    if (std::sscanf(line.c_str(),
                    "{\"name\":\"%63[^\"]\",\"cat\":\"%31[^\"]\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%d,\"ts\":%lf,\"dur\":%lf}",
                    name, cat, &e.tid, &e.ts_us, &e.dur_us) == 5) {
      e.name = name;
      e.cat = cat;
      events.push_back(e);
      continue;
    }
    // Anything else must be a metadata ("ph":"M") record.
    EXPECT_NE(line.find("\"ph\":\"M\""), std::string::npos) << "unparseable line: " << line;
  }
  return events;
}

int CountByName(const std::vector<ParsedEvent>& events, const std::string& name) {
  return static_cast<int>(
      std::count_if(events.begin(), events.end(),
                    [&](const ParsedEvent& e) { return e.name == name; }));
}

const ParsedEvent* FindByName(const std::vector<ParsedEvent>& events, const std::string& name) {
  for (const ParsedEvent& e : events) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

// Stops and clears process-wide tracing around each test so the suites stay
// order-independent.
class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::StopTracing();
    obs::ClearTrace();
  }
  void TearDown() override {
    obs::StopTracing();
    obs::ClearTrace();
  }
};

using ObsTraceExportTest = ObsTraceTest;
using ObsTraceParallelTest = ObsTraceTest;
using ObsDisabledModeTest = ObsTraceTest;

TEST_F(ObsTraceExportTest, NestedSpansExportWithNamesAndContainment) {
  obs::StartTracing();
  {
    obs::TraceSpan outer("search/iteration", obs::TraceCat::kSearch);
    {
      obs::TraceSpan mid("eval/profile", obs::TraceCat::kEval);
      obs::TraceSpan inner("node/1:conv3x3", obs::TraceCat::kEngine);
    }
  }
  obs::StopTracing();

  const std::string json = obs::TraceToJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  const std::vector<ParsedEvent> events = ParseTraceEvents(json);
  const ParsedEvent* outer = FindByName(events, "search/iteration");
  const ParsedEvent* mid = FindByName(events, "eval/profile");
  const ParsedEvent* inner = FindByName(events, "node/1:conv3x3");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(mid, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->cat, "search");
  EXPECT_EQ(mid->cat, "eval");
  EXPECT_EQ(inner->cat, "engine");
  // All on the recording thread, properly nested in time.
  EXPECT_EQ(outer->tid, mid->tid);
  EXPECT_EQ(mid->tid, inner->tid);
  EXPECT_LE(outer->ts_us, mid->ts_us);
  EXPECT_GE(outer->end_us(), mid->end_us());
  EXPECT_LE(mid->ts_us, inner->ts_us);
  EXPECT_GE(mid->end_us(), inner->end_us());
}

TEST_F(ObsTraceExportTest, LongNamesAreTruncatedNotCorrupted) {
  obs::StartTracing();
  const std::string long_name(200, 'x');
  { obs::TraceSpan span(long_name, obs::TraceCat::kOther); }
  obs::StopTracing();
  const std::vector<ParsedEvent> events = ParseTraceEvents(obs::TraceToJson());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, std::string(obs::TraceSpan::kMaxName, 'x'));
}

TEST_F(ObsTraceExportTest, ManualSpansLandOnNamedVirtualLanes) {
  obs::StartTracing();
  obs::SetVirtualLaneName(2001, "sim/test-lane");
  obs::RecordManualSpan("request", obs::TraceCat::kServing, /*ts_us=*/1000.0,
                        /*dur_us=*/250.0, /*virtual_tid=*/2001);
  obs::StopTracing();
  const std::string json = obs::TraceToJson();
  EXPECT_NE(json.find("\"name\":\"sim/test-lane\""), std::string::npos);
  const std::vector<ParsedEvent> events = ParseTraceEvents(json);
  const ParsedEvent* request = FindByName(events, "request");
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->tid, 2001);
  EXPECT_DOUBLE_EQ(request->ts_us, 1000.0);
  EXPECT_DOUBLE_EQ(request->dur_us, 250.0);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Byte pins for the trace export. Other suites' rings stay registered, so the
// records are matched as exact substrings rather than as the whole file.
TEST_F(ObsTraceExportTest, JsonPinsEnvelopeLaneAndSpanBytes) {
  obs::StartTracing();
  obs::SetVirtualLaneName(2001, "sim/test-lane");
  obs::SetVirtualLaneName(2002, "lane \"q\"\t2");
  obs::RecordManualSpan("request", obs::TraceCat::kServing, /*ts_us=*/1000.0,
                        /*dur_us=*/250.0, /*virtual_tid=*/2001);
  obs::RecordManualSpan("batch \"b\"", obs::TraceCat::kBench, 0.5, 0.25, 2002);
  int named_tid = -1;
  int unnamed_tid = -1;
  std::thread named([&] {
    obs::SetCurrentThreadName("pin-worker");
    named_tid = obs::CurrentThreadIndex();
  });
  named.join();
  std::thread unnamed([&] {
    unnamed_tid = obs::CurrentThreadIndex();
    obs::RecordManualSpan("on-ring", obs::TraceCat::kOther, 2.0, 3.0, /*virtual_tid=*/-1);
  });
  unnamed.join();
  obs::StopTracing();

  const std::string json = obs::TraceToJson();
  const std::string head =
      "{\"traceEvents\":[\n"
      R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"gmorph"}})";
  EXPECT_EQ(json.rfind(head, 0), 0u) << json;
  const std::string tail = "}\n],\"displayTimeUnit\":\"ms\"}\n";
  ASSERT_GE(json.size(), tail.size());
  EXPECT_EQ(json.substr(json.size() - tail.size()), tail);
  const std::string u = std::to_string(unnamed_tid);
  for (const std::string& record : {
           std::string(R"({"name":"thread_name","ph":"M","pid":1,"tid":2001,)"
                       R"("args":{"name":"sim/test-lane"}})"),
           std::string(R"({"name":"thread_name","ph":"M","pid":1,"tid":2002,)"
                       R"("args":{"name":"lane \"q\"\t2"}})"),
           R"({"name":"thread_name","ph":"M","pid":1,"tid":)" + std::to_string(named_tid) +
               R"(,"args":{"name":"pin-worker"}})",
           R"({"name":"thread_name","ph":"M","pid":1,"tid":)" + u +
               R"(,"args":{"name":"thread-)" + u + R"("}})",
           std::string(R"({"name":"request","cat":"serving","ph":"X","pid":1,"tid":2001,)"
                       R"("ts":1000.000,"dur":250.000})"),
           std::string(R"({"name":"batch \"b\"","cat":"bench","ph":"X","pid":1,"tid":2002,)"
                       R"("ts":0.500,"dur":0.250})"),
           R"({"name":"on-ring","cat":"other","ph":"X","pid":1,"tid":)" + u +
               R"(,"ts":2.000,"dur":3.000})"}) {
    // Each record opens a line and ends where the next one's comma starts.
    const size_t at = json.find(",\n" + record);
    ASSERT_NE(at, std::string::npos) << record << "\n" << json;
    const char next = json[at + 2 + record.size()];
    EXPECT_TRUE(next == ',' || next == '\n') << record;
  }

  // The file holds the export verbatim, with no newline added.
  const std::string path = ::testing::TempDir() + "/obs_trace_pin.json";
  ASSERT_TRUE(obs::WriteTraceJson(path));
  EXPECT_EQ(ReadFile(path), json);
  std::remove(path.c_str());
}

TEST_F(ObsTraceExportTest, AccumulateSpanFeedsProfileWhileTracingOff) {
  // FusedEngine's per-step profile rides on this variant: it must time the
  // scope even when no trace is being recorded.
  double seconds = 0.0;
  {
    obs::TraceSpan span(std::string("engine/step"), obs::TraceCat::kEngine, &seconds);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sink = sink + i;
    }
  }
  EXPECT_GT(seconds, 0.0);
  EXPECT_EQ(obs::TraceEventCount(), 0u);
}

TEST_F(ObsTraceParallelTest, PoolWorkersRecordConcurrently) {
  constexpr int kTasks = 500;
  obs::StartTracing();
  {
    ThreadPool pool(4, "obs-test");
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([] { obs::TraceSpan span("work-item", obs::TraceCat::kOther); });
    }
    pool.WaitAll();
  }  // joins the workers: all rings quiesced before export
  obs::StopTracing();

  const std::string json = obs::TraceToJson();
  const std::vector<ParsedEvent> events = ParseTraceEvents(json);
  // Every task records its own span plus the pool's "pool/task" wrapper.
  EXPECT_EQ(CountByName(events, "work-item"), kTasks);
  EXPECT_EQ(CountByName(events, "pool/task"), kTasks);
  // Worker threads are attributed by name in the export metadata.
  EXPECT_NE(json.find("\"name\":\"obs-test-0\""), std::string::npos);
  // Spans from one worker never interleave incorrectly: within a tid, the
  // ring preserves completion order (end timestamps are non-decreasing).
  std::vector<ParsedEvent> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ParsedEvent& a, const ParsedEvent& b) { return a.tid < b.tid; });
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].tid == sorted[i - 1].tid) {
      EXPECT_GE(sorted[i].end_us(), sorted[i - 1].end_us());
    }
  }
}

TEST_F(ObsDisabledModeTest, RecordsNothingAndRegistersNoThread) {
  const int rings_before = obs::NumRegisteredTraceThreads();
  // A fresh thread recording disabled spans must not register a ring, record
  // an event, or touch the clock-derived state.
  std::thread t([] {
    for (int i = 0; i < 100; ++i) {
      obs::TraceSpan span("never-recorded", obs::TraceCat::kOther);
    }
  });
  t.join();
  EXPECT_EQ(obs::NumRegisteredTraceThreads(), rings_before);
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  const std::string json = obs::TraceToJson();
  EXPECT_EQ(json.find("never-recorded"), std::string::npos);
}

TEST(MetricsCounterTest, IncrementAndSnapshot) {
  obs::Counter& c = obs::GetCounter("test.obs_counter");
  c.Reset();
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.Value(), 5);
  const std::string json = obs::MetricsRegistry::Global().ToJson();
  EXPECT_NE(json.find("\"test.obs_counter\":5"), std::string::npos);
  c.Reset();
}

TEST(MetricsGaugeTest, SetOverwrites) {
  obs::Gauge& g = obs::GetGauge("test.obs_gauge");
  g.Set(2.5);
  g.Set(7.25);
  EXPECT_DOUBLE_EQ(g.Value(), 7.25);
  g.Reset();
}

TEST(MetricsHistogramTest, QuantilesMatchBruteForceWithinBucketWidth) {
  obs::Histogram h(obs::DefaultLatencyBucketsMs());
  std::mt19937 rng(1234);
  std::lognormal_distribution<double> dist(1.0, 1.5);
  std::vector<double> values;
  values.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    const double v = dist(rng);
    values.push_back(v);
    h.Observe(v);
  }
  std::sort(values.begin(), values.end());

  const std::vector<double>& bounds = h.bounds();
  for (double q : {0.0, 0.25, 0.50, 0.95, 0.99, 1.0}) {
    const double exact =
        values[static_cast<size_t>(q * static_cast<double>(values.size() - 1))];
    // The estimate interpolates inside the covering bucket, so its error is
    // bounded by that bucket's width.
    const size_t b = static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), exact) - bounds.begin());
    const double lo = b == 0 ? h.Min() : bounds[b - 1];
    const double hi = b < bounds.size() ? bounds[b] : h.Max();
    EXPECT_NEAR(h.Quantile(q), exact, (hi - lo) + 1e-9) << "q=" << q;
  }
  EXPECT_EQ(h.Count(), 5000);
  EXPECT_DOUBLE_EQ(h.Min(), values.front());
  EXPECT_DOUBLE_EQ(h.Max(), values.back());
  h.Reset();
  EXPECT_EQ(h.Count(), 0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(MetricsHistogramTest, SingleValueDistributionIsExact) {
  obs::Histogram h({1.0, 10.0, 100.0});
  for (int i = 0; i < 50; ++i) {
    h.Observe(42.0);
  }
  // Clamping to observed min/max makes degenerate distributions exact.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 42.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 42.0);
}

TEST(MetricsHistogramTest, ConcurrentObserveKeepsTotals) {
  obs::Histogram& h = obs::GetHistogram("test.obs_parallel_hist", {1.0, 2.0, 4.0, 8.0});
  h.Reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<double>(t) + 0.5);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(h.Min(), 0.5);
  EXPECT_DOUBLE_EQ(h.Max(), 3.5);
  EXPECT_DOUBLE_EQ(h.Sum(), kPerThread * (0.5 + 1.5 + 2.5 + 3.5));
  h.Reset();
}

TEST(MetricsRegistryTest, SnapshotIsWellFormedJson) {
  obs::GetCounter("test.obs_snapshot_counter").Increment();
  obs::GetHistogram("test.obs_snapshot_hist").Observe(1.25);
  const std::string json = obs::MetricsRegistry::Global().ToJson();
  // Structural sanity: balanced braces, the three sections, quantile keys.
  int depth = 0;
  for (char c : json) {
    if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(MetricsRegistryTest, SnapshotEscapesControlCharactersInNames) {
  obs::Counter& c = obs::GetCounter("test.obs_ctl\n\x01" "end");
  c.Increment();
  const std::string json = obs::MetricsRegistry::Global().ToJson();
  EXPECT_NE(json.find("\"test.obs_ctl\\n\\u0001end\":1"), std::string::npos) << json;
  EXPECT_EQ(json.find("obs_ctl\n"), std::string::npos);
  c.Reset();
}

// `"name":value` must appear as one whole member of a snapshot section.
void ExpectMember(const std::string& json, const std::string& member) {
  const size_t at = json.find(member);
  ASSERT_NE(at, std::string::npos) << member << "\n" << json;
  ASSERT_GT(at, 0u);
  EXPECT_TRUE(json[at - 1] == '{' || json[at - 1] == ',') << member;
  const char next = json[at + member.size()];
  EXPECT_TRUE(next == ',' || next == '}') << member;
}

// Byte pins for the metrics snapshot: integers for counters, %.6g for gauges
// and every histogram field.
TEST(MetricsRegistryTest, SnapshotPinsInstrumentBytes) {
  obs::Counter& c = obs::GetCounter("test.pin_counter");
  c.Reset();
  c.Increment(7);
  obs::GetGauge("test.pin_gauge").Set(0.1234567);
  obs::Histogram& h = obs::GetHistogram("test.pin_hist", {1.0, 2.0, 4.0});
  h.Reset();
  for (const double v : {0.5, 1.5, 3.0, 10.0}) {
    h.Observe(v);
  }
  const std::string json = obs::MetricsRegistry::Global().ToJson();
  EXPECT_EQ(json.rfind("{\"counters\":{", 0), 0u) << json;
  EXPECT_NE(json.find("},\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("},\"histograms\":{"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 2), "}}");
  ExpectMember(json, R"("test.pin_counter":7)");
  ExpectMember(json, R"("test.pin_gauge":0.123457)");
  ExpectMember(json, R"("test.pin_hist":{"count":4,"sum":15,"min":0.5,"max":10,"mean":3.75,)"
                     R"("p50":3,"p95":9.1,"p99":9.82})");
  c.Reset();
  obs::GetGauge("test.pin_gauge").Reset();
  h.Reset();
}

TEST(ObsTimingTest, MonotonicNowAdvances) {
  const int64_t a = MonotonicNowNs();
  const int64_t b = MonotonicNowNs();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
}

// Two fused engines over one model run the same plan on the same weights, so
// the interleaved loop must time them as equals.
TEST(ObsTimingTest, InterleavedSelfPairReadsOneToOne) {
  Rng rng(8);
  VisionModelOptions opts;
  opts.base_width = 8;
  opts.classes = 4;
  AbsGraph g = ParseModelSpecs({MakeVgg13(opts)});
  MultiTaskModel model(g, rng);
  FusedEngine a(&model);
  FusedEngine b(&model);
  const Tensor x = Tensor::Zeros(g.node(g.root()).output_shape.WithBatch(4));
  const std::vector<double> ms =
      InterleavedMediansMs({[&] { a.Run(x); }, [&] { b.Run(x); }}, /*warmup=*/1, /*repeats=*/31);
  ASSERT_EQ(ms.size(), 2u);
  EXPECT_NEAR(ms[0] / ms[1], 1.0, 0.15) << ms[0] << " ms / " << ms[1] << " ms";
}

TEST(ObsTimingTest, MedianTimedMsIsTheOneCallableCase) {
  int calls = 0;
  const double ms = MedianTimedMs([&] { ++calls; }, /*warmup=*/2, /*repeats=*/5);
  EXPECT_EQ(calls, 7);
  EXPECT_GE(ms, 0.0);
  EXPECT_THROW(InterleavedMediansMs({[] {}}, 0, 0), CheckError);
}

}  // namespace
}  // namespace gmorph
