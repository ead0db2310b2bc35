// Serving flight recorder: the disabled fast path, the lock-free ring's
// wraparound discipline (oldest dropped, order preserved, never torn), and
// the JSON export. The tests drive the recorder directly; the end-to-end
// accounting against the threaded server lives in threaded_serving_test.cc.
#include "src/serving/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace gmorph {
namespace {

// Every test starts from a quiesced, empty recorder and leaves it disabled —
// the recorder is process-global state shared with the serving tests.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StopFlightRecorder();
    ClearFlightRecorder();
  }
  void TearDown() override {
    StopFlightRecorder();
    ClearFlightRecorder();
  }
};

TEST_F(FlightRecorderTest, DisabledRecordsNothing) {
  ASSERT_FALSE(FlightRecorderEnabled());
  const uint64_t before = FlightTotalRecorded();
  for (int i = 0; i < 100; ++i) {
    RecordFlightEvent(FlightEventKind::kAdmit, 1.0, i);
  }
  EXPECT_EQ(FlightTotalRecorded(), before);
  EXPECT_EQ(FlightEventCount(), 0u);
  EXPECT_TRUE(FlightRecorderSnapshot().empty());
}

TEST_F(FlightRecorderTest, RecordsLifecycleInOrder) {
  StartFlightRecorder();
  RecordFlightEvent(FlightEventKind::kAdmit, 0.5, 7);
  RecordFlightEvent(FlightEventKind::kEnqueue, 0.5, 7);
  RecordFlightEvent(FlightEventKind::kBatchFormed, 1.0, 1, /*aux=*/0);
  RecordFlightEvent(FlightEventKind::kRunStart, 1.0, 7, /*aux=*/0);
  RecordFlightEvent(FlightEventKind::kDone, 2.25, 7, /*aux=*/0);

  const std::vector<FlightEvent> events = FlightRecorderSnapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kAdmit);
  EXPECT_EQ(events[4].kind, FlightEventKind::kDone);
  EXPECT_EQ(events[4].request, 7);
  EXPECT_EQ(events[4].aux, 0);
  EXPECT_DOUBLE_EQ(events[4].t_ms, 2.25);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_EQ(FlightDroppedCount(), 0u);
}

TEST_F(FlightRecorderTest, KindNamesAreStable) {
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kAdmit), "admit");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kShed), "shed");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kEnqueue), "enqueue");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kBatchFormed), "batch-formed");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kRunStart), "run-start");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kDone), "done");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kSwap), "swap");
}

TEST_F(FlightRecorderTest, WraparoundDropsOldestAndPreservesOrder) {
  StartFlightRecorder();
  const size_t capacity = FlightRecorderCapacity();
  const size_t overflow = 100;
  for (size_t i = 0; i < capacity + overflow; ++i) {
    RecordFlightEvent(FlightEventKind::kAdmit, static_cast<double>(i),
                      static_cast<int64_t>(i));
  }
  EXPECT_EQ(FlightTotalRecorded(), capacity + overflow);
  EXPECT_EQ(FlightEventCount(), capacity);
  EXPECT_EQ(FlightDroppedCount(), overflow);

  const std::vector<FlightEvent> events = FlightRecorderSnapshot();
  ASSERT_EQ(events.size(), capacity);
  // The oldest `overflow` events were overwritten; what remains starts right
  // after them and stays strictly ordered.
  EXPECT_EQ(events.front().request, static_cast<int64_t>(overflow));
  EXPECT_EQ(events.back().request, static_cast<int64_t>(capacity + overflow - 1));
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
    EXPECT_EQ(events[i].request, events[i - 1].request + 1);
  }
}

TEST_F(FlightRecorderTest, ClearKeepsRecordingState) {
  StartFlightRecorder();
  RecordFlightEvent(FlightEventKind::kAdmit, 0.0, 1);
  ClearFlightRecorder();
  EXPECT_TRUE(FlightRecorderEnabled());
  EXPECT_EQ(FlightEventCount(), 0u);
  RecordFlightEvent(FlightEventKind::kAdmit, 0.0, 2);
  EXPECT_EQ(FlightEventCount(), 1u);
}

TEST_F(FlightRecorderTest, ConcurrentWritersLoseNothingBelowCapacity) {
  StartFlightRecorder();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        RecordFlightEvent(FlightEventKind::kEnqueue, 0.0, t * kPerThread + i);
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }
  ASSERT_LE(static_cast<size_t>(kThreads * kPerThread), FlightRecorderCapacity());
  EXPECT_EQ(FlightTotalRecorded(), static_cast<uint64_t>(kThreads * kPerThread));
  const std::vector<FlightEvent> events = FlightRecorderSnapshot();
  EXPECT_EQ(events.size(), static_cast<size_t>(kThreads * kPerThread));
  // Every request index lands exactly once.
  std::vector<int> seen(kThreads * kPerThread, 0);
  for (const FlightEvent& e : events) {
    ASSERT_GE(e.request, 0);
    ASSERT_LT(e.request, kThreads * kPerThread);
    ++seen[static_cast<size_t>(e.request)];
  }
  for (int count : seen) {
    EXPECT_EQ(count, 1);
  }
}

TEST_F(FlightRecorderTest, JsonDumpRoundTripsThroughAFile) {
  StartFlightRecorder();
  RecordFlightEvent(FlightEventKind::kAdmit, 1.5, 3);
  RecordFlightEvent(FlightEventKind::kShed, 1.5, 3);
  const std::string json = FlightRecorderToJson();
  EXPECT_NE(json.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":2"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"shed\""), std::string::npos);

  const std::string path = ::testing::TempDir() + "/flight_dump.json";
  ASSERT_TRUE(WriteFlightRecorderJson(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), json + "\n");
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, JsonDumpPinsEveryByte) {
  StartFlightRecorder();
  RecordFlightEvent(FlightEventKind::kAdmit, 1.5, 3);
  RecordFlightEvent(FlightEventKind::kBatchFormed, 2.25, 4, 1);
  RecordFlightEvent(FlightEventKind::kDone, 1234567.0, 3, 1);
  StopFlightRecorder();
  EXPECT_EQ(FlightRecorderToJson(),
            R"({"flight_recorder":{"capacity":65536,"recorded":3,"dropped":0,"events":[)"
            R"({"seq":0,"kind":"admit","t_ms":1.5,"request":3,"aux":-1},)"
            R"({"seq":1,"kind":"batch-formed","t_ms":2.25,"request":4,"aux":1},)"
            R"({"seq":2,"kind":"done","t_ms":1.23457e+06,"request":3,"aux":1}]}})");
}

}  // namespace
}  // namespace gmorph
