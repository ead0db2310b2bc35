// Serving flight recorder: a fixed-size lock-free ring of the threaded
// server's request lifecycle events. Where the tracer answers "where did the
// time go", the flight recorder answers "what did the scheduler decide, in
// order" — and turns a "lost N requests" assertion into a replayable record.
//
// Cost contract (same as the tracer): when recording is disabled, a
// RecordFlightEvent call is a single relaxed atomic load — no clock read, no
// allocation, no ring write — so the server keeps its instrumentation in
// release hot paths unconditionally.
//
// Ring discipline: writers claim a slot with one fetch_add on the global
// cursor and publish the completed entry with a release store of its ticket;
// when the ring wraps, the oldest events are overwritten (dropped count =
// total - capacity). The snapshot/export path is meant to run with recording
// quiesced (after Drain()/Stop()); an entry caught mid-overwrite is skipped,
// never torn.
//
// Event vocabulary (one line per request lifecycle):
//   admit        — request seen by the scheduler (request = submission index)
//   shed         — rejected by SLA admission (request = index)
//   enqueue      — admitted into the queue (request = index)
//   batch-formed — a batch was cut from the queue (request = batch size,
//                  aux = replica slot)
//   run-start    — request entered a running batch (request = index, aux = slot)
//   done         — request completed (request = index, aux = slot)
//   swap         — replica hot-swap applied (request = slot)
#ifndef GMORPH_SRC_SERVING_FLIGHT_RECORDER_H_
#define GMORPH_SRC_SERVING_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace gmorph {

enum class FlightEventKind : uint8_t {
  kAdmit = 0,
  kShed,
  kEnqueue,
  kBatchFormed,
  kRunStart,
  kDone,
  kSwap,
};

// Stable text names ("admit", "shed", ...) used in the JSON dump.
const char* FlightEventKindName(FlightEventKind kind);

struct FlightEvent {
  uint64_t seq = 0;  // global record order (monotonic across the whole run)
  FlightEventKind kind = FlightEventKind::kAdmit;
  double t_ms = 0.0;    // wall ms on the server's clock
  int64_t request = -1; // see the vocabulary above
  int64_t aux = -1;     // replica slot where meaningful, else -1
};

namespace internal {
extern std::atomic<bool> g_flight_enabled;
}  // namespace internal

// The single relaxed load gating every record path.
inline bool FlightRecorderEnabled() {
  return internal::g_flight_enabled.load(std::memory_order_relaxed);
}

void StartFlightRecorder();
void StopFlightRecorder();
// Drops all recorded events (capacity and enabled state unchanged).
void ClearFlightRecorder();

// Records one event; no-op when disabled.
void RecordFlightEvent(FlightEventKind kind, double t_ms, int64_t request, int64_t aux = -1);

// ---- Introspection / export ----

size_t FlightRecorderCapacity();
// Events currently retained / recorded ever / overwritten by ring wrap.
size_t FlightEventCount();
uint64_t FlightTotalRecorded();
size_t FlightDroppedCount();

// Retained events in record order (oldest retained first). Call with
// recording quiesced for a complete snapshot.
std::vector<FlightEvent> FlightRecorderSnapshot();

// {"flight_recorder": {"capacity":.., "recorded":.., "dropped":..,
//  "events":[{"seq":..,"kind":"admit","t_ms":..,"request":..,"aux":..}, ...]}}
std::string FlightRecorderToJson();
bool WriteFlightRecorderJson(const std::string& path);

// Starts recording now and writes the dump to `path` at process exit
// (gmorph_cli --flight-recorder=<path>). Idempotent per path.
void WriteFlightRecorderJsonAtExit(const std::string& path);

}  // namespace gmorph

#endif  // GMORPH_SRC_SERVING_FLIGHT_RECORDER_H_
