#include "src/serving/flight_recorder.h"

#include <algorithm>

#include "src/obs/json.h"

namespace gmorph {
namespace internal {
std::atomic<bool> g_flight_enabled{false};
}  // namespace internal

namespace {

// 64K events (~2.5MB): enough for ~10K requests with their full lifecycle
// before the ring wraps; a fixed footprint either way.
constexpr size_t kCapacity = size_t{1} << 16;

struct Slot {
  // ticket + 1 of the entry the payload belongs to; 0 = never written. The
  // release store publishes the payload; a reader seeing a different ticket
  // skips the slot (it is being overwritten).
  std::atomic<uint64_t> published{0};
  FlightEventKind kind = FlightEventKind::kAdmit;
  double t_ms = 0.0;
  int64_t request = -1;
  int64_t aux = -1;
};

struct Ring {
  std::atomic<uint64_t> cursor{0};  // next ticket
  Slot slots[kCapacity];
};

Ring& GlobalRing() {
  static Ring* ring = new Ring();  // leaked: lives for the process
  return *ring;
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kAdmit:
      return "admit";
    case FlightEventKind::kShed:
      return "shed";
    case FlightEventKind::kEnqueue:
      return "enqueue";
    case FlightEventKind::kBatchFormed:
      return "batch-formed";
    case FlightEventKind::kRunStart:
      return "run-start";
    case FlightEventKind::kDone:
      return "done";
    case FlightEventKind::kSwap:
      return "swap";
  }
  return "unknown";
}

void StartFlightRecorder() {
  internal::g_flight_enabled.store(true, std::memory_order_relaxed);
}

void StopFlightRecorder() {
  internal::g_flight_enabled.store(false, std::memory_order_relaxed);
}

void ClearFlightRecorder() {
  Ring& ring = GlobalRing();
  for (Slot& slot : ring.slots) {
    slot.published.store(0, std::memory_order_relaxed);
  }
  ring.cursor.store(0, std::memory_order_release);
}

void RecordFlightEvent(FlightEventKind kind, double t_ms, int64_t request, int64_t aux) {
  if (!FlightRecorderEnabled()) {
    return;
  }
  Ring& ring = GlobalRing();
  const uint64_t ticket = ring.cursor.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring.slots[ticket % kCapacity];
  slot.kind = kind;
  slot.t_ms = t_ms;
  slot.request = request;
  slot.aux = aux;
  slot.published.store(ticket + 1, std::memory_order_release);
}

size_t FlightRecorderCapacity() { return kCapacity; }

uint64_t FlightTotalRecorded() {
  return GlobalRing().cursor.load(std::memory_order_acquire);
}

size_t FlightEventCount() {
  const uint64_t total = FlightTotalRecorded();
  return static_cast<size_t>(std::min<uint64_t>(total, kCapacity));
}

size_t FlightDroppedCount() {
  const uint64_t total = FlightTotalRecorded();
  return total > kCapacity ? static_cast<size_t>(total - kCapacity) : 0;
}

std::vector<FlightEvent> FlightRecorderSnapshot() {
  Ring& ring = GlobalRing();
  const uint64_t total = ring.cursor.load(std::memory_order_acquire);
  const uint64_t begin = total > kCapacity ? total - kCapacity : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<size_t>(total - begin));
  for (uint64_t ticket = begin; ticket < total; ++ticket) {
    const Slot& slot = ring.slots[ticket % kCapacity];
    if (slot.published.load(std::memory_order_acquire) != ticket + 1) {
      continue;  // mid-overwrite by a straggler; skip rather than tear
    }
    FlightEvent e;
    e.seq = ticket;
    e.kind = slot.kind;
    e.t_ms = slot.t_ms;
    e.request = slot.request;
    e.aux = slot.aux;
    out.push_back(e);
  }
  return out;
}

std::string FlightRecorderToJson() {
  const std::vector<FlightEvent> events = FlightRecorderSnapshot();
  obs::JsonWriter w(obs::kCompactJson);
  w.BeginObject().Key("flight_recorder").BeginObject().Key("capacity").Int(kCapacity);
  w.Key("recorded").Int(FlightTotalRecorded()).Key("dropped").Int(FlightDroppedCount());
  w.Key("events").BeginArray();
  for (const FlightEvent& e : events) {
    w.BeginObject().Key("seq").Int(e.seq).Key("kind").String(FlightEventKindName(e.kind));
    w.Key("t_ms").Number(e.t_ms).Key("request").Int(e.request).Key("aux").Int(e.aux);
    w.EndObject();
  }
  w.EndArray().EndObject().EndObject();
  return w.Take();
}

bool WriteFlightRecorderJson(const std::string& path) {
  return obs::WriteJsonFile(path, FlightRecorderToJson() + "\n");
}

namespace {

std::string StopAndRenderFlightRecorder() {
  StopFlightRecorder();
  return FlightRecorderToJson() + "\n";
}

}  // namespace

void WriteFlightRecorderJsonAtExit(const std::string& path) {
  StartFlightRecorder();
  obs::WriteJsonFileAtExit(path, StopAndRenderFlightRecorder);
}

}  // namespace gmorph
