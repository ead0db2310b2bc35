#include "src/obs/trace.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/timing.h"

namespace gmorph::obs {
namespace {

// One recorded complete event. Names are copied in (no lifetime coupling with
// the instrumented code); 47 chars cover every span name in the repo.
struct TraceEvent {
  char name[TraceSpan::kMaxName + 1];
  uint8_t name_len = 0;
  TraceCat cat = TraceCat::kOther;
  int32_t virtual_tid = -1;  // -1: use the owning ring's thread id
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

// Per-thread single-producer ring. The owning thread is the only writer; the
// exporter reads entries below the release-published cursor. Event storage is
// allocated lazily on the first record so naming a thread (which registers
// the ring) costs nothing while tracing is off.
struct ThreadRing {
  static constexpr size_t kCapacity = 1 << 15;  // per-thread events kept (newest win)

  int tid = 0;
  std::string name;
  std::vector<TraceEvent> events;        // size 0 until first record, then kCapacity
  std::atomic<uint64_t> cursor{0};       // total events ever written
  std::atomic<uint64_t> cleared_below{0};  // ClearTrace() high-water mark

  void Record(const char* name_chars, size_t len, TraceCat cat, int64_t start_ns,
              int64_t end_ns, int virtual_tid) {
    if (events.empty()) {
      events.resize(kCapacity);
    }
    const uint64_t at = cursor.load(std::memory_order_relaxed);
    TraceEvent& e = events[at % kCapacity];
    len = std::min(len, TraceSpan::kMaxName);
    std::memcpy(e.name, name_chars, len);
    e.name[len] = '\0';
    e.name_len = static_cast<uint8_t>(len);
    e.cat = cat;
    e.virtual_tid = virtual_tid;
    e.start_ns = start_ns;
    e.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
    cursor.store(at + 1, std::memory_order_release);
  }
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadRing>> rings;  // owned; threads hold raw pointers
  std::map<int, std::string> virtual_lanes;
  std::atomic<int> next_tid{0};
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // leaked: outlives detached threads
  return *registry;
}

thread_local ThreadRing* t_ring = nullptr;
thread_local int t_thread_index = -1;

int AssignThreadIndex() {
  if (t_thread_index < 0) {
    t_thread_index = GetRegistry().next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return t_thread_index;
}

ThreadRing* CurrentRing() {
  if (t_ring == nullptr) {
    auto ring = std::make_unique<ThreadRing>();
    ring->tid = AssignThreadIndex();
    t_ring = ring.get();
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.rings.push_back(std::move(ring));
  }
  return t_ring;
}

}  // namespace

namespace internal {

std::atomic<bool> g_trace_enabled{false};

void RecordComplete(const char* name, size_t name_len, TraceCat cat, int64_t start_ns,
                    int64_t end_ns, int virtual_tid) {
  CurrentRing()->Record(name, name_len, cat, start_ns, end_ns, virtual_tid);
}

}  // namespace internal

const char* TraceCatName(TraceCat cat) {
  switch (cat) {
    case TraceCat::kSearch:
      return "search";
    case TraceCat::kEval:
      return "eval";
    case TraceCat::kEngine:
      return "engine";
    case TraceCat::kKernel:
      return "kernel";
    case TraceCat::kPool:
      return "pool";
    case TraceCat::kServing:
      return "serving";
    case TraceCat::kBench:
      return "bench";
    case TraceCat::kOther:
      return "other";
  }
  return "other";
}

void StartTracing() { internal::g_trace_enabled.store(true, std::memory_order_seq_cst); }

void StopTracing() { internal::g_trace_enabled.store(false, std::memory_order_seq_cst); }

void ClearTrace() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (auto& ring : registry.rings) {
    ring->cleared_below.store(ring->cursor.load(std::memory_order_acquire),
                              std::memory_order_relaxed);
  }
}

int CurrentThreadIndex() { return AssignThreadIndex(); }

void SetCurrentThreadName(const std::string& name) {
  ThreadRing* ring = CurrentRing();
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  ring->name = name;
}

void SetVirtualLaneName(int virtual_tid, const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.virtual_lanes[virtual_tid] = name;
}

// ---- TraceSpan ----

void TraceSpan::Begin(const char* name, size_t len, TraceCat cat) {
  len = std::min(len, kMaxName);
  std::memcpy(name_, name, len);
  name_len_ = static_cast<uint8_t>(len);
  cat_ = cat;
  active_ = true;
}

TraceSpan::TraceSpan(const char* name, TraceCat cat) {
  if (!TraceEnabled()) {
    return;  // the whole disabled cost: one relaxed load
  }
  Begin(name, std::strlen(name), cat);
  start_ns_ = MonotonicNowNs();
}

TraceSpan::TraceSpan(const std::string& name, TraceCat cat) {
  if (!TraceEnabled()) {
    return;
  }
  Begin(name.data(), name.size(), cat);
  start_ns_ = MonotonicNowNs();
}

TraceSpan::TraceSpan(const std::string& name, TraceCat cat, double* accumulate_seconds)
    : accumulate_seconds_(accumulate_seconds) {
  // Always timed: the elapsed seconds feed a profile accumulator (engine step
  // profiles) independently of whether the span is also recorded.
  start_ns_ = MonotonicNowNs();
  if (!TraceEnabled()) {
    return;
  }
  Begin(name.data(), name.size(), cat);
}

TraceSpan::~TraceSpan() {
  if (!active_ && accumulate_seconds_ == nullptr) {
    return;
  }
  const int64_t end_ns = MonotonicNowNs();
  if (accumulate_seconds_ != nullptr) {
    *accumulate_seconds_ += static_cast<double>(end_ns - start_ns_) * 1e-9;
  }
  if (active_) {
    internal::RecordComplete(name_, name_len_, cat_, start_ns_, end_ns, /*virtual_tid=*/-1);
  }
}

void RecordManualSpan(const std::string& name, TraceCat cat, double ts_us, double dur_us,
                      int virtual_tid) {
  if (!TraceEnabled()) {
    return;
  }
  const int64_t start_ns = static_cast<int64_t>(ts_us * 1e3);
  internal::RecordComplete(name.data(), name.size(), cat, start_ns,
                           start_ns + static_cast<int64_t>(dur_us * 1e3), virtual_tid);
}

// ---- Export ----

namespace {

// Snapshot of one ring's live entries (oldest first).
void CollectRing(const ThreadRing& ring, std::vector<const TraceEvent*>& out, size_t& dropped) {
  const uint64_t cursor = ring.cursor.load(std::memory_order_acquire);
  const uint64_t cleared = ring.cleared_below.load(std::memory_order_relaxed);
  const uint64_t live = cursor - cleared;
  const uint64_t kept = std::min<uint64_t>(live, ThreadRing::kCapacity);
  dropped += static_cast<size_t>(live - kept);
  for (uint64_t i = cursor - kept; i < cursor; ++i) {
    out.push_back(&ring.events[i % ThreadRing::kCapacity]);
  }
}

}  // namespace

size_t TraceEventCount() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  size_t total = 0;
  for (const auto& ring : registry.rings) {
    const uint64_t cursor = ring->cursor.load(std::memory_order_acquire);
    const uint64_t cleared = ring->cleared_below.load(std::memory_order_relaxed);
    total += static_cast<size_t>(
        std::min<uint64_t>(cursor - cleared, ThreadRing::kCapacity));
  }
  return total;
}

size_t TraceDroppedCount() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  size_t dropped = 0;
  for (const auto& ring : registry.rings) {
    const uint64_t cursor = ring->cursor.load(std::memory_order_acquire);
    const uint64_t cleared = ring->cleared_below.load(std::memory_order_relaxed);
    const uint64_t live = cursor - cleared;
    if (live > ThreadRing::kCapacity) {
      dropped += static_cast<size_t>(live - ThreadRing::kCapacity);
    }
  }
  return dropped;
}

int NumRegisteredTraceThreads() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return static_cast<int>(registry.rings.size());
}

std::string TraceToJson() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);

  JsonWriter w(kCompactJson);
  w.BeginObject().Key("traceEvents").BeginArray();
  const auto metadata = [&](const char* name, int tid, const std::string& value) {
    w.LineBreak().BeginObject().Key("name").String(name).Key("ph").String("M");
    w.Key("pid").Int(1).Key("tid").Int(tid);
    w.Key("args").BeginObject().Key("name").String(value).EndObject().EndObject();
  };
  metadata("process_name", 0, "gmorph");

  // Thread-name metadata: named rings, unnamed rings that recorded anything,
  // and virtual lanes.
  for (const auto& ring : registry.rings) {
    const bool has_events = ring->cursor.load(std::memory_order_acquire) >
                            ring->cleared_below.load(std::memory_order_relaxed);
    if (ring->name.empty() && !has_events) {
      continue;
    }
    metadata("thread_name", ring->tid,
             ring->name.empty() ? "thread-" + std::to_string(ring->tid) : ring->name);
  }
  for (const auto& [tid, name] : registry.virtual_lanes) {
    metadata("thread_name", tid, name);
  }

  for (const auto& ring : registry.rings) {
    std::vector<const TraceEvent*> events;
    size_t dropped = 0;
    CollectRing(*ring, events, dropped);
    for (const TraceEvent* e : events) {
      w.LineBreak().BeginObject().Key("name").String(std::string_view(e->name, e->name_len));
      w.Key("cat").String(TraceCatName(e->cat)).Key("ph").String("X").Key("pid").Int(1);
      w.Key("tid").Int(e->virtual_tid >= 0 ? e->virtual_tid : ring->tid);
      w.Key("ts").Fixed(static_cast<double>(e->start_ns) * 1e-3, 3);
      w.Key("dur").Fixed(static_cast<double>(e->dur_ns) * 1e-3, 3).EndObject();
    }
  }
  w.LineBreak().EndArray().Key("displayTimeUnit").String("ms").EndObject();
  return w.Take() + "\n";
}

bool WriteTraceJson(const std::string& path) { return WriteJsonFile(path, TraceToJson()); }

namespace {

std::string StopAndRenderTrace() {
  StopTracing();
  return TraceToJson();
}

}  // namespace

void WriteTraceJsonAtExit(const std::string& path) {
  WriteJsonFileAtExit(path, StopAndRenderTrace);
  if (t_ring == nullptr || t_ring->name.empty()) {
    SetCurrentThreadName("main");
  }
  StartTracing();
}

bool InitTracingFromEnv() {
  static const bool armed = ArmFromEnv("GMORPH_TRACE", WriteTraceJsonAtExit);
  return armed;
}

}  // namespace gmorph::obs
