// Process-wide tracing: RAII spans recorded into lock-free thread-local ring
// buffers, exported as Chrome trace-event JSON ("ph":"X" complete events plus
// thread-name metadata) loadable in Perfetto / chrome://tracing.
//
// Design:
//  - Recording is gated by one process-wide atomic flag. The disabled fast
//    path of a TraceSpan is a single relaxed atomic load — no clock read, no
//    allocation, no locking, no thread-local ring registration — so
//    instrumentation can stay in release hot paths unconditionally.
//  - Each recording thread owns a ring buffer (single producer, no locks on
//    the record path: one relaxed load of the enabled flag, a TLS lookup, an
//    in-place entry write, and a release store of the cursor). Rings register
//    themselves once under a mutex on first use; when a ring fills, the
//    oldest events are overwritten and a dropped counter is kept.
//  - Span names are copied into fixed-size entry slots at record time, so no
//    lifetime coupling exists between the tracer and the instrumented code.
//  - Export (TraceToJson / WriteTraceJson) walks all registered rings. It is
//    meant to run after StopTracing() with recording threads quiesced; a
//    straggler thread mid-record cannot corrupt the export (entries are
//    published with release/acquire on the cursor and a straggler never laps
//    the ring during the export window).
//
// Span taxonomy (DESIGN.md "Observability"): names are "<area>/<what>" with
// the area mirrored in the category — search/*, eval/*, engine/* (per-step
// labels), kernel/*, pool/*, serving/*.
#ifndef GMORPH_SRC_OBS_TRACE_H_
#define GMORPH_SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace gmorph::obs {

// Category of a span; exported as the event's "cat" field.
enum class TraceCat : uint8_t {
  kSearch = 0,
  kEval,
  kEngine,
  kKernel,
  kPool,
  kServing,
  kBench,
  kOther,
};

const char* TraceCatName(TraceCat cat);

namespace internal {
extern std::atomic<bool> g_trace_enabled;
// Records a completed span [start_ns, end_ns] (MonotonicNowNs time base) into
// the calling thread's ring, creating/registering the ring on first use.
// `virtual_tid` >= 0 overrides the thread id in the export (virtual lanes,
// e.g. the threaded server's request tracks).
void RecordComplete(const char* name, size_t name_len, TraceCat cat, int64_t start_ns,
                    int64_t end_ns, int virtual_tid);
}  // namespace internal

// The single relaxed load gating every record path.
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

// Enables / disables recording. Spans started before StopTracing() but ended
// after it are still recorded (they captured their start while enabled).
void StartTracing();
void StopTracing();

// Drops all recorded events (registered rings stay registered).
void ClearTrace();

// Small sequential id of the calling thread (assigned on first use; shared
// with the log prefix so log lines and trace tracks correlate).
int CurrentThreadIndex();

// Names the calling thread's trace track (exported as thread_name metadata).
// Safe to call whether or not tracing is enabled; the name survives
// ClearTrace().
void SetCurrentThreadName(const std::string& name);

// RAII span: records one complete ("ph":"X") event on destruction. The
// two-argument constructors are no-ops when tracing is disabled. The
// accumulate variant additionally *always* times the scope and adds the
// elapsed seconds to *accumulate_seconds on destruction — the FusedEngine per
// step profile is backed by these spans whether or not tracing is on.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, TraceCat cat = TraceCat::kOther);
  TraceSpan(const std::string& name, TraceCat cat = TraceCat::kOther);
  TraceSpan(const std::string& name, TraceCat cat, double* accumulate_seconds);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  static constexpr size_t kMaxName = 47;

 private:
  void Begin(const char* name, size_t len, TraceCat cat);

  char name_[kMaxName + 1];
  uint8_t name_len_ = 0;
  bool active_ = false;
  TraceCat cat_ = TraceCat::kOther;
  double* accumulate_seconds_ = nullptr;
  int64_t start_ns_ = 0;
};

// Records a span with explicit timestamps (microseconds on the MonotonicNowNs
// time base) onto a virtual thread lane. Used where RAII scoping does not
// apply: the threaded server records each request's lifecycle, which spans
// threads, once it completes. No-op when tracing is disabled.
void RecordManualSpan(const std::string& name, TraceCat cat, double ts_us, double dur_us,
                      int virtual_tid);

// Names a virtual lane for the export's thread_name metadata.
void SetVirtualLaneName(int virtual_tid, const std::string& name);

// ---- Export / introspection ----

// Total events currently held across all rings / dropped due to ring wrap.
size_t TraceEventCount();
size_t TraceDroppedCount();
// Number of registered thread rings (test introspection: the disabled record
// path must never register one).
int NumRegisteredTraceThreads();

// Chrome trace-event JSON ({"traceEvents": [...]}). Call with recording
// stopped and threads quiesced for a complete snapshot.
std::string TraceToJson();
bool WriteTraceJson(const std::string& path);

// If GMORPH_TRACE=<path> is set: starts tracing now and registers an atexit
// hook that writes the trace to <path>. Idempotent. Returns true when tracing
// was (already) armed by the environment.
bool InitTracingFromEnv();

// Starts tracing and writes the trace to `path` at process exit (the
// explicit-flag counterpart of InitTracingFromEnv, used by gmorph_cli
// --trace). Idempotent per path.
void WriteTraceJsonAtExit(const std::string& path);

}  // namespace gmorph::obs

#endif  // GMORPH_SRC_OBS_TRACE_H_
