// Consolidated monotonic clocks for the whole repo (the former
// src/common/timer.h and src/common/timing.h, merged).
//
//  - MonotonicNowNs(): nanoseconds on the steady clock since a process-wide
//    anchor taken at first use. Every observability timestamp (trace spans,
//    log prefixes, engine step profiles) derives from this one origin so the
//    streams line up when viewed together.
//  - Timer: RAII-free stopwatch used by the latency estimator and search-time
//    accounting.
//  - InterleavedMediansMs(): the one timing loop. It times N callables
//    round-robin after a warmup and reports each one's median, so an A/B
//    comparison (original against fused, one engine against another) sees
//    the same host load on both sides.
//  - MedianTimedMs(): its N = 1 case, behind the search-time latency
//    estimator (src/core/latency.cc), the engine latency helper
//    (src/runtime/engine.cc), the autotuner and the machine probe.
#ifndef GMORPH_SRC_OBS_TIMING_H_
#define GMORPH_SRC_OBS_TIMING_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace gmorph {

// Nanoseconds since the process-wide monotonic anchor (first call wins; all
// later readings are relative to it, so values are small and trace-friendly).
int64_t MonotonicNowNs();

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  // Seconds elapsed since construction / last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Runs `warmup` untimed rounds, then `repeats` timed rounds; each round calls
// every callable once, in order. Returns each callable's median wall-clock
// duration in milliseconds (the upper median when `repeats` is even). Loops
// timed one after the other see different host load, and a burst during one
// of them biases their ratio; interleaved rounds share it. `repeats` must be
// >= 1.
std::vector<double> InterleavedMediansMs(const std::vector<std::function<void()>>& fns,
                                         int warmup, int repeats);

// InterleavedMediansMs of `fn` alone: `warmup` untimed calls, then the median
// of `repeats` timed ones.
double MedianTimedMs(const std::function<void()>& fn, int warmup, int repeats);

}  // namespace gmorph

#endif  // GMORPH_SRC_OBS_TIMING_H_
