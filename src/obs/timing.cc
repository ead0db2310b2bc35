#include "src/obs/timing.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"

namespace gmorph {

int64_t MonotonicNowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point anchor = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - anchor).count();
}

std::vector<double> InterleavedMediansMs(const std::vector<std::function<void()>>& fns,
                                         int warmup, int repeats) {
  GMORPH_CHECK(repeats >= 1, "InterleavedMediansMs needs repeats >= 1, got " << repeats);
  for (int i = 0; i < warmup; ++i) {
    for (const std::function<void()>& fn : fns) {
      fn();
    }
  }
  std::vector<std::vector<double>> samples(fns.size());
  for (std::vector<double>& s : samples) {
    s.reserve(static_cast<size_t>(repeats));
  }
  for (int i = 0; i < repeats; ++i) {
    for (size_t f = 0; f < fns.size(); ++f) {
      Timer timer;
      fns[f]();
      samples[f].push_back(timer.Millis());
    }
  }
  std::vector<double> medians;
  medians.reserve(fns.size());
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    medians.push_back(s[s.size() / 2]);
  }
  return medians;
}

double MedianTimedMs(const std::function<void()>& fn, int warmup, int repeats) {
  return InterleavedMediansMs({fn}, warmup, repeats).front();
}

}  // namespace gmorph
