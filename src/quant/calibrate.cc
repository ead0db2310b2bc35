#include "src/quant/calibrate.h"

#include <algorithm>

namespace gmorph::quant {

void CalibrationObserver::Observe(int64_t seq, const float* x, int64_t n) {
  // The scan itself runs outside the lock; only the merge is serialized.
  TensorRange local;
  local.Observe(x, n);
  if (!local.seen) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  TensorRange& r = ranges_[seq];
  if (!r.seen) {
    r = local;
  } else {
    r.min_v = std::min(r.min_v, local.min_v);
    r.max_v = std::max(r.max_v, local.max_v);
  }
}

const TensorRange* CalibrationObserver::Range(int64_t seq) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = ranges_.find(seq);
  return it == ranges_.end() ? nullptr : &it->second;
}

}  // namespace gmorph::quant
