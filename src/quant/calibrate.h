// Calibration support: per-step activation range collection.
//
// During a calibration pass the engine runs its normal f32 plan and reports
// the input tensor of every quantizable step here; after all batches it asks
// for the derived u8 parameters per step. Owned by the caller, not by the
// engine, so a fresh observer means a fresh calibration.
#ifndef GMORPH_SRC_QUANT_CALIBRATE_H_
#define GMORPH_SRC_QUANT_CALIBRATE_H_

#include <cstdint>
#include <map>
#include <mutex>

#include "src/quant/qparams.h"

namespace gmorph::quant {

class CalibrationObserver {
 public:
  // Widens the observed range of step `seq`'s input with n values. Thread-safe
  // (branch-parallel engine groups observe concurrently).
  void Observe(int64_t seq, const float* x, int64_t n);

  // Range for a step, or nullptr if that step was never observed.
  const TensorRange* Range(int64_t seq) const;

 private:
  mutable std::mutex mutex_;
  std::map<int64_t, TensorRange> ranges_;
};

}  // namespace gmorph::quant

#endif  // GMORPH_SRC_QUANT_CALIBRATE_H_
