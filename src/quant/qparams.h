// Quantization parameters for int8 post-training quantization.
//
// The scheme follows the common CPU inference convention (oneDNN / FBGEMM):
// activations are quantized per-tensor to unsigned 8-bit with an asymmetric
// zero point (ReLU-heavy nets waste half the s8 range otherwise), weights are
// quantized per output channel to signed 8-bit symmetrically (zero point 0),
// clamped to ±127 so the u8·s8 product family never overflows the VNNI
// accumulation path. The integer GEMM then computes
//
//   acc[r][oc] = sum_k qa[r][k] * qw[k][oc]
//
// and the dequantized result is recovered in the epilogue as
//
//   y = a_scale * w_scale[oc] * (acc - a_zp * colsum[oc]) + bias[oc]
//
// where colsum[oc] = sum_k qw[k][oc] is precomputed at quantize time. All
// helpers here are pure value math; packing and epilogues live in quant_ops.
#ifndef GMORPH_SRC_QUANT_QPARAMS_H_
#define GMORPH_SRC_QUANT_QPARAMS_H_

#include <cstdint>
#include <vector>

namespace gmorph::quant {

// Asymmetric u8 quantization of one activation tensor: real 0.0 always maps
// exactly onto `zero_point`, so zero padding introduced by im2col stays exact.
struct ActQuant {
  float scale = 1.0f;
  int32_t zero_point = 0;
};

// Observed value range of a tensor across calibration batches. Starts empty;
// Observe() widens it. The range is always forced to include 0 before scales
// are derived (padding and missing bias both rely on an exact zero).
struct TensorRange {
  float min_v = 0.0f;
  float max_v = 0.0f;
  bool seen = false;

  void Observe(const float* x, int64_t n);
  bool valid() const { return seen; }
};

// Derives u8 asymmetric parameters from an observed range. Degenerate ranges
// (constant tensors, never-observed steps) fall back to scale=1, zp=0.
ActQuant ActQuantFromRange(const TensorRange& range);

// clamp(round(x / scale) + zero_point, 0, 255), rounding half away from zero
// like lround. Saturation rule: the scaled value is clamped in float before
// it becomes an integer, so anything past the u8 range (however far, even
// ±inf) lands on code 0 or 255, and NaN maps to the zero point. In-range
// codes equal lround's exactly. QuantizeActivations is the vectorized bulk
// form (it multiplies by 1/scale instead of dividing, as it always has).
uint8_t QuantizeValue(float x, const ActQuant& q);
void QuantizeActivations(const float* x, int64_t n, const ActQuant& q, uint8_t* out);

// Symmetric s8 weight scale for one output channel: max|w| / 127 (with a tiny
// floor so all-zero channels stay representable).
float SymmetricScale(float abs_max);
// clamp(round(w / scale), -127, 127) — note ±127, not -128, keeping the
// product magnitude bounded for the 4-way u8·s8 dot accumulation. Same
// rounding and saturation rule as QuantizeValue.
int8_t QuantizeWeight(float w, float scale);

// Per-row / per-column symmetric scales of a row-major (rows, cols) matrix.
// Conv weights (O, C*KH*KW) use rows = output channels; linear weights
// (in, out) use columns = output features.
std::vector<float> RowAbsMaxScales(const float* w, int64_t rows, int64_t cols);
std::vector<float> ColAbsMaxScales(const float* w, int64_t rows, int64_t cols);

}  // namespace gmorph::quant

#endif  // GMORPH_SRC_QUANT_QPARAMS_H_
