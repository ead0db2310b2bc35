#include "src/quant/qparams.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace gmorph::quant {

void TensorRange::Observe(const float* x, int64_t n) {
  if (n <= 0) {
    return;
  }
  float lo = seen ? min_v : x[0];
  float hi = seen ? max_v : x[0];
  for (int64_t i = 0; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  min_v = lo;
  max_v = hi;
  seen = true;
}

ActQuant ActQuantFromRange(const TensorRange& range) {
  ActQuant q;
  if (!range.seen) {
    return q;
  }
  // Force the range to cover 0 so the zero point is an exact u8 code.
  const float lo = std::min(range.min_v, 0.0f);
  const float hi = std::max(range.max_v, 0.0f);
  const float span = hi - lo;
  if (!(span > 0.0f) || !std::isfinite(span)) {
    return q;
  }
  q.scale = span / 255.0f;
  q.zero_point = static_cast<int32_t>(std::lround(-lo / q.scale));
  q.zero_point = std::clamp(q.zero_point, 0, 255);
  return q;
}

namespace {

// Rounds half away from zero, like lround, after clamping to [-lim, lim] in
// float; NaN rounds to 0. The truncation t and the fraction v - t are exact
// in float, so every |v| < 2^31 gets lround's code, and values past the
// clamp saturate instead of wrapping through a narrowing conversion.
inline int32_t RoundClamped(float v, float lim) {
  v = v == v ? v : 0.0f;
  v = std::min(std::max(v, -lim), lim);
  const int32_t t = static_cast<int32_t>(v);
  const float frac = v - static_cast<float>(t);
  return t + static_cast<int32_t>(frac >= 0.5f) - static_cast<int32_t>(frac <= -0.5f);
}

// Any clamp at or past the code range keeps every in-range code: rounding
// is monotonic, so a clamped value saturates to the same end code.
constexpr float kActClamp = 512.0f;
constexpr float kWeightClamp = 256.0f;

inline uint8_t ActCode(float v, int32_t zp) {
  return static_cast<uint8_t>(std::min(std::max(RoundClamped(v, kActClamp) + zp, 0), 255));
}

// ActCode on 16 lanes at once, written with GCC vector extensions: the
// compiler lowers them to AVX-512, AVX2 or SSE as the build targets. (The
// plain loop does not auto-vectorize: under the default -ftrapping-math GCC
// will not if-convert its float selects.) Vector compares yield -1 for true.
constexpr int64_t kQuantLanes = 16;
using F32x16 = float __attribute__((vector_size(64)));
using I32x16 = int32_t __attribute__((vector_size(64)));
using U8x16 = uint8_t __attribute__((vector_size(16)));

inline U8x16 ActCodes(F32x16 v, int32_t zp) {
  const F32x16 zero = {};
  const F32x16 lim = zero + kActClamp;
  v = v == v ? v : zero;
  v = v < -lim ? -lim : v;
  v = v > lim ? lim : v;
  const I32x16 t = __builtin_convertvector(v, I32x16);
  const F32x16 frac = v - __builtin_convertvector(t, F32x16);
  I32x16 r = t - (frac >= 0.5f) + (frac <= -0.5f) + zp;
  r = r < 0 ? 0 : r;
  r = r > 255 ? 255 : r;
  return __builtin_convertvector(r, U8x16);
}

}  // namespace

uint8_t QuantizeValue(float x, const ActQuant& q) { return ActCode(x / q.scale, q.zero_point); }

void QuantizeActivations(const float* x, int64_t n, const ActQuant& q, uint8_t* out) {
  const float inv = 1.0f / q.scale;
  const int32_t zp = q.zero_point;
  int64_t i = 0;
  for (; i + kQuantLanes <= n; i += kQuantLanes) {
    F32x16 v;
    std::memcpy(&v, x + i, sizeof(v));
    const U8x16 codes = ActCodes(v * inv, zp);
    std::memcpy(out + i, &codes, sizeof(codes));
  }
  for (; i < n; ++i) {
    out[i] = ActCode(x[i] * inv, zp);
  }
}

float SymmetricScale(float abs_max) {
  constexpr float kMinScale = 1e-12f;
  return std::max(abs_max / 127.0f, kMinScale);
}

int8_t QuantizeWeight(float w, float scale) {
  return static_cast<int8_t>(std::clamp(RoundClamped(w / scale, kWeightClamp), -127, 127));
}

std::vector<float> RowAbsMaxScales(const float* w, int64_t rows, int64_t cols) {
  std::vector<float> scales(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    float mx = 0.0f;
    const float* row = w + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      mx = std::max(mx, std::fabs(row[c]));
    }
    scales[static_cast<size_t>(r)] = SymmetricScale(mx);
  }
  return scales;
}

std::vector<float> ColAbsMaxScales(const float* w, int64_t rows, int64_t cols) {
  std::vector<float> mx(static_cast<size_t>(cols), 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = w + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      mx[static_cast<size_t>(c)] = std::max(mx[static_cast<size_t>(c)], std::fabs(row[c]));
    }
  }
  std::vector<float> scales(static_cast<size_t>(cols));
  for (int64_t c = 0; c < cols; ++c) {
    scales[static_cast<size_t>(c)] = SymmetricScale(mx[static_cast<size_t>(c)]);
  }
  return scales;
}

}  // namespace gmorph::quant
