// Branch-free single-precision exp for the transformer kernels (attention
// softmax, GELU).
//
// Cody-Waite range reduction x = n*ln2 + r with |r| <= ln2/2, a degree-6
// polynomial for e^r, and 2^n built directly in the exponent field. Every
// operation is a plain float/uint32 expression with no branches, calls, or
// intrinsics, so GCC auto-vectorizes loops that call it under the build's
// -O3 -march=native (no -ffast-math needed). Maximum relative error against
// std::exp is below 1e-6 on [-87, 88].
//
// Edge behaviour: inputs below ln(FLT_MIN) return 0, inputs above kExpHi
// saturate to exp(kExpHi) (the clamp keeps the built exponent <= 127), and
// NaN propagates. No input reaches a float-to-int conversion, so no input is
// undefined behaviour.
#ifndef GMORPH_SRC_TENSOR_FAST_EXP_H_
#define GMORPH_SRC_TENSOR_FAST_EXP_H_

#include <bit>
#include <cstdint>

namespace gmorph {

// Clamp bounds: exp(kExpLo) = FLT_MIN, and round(kExpHi * log2(e)) = 127.
inline constexpr float kExpLo = -87.33654475f;
inline constexpr float kExpHi = 88.0f;

inline float FastExp(float x) {
  constexpr float kLog2e = 1.44269504088896341f;
  // ln2 split so n * kLn2Hi is exact for |n| < 2^15 (kLn2Hi has 9 bits).
  constexpr float kLn2Hi = 0.693359375f;
  constexpr float kLn2Lo = -2.12194440e-4f;
  // 1.5 * 2^23: adding it rounds to the nearest integer and leaves that
  // integer in the low mantissa bits.
  constexpr float kShifter = 12582912.0f;
  // Comparisons are false for NaN, so NaN flows through the clamp unchanged.
  float xc = x < kExpLo ? kExpLo : x;
  xc = xc > kExpHi ? kExpHi : xc;
  const float shifted = xc * kLog2e + kShifter;
  const float n = shifted - kShifter;
  const float r = (xc - n * kLn2Hi) - n * kLn2Lo;
  // Taylor coefficients of e^r to degree 6, Horner form.
  float p = 1.0f / 720.0f;
  p = p * r + 1.0f / 120.0f;
  p = p * r + 1.0f / 24.0f;
  p = p * r + 1.0f / 6.0f;
  p = p * r + 0.5f;
  p = p * r + 1.0f;
  p = p * r + 1.0f;
  // The shifter's low mantissa bits hold n (mod 2^9); shifting them into the
  // exponent field and adding the bias gives the bits of 2^n. Unsigned
  // arithmetic wraps, so this is defined for every input, NaN included.
  const uint32_t scale_bits = (std::bit_cast<uint32_t>(shifted) << 23) + (127u << 23);
  const float y = p * std::bit_cast<float>(scale_bits);
  return x < kExpLo ? 0.0f : y;
}

}  // namespace gmorph

#endif  // GMORPH_SRC_TENSOR_FAST_EXP_H_
