// Quantized inference ops: int8 conv / linear forward passes with the dequant
// epilogue (scale, zero-point correction, bias, skip-add, ReLU) fused into the
// same pass that the f32 `*ForwardInto` ops fuse their epilogues into.
//
// Weights are packed once at quantize time into the layouts the u8·s8 GEMM
// wants; the forward passes then touch only the thread-local scratch arena —
// no heap allocation in steady state, matching the execution planner's
// contract.
//
// Layouts. Linear keeps the f32 orientation: x (rows, in) · w (in, out), so
// the s8 weight matrix is the quantized weight as-is and per-output-channel
// scales run over columns (kernels::OpFamily::kGemmNN).
//
// A conv runs one of two GEMM families, chosen from its output shape by
// kernels::ConvProblem (the same call the engine, the tuner and the plan
// linter make):
//   - wide outputs (OH*OW >= 64) put output pixels on the lanes, in the f32
//     conv's orientation: out[O, S] = W_s8[O, K] · X_u8[K, S]. The s32
//     result is the NCHW plane, so the epilogue reads and writes contiguous
//     rows;
//   - narrow outputs (the 4x4 and 2x2 convs, a stride-8 patch conv over a
//     32x32 image; over a 64x64 image its 8x8 output is wide) put
//     output channels on the lanes, out[S, O] = X_u8[S, K] · W_s8[K, O], so
//     O = 64 fills every lane; the epilogue transposes as it dequantizes.
// Both read one u8 im2col, "tap words": a 32-bit word holds four consecutive
// taps (C, KH, KW order) of one output pixel, and words are grouped by tap,
// [ceil(K/4)][S][4] — the operand vpdpbusd multiplies. Taps past K are zero
// against zero weights. The words are gathered from a quantized copy of the
// sample whose border holds the zero point — the code of real 0.0 — so
// padding dequantizes exactly to zero and the gather tests no bounds. Each
// conv's weights are packed once, at quantize time, into its family's
// layout (kernels::PackQConvWeights); the per-call work is quantize, gather,
// GEMM and the fused epilogue.
#ifndef GMORPH_SRC_QUANT_QUANT_OPS_H_
#define GMORPH_SRC_QUANT_QUANT_OPS_H_

#include <cstdint>
#include <vector>

#include "src/kernels/solver.h"
#include "src/quant/qparams.h"
#include "src/tensor/conv_ops.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"

namespace gmorph::quant {

// Quantized linear layer: s8 weights in the original (in, out) row-major
// orientation plus everything the epilogue needs precomputed.
struct QLinearWeights {
  int64_t in_features = 0;
  int64_t out_features = 0;
  ActQuant in_q;
  std::vector<int8_t> w;          // (in, out) row-major
  std::vector<int32_t> colsum;    // sum_k w[k][j], per output feature
  std::vector<float> deq_scale;   // in_scale * w_scale[j]
  std::vector<float> bias;        // per output feature; empty = no bias
};

// Quantized conv layer: s8 weights packed for the per-sample GEMM `gemm`
// (kernels::ConvProblem of the conv's output shape).
struct QConvWeights {
  int64_t out_channels = 0;
  int64_t in_channels = 0;
  int64_t kernel = 0;
  ActQuant in_q;
  kernels::ProblemDesc gemm;      // the family and dims the weights are packed for
  std::vector<int8_t> w;          // gemm's weight operand (kernels::QGemmCall)
  std::vector<int32_t> colsum;    // sum_k W[oc][k], per output channel
  std::vector<float> deq_scale;   // in_scale * w_scale[oc]
  std::vector<float> bias;        // per output channel; empty = no bias

  int64_t ckk() const { return in_channels * kernel * kernel; }
};

// The dequant expression of both int8 epilogues, scale * (acc - corr) with
// corr = zero_point * colsum: the conv adds its bias to it in the same
// expression (one FMA under -ffp-contract=fast), the linear in a second pass
// (LinearEpilogueRow). Anything that must match the kernels bitwise, like a
// reference, goes through this one helper so contraction rounds it alike.
inline float Dequant(int32_t acc, int32_t corr, float scale) {
  return scale * static_cast<float>(acc - corr);
}

// One-time packing (heap allocation is fine here — this runs at quantize
// time, not per inference). `w_scales` has one entry per output feature /
// channel, as produced by ColAbsMaxScales / RowAbsMaxScales.
QLinearWeights PackLinearWeights(const Tensor& w, const Tensor& b, const ActQuant& in_q,
                                 const std::vector<float>& w_scales);
// The conv packs for its oh x ow output (the GEMM family depends on it).
QConvWeights PackConvWeights(const Tensor& w, const Tensor& b, const ActQuant& in_q,
                             const std::vector<float>& w_scales, int64_t oh, int64_t ow);

// x (..., in) -> out (..., out). Quantizes x to u8 in scratch, runs the int8
// GEMM, and dequantizes each row straight into the f32 linear epilogue
// (LinearEpilogueRow: bias, then `act`) in one pass. There is no residual
// skip-add: linears that write a residual stream stay f32. `solver` is the
// pinned winner for QGemmProblem(rows, in, out); nullptr resolves per call.
void QLinearForwardInto(const Tensor& x, const QLinearWeights& qw, Tensor& out, Activation act,
                        const kernels::QGemmSolver* solver = nullptr);

// x (N,C,H,W) -> out (N,O,OH,OW); optional skip (same shape as out) and ReLU
// fused into the dequant epilogue, in that order after the bias. `qw` must
// be packed for this output shape. Samples run in parallel, each as its own
// GEMM; `solver` is the pinned winner for qw.gemm; nullptr resolves per
// call.
void QConv2dForwardInto(const Tensor& x, const QConvWeights& qw, const Conv2dArgs& args,
                        Tensor& out, const Tensor* skip = nullptr, bool relu = false,
                        const kernels::QGemmSolver* solver = nullptr);

}  // namespace gmorph::quant

#endif  // GMORPH_SRC_QUANT_QUANT_OPS_H_
