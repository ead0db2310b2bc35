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
// scales run over columns. Conv flips the f32 orientation: instead of
// W[O,CKK] · col[CKK,S] the quantized path computes col_u8[S,CKK] · Wt_s8
// [CKK,O] — activations must be the *left* (unsigned) operand of the u8·s8
// product, so the im2col matrix is built row-per-output-pixel and the weight
// is stored transposed. The epilogue writes the (S,O) accumulator back to
// NCHW order while dequantizing.
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

// Quantized conv layer: s8 weights transposed to (C*KH*KW, O).
struct QConvWeights {
  int64_t out_channels = 0;
  int64_t in_channels = 0;
  int64_t kernel = 0;
  ActQuant in_q;
  std::vector<int8_t> wt;         // (ckk, O) row-major — W[O, ckk] transposed
  std::vector<int32_t> colsum;    // sum_k wt[k][oc], per output channel
  std::vector<float> deq_scale;   // in_scale * w_scale[oc]
  std::vector<float> bias;        // per output channel; empty = no bias

  int64_t ckk() const { return in_channels * kernel * kernel; }
};

// One-time packing (heap allocation is fine here — this runs at quantize
// time, not per inference). `w_scales` has one entry per output feature /
// channel, as produced by ColAbsMaxScales / RowAbsMaxScales.
QLinearWeights PackLinearWeights(const Tensor& w, const Tensor& b, const ActQuant& in_q,
                                 const std::vector<float>& w_scales);
QConvWeights PackConvWeights(const Tensor& w, const Tensor& b, const ActQuant& in_q,
                             const std::vector<float>& w_scales);

// x (..., in) -> out (..., out). Quantizes x to u8 in scratch, runs the int8
// GEMM, and dequantizes each row straight into the f32 linear epilogue
// (LinearEpilogueRow: bias, then `act`) in one pass. There is no residual
// skip-add: linears that write a residual stream stay f32. `solver` is the
// pinned winner for QGemmProblem(rows, in, out); nullptr resolves per call.
void QLinearForwardInto(const Tensor& x, const QLinearWeights& qw, Tensor& out, Activation act,
                        const kernels::QGemmSolver* solver = nullptr);

// x (N,C,H,W) -> out (N,O,OH,OW); optional skip (same shape as out) and ReLU
// fused into the dequant transpose. `solver` is the pinned winner for
// QGemmProblem(OH*OW, ckk, O) at threads=1; nullptr resolves per call.
void QConv2dForwardInto(const Tensor& x, const QConvWeights& qw, const Conv2dArgs& args,
                        Tensor& out, const Tensor* skip = nullptr, bool relu = false,
                        const kernels::QGemmSolver* solver = nullptr);

}  // namespace gmorph::quant

#endif  // GMORPH_SRC_QUANT_QUANT_OPS_H_
