// Convolution and pooling kernels for NCHW tensors.
//
// Conv2d is lowered to GEMM, the standard CPU lowering: the spatial gather
// becomes a dense matmul operand (im2col, or im2row for the engine's narrow
// convs). On gemm.direct a stride-1 "same" conv and a narrow conv read that
// operand in place from the input instead of materializing it
// (src/kernels/inplace_conv.h), with the same bits. All functions take /
// return contiguous tensors.
#ifndef GMORPH_SRC_TENSOR_CONV_OPS_H_
#define GMORPH_SRC_TENSOR_CONV_OPS_H_

#include <cstdint>
#include <vector>

#include "src/kernels/solver.h"
#include "src/tensor/tensor.h"

namespace gmorph {

struct Conv2dArgs {
  int64_t stride = 1;
  int64_t padding = 0;
};

// Output spatial size for one dimension.
int64_t ConvOutDim(int64_t in, int64_t kernel, int64_t stride, int64_t padding);

// x: (N,C,H,W), w: (O,C,KH,KW), b: (O) or empty -> (N,O,OH,OW).
Tensor Conv2dForward(const Tensor& x, const Tensor& w, const Tensor& b, const Conv2dArgs& args);

// Out-parameter variant: writes into the preallocated `out` (N,O,OH,OW) and
// fuses an epilogue into the pass that writes each sample's result — bias,
// then `skip` (same shape as out), then `relu` clamping at zero — so
// residual tails and activations cost no extra pass over memory and no
// allocation. Each sample runs its own GEMM [O, C*KH*KW] x [C*KH*KW, OH*OW]
// inside a parallel loop over the batch. A stride-1 "same" conv on
// gemm.direct reads that B operand in place from a row-padded copy of the
// sample and runs the epilogue on the tile's accumulators; every other conv
// materializes im2col. `solver` pins the GEMM solver (the fused engine
// resolves it once per binding); nullptr resolves it through the registry
// per call.
void Conv2dForwardInto(const Tensor& x, const Tensor& w, const Tensor& b, const Conv2dArgs& args,
                       Tensor& out, const Tensor* skip = nullptr, bool relu = false,
                       const kernels::GemmSolver* solver = nullptr);

// The fused engine's narrow-conv path (kernels::ConvProblem, OH*OW <
// kWideMinN): the whole batch runs as one GEMM with output pixels as rows
// and output channels as columns,
//   out^T[N*OH*OW, O] = im2row(x)[N*OH*OW, C*KH*KW] · W^T[C*KH*KW, O],
// over `wt`, the kernel x kernel weights pre-transposed to [C*KH*KW, O].
// On gemm.direct the tile reads im2row in place, A[s, p] at pixel s's
// window corner plus tap p's offset in a zero-bordered copy of the batch (in
// x itself without padding); other solvers get a materialized im2row. Each
// sample's rows are then transposed into its NCHW plane, which takes
// Conv2dForwardInto's epilogue in place. On gemm.direct every output equals
// Conv2dForwardInto's on gemm.direct bit for bit: both sum the same products
// in the same k order. Buffers come from the scratch arena.
void NarrowConv2dForwardInto(const Tensor& x, const Tensor& wt, int64_t kernel, const Tensor& b,
                             const Conv2dArgs& args, Tensor& out, const Tensor* skip = nullptr,
                             bool relu = false, const kernels::GemmSolver* solver = nullptr);

// Gradients of the same convolution. `grad_w`/`grad_b` are accumulated into
// (caller zeroes them at the start of a step); returns grad_x.
Tensor Conv2dBackward(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                      const Conv2dArgs& args, Tensor& grad_w, Tensor& grad_b);

// Max pooling. `argmax` receives the flat input index of each selected element
// so the backward pass can scatter gradients exactly.
Tensor MaxPool2dForward(const Tensor& x, int64_t kernel, int64_t stride,
                        std::vector<int64_t>& argmax);
// Inference-only variant: no argmax bookkeeping, writes into preallocated out.
// `solver` pins the pool solver (the fused engine's per-binding resolution);
// nullptr resolves it through the registry per call.
void MaxPool2dForwardInto(const Tensor& x, int64_t kernel, int64_t stride, Tensor& out,
                          const kernels::PoolSolver* solver = nullptr);
Tensor MaxPool2dBackward(const Shape& input_shape, const Tensor& grad_out,
                         const std::vector<int64_t>& argmax);

// Global average pooling: (N,C,H,W) -> (N,C).
Tensor GlobalAvgPoolForward(const Tensor& x);
void GlobalAvgPoolForwardInto(const Tensor& x, Tensor& out);
Tensor GlobalAvgPoolBackward(const Shape& input_shape, const Tensor& grad_out);

// Mean over tokens: (N,T,D) -> (N,D).
void MeanPoolTokensForwardInto(const Tensor& x, Tensor& out);

// Bilinear resize of spatial dims: (N,C,H,W) -> (N,C,out_h,out_w).
Tensor BilinearResizeForward(const Tensor& x, int64_t out_h, int64_t out_w);
// Target spatial size is taken from out's shape (N,C,out_h,out_w).
void BilinearResizeForwardInto(const Tensor& x, Tensor& out);
Tensor BilinearResizeBackward(const Shape& input_shape, const Tensor& grad_out);

// Linear interpolation along dim 1 of (N,T,D) -> (N,out_t,D); used by the
// rescale adapter to match transformer token counts.
Tensor LinearResizeTokensForward(const Tensor& x, int64_t out_t);
// Target token count is taken from out's shape (N,out_t,D).
void LinearResizeTokensForwardInto(const Tensor& x, Tensor& out);
Tensor LinearResizeTokensBackward(const Shape& input_shape, const Tensor& grad_out);

}  // namespace gmorph

#endif  // GMORPH_SRC_TENSOR_CONV_OPS_H_
