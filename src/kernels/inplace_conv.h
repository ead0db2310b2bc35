// gemm.direct's in-place conv operands (DESIGN.md §5b, "Convolution").
//
// gemm.direct can read an f32 conv's GEMM operand straight from the input
// instead of from a materialized im2col or im2row matrix. It runs its one
// register tile, and every output sums the same products in the same k order
// as gemm.direct's Run over the materialized operand, so every output bit is
// the same. Only AVX-512 builds have these forms: elsewhere, and for every
// other solver, the caller materializes the operand and calls Run.
#ifndef GMORPH_SRC_KERNELS_INPLACE_CONV_H_
#define GMORPH_SRC_KERNELS_INPLACE_CONV_H_

#include <cstdint>

#include "src/kernels/scratch.h"
#include "src/kernels/solver.h"

namespace gmorph::kernels {

// True when `solver` reads conv operands in place: gemm.direct on an
// AVX-512 build. Everything below requires it.
bool InPlaceConvSolver(const GemmSolver* solver);

// One sample of a stride-1 "same" conv (K = 2P + 1, so OH = H and OW = W):
//   y[O, H*W] = relu(W[O, C*K*K] · im2col(x) + bias + skip),
// with bias, skip and the clamp each optional and applied in that order on
// the tile's accumulators before its one store. B row p = (ch, kh, kw) is
// read at output pixel j = oy*W + ox from
//   image + ch*(H+2P)*W + kh*W + (kw - P) + j,
// where `image` is a copy of the sample with P zero rows above and below
// each channel plane and no side border (Copy writes it). Lanes whose column
// ox + kw - P leaves [0, W) load +0.0f through the tile's masked load, as
// im2col writes them.
class SameConvOperand {
 public:
  // Per-call set-up for C x H x W samples, carved from `scope`: the lane
  // masks, one word per (column-tile pattern, kw), and the offsets of the
  // C x K input rows. Masks depend only on kw and on the tile's first
  // column, so OW in {8, 16, 32} has one pattern. False, doing nothing,
  // unless kernel = 2 * padding + 1 <= kMaxKernel.
  bool Prepare(int64_t c, int64_t h, int64_t w, int64_t kernel, int64_t padding,
               ScratchScope& scope);

  // Floats of one sample's copy: the padded planes plus slack before and
  // after, so a full-width vector read at either end stays in the buffer.
  int64_t copy_floats() const { return front_ + c_ * (h_ + 2 * pad_) * w_ + back_; }
  // Writes sample x (C, H, W) into `copy` (copy_floats() floats).
  void Copy(const float* x, float* copy) const;
  // y[O, H*W] for the sample Copy wrote into `copy`; w is W[O, C*K*K]
  // row-major, bias (O) and skip (O, H*W) may be null.
  void Run(const float* w, int64_t o, const float* copy, const float* bias, const float* skip,
           bool relu, float* y) const;

  static constexpr int64_t kMaxKernel = 7;

 private:
  int64_t c_ = 0;
  int64_t h_ = 0;
  int64_t w_ = 0;
  int64_t kernel_ = 0;
  int64_t pad_ = 0;
  int64_t front_ = 0;   // slack floats before channel 0's plane
  int64_t back_ = 0;    // slack floats after the last plane
  int64_t period_ = 0;  // column tiles until the lane pattern repeats
  const uint32_t* masks_ = nullptr;  // [pattern][kw]: bit l = lane l reads inside its row
  const int32_t* row_off_ = nullptr;  // [ch][kh]: offset of input row kh of channel ch
};

// A conv's im2row read in place: A[s, p] = image[pixel[s] + tap[p]] for
// output pixel s and tap p = (ch, kh, kw), over zero-bordered samples (or
// the input itself when there is no padding). Runs C[M, N] = A · B for the
// kGemmNN desc (m = M pixels, k = K taps, n = N) and row-major B[K, N].
struct PixelTapOperand {
  const float* image;
  const int32_t* pixel;  // m offsets, one per output pixel
  const int32_t* tap;    // k offsets, one per tap
};
void RunPixelTapGemm(const ProblemDesc& desc, const PixelTapOperand& a, const float* b,
                     float* c);

}  // namespace gmorph::kernels

#endif  // GMORPH_SRC_KERNELS_INPLACE_CONV_H_
