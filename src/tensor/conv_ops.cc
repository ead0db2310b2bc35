#include "src/tensor/conv_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/kernels/inplace_conv.h"
#include "src/kernels/registry.h"
#include "src/kernels/scratch.h"
#include "src/kernels/solver.h"

namespace gmorph {
namespace {

// Batch/plane loops split work so each chunk covers at least this many output
// elements; smaller plans run serially.
int64_t ItemGrain(int64_t per_item) {
  return std::max<int64_t>(1, (1 << 15) / std::max<int64_t>(1, per_item));
}

// The narrow conv's copy passes (pad and im2row, transpose and epilogue) split
// the batch so each chunk writes about 512 KB, 55-85 us of copying on one
// core. Waking parked pool workers cost the caller 70-115 us on a shared
// 4-vCPU KVM guest, so a smaller chunk does not repay it.
int64_t CopyGrain(int64_t per_item) {
  return std::max<int64_t>(1, (1 << 17) / std::max<int64_t>(1, per_item));
}

// Narrowest output row for which the block copy below beats the
// per-element loop. On narrower rows its three library calls per tap cost
// more than the bounds tests they save: 64 channels at 2x2 take 1.9 us
// per-element against 3.5 us as block copies (one AVX-512 core), while 8
// channels at 32x32 take 25-35 us against 5-8 us.
constexpr int64_t kBlockCopyMinWidth = 8;

// The outputs [lo, hi) along one axis whose input coordinate
// o * stride + tap - padding lies inside [0, in), clamped to [0, out).
struct TapRange {
  int64_t lo;
  int64_t hi;
};
TapRange ValidTapRange(int64_t in, int64_t out, int64_t tap, int64_t stride, int64_t padding) {
  // First o with o * stride >= v, for any sign of v.
  const auto first_at_least = [stride](int64_t v) {
    return v <= 0 ? int64_t{0} : (v + stride - 1) / stride;
  };
  const int64_t lo = std::min(first_at_least(padding - tap), out);
  return {lo, std::clamp(first_at_least(in + padding - tap), lo, out)};
}

// Expands one sample (C,H,W) into the column matrix [C*KH*KW, OH*OW].
void Im2Col(const float* x, int64_t c, int64_t h, int64_t w, int64_t kernel, int64_t stride,
            int64_t padding, int64_t oh, int64_t ow, float* col) {
  const int64_t spatial = oh * ow;
  if (stride == 1 && ow == w && ow >= kBlockCopyMinWidth) {
    // Output and input rows have the same width, so tap (kh, kw) reads one
    // contiguous span of the input plane: copy it whole, then zero the
    // clipped padding — whole rows above and below, and the columns left of
    // x0 and from x1 on, which the copy filled from neighbouring rows.
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* plane = x + ch * h * w;
      for (int64_t kh = 0; kh < kernel; ++kh) {
        const auto [y0, y1] = ValidTapRange(h, oh, kh, 1, padding);
        for (int64_t kw = 0; kw < kernel; ++kw) {
          float* dst = col + ((ch * kernel + kh) * kernel + kw) * spatial;
          const auto [x0, x1] = ValidTapRange(w, ow, kw, 1, padding);
          if (y0 == y1 || x0 == x1) {
            std::fill(dst, dst + spatial, 0.0f);
            continue;
          }
          const int64_t first = y0 * ow + x0;
          const int64_t last = (y1 - 1) * ow + x1;
          const float* src = plane + (y0 + kh - padding) * w + (x0 + kw - padding);
          std::fill(dst, dst + first, 0.0f);
          std::copy(src, src + (last - first), dst + first);
          std::fill(dst + last, dst + spatial, 0.0f);
          for (int64_t oy = y0; oy < y1; ++oy) {
            float* row = dst + oy * ow;
            for (int64_t ox = 0; ox < x0; ++ox) {
              row[ox] = 0.0f;
            }
            for (int64_t ox = x1; ox < ow; ++ox) {
              row[ox] = 0.0f;
            }
          }
        }
      }
    }
    return;
  }
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t kh = 0; kh < kernel; ++kh) {
      for (int64_t kw = 0; kw < kernel; ++kw) {
        float* col_row = col + ((ch * kernel + kh) * kernel + kw) * spatial;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * stride + kh - padding;
          float* dst = col_row + oy * ow;
          if (iy < 0 || iy >= h) {
            std::fill(dst, dst + ow, 0.0f);
            continue;
          }
          const float* src_row = x + (ch * h + iy) * w;
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t ix = ox * stride + kw - padding;
            dst[ox] = (ix >= 0 && ix < w) ? src_row[ix] : 0.0f;
          }
        }
      }
    }
  }
}

// Copies one sample (C,H,W) into `dst` (C, H+2*pad, W+2*pad) with a zero
// border, so im2row can read every tap without bounds tests. One fill zeroes
// the whole copy and element loops write the interior rows. At the narrow
// convs' 4x4 and 2x2 the rows are a few floats long, and a library call per
// row or per border run (std::copy, std::fill) costs more than writing the
// interior twice: 64 channels at 2x2 take 0.56-0.65 us this way against
// 0.79-1.04 us writing only the border and 0.77-0.81 us with a std::copy
// per row (one Sapphire Rapids core).
void PadImage(const float* x, int64_t c, int64_t h, int64_t w, int64_t pad, float* dst) {
  const int64_t wp = w + 2 * pad;
  const int64_t hp = h + 2 * pad;
  std::fill_n(dst, c * hp * wp, 0.0f);
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t y = 0; y < h; ++y) {
      const float* src = x + (ch * h + y) * w;
      float* row = dst + (ch * hp + y + pad) * wp + pad;
      for (int64_t ix = 0; ix < w; ++ix) {
        row[ix] = src[ix];
      }
    }
  }
}

// Expands one zero-bordered sample (C, hp, wp) into the row matrix
// [OH*OW, C*KH*KW]: output pixel s owns row s, whose taps run in (ch, kh, kw)
// order, the order of W's columns. Each row copies KH spans of KW contiguous
// floats per channel, written front to back. K > 0 fixes the kernel width at
// compile time, which turns each span into a fixed-size copy: padding and
// expanding 64 channels at 4x4 took 5-8 us with K = 3 against 15-16 us with
// a runtime width (one Sapphire Rapids core).
template <int64_t K>
void Im2Row(const float* image, int64_t c, int64_t hp, int64_t wp, int64_t kernel,
            int64_t stride, int64_t oh, int64_t ow, float* rows) {
  const int64_t kk = K > 0 ? K : kernel;
  float* dst = rows;
  for (int64_t oy = 0; oy < oh; ++oy) {
    for (int64_t ox = 0; ox < ow; ++ox) {
      const float* corner = image + oy * stride * wp + ox * stride;
      for (int64_t ch = 0; ch < c; ++ch) {
        for (int64_t kh = 0; kh < kk; ++kh, dst += kk) {
          const float* src = corner + (ch * hp + kh) * wp;
          for (int64_t kw = 0; kw < kk; ++kw) {
            dst[kw] = src[kw];
          }
        }
      }
    }
  }
}

// Scatter-adds a column matrix back into a (C,H,W) gradient image. Each tap
// adds whole spans of its valid rows instead of bounds-testing every element.
// Terms are visited in (ch, kh, kw, oy, ox) order, so every input element
// receives its terms in the sequence the training arithmetic pins (DESIGN.md
// §5b).
void Col2Im(const float* col, int64_t c, int64_t h, int64_t w, int64_t kernel, int64_t stride,
            int64_t padding, int64_t oh, int64_t ow, float* x_grad) {
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t kh = 0; kh < kernel; ++kh) {
      const auto [y0, y1] = ValidTapRange(h, oh, kh, stride, padding);
      for (int64_t kw = 0; kw < kernel; ++kw) {
        const auto [x0, x1] = ValidTapRange(w, ow, kw, stride, padding);
        if (x0 == x1) {
          continue;
        }
        const float* col_row = col + ((ch * kernel + kh) * kernel + kw) * (oh * ow);
        const int64_t ix0 = x0 * stride + kw - padding;
        for (int64_t oy = y0; oy < y1; ++oy) {
          float* dst = x_grad + (ch * h + oy * stride + kh - padding) * w + ix0;
          const float* src = col_row + oy * ow + x0;
          if (stride == 1) {  // contiguous spans: this loop vectorizes
            for (int64_t j = 0; j < x1 - x0; ++j) {
              dst[j] += src[j];
            }
          } else {
            for (int64_t j = 0; j < x1 - x0; ++j) {
              dst[j * stride] += src[j];
            }
          }
        }
      }
    }
  }
}

// The conv epilogue for one sample's NCHW plane, in place: out[oc, s] =
// relu(out[oc, s] + bias[oc] + skip[oc, s]), each term only when present, in
// that order.
void ConvEpilogue(int64_t o, int64_t spatial, const float* bias, const float* skip, bool relu,
                  float* out) {
  for (int64_t oc = 0; oc < o; ++oc) {
    float* dst = out + oc * spatial;
    if (bias != nullptr) {
      const float bv = bias[oc];
      for (int64_t s = 0; s < spatial; ++s) {
        dst[s] += bv;
      }
    }
    if (skip != nullptr) {
      const float* so = skip + oc * spatial;
      for (int64_t s = 0; s < spatial; ++s) {
        dst[s] += so[s];
      }
    }
    if (relu) {
      for (int64_t s = 0; s < spatial; ++s) {
        dst[s] = dst[s] > 0.0f ? dst[s] : 0.0f;
      }
    }
  }
}

}  // namespace

int64_t ConvOutDim(int64_t in, int64_t kernel, int64_t stride, int64_t padding) {
  const int64_t out = (in + 2 * padding - kernel) / stride + 1;
  GMORPH_CHECK(out > 0, "conv output dim <= 0 (in=" << in << " k=" << kernel << " s="
                                                        << stride << " p=" << padding << ")");
  return out;
}

Tensor Conv2dForward(const Tensor& x, const Tensor& w, const Tensor& b, const Conv2dArgs& args) {
  const int64_t kernel = w.shape()[2];
  const int64_t oh = ConvOutDim(x.shape()[2], kernel, args.stride, args.padding);
  const int64_t ow = ConvOutDim(x.shape()[3], kernel, args.stride, args.padding);
  Tensor out(Shape{x.shape()[0], w.shape()[0], oh, ow});
  Conv2dForwardInto(x, w, b, args, out);
  return out;
}

void Conv2dForwardInto(const Tensor& x, const Tensor& w, const Tensor& b, const Conv2dArgs& args,
                       Tensor& out, const Tensor* skip, bool relu,
                       const kernels::GemmSolver* solver) {
  GMORPH_CHECK(x.shape().Rank() == 4 && w.shape().Rank() == 4);
  const int64_t n = x.shape()[0];
  const int64_t c = x.shape()[1];
  const int64_t h = x.shape()[2];
  const int64_t wd = x.shape()[3];
  const int64_t o = w.shape()[0];
  const int64_t kernel = w.shape()[2];
  GMORPH_CHECK(w.shape()[1] == c, "conv channels: x " << x.shape().ToString() << " w "
                                                          << w.shape().ToString());
  GMORPH_CHECK(w.shape()[3] == kernel);
  const int64_t oh = ConvOutDim(h, kernel, args.stride, args.padding);
  const int64_t ow = ConvOutDim(wd, kernel, args.stride, args.padding);
  GMORPH_CHECK(out.shape() == Shape({n, o, oh, ow}),
                   "conv out buffer " << out.shape().ToString() << " want "
                                      << Shape({n, o, oh, ow}).ToString());
  GMORPH_CHECK(skip == nullptr || skip->shape() == out.shape());

  const int64_t ckk = c * kernel * kernel;
  const int64_t spatial = oh * ow;
  const int64_t plane = o * spatial;
  const float* bias = b.empty() ? nullptr : b.data();

  // Samples are independent: parallelize over the batch, with each sample's
  // operand buffer reused from its worker's scratch arena. The GEMM runs
  // inside the batch loop, i.e. in the serial regime, and writes straight
  // into the output.
  kernels::ProblemDesc desc = kernels::GemmProblem(kernels::OpFamily::kGemmNN, o, ckk, spatial);
  desc.threads = 1;
  if (solver == nullptr) {
    solver = kernels::SolverRegistry::Global().ResolveGemm(desc);
  }
  ScratchScope scope;
  kernels::SameConvOperand same;
  if (args.stride == 1 && oh == h && ow == wd && kernels::InPlaceConvSolver(solver) &&
      same.Prepare(c, h, wd, kernel, args.padding, scope)) {
    // gemm.direct reads im2col in place from a row-padded copy of the
    // sample and runs the epilogue on its accumulators.
    ParallelFor(0, n, ItemGrain(plane), [&](int64_t lo, int64_t hi) {
      ScratchScope worker_scope;
      float* copy = worker_scope.AllocFloats(static_cast<size_t>(same.copy_floats()));
      for (int64_t i = lo; i < hi; ++i) {
        same.Copy(x.data() + i * c * h * wd, copy);
        same.Run(w.data(), o, copy, bias, skip == nullptr ? nullptr : skip->data() + i * plane,
                 relu, out.data() + i * plane);
      }
    });
    return;
  }
  // Every other conv materializes im2col; the epilogue then runs on the
  // output while it is still cache-hot.
  ParallelFor(0, n, ItemGrain(plane), [&](int64_t lo, int64_t hi) {
    ScratchScope worker_scope;
    float* col = worker_scope.AllocFloats(static_cast<size_t>(ckk * spatial));
    for (int64_t i = lo; i < hi; ++i) {
      Im2Col(x.data() + i * c * h * wd, c, h, wd, kernel, args.stride, args.padding, oh, ow, col);
      float* y = out.data() + i * plane;
      solver->Run(desc, kernels::MakeGemmCall(desc, w.data(), col, y, /*accumulate=*/false));
      ConvEpilogue(o, spatial, bias, skip == nullptr ? nullptr : skip->data() + i * plane, relu,
                   y);
    }
  });
}

void NarrowConv2dForwardInto(const Tensor& x, const Tensor& wt, int64_t kernel, const Tensor& b,
                             const Conv2dArgs& args, Tensor& out, const Tensor* skip, bool relu,
                             const kernels::GemmSolver* solver) {
  GMORPH_CHECK(x.shape().Rank() == 4 && wt.shape().Rank() == 2);
  const int64_t n = x.shape()[0];
  const int64_t c = x.shape()[1];
  const int64_t h = x.shape()[2];
  const int64_t wd = x.shape()[3];
  const int64_t ckk = c * kernel * kernel;
  const int64_t o = wt.shape()[1];
  GMORPH_CHECK(wt.shape()[0] == ckk, "narrow conv: x " << x.shape().ToString() << " k" << kernel
                                                       << " wt " << wt.shape().ToString());
  const int64_t oh = ConvOutDim(h, kernel, args.stride, args.padding);
  const int64_t ow = ConvOutDim(wd, kernel, args.stride, args.padding);
  GMORPH_CHECK(out.shape() == Shape({n, o, oh, ow}),
               "conv out buffer " << out.shape().ToString() << " want "
                                  << Shape({n, o, oh, ow}).ToString());
  GMORPH_CHECK(skip == nullptr || skip->shape() == out.shape());

  const int64_t spatial = oh * ow;
  const int64_t plane = o * spatial;
  const kernels::ProblemDesc desc =
      kernels::GemmProblem(kernels::OpFamily::kGemmNN, n * spatial, ckk, o);
  if (solver == nullptr) {
    solver = kernels::SolverRegistry::Global().ResolveGemm(desc);
  }
  const int64_t pad = args.padding;
  const int64_t hp = h + 2 * pad;
  const int64_t wp = wd + 2 * pad;
  const float* bias = b.empty() ? nullptr : b.data();
  // Workers fill and drain disjoint blocks of this thread's scratch while
  // the scope stays open around them.
  ScratchScope scope;
  float* y = scope.AllocFloats(static_cast<size_t>(n * plane));
  const int64_t sample = c * hp * wp;
  if (kernels::InPlaceConvSolver(solver) && n * sample <= std::numeric_limits<int32_t>::max()) {
    // gemm.direct reads im2row in place: pixel s's offset is its window's
    // corner in the zero-bordered batch, tap p's its place in the window.
    const float* image = x.data();
    if (pad > 0) {
      float* padded = scope.AllocFloats(static_cast<size_t>(n * sample));
      ParallelFor(0, n, CopyGrain(sample), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          PadImage(x.data() + i * c * h * wd, c, h, wd, pad, padded + i * sample);
        }
      });
      image = padded;
    }
    int32_t* pixel = scope.Alloc<int32_t>(static_cast<size_t>(n * spatial));
    for (int64_t i = 0, s = 0; i < n; ++i) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox, ++s) {
          pixel[s] = static_cast<int32_t>(i * sample + (oy * wp + ox) * args.stride);
        }
      }
    }
    int32_t* tap = scope.Alloc<int32_t>(static_cast<size_t>(ckk));
    for (int64_t ch = 0, p = 0; ch < c; ++ch) {
      for (int64_t kh = 0; kh < kernel; ++kh) {
        for (int64_t kw = 0; kw < kernel; ++kw, ++p) {
          tap[p] = static_cast<int32_t>((ch * hp + kh) * wp + kw);
        }
      }
    }
    kernels::RunPixelTapGemm(desc, {image, pixel, tap}, wt.data(), y);
  } else {
    float* rows = scope.AllocFloats(static_cast<size_t>(n * spatial * ckk));
    ParallelFor(0, n, CopyGrain(ckk * spatial), [&](int64_t lo, int64_t hi) {
      ScratchScope worker_scope;
      float* padded =
          pad > 0 ? worker_scope.AllocFloats(static_cast<size_t>(c * hp * wp)) : nullptr;
      for (int64_t i = lo; i < hi; ++i) {
        const float* image = x.data() + i * c * h * wd;
        if (padded != nullptr) {
          PadImage(image, c, h, wd, pad, padded);
          image = padded;
        }
        float* dst = rows + i * spatial * ckk;
        if (kernel == 3) {
          Im2Row<3>(image, c, hp, wp, kernel, args.stride, oh, ow, dst);
        } else {
          Im2Row<0>(image, c, hp, wp, kernel, args.stride, oh, ow, dst);
        }
      }
    });
    solver->Run(desc, kernels::MakeGemmCall(desc, rows, wt.data(), y, /*accumulate=*/false));
  }
  ParallelFor(0, n, CopyGrain(plane), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float* dst = out.data() + i * plane;
      kernels::Transpose(spatial, o, y + i * plane, o, dst, spatial);
      ConvEpilogue(o, spatial, bias, skip == nullptr ? nullptr : skip->data() + i * plane, relu,
                   dst);
    }
  });
}

Tensor Conv2dBackward(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                      const Conv2dArgs& args, Tensor& grad_w, Tensor& grad_b) {
  const int64_t n = x.shape()[0];
  const int64_t c = x.shape()[1];
  const int64_t h = x.shape()[2];
  const int64_t wd = x.shape()[3];
  const int64_t o = w.shape()[0];
  const int64_t kernel = w.shape()[2];
  const int64_t oh = grad_out.shape()[2];
  const int64_t ow = grad_out.shape()[3];
  GMORPH_CHECK(grad_out.shape()[0] == n && grad_out.shape()[1] == o);
  GMORPH_CHECK(grad_w.shape() == w.shape());

  const int64_t ckk = c * kernel * kernel;
  const int64_t spatial = oh * ow;
  // Both gradient GEMMs run the solver their per-sample problem resolves to
  // (threads = 1: they run inside the loop over the batch), so every element
  // sums in the order MatmulNT / MatmulTN give it.
  const kernels::SolverRegistry& registry = kernels::SolverRegistry::Global();
  // dW_i[o, ckk] = dY_i[o, ohow] * col_i[ckk, ohow]^T
  kernels::ProblemDesc dw_desc =
      kernels::GemmProblem(kernels::OpFamily::kGemmNT, o, spatial, ckk);
  dw_desc.threads = 1;
  const kernels::GemmSolver* dw_solver = registry.ResolveGemm(dw_desc);
  // dcol_i[ckk, ohow] = W[o, ckk]^T * dY_i[o, ohow]. Every solver sums a TN
  // product exactly as the NN product over the explicit transpose, so W^T is
  // built once per call here rather than once per sample inside the solver.
  kernels::ProblemDesc dx_desc =
      kernels::GemmProblem(kernels::OpFamily::kGemmTN, ckk, o, spatial);
  dx_desc.threads = 1;
  const kernels::GemmSolver* dx_solver = registry.ResolveGemm(dx_desc);
  dx_desc.op = kernels::OpFamily::kGemmNN;  // the same solver, over W^T

  Tensor grad_x(x.shape());
  ScratchScope scope;
  float* wt = scope.AllocFloats(static_cast<size_t>(ckk * o));
  kernels::Transpose(o, ckk, w.data(), ckk, wt, o);
  // grad_x rows are per-sample disjoint, but grad_w / grad_b accumulate across
  // the whole batch: each sample's contribution overwrites its own slot and is
  // reduced in sample order afterwards, so the result does not depend on how
  // samples were distributed over threads.
  float* partial_w = scope.AllocFloats(static_cast<size_t>(n * o * ckk));
  float* partial_b = grad_b.empty() ? nullptr : scope.AllocFloats(static_cast<size_t>(n * o));
  ParallelFor(0, n, ItemGrain(o * spatial), [&](int64_t lo, int64_t hi) {
    ScratchScope worker_scope;
    float* col = worker_scope.AllocFloats(static_cast<size_t>(ckk * spatial));
    float* dcol = worker_scope.AllocFloats(static_cast<size_t>(ckk * spatial));
    for (int64_t i = lo; i < hi; ++i) {
      const float* xi = x.data() + i * c * h * wd;
      const float* dy = grad_out.data() + i * o * spatial;

      Im2Col(xi, c, h, wd, kernel, args.stride, args.padding, oh, ow, col);
      dw_solver->Run(dw_desc, kernels::MakeGemmCall(dw_desc, dy, col, partial_w + i * o * ckk,
                                                    /*accumulate=*/false));
      dx_solver->Run(dx_desc, kernels::MakeGemmCall(dx_desc, wt, dy, dcol, /*accumulate=*/false));
      Col2Im(dcol, c, h, wd, kernel, args.stride, args.padding, oh, ow,
             grad_x.data() + i * c * h * wd);

      if (partial_b != nullptr) {
        for (int64_t oc = 0; oc < o; ++oc) {
          const float* dyo = dy + oc * spatial;
          float acc = 0.0f;
          for (int64_t s = 0; s < spatial; ++s) {
            acc += dyo[s];
          }
          partial_b[i * o + oc] = acc;
        }
      }
    }
  });
  float* gw = grad_w.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* pw = partial_w + i * o * ckk;
    for (int64_t j = 0; j < o * ckk; ++j) {
      gw[j] += pw[j];
    }
  }
  if (partial_b != nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t oc = 0; oc < o; ++oc) {
        grad_b.at(oc) += partial_b[i * o + oc];
      }
    }
  }
  return grad_x;
}

Tensor MaxPool2dForward(const Tensor& x, int64_t kernel, int64_t stride,
                        std::vector<int64_t>& argmax) {
  GMORPH_CHECK(x.shape().Rank() == 4);
  const int64_t n = x.shape()[0];
  const int64_t c = x.shape()[1];
  const int64_t h = x.shape()[2];
  const int64_t w = x.shape()[3];
  const int64_t oh = ConvOutDim(h, kernel, stride, 0);
  const int64_t ow = ConvOutDim(w, kernel, stride, 0);

  Tensor out(Shape{n, c, oh, ow});
  argmax.assign(static_cast<size_t>(out.size()), 0);
  const float* px = x.data();
  float* po = out.data();
  ParallelFor(0, n * c, ItemGrain(oh * ow), [&](int64_t lo, int64_t hi) {
    for (int64_t p = lo; p < hi; ++p) {
      const float* plane = px + p * h * w;
      const int64_t plane_base = p * h * w;
      int64_t oi = p * oh * ow;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t best_idx = 0;
          for (int64_t ky = 0; ky < kernel; ++ky) {
            const int64_t iy = oy * stride + ky;
            for (int64_t kx = 0; kx < kernel; ++kx) {
              const int64_t ix = ox * stride + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = plane_base + iy * w + ix;
              }
            }
          }
          po[oi] = best;
          argmax[static_cast<size_t>(oi)] = best_idx;
        }
      }
    }
  });
  return out;
}

void MaxPool2dForwardInto(const Tensor& x, int64_t kernel, int64_t stride, Tensor& out,
                          const kernels::PoolSolver* solver) {
  GMORPH_CHECK(x.shape().Rank() == 4);
  const int64_t h = x.shape()[2];
  const int64_t w = x.shape()[3];
  const int64_t oh = ConvOutDim(h, kernel, stride, 0);
  const int64_t ow = ConvOutDim(w, kernel, stride, 0);
  GMORPH_CHECK(out.shape() == Shape({x.shape()[0], x.shape()[1], oh, ow}));
  // Inference pooling routes through the solver registry (pool.generic /
  // pool.2x2s2); the training path above keeps its argmax-tracking loop.
  const kernels::ProblemDesc desc =
      kernels::PoolProblem(x.shape()[0] * x.shape()[1], h, w, kernel, stride);
  if (solver == nullptr) {
    solver = kernels::SolverRegistry::Global().ResolvePool(desc);
  }
  solver->Run(desc, kernels::PoolCall{x.data(), out.data()});
}

Tensor MaxPool2dBackward(const Shape& input_shape, const Tensor& grad_out,
                         const std::vector<int64_t>& argmax) {
  GMORPH_CHECK(static_cast<int64_t>(argmax.size()) == grad_out.size());
  Tensor grad_x(input_shape);
  float* gx = grad_x.data();
  const float* go = grad_out.data();
  // Each output element scatters into its own (sample, channel) input plane,
  // so chunking on plane boundaries keeps writes disjoint across threads.
  const int64_t planes = input_shape[0] * input_shape[1];
  const int64_t plane_out = grad_out.size() / std::max<int64_t>(1, planes);
  ParallelFor(0, planes, ItemGrain(plane_out), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo * plane_out; i < hi * plane_out; ++i) {
      gx[argmax[static_cast<size_t>(i)]] += go[i];
    }
  });
  return grad_x;
}

Tensor GlobalAvgPoolForward(const Tensor& x) {
  GMORPH_CHECK(x.shape().Rank() == 4);
  Tensor out(Shape{x.shape()[0], x.shape()[1]});
  GlobalAvgPoolForwardInto(x, out);
  return out;
}

void GlobalAvgPoolForwardInto(const Tensor& x, Tensor& out) {
  GMORPH_CHECK(x.shape().Rank() == 4);
  const int64_t n = x.shape()[0];
  const int64_t c = x.shape()[1];
  const int64_t spatial = x.shape()[2] * x.shape()[3];
  GMORPH_CHECK(out.size() == n * c);
  const float* px = x.data();
  float* po = out.data();
  const float inv = 1.0f / static_cast<float>(spatial);
  ParallelFor(0, n * c, ItemGrain(spatial), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* plane = px + i * spatial;
      float acc = 0.0f;
      for (int64_t s = 0; s < spatial; ++s) {
        acc += plane[s];
      }
      po[i] = acc * inv;
    }
  });
}

void MeanPoolTokensForwardInto(const Tensor& x, Tensor& out) {
  GMORPH_CHECK(x.shape().Rank() == 3);
  const int64_t n = x.shape()[0];
  const int64_t t = x.shape()[1];
  const int64_t d = x.shape()[2];
  GMORPH_CHECK(out.size() == n * d);
  const float* px = x.data();
  float* po = out.data();
  const float inv = 1.0f / static_cast<float>(t);
  ParallelFor(0, n, ItemGrain(t * d), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float* row = po + i * d;
      std::fill(row, row + d, 0.0f);
      for (int64_t tt = 0; tt < t; ++tt) {
        const float* src = px + (i * t + tt) * d;
        for (int64_t j = 0; j < d; ++j) {
          row[j] += src[j];
        }
      }
      for (int64_t j = 0; j < d; ++j) {
        row[j] *= inv;
      }
    }
  });
}

Tensor GlobalAvgPoolBackward(const Shape& input_shape, const Tensor& grad_out) {
  GMORPH_CHECK(input_shape.Rank() == 4 && grad_out.shape().Rank() == 2);
  const int64_t n = input_shape[0];
  const int64_t c = input_shape[1];
  const int64_t spatial = input_shape[2] * input_shape[3];
  Tensor grad_x(input_shape);
  float* gx = grad_x.data();
  const float* go = grad_out.data();
  const float inv = 1.0f / static_cast<float>(spatial);
  ParallelFor(0, n * c, ItemGrain(spatial), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float g = go[i] * inv;
      float* plane = gx + i * spatial;
      for (int64_t s = 0; s < spatial; ++s) {
        plane[s] = g;
      }
    }
  });
  return grad_x;
}

namespace {

// Precomputed 1-D interpolation: out index -> (lo index, hi index, hi weight).
struct InterpAxis {
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;
  std::vector<float> t;
};

InterpAxis MakeAxis(int64_t in, int64_t out) {
  InterpAxis axis;
  axis.lo.resize(static_cast<size_t>(out));
  axis.hi.resize(static_cast<size_t>(out));
  axis.t.resize(static_cast<size_t>(out));
  // align_corners=false mapping, matching common framework semantics.
  const float scale = static_cast<float>(in) / static_cast<float>(out);
  for (int64_t i = 0; i < out; ++i) {
    float src = (static_cast<float>(i) + 0.5f) * scale - 0.5f;
    src = std::max(0.0f, std::min(src, static_cast<float>(in - 1)));
    const int64_t lo = static_cast<int64_t>(src);
    const int64_t hi = std::min(lo + 1, in - 1);
    axis.lo[static_cast<size_t>(i)] = lo;
    axis.hi[static_cast<size_t>(i)] = hi;
    axis.t[static_cast<size_t>(i)] = src - static_cast<float>(lo);
  }
  return axis;
}

}  // namespace

Tensor BilinearResizeForward(const Tensor& x, int64_t out_h, int64_t out_w) {
  GMORPH_CHECK(x.shape().Rank() == 4);
  Tensor out(Shape{x.shape()[0], x.shape()[1], out_h, out_w});
  BilinearResizeForwardInto(x, out);
  return out;
}

void BilinearResizeForwardInto(const Tensor& x, Tensor& out) {
  GMORPH_CHECK(x.shape().Rank() == 4 && out.shape().Rank() == 4);
  GMORPH_CHECK(out.shape()[0] == x.shape()[0] && out.shape()[1] == x.shape()[1]);
  const int64_t n = x.shape()[0];
  const int64_t c = x.shape()[1];
  const int64_t h = x.shape()[2];
  const int64_t w = x.shape()[3];
  const int64_t out_h = out.shape()[2];
  const int64_t out_w = out.shape()[3];
  const InterpAxis ay = MakeAxis(h, out_h);
  const InterpAxis ax = MakeAxis(w, out_w);
  const float* px = x.data();
  float* po = out.data();
  ParallelFor(0, n * c, ItemGrain(out_h * out_w), [&](int64_t lo, int64_t hi) {
    for (int64_t plane = lo; plane < hi; ++plane) {
      const float* src = px + plane * h * w;
      float* dst = po + plane * out_h * out_w;
      for (int64_t oy = 0; oy < out_h; ++oy) {
        const int64_t y0 = ay.lo[static_cast<size_t>(oy)];
        const int64_t y1 = ay.hi[static_cast<size_t>(oy)];
        const float ty = ay.t[static_cast<size_t>(oy)];
        for (int64_t ox = 0; ox < out_w; ++ox) {
          const int64_t x0 = ax.lo[static_cast<size_t>(ox)];
          const int64_t x1 = ax.hi[static_cast<size_t>(ox)];
          const float tx = ax.t[static_cast<size_t>(ox)];
          const float v00 = src[y0 * w + x0];
          const float v01 = src[y0 * w + x1];
          const float v10 = src[y1 * w + x0];
          const float v11 = src[y1 * w + x1];
          dst[oy * out_w + ox] = (1 - ty) * ((1 - tx) * v00 + tx * v01) +
                                 ty * ((1 - tx) * v10 + tx * v11);
        }
      }
    }
  });
}

Tensor BilinearResizeBackward(const Shape& input_shape, const Tensor& grad_out) {
  GMORPH_CHECK(input_shape.Rank() == 4 && grad_out.shape().Rank() == 4);
  const int64_t n = input_shape[0];
  const int64_t c = input_shape[1];
  const int64_t h = input_shape[2];
  const int64_t w = input_shape[3];
  const int64_t out_h = grad_out.shape()[2];
  const int64_t out_w = grad_out.shape()[3];
  const InterpAxis ay = MakeAxis(h, out_h);
  const InterpAxis ax = MakeAxis(w, out_w);
  Tensor grad_x(input_shape);
  float* gx = grad_x.data();
  const float* go = grad_out.data();
  ParallelFor(0, n * c, ItemGrain(out_h * out_w), [&](int64_t lo, int64_t hi) {
    for (int64_t plane = lo; plane < hi; ++plane) {
      float* dst = gx + plane * h * w;
      const float* src = go + plane * out_h * out_w;
      for (int64_t oy = 0; oy < out_h; ++oy) {
        const int64_t y0 = ay.lo[static_cast<size_t>(oy)];
        const int64_t y1 = ay.hi[static_cast<size_t>(oy)];
        const float ty = ay.t[static_cast<size_t>(oy)];
        for (int64_t ox = 0; ox < out_w; ++ox) {
          const int64_t x0 = ax.lo[static_cast<size_t>(ox)];
          const int64_t x1 = ax.hi[static_cast<size_t>(ox)];
          const float tx = ax.t[static_cast<size_t>(ox)];
          const float g = src[oy * out_w + ox];
          dst[y0 * w + x0] += (1 - ty) * (1 - tx) * g;
          dst[y0 * w + x1] += (1 - ty) * tx * g;
          dst[y1 * w + x0] += ty * (1 - tx) * g;
          dst[y1 * w + x1] += ty * tx * g;
        }
      }
    }
  });
  return grad_x;
}

Tensor LinearResizeTokensForward(const Tensor& x, int64_t out_t) {
  GMORPH_CHECK(x.shape().Rank() == 3);
  Tensor out(Shape{x.shape()[0], out_t, x.shape()[2]});
  LinearResizeTokensForwardInto(x, out);
  return out;
}

void LinearResizeTokensForwardInto(const Tensor& x, Tensor& out) {
  GMORPH_CHECK(x.shape().Rank() == 3 && out.shape().Rank() == 3);
  GMORPH_CHECK(out.shape()[0] == x.shape()[0] && out.shape()[2] == x.shape()[2]);
  const int64_t n = x.shape()[0];
  const int64_t t = x.shape()[1];
  const int64_t d = x.shape()[2];
  const int64_t out_t = out.shape()[1];
  const InterpAxis axis = MakeAxis(t, out_t);
  const float* px = x.data();
  float* po = out.data();
  ParallelFor(0, n, ItemGrain(out_t * d), [&](int64_t b_lo, int64_t b_hi) {
    for (int64_t i = b_lo; i < b_hi; ++i) {
      const float* src = px + i * t * d;
      float* dst = po + i * out_t * d;
      for (int64_t ot = 0; ot < out_t; ++ot) {
        const float* lo = src + axis.lo[static_cast<size_t>(ot)] * d;
        const float* hi = src + axis.hi[static_cast<size_t>(ot)] * d;
        const float tt = axis.t[static_cast<size_t>(ot)];
        float* row = dst + ot * d;
        for (int64_t j = 0; j < d; ++j) {
          row[j] = (1 - tt) * lo[j] + tt * hi[j];
        }
      }
    }
  });
}

Tensor LinearResizeTokensBackward(const Shape& input_shape, const Tensor& grad_out) {
  GMORPH_CHECK(input_shape.Rank() == 3 && grad_out.shape().Rank() == 3);
  const int64_t n = input_shape[0];
  const int64_t t = input_shape[1];
  const int64_t d = input_shape[2];
  const int64_t out_t = grad_out.shape()[1];
  const InterpAxis axis = MakeAxis(t, out_t);
  Tensor grad_x(input_shape);
  float* gx = grad_x.data();
  const float* go = grad_out.data();
  ParallelFor(0, n, ItemGrain(out_t * d), [&](int64_t b_lo, int64_t b_hi) {
    for (int64_t i = b_lo; i < b_hi; ++i) {
      float* dst = gx + i * t * d;
      const float* src = go + i * out_t * d;
      for (int64_t ot = 0; ot < out_t; ++ot) {
        float* lo = dst + axis.lo[static_cast<size_t>(ot)] * d;
        float* hi = dst + axis.hi[static_cast<size_t>(ot)] * d;
        const float tt = axis.t[static_cast<size_t>(ot)];
        const float* row = src + ot * d;
        for (int64_t j = 0; j < d; ++j) {
          lo[j] += (1 - tt) * row[j];
          hi[j] += tt * row[j];
        }
      }
    }
  });
  return grad_x;
}

}  // namespace gmorph
