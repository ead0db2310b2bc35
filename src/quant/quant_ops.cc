#include "src/quant/quant_ops.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/kernels/registry.h"
#include "src/kernels/scratch.h"

namespace gmorph::quant {
namespace {

// Same chunking rule as the f32 conv/linear epilogues.
int64_t ItemGrain(int64_t per_item) {
  return std::max<int64_t>(1, (1 << 15) / std::max<int64_t>(1, per_item));
}

// Gathers the quantized image into the transposed column matrix: one row per
// output pixel, ckk bytes per row. Out-of-image taps get `pad_byte` — the
// u8 code of real 0.0, so padding dequantizes exactly to zero.
void QIm2ColRows(const uint8_t* qx, int64_t c, int64_t h, int64_t w, int64_t kernel,
                 int64_t stride, int64_t padding, int64_t oh, int64_t ow, uint8_t pad_byte,
                 uint8_t* col) {
  const int64_t ckk = c * kernel * kernel;
  for (int64_t oy = 0; oy < oh; ++oy) {
    for (int64_t ox = 0; ox < ow; ++ox) {
      uint8_t* row = col + (oy * ow + ox) * ckk;
      int64_t idx = 0;
      for (int64_t ch = 0; ch < c; ++ch) {
        for (int64_t kh = 0; kh < kernel; ++kh) {
          const int64_t iy = oy * stride + kh - padding;
          if (iy < 0 || iy >= h) {
            std::fill(row + idx, row + idx + kernel, pad_byte);
            idx += kernel;
            continue;
          }
          const uint8_t* src_row = qx + (ch * h + iy) * w;
          const int64_t base = ox * stride - padding;
          if (base >= 0 && base + kernel <= w) {
            std::copy(src_row + base, src_row + base + kernel, row + idx);
            idx += kernel;
            continue;
          }
          for (int64_t kw = 0; kw < kernel; ++kw, ++idx) {
            const int64_t ix = base + kw;
            row[idx] = (ix >= 0 && ix < w) ? src_row[ix] : pad_byte;
          }
        }
      }
    }
  }
}

}  // namespace

QLinearWeights PackLinearWeights(const Tensor& w, const Tensor& b, const ActQuant& in_q,
                                 const std::vector<float>& w_scales) {
  GMORPH_CHECK(w.shape().Rank() == 2);
  QLinearWeights qw;
  qw.in_features = w.shape()[0];
  qw.out_features = w.shape()[1];
  qw.in_q = in_q;
  GMORPH_CHECK(static_cast<int64_t>(w_scales.size()) == qw.out_features,
               "linear w_scales size " << w_scales.size() << " want " << qw.out_features);
  const int64_t in = qw.in_features;
  const int64_t out = qw.out_features;
  qw.w.resize(static_cast<size_t>(in * out));
  qw.colsum.assign(static_cast<size_t>(out), 0);
  qw.deq_scale.resize(static_cast<size_t>(out));
  const float* pw = w.data();
  for (int64_t k = 0; k < in; ++k) {
    for (int64_t j = 0; j < out; ++j) {
      const int8_t q = QuantizeWeight(pw[k * out + j], w_scales[static_cast<size_t>(j)]);
      qw.w[static_cast<size_t>(k * out + j)] = q;
      qw.colsum[static_cast<size_t>(j)] += q;
    }
  }
  for (int64_t j = 0; j < out; ++j) {
    qw.deq_scale[static_cast<size_t>(j)] = in_q.scale * w_scales[static_cast<size_t>(j)];
  }
  if (!b.empty()) {
    qw.bias.assign(b.data(), b.data() + b.size());
  }
  return qw;
}

QConvWeights PackConvWeights(const Tensor& w, const Tensor& b, const ActQuant& in_q,
                             const std::vector<float>& w_scales) {
  GMORPH_CHECK(w.shape().Rank() == 4);
  QConvWeights qw;
  qw.out_channels = w.shape()[0];
  qw.in_channels = w.shape()[1];
  qw.kernel = w.shape()[2];
  GMORPH_CHECK(w.shape()[3] == qw.kernel);
  qw.in_q = in_q;
  GMORPH_CHECK(static_cast<int64_t>(w_scales.size()) == qw.out_channels,
               "conv w_scales size " << w_scales.size() << " want " << qw.out_channels);
  const int64_t o = qw.out_channels;
  const int64_t ckk = qw.ckk();
  qw.wt.resize(static_cast<size_t>(ckk * o));
  qw.colsum.assign(static_cast<size_t>(o), 0);
  qw.deq_scale.resize(static_cast<size_t>(o));
  const float* pw = w.data();
  for (int64_t oc = 0; oc < o; ++oc) {
    const float scale = w_scales[static_cast<size_t>(oc)];
    int32_t sum = 0;
    for (int64_t k = 0; k < ckk; ++k) {
      const int8_t q = QuantizeWeight(pw[oc * ckk + k], scale);
      qw.wt[static_cast<size_t>(k * o + oc)] = q;
      sum += q;
    }
    qw.colsum[static_cast<size_t>(oc)] = sum;
    qw.deq_scale[static_cast<size_t>(oc)] = in_q.scale * scale;
  }
  if (!b.empty()) {
    qw.bias.assign(b.data(), b.data() + b.size());
  }
  return qw;
}

void QLinearForwardInto(const Tensor& x, const QLinearWeights& qw, Tensor& out, Activation act,
                        const kernels::QGemmSolver* solver) {
  const int64_t in = qw.in_features;
  const int64_t n = qw.out_features;
  GMORPH_CHECK(x.shape()[-1] == in, "qlinear in features: x " << x.shape().ToString()
                                                              << " want " << in);
  const int64_t rows = x.size() / in;
  GMORPH_CHECK(out.size() == rows * n);
  const kernels::ProblemDesc desc = kernels::QGemmProblem(rows, in, n);
  if (solver == nullptr) {
    solver = kernels::SolverRegistry::Global().ResolveQGemm(desc);
  }

  ScratchScope scope;
  uint8_t* qx = scope.Alloc<uint8_t>(static_cast<size_t>(rows * in));
  int32_t* acc = scope.Alloc<int32_t>(static_cast<size_t>(rows * n));
  {
    const float* px = x.data();
    const ActQuant q = qw.in_q;
    ParallelFor(0, rows, ItemGrain(in), [&](int64_t lo, int64_t hi) {
      QuantizeActivations(px + lo * in, (hi - lo) * in, q, qx + lo * in);
    });
  }
  solver->Run(desc, kernels::QGemmCall{qx, qw.w.data(), acc});

  float* po = out.data();
  const int32_t zp = qw.in_q.zero_point;
  const float* pb = qw.bias.empty() ? nullptr : qw.bias.data();
  const int32_t* colsum = qw.colsum.data();
  const float* ds = qw.deq_scale.data();
  ParallelFor(0, rows, ItemGrain(n), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const int32_t* arow = acc + r * n;
      float* orow = po + r * n;
      for (int64_t j = 0; j < n; ++j) {
        orow[j] = ds[j] * static_cast<float>(arow[j] - zp * colsum[j]);
      }
      LinearEpilogueRow(orow, n, pb, /*skip=*/nullptr, act);
    }
  });
}

void QConv2dForwardInto(const Tensor& x, const QConvWeights& qw, const Conv2dArgs& args,
                        Tensor& out, const Tensor* skip, bool relu,
                        const kernels::QGemmSolver* solver) {
  GMORPH_CHECK(x.shape().Rank() == 4);
  const int64_t n = x.shape()[0];
  const int64_t c = x.shape()[1];
  const int64_t h = x.shape()[2];
  const int64_t wd = x.shape()[3];
  GMORPH_CHECK(c == qw.in_channels, "qconv channels: x " << x.shape().ToString() << " want "
                                                         << qw.in_channels);
  const int64_t o = qw.out_channels;
  const int64_t kernel = qw.kernel;
  const int64_t oh = ConvOutDim(h, kernel, args.stride, args.padding);
  const int64_t ow = ConvOutDim(wd, kernel, args.stride, args.padding);
  GMORPH_CHECK(out.shape() == Shape({n, o, oh, ow}),
               "qconv out buffer " << out.shape().ToString() << " want "
                                   << Shape({n, o, oh, ow}).ToString());
  GMORPH_CHECK(skip == nullptr || skip->shape() == out.shape());

  const int64_t ckk = qw.ckk();
  const int64_t spatial = oh * ow;
  const int64_t plane = o * spatial;
  // The per-sample GEMM runs inside the batch loop, so it is keyed serial —
  // same regime as the f32 conv lowering.
  kernels::ProblemDesc desc = kernels::QGemmProblem(spatial, ckk, o);
  desc.threads = 1;
  if (solver == nullptr) {
    solver = kernels::SolverRegistry::Global().ResolveQGemm(desc);
  }
  const uint8_t pad_byte = static_cast<uint8_t>(std::clamp(qw.in_q.zero_point, 0, 255));
  const ActQuant in_q = qw.in_q;
  const int32_t zp = in_q.zero_point;

  ParallelFor(0, n, ItemGrain(plane), [&](int64_t lo, int64_t hi) {
    ScratchScope scope;
    uint8_t* qx = scope.Alloc<uint8_t>(static_cast<size_t>(c * h * wd));
    uint8_t* col = scope.Alloc<uint8_t>(static_cast<size_t>(spatial * ckk));
    int32_t* acc = scope.Alloc<int32_t>(static_cast<size_t>(spatial * o));
    for (int64_t i = lo; i < hi; ++i) {
      QuantizeActivations(x.data() + i * c * h * wd, c * h * wd, in_q, qx);
      QIm2ColRows(qx, c, h, wd, kernel, args.stride, args.padding, oh, ow, pad_byte, col);
      solver->Run(desc, kernels::QGemmCall{col, qw.wt.data(), acc});
      // Dequant + transpose (S,O) -> (O,S), folding zero-point correction,
      // bias, skip-add and ReLU into the single pass over the output plane.
      float* y = out.data() + i * plane;
      const float* ps = skip == nullptr ? nullptr : skip->data() + i * plane;
      for (int64_t oc = 0; oc < o; ++oc) {
        const float scale = qw.deq_scale[static_cast<size_t>(oc)];
        const int32_t corr = zp * qw.colsum[static_cast<size_t>(oc)];
        const float bias =
            qw.bias.empty() ? 0.0f : qw.bias[static_cast<size_t>(oc)];
        float* yo = y + oc * spatial;
        const float* so = ps == nullptr ? nullptr : ps + oc * spatial;
        for (int64_t s = 0; s < spatial; ++s) {
          float v = scale * static_cast<float>(acc[s * o + oc] - corr) + bias;
          if (so != nullptr) {
            v += so[s];
          }
          yo[s] = relu && v < 0.0f ? 0.0f : v;
        }
      }
    }
  });
}

}  // namespace gmorph::quant
