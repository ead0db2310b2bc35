#include "src/quant/quant_ops.h"

#include <algorithm>
#include <cstring>

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

// Quantizes one sample (C,H,W) into (C, H+2p, W+2p) with `pad_byte` — the
// zero point — in the p-wide border, so the tap gather reads padding like
// any other pixel. The sample quantizes in one vectorized pass into `flat`
// (C*H*W bytes); rows then move into place.
void QuantizePadded(const float* x, int64_t c, int64_t h, int64_t w, int64_t pad,
                    const ActQuant& q, uint8_t pad_byte, uint8_t* flat, uint8_t* dst) {
  if (pad == 0) {
    QuantizeActivations(x, c * h * w, q, dst);
    return;
  }
  QuantizeActivations(x, c * h * w, q, flat);
  const int64_t wp = w + 2 * pad;
  const int64_t hp = h + 2 * pad;
  std::fill(dst, dst + c * hp * wp, pad_byte);
  for (int64_t r = 0; r < c * h; ++r) {
    const int64_t ch = r / h;
    const int64_t y = r % h;
    std::memcpy(dst + (ch * hp + y + pad) * wp + pad, flat + r * w, static_cast<size_t>(w));
  }
}

// The conv epilogue for one sample: out[oc, s] = relu(Dequant(acc) + bias +
// skip), each term only when present, in that order. acc(oc, s) sits at
// acc[oc * S + s] with pixels on the lanes, at acc[s * O + oc] with channels
// on the lanes.
template <bool kChannelLanes>
void DequantSample(const int32_t* acc, const QConvWeights& qw, int64_t spatial,
                   const float* skip, bool relu, float* out) {
  const int64_t o = qw.out_channels;
  const int32_t zp = qw.in_q.zero_point;
  for (int64_t oc = 0; oc < o; ++oc) {
    const float scale = qw.deq_scale[static_cast<size_t>(oc)];
    const int32_t corr = zp * qw.colsum[static_cast<size_t>(oc)];
    const float bias = qw.bias.empty() ? 0.0f : qw.bias[static_cast<size_t>(oc)];
    const int32_t* ao = kChannelLanes ? acc + oc : acc + oc * spatial;
    float* yo = out + oc * spatial;
    const float* so = skip == nullptr ? nullptr : skip + oc * spatial;
    for (int64_t s = 0; s < spatial; ++s) {
      float v = Dequant(ao[kChannelLanes ? s * o : s], corr, scale) + bias;
      if (so != nullptr) {
        v += so[s];
      }
      yo[s] = relu && v < 0.0f ? 0.0f : v;
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
                             const std::vector<float>& w_scales, int64_t oh, int64_t ow) {
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
  qw.gemm = kernels::ConvProblem(kernels::DType::kInt8, o, ckk, oh, ow);
  std::vector<int8_t> rows(static_cast<size_t>(o * ckk));
  qw.colsum.assign(static_cast<size_t>(o), 0);
  qw.deq_scale.resize(static_cast<size_t>(o));
  const float* pw = w.data();
  for (int64_t oc = 0; oc < o; ++oc) {
    const float scale = w_scales[static_cast<size_t>(oc)];
    int32_t sum = 0;
    for (int64_t k = 0; k < ckk; ++k) {
      const int8_t q = QuantizeWeight(pw[oc * ckk + k], scale);
      rows[static_cast<size_t>(oc * ckk + k)] = q;
      sum += q;
    }
    qw.colsum[static_cast<size_t>(oc)] = sum;
    qw.deq_scale[static_cast<size_t>(oc)] = in_q.scale * scale;
  }
  qw.w.resize(static_cast<size_t>(kernels::QWeightBytes(qw.gemm)));
  kernels::PackQConvWeights(qw.gemm, rows.data(), qw.w.data());
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
        orow[j] = Dequant(arow[j], zp * colsum[j], ds[j]);
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
  const kernels::ProblemDesc desc = kernels::ConvProblem(kernels::DType::kInt8, o, ckk, oh, ow);
  GMORPH_CHECK(desc == qw.gemm, "qconv weights packed for " << kernels::ProblemKey(qw.gemm)
                                                            << ", this output runs "
                                                            << kernels::ProblemKey(desc));
  if (solver == nullptr) {
    solver = kernels::SolverRegistry::Global().ResolveQGemm(desc);
  }
  const uint8_t pad_byte = static_cast<uint8_t>(std::clamp(qw.in_q.zero_point, 0, 255));
  const int64_t pad = args.padding;
  const int64_t hp = h + 2 * pad;
  const int64_t wp = wd + 2 * pad;
  const bool channel_lanes = desc.op == kernels::OpFamily::kQConvChannels;

  ParallelFor(0, n, ItemGrain(plane), [&](int64_t lo, int64_t hi) {
    ScratchScope scope;
    uint8_t* flat = pad > 0 ? scope.Alloc<uint8_t>(static_cast<size_t>(c * h * wd)) : nullptr;
    uint8_t* image = scope.Alloc<uint8_t>(static_cast<size_t>(c * hp * wp));
    uint8_t* words = scope.Alloc<uint8_t>(static_cast<size_t>(kernels::QActBytes(desc)));
    int32_t* acc = scope.Alloc<int32_t>(static_cast<size_t>(plane));
    for (int64_t i = lo; i < hi; ++i) {
      QuantizePadded(x.data() + i * c * h * wd, c, h, wd, pad, qw.in_q, pad_byte, flat, image);
      kernels::BuildTapWords(image, c, hp, wp, kernel, args.stride, oh, ow, words);
      solver->Run(desc, kernels::QGemmCall{words, qw.w.data(), acc});
      const float* ps = skip == nullptr ? nullptr : skip->data() + i * plane;
      float* y = out.data() + i * plane;
      if (channel_lanes) {
        DequantSample<true>(acc, qw, spatial, ps, relu, y);
      } else {
        DequantSample<false>(acc, qw, spatial, ps, relu, y);
      }
    }
  });
}

}  // namespace gmorph::quant
