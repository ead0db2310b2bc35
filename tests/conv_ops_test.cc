#include "src/tensor/conv_ops.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/common/rng.h"
#include "src/kernels/inplace_conv.h"
#include "src/kernels/registry.h"
#include "src/tensor/tensor_ops.h"
#include "tests/test_util.h"

namespace gmorph {
namespace {

using testing::MaxDiff;

// Direct (quadruple-loop) reference convolution.
Tensor NaiveConv2d(const Tensor& x, const Tensor& w, const Tensor& b, int64_t stride,
                   int64_t padding) {
  const int64_t n = x.shape()[0];
  const int64_t c = x.shape()[1];
  const int64_t h = x.shape()[2];
  const int64_t wd = x.shape()[3];
  const int64_t o = w.shape()[0];
  const int64_t k = w.shape()[2];
  const int64_t oh = ConvOutDim(h, k, stride, padding);
  const int64_t ow = ConvOutDim(wd, k, stride, padding);
  Tensor out(Shape{n, o, oh, ow});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t oc = 0; oc < o; ++oc) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          double acc = b.empty() ? 0.0 : b.at(oc);
          for (int64_t ic = 0; ic < c; ++ic) {
            for (int64_t ky = 0; ky < k; ++ky) {
              for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t iy = oy * stride + ky - padding;
                const int64_t ix = ox * stride + kx - padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) {
                  continue;
                }
                acc += static_cast<double>(x.at(((i * c + ic) * h + iy) * wd + ix)) *
                       w.at(((oc * c + ic) * k + ky) * k + kx);
              }
            }
          }
          out.at(((i * o + oc) * oh + oy) * ow + ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

// (kernel, stride, padding, channels, out_channels, spatial)
class ConvParamTest : public ::testing::TestWithParam<
                          std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t, int64_t>> {};

TEST_P(ConvParamTest, ForwardMatchesNaive) {
  const auto [k, s, p, c, o, hw] = GetParam();
  Rng rng(static_cast<uint64_t>(k * 31 + s * 7 + p * 3 + c + o + hw));
  Tensor x = Tensor::RandomGaussian(Shape{2, c, hw, hw}, rng);
  Tensor w = Tensor::RandomGaussian(Shape{o, c, k, k}, rng);
  Tensor b = Tensor::RandomGaussian(Shape{o}, rng);
  Tensor got = Conv2dForward(x, w, b, {s, p});
  Tensor want = NaiveConv2d(x, w, b, s, p);
  EXPECT_LT(MaxDiff(got, want), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvParamTest,
    ::testing::Values(std::make_tuple(1, 1, 0, 3, 4, 5), std::make_tuple(3, 1, 1, 2, 3, 6),
                      std::make_tuple(3, 2, 1, 3, 5, 7), std::make_tuple(5, 1, 2, 1, 2, 8),
                      std::make_tuple(2, 2, 0, 4, 4, 8), std::make_tuple(3, 1, 0, 2, 2, 5)));

TEST(ConvBackwardTest, GradientsMatchNumeric) {
  Rng rng(42);
  Tensor x = Tensor::RandomGaussian(Shape{2, 2, 5, 5}, rng);
  Tensor w = Tensor::RandomGaussian(Shape{3, 2, 3, 3}, rng);
  Tensor b = Tensor::RandomGaussian(Shape{3}, rng);
  const Conv2dArgs args{1, 1};
  Tensor y = Conv2dForward(x, w, b, args);
  Tensor probe = Tensor::RandomGaussian(y.shape(), rng);

  Tensor grad_w = Tensor::Zeros(w.shape());
  Tensor grad_b = Tensor::Zeros(b.shape());
  Tensor grad_x = Conv2dBackward(x, w, probe, args, grad_w, grad_b);

  auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    return SumAll(Mul(Conv2dForward(xx, ww, bb, args), probe));
  };
  const float eps = 1e-2f;
  for (int trial = 0; trial < 6; ++trial) {
    {
      const int64_t i = rng.NextInt(static_cast<int>(x.size()));
      Tensor xp = x.Clone();
      xp.at(i) += eps;
      Tensor xm = x.Clone();
      xm.at(i) -= eps;
      EXPECT_NEAR(grad_x.at(i), (loss(xp, w, b) - loss(xm, w, b)) / (2 * eps), 5e-2f);
    }
    {
      const int64_t i = rng.NextInt(static_cast<int>(w.size()));
      Tensor wp = w.Clone();
      wp.at(i) += eps;
      Tensor wm = w.Clone();
      wm.at(i) -= eps;
      EXPECT_NEAR(grad_w.at(i), (loss(x, wp, b) - loss(x, wm, b)) / (2 * eps), 5e-2f);
    }
  }
  {
    Tensor bp = b.Clone();
    bp.at(0) += eps;
    Tensor bm = b.Clone();
    bm.at(0) -= eps;
    EXPECT_NEAR(grad_b.at(0), (loss(x, w, bp) - loss(x, w, bm)) / (2 * eps), 5e-2f);
  }
}

// Direct reference gradients of NaiveConv2d (double accumulators, no im2col).
void NaiveConv2dBackward(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                         int64_t stride, int64_t padding, Tensor& grad_x, Tensor& grad_w,
                         Tensor& grad_b) {
  const int64_t n = x.shape()[0];
  const int64_t c = x.shape()[1];
  const int64_t h = x.shape()[2];
  const int64_t wd = x.shape()[3];
  const int64_t o = w.shape()[0];
  const int64_t k = w.shape()[2];
  const int64_t oh = grad_out.shape()[2];
  const int64_t ow = grad_out.shape()[3];
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t oc = 0; oc < o; ++oc) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          const float gy = grad_out.at(((i * o + oc) * oh + oy) * ow + ox);
          grad_b.at(oc) += gy;
          for (int64_t ic = 0; ic < c; ++ic) {
            for (int64_t ky = 0; ky < k; ++ky) {
              for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t iy = oy * stride + ky - padding;
                const int64_t ix = ox * stride + kx - padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) {
                  continue;
                }
                const int64_t xi = ((i * c + ic) * h + iy) * wd + ix;
                const int64_t wi = ((oc * c + ic) * k + ky) * k + kx;
                grad_x.at(xi) += gy * w.at(wi);
                grad_w.at(wi) += gy * x.at(xi);
              }
            }
          }
        }
      }
    }
  }
}

// Randomized-shape forward and backward against the direct references. The
// im2col path reorders float accumulation, so comparisons are tolerance-based.
TEST(ConvPropertyTest, RandomShapesMatchNaiveReference) {
  Rng rng(314);
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t batch = 1 + rng.NextInt(3);
    const int64_t c = 1 + rng.NextInt(5);
    const int64_t o = 1 + rng.NextInt(6);
    const int64_t k = 1 + rng.NextInt(3);           // 1..3
    const int64_t s = 1 + rng.NextInt(2);           // 1..2
    const int64_t p = rng.NextInt(static_cast<int>(k));  // 0..k-1
    const int64_t hw = k + rng.NextInt(9);          // >= kernel
    SCOPED_TRACE(::testing::Message() << "n=" << batch << " c=" << c << " o=" << o << " k=" << k
                                      << " s=" << s << " p=" << p << " hw=" << hw);
    Tensor x = Tensor::RandomGaussian(Shape{batch, c, hw, hw}, rng);
    Tensor w = Tensor::RandomGaussian(Shape{o, c, k, k}, rng);
    Tensor b = Tensor::RandomGaussian(Shape{o}, rng);
    const Conv2dArgs args{s, p};

    Tensor got = Conv2dForward(x, w, b, args);
    Tensor want = NaiveConv2d(x, w, b, s, p);
    EXPECT_LE(MaxDiff(got, want), 1e-4f * (1.0f + MaxAbs(want)));

    Tensor grad_out = Tensor::RandomGaussian(got.shape(), rng);
    Tensor grad_w = Tensor::Zeros(w.shape());
    Tensor grad_b = Tensor::Zeros(b.shape());
    Tensor grad_x = Conv2dBackward(x, w, grad_out, args, grad_w, grad_b);

    Tensor ref_gx = Tensor::Zeros(x.shape());
    Tensor ref_gw = Tensor::Zeros(w.shape());
    Tensor ref_gb = Tensor::Zeros(b.shape());
    NaiveConv2dBackward(x, w, grad_out, s, p, ref_gx, ref_gw, ref_gb);
    EXPECT_LE(MaxDiff(grad_x, ref_gx), 1e-4f * (1.0f + MaxAbs(ref_gx)));
    EXPECT_LE(MaxDiff(grad_w, ref_gw), 1e-4f * (1.0f + MaxAbs(ref_gw)));
    EXPECT_LE(MaxDiff(grad_b, ref_gb), 1e-4f * (1.0f + MaxAbs(ref_gb)));
  }
}

// The batch-parallel forward and the per-sample-partials backward must be
// bitwise independent of the thread count (weight gradients are reduced in
// sample order regardless of which worker produced each partial).
TEST(ConvThreadDeterminismTest, BitwiseEqualAcrossThreadCounts) {
  const int restore = KernelThreads();
  Rng rng(2718);
  Tensor x = Tensor::RandomGaussian(Shape{5, 3, 9, 9}, rng);
  Tensor w = Tensor::RandomGaussian(Shape{4, 3, 3, 3}, rng);
  Tensor b = Tensor::RandomGaussian(Shape{4}, rng);
  const Conv2dArgs args{1, 1};

  auto run = [&](int threads, Tensor& grad_w, Tensor& grad_b, Tensor& grad_x) {
    SetKernelThreads(threads);
    Tensor y = Conv2dForward(x, w, b, args);
    Tensor grad_out = y;  // deterministic, shape-correct upstream gradient
    grad_w = Tensor::Zeros(w.shape());
    grad_b = Tensor::Zeros(b.shape());
    grad_x = Conv2dBackward(x, w, grad_out, args, grad_w, grad_b);
    return y;
  };
  Tensor gw1, gb1, gx1, gw4, gb4, gx4;
  Tensor y1 = run(1, gw1, gb1, gx1);
  Tensor y4 = run(4, gw4, gb4, gx4);
  SetKernelThreads(restore);

  auto bitwise_equal = [](const Tensor& a, const Tensor& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * sizeof(float)) == 0;
  };
  EXPECT_TRUE(bitwise_equal(y1, y4));
  EXPECT_TRUE(bitwise_equal(gx1, gx4));
  EXPECT_TRUE(bitwise_equal(gw1, gw4));
  EXPECT_TRUE(bitwise_equal(gb1, gb4));
}

// The conv backward as one MatmulNT and one MatmulTN per sample over a
// per-element im2col, a per-element col2im, and per-sample partials summed
// in sample order. Conv2dBackward only moves data differently, so it must
// reproduce these bits exactly.
void PerSampleGemmConv2dBackward(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                                 int64_t stride, int64_t padding, Tensor& grad_x,
                                 Tensor& grad_w, Tensor& grad_b) {
  const int64_t n = x.shape()[0];
  const int64_t c = x.shape()[1];
  const int64_t h = x.shape()[2];
  const int64_t wd = x.shape()[3];
  const int64_t o = w.shape()[0];
  const int64_t k = w.shape()[2];
  const int64_t oh = grad_out.shape()[2];
  const int64_t ow = grad_out.shape()[3];
  const int64_t ckk = c * k * k;
  const int64_t spatial = oh * ow;
  // The GEMMs resolve as they would inside the conv's loop over the batch.
  ParallelRegionGuard serial;
  std::vector<float> col(static_cast<size_t>(ckk * spatial));
  std::vector<float> dcol(col.size());
  std::vector<float> partial_w(static_cast<size_t>(n * o * ckk));
  std::vector<float> partial_b(static_cast<size_t>(n * o));
  for (int64_t i = 0; i < n; ++i) {
    const float* xi = x.data() + i * c * h * wd;
    const float* dy = grad_out.data() + i * o * spatial;
    for (int64_t r = 0; r < ckk; ++r) {
      const int64_t ch = r / (k * k);
      const int64_t ky = r / k % k;
      const int64_t kx = r % k;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          const int64_t iy = oy * stride + ky - padding;
          const int64_t ix = ox * stride + kx - padding;
          const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < wd;
          col[static_cast<size_t>(r * spatial + oy * ow + ox)] =
              inside ? xi[(ch * h + iy) * wd + ix] : 0.0f;
        }
      }
    }
    MatmulNT(dy, col.data(), partial_w.data() + i * o * ckk, o, spatial, ckk);
    MatmulTN(w.data(), dy, dcol.data(), o, ckk, spatial);
    float* gx = grad_x.data() + i * c * h * wd;
    for (int64_t r = 0; r < ckk; ++r) {
      const int64_t ch = r / (k * k);
      const int64_t ky = r / k % k;
      const int64_t kx = r % k;
      for (int64_t oy = 0; oy < oh; ++oy) {
        const int64_t iy = oy * stride + ky - padding;
        if (iy < 0 || iy >= h) {
          continue;
        }
        for (int64_t ox = 0; ox < ow; ++ox) {
          const int64_t ix = ox * stride + kx - padding;
          if (ix >= 0 && ix < wd) {
            gx[(ch * h + iy) * wd + ix] += dcol[static_cast<size_t>(r * spatial + oy * ow + ox)];
          }
        }
      }
    }
    for (int64_t oc = 0; oc < o; ++oc) {
      float acc = 0.0f;
      for (int64_t s = 0; s < spatial; ++s) {
        acc += dy[oc * spatial + s];
      }
      partial_b[static_cast<size_t>(i * o + oc)] = acc;
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < o * ckk; ++j) {
      grad_w.at(j) += partial_w[static_cast<size_t>(i * o * ckk + j)];
    }
  }
  if (!grad_b.empty()) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t oc = 0; oc < o; ++oc) {
        grad_b.at(oc) += partial_b[static_cast<size_t>(i * o + oc)];
      }
    }
  }
}

// Conv2dBackward's training arithmetic is pinned bit for bit: each gradient
// GEMM runs the solver its per-sample problem resolves to, and packing,
// transposes, col2im and the partial buffers only move data. The grid spans
// kernels 1, 3 and 8, strides 1, 2 and 8, padding 0 and 1, output widths 1 to
// 32, 1 to 64 channels and batches 1 to 32, so the per-sample products land
// on every solver: gemm.ref, gemm.dot (the narrow 4x4 and 2x2 input
// gradients), gemm.direct, and gemm.packed (8->8 at 32x32 has an NT weight
// gradient with K = 1,024, four 256-deep blocks).
TEST(ConvPropertyTest, BackwardBitwiseMatchesPerSampleGemms) {
  struct Case {
    int64_t n, c, hw, o, kernel, stride, padding, ow;
    bool bias;
  };
  const Case cases[] = {
      {1, 1, 1, 1, 1, 1, 0, 1, true},      {3, 3, 32, 4, 3, 1, 1, 32, true},
      {16, 4, 32, 4, 3, 1, 1, 32, true},   {3, 8, 32, 8, 3, 1, 1, 32, false},
      {16, 16, 4, 32, 3, 1, 1, 4, true},   {32, 32, 2, 32, 3, 1, 1, 2, true},
      {3, 64, 4, 64, 3, 1, 1, 4, false},   {16, 3, 32, 32, 8, 8, 0, 4, true},
      {3, 5, 64, 7, 8, 8, 0, 8, false},    {1, 2, 16, 3, 3, 2, 1, 8, true},
      {3, 6, 31, 5, 1, 2, 0, 16, false},   {32, 1, 18, 2, 3, 1, 0, 16, true},
      {16, 8, 8, 16, 3, 1, 1, 8, true},    {3, 64, 1, 1, 3, 1, 1, 1, false},
      {1, 1, 2, 64, 1, 1, 0, 2, true},     {3, 4, 8, 4, 8, 1, 0, 1, true},
      {3, 4, 9, 6, 8, 1, 1, 4, false},     {1, 3, 64, 16, 3, 2, 1, 32, true},
      {32, 2, 4, 3, 1, 1, 0, 4, false},    {3, 16, 16, 32, 3, 2, 1, 8, true},
      {16, 32, 8, 32, 3, 1, 1, 8, false},  {3, 1, 33, 8, 3, 2, 0, 16, true},
  };
  Rng rng(4242);
  std::set<std::string> nt_solvers;
  std::set<std::string> tn_solvers;
  for (const Case& t : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << t.n << " c=" << t.c << " hw=" << t.hw << " o=" << t.o
                 << " k=" << t.kernel << " s=" << t.stride << " p=" << t.padding
                 << " bias=" << t.bias);
    ASSERT_EQ(ConvOutDim(t.hw, t.kernel, t.stride, t.padding), t.ow);
    const int64_t ckk = t.c * t.kernel * t.kernel;
    const kernels::SolverRegistry& registry = kernels::SolverRegistry::Global();
    nt_solvers.insert(registry
                          .HeuristicGemm(kernels::GemmProblem(kernels::OpFamily::kGemmNT, t.o,
                                                              t.ow * t.ow, ckk))
                          ->name());
    tn_solvers.insert(registry
                          .HeuristicGemm(kernels::GemmProblem(kernels::OpFamily::kGemmTN, ckk,
                                                              t.o, t.ow * t.ow))
                          ->name());
    Tensor x = Tensor::RandomGaussian(Shape{t.n, t.c, t.hw, t.hw}, rng);
    Tensor w = Tensor::RandomGaussian(Shape{t.o, t.c, t.kernel, t.kernel}, rng);
    Tensor grad_out = Tensor::RandomGaussian(Shape{t.n, t.o, t.ow, t.ow}, rng);
    const Tensor gw0 = Tensor::RandomGaussian(w.shape(), rng);
    const Tensor gb0 = t.bias ? Tensor::RandomGaussian(Shape{t.o}, rng) : Tensor();

    Tensor grad_w = gw0.Clone();
    Tensor grad_b = gb0.Clone();
    const Tensor grad_x =
        Conv2dBackward(x, w, grad_out, Conv2dArgs{t.stride, t.padding}, grad_w, grad_b);

    Tensor want_x = Tensor::Zeros(x.shape());
    Tensor want_w = gw0.Clone();
    Tensor want_b = gb0.Clone();
    PerSampleGemmConv2dBackward(x, w, grad_out, t.stride, t.padding, want_x, want_w, want_b);

    const auto bitwise_equal = [](const Tensor& a, const Tensor& b) {
      return a.size() == b.size() &&
             (a.empty() || std::memcmp(a.data(), b.data(),
                                       static_cast<size_t>(a.size()) * sizeof(float)) == 0);
    };
    EXPECT_TRUE(bitwise_equal(grad_x, want_x));
    EXPECT_TRUE(bitwise_equal(grad_w, want_w));
    EXPECT_TRUE(bitwise_equal(grad_b, want_b));
  }
  const std::set<std::string> all = {"gemm.ref", "gemm.dot", "gemm.direct", "gemm.packed"};
  EXPECT_EQ(nt_solvers, all);
  EXPECT_EQ(tn_solvers, all);
}

// The fused engine's narrow-conv path against the per-sample W·col conv,
// both on gemm.direct: each output sums the same products in the same k
// order (FMA is symmetric in its factors), and the epilogue adds bias, then
// skip, then clamps in the same order, so every bit matches. Each batch row
// must also equal its own batch-1 run. The grid cycles O, C, the batch and
// the epilogue flags through every (kernel, stride, padding, OH*OW) cell.
TEST(ConvPropertyTest, NarrowConvBitwiseMatchesPerSampleDirect) {
  const int64_t kernel_sizes[] = {1, 3, 8};
  const int64_t strides[] = {1, 2, 8};
  const int64_t paddings[] = {0, 1};
  const std::pair<int64_t, int64_t> outputs[] = {{1, 1}, {1, 2}, {2, 2},
                                                 {3, 3}, {4, 4}, {1, 23}};  // OH x OW
  const int64_t out_channels[] = {1, 8, 24, 33, 64, 96};
  const int64_t channels[] = {1, 3, 16, 64};
  const int64_t batches[] = {1, 3, 8, 16};
  const kernels::GemmSolver* direct = kernels::SolverRegistry::Global().FindGemm("gemm.direct");
  ASSERT_NE(direct, nullptr);
  const auto bitwise_equal = [](const float* a, const float* b, int64_t n) {
    return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
  };
  Rng rng(2024);
  int cases = 0;
  for (const int64_t k : kernel_sizes) {
    for (const int64_t s : strides) {
      for (const int64_t p : paddings) {
        for (const auto& [oh, ow] : outputs) {
          const int64_t h = (oh - 1) * s + k - 2 * p;
          const int64_t w = (ow - 1) * s + k - 2 * p;
          if (h < 1 || w < 1) {
            continue;  // a 1x1 kernel over padding only
          }
          const int64_t o = out_channels[cases % 6];
          const int64_t c = channels[(cases / 6) % 4];
          const int64_t n = batches[(cases / 2) % 4];
          const bool bias = (cases & 1) != 0;
          const bool skip = (cases & 2) != 0;
          const bool relu = (cases & 4) != 0;
          ++cases;
          SCOPED_TRACE(::testing::Message()
                       << "k=" << k << " s=" << s << " p=" << p << " out=" << oh << "x" << ow
                       << " o=" << o << " c=" << c << " n=" << n << " bias=" << bias
                       << " skip=" << skip << " relu=" << relu);
          const Conv2dArgs args{s, p};
          ASSERT_EQ(ConvOutDim(h, k, s, p), oh);
          ASSERT_EQ(ConvOutDim(w, k, s, p), ow);
          const Tensor x = Tensor::RandomGaussian(Shape{n, c, h, w}, rng);
          const Tensor wts = Tensor::RandomGaussian(Shape{o, c, k, k}, rng);
          const Tensor b = bias ? Tensor::RandomGaussian(Shape{o}, rng) : Tensor();
          const Tensor res = Tensor::RandomGaussian(Shape{n, o, oh, ow}, rng);
          const int64_t ckk = c * k * k;
          Tensor wt(Shape{ckk, o});
          kernels::Transpose(o, ckk, wts.data(), ckk, wt.data(), o);

          Tensor want(res.shape());
          Conv2dForwardInto(x, wts, b, args, want, skip ? &res : nullptr, relu, direct);
          Tensor got(res.shape());
          NarrowConv2dForwardInto(x, wt, k, b, args, got, skip ? &res : nullptr, relu, direct);
          EXPECT_TRUE(bitwise_equal(got.data(), want.data(), got.size()));

          const int64_t in_row = c * h * w;
          const int64_t out_row = o * oh * ow;
          for (int64_t r = 0; r < n; ++r) {
            Tensor xr(Shape{1, c, h, w});
            std::copy(x.data() + r * in_row, x.data() + (r + 1) * in_row, xr.data());
            Tensor rr(Shape{1, o, oh, ow});
            std::copy(res.data() + r * out_row, res.data() + (r + 1) * out_row, rr.data());
            Tensor yr(rr.shape());
            NarrowConv2dForwardInto(xr, wt, k, b, args, yr, skip ? &rr : nullptr, relu, direct);
            EXPECT_TRUE(bitwise_equal(yr.data(), got.data() + r * out_row, out_row)) << "row " << r;
          }
        }
      }
    }
  }
  EXPECT_GE(cases, 90);
}

// The conv epilogue in scalar loops: bias, then skip, then the ReLU clamp.
void ReferenceEpilogue(int64_t o, int64_t spatial, const float* bias, const float* skip,
                       bool relu, float* y) {
  for (int64_t oc = 0; oc < o; ++oc) {
    for (int64_t s = 0; s < spatial; ++s) {
      float v = y[oc * spatial + s];
      if (bias != nullptr) {
        v += bias[oc];
      }
      if (skip != nullptr) {
        v += skip[oc * spatial + s];
      }
      y[oc * spatial + s] = relu ? (v > 0.0f ? v : 0.0f) : v;
    }
  }
}

// Tap p = (ch, kh, kw) of output pixel (oy, ox), or +0.0f in the padding.
float TapValue(const float* xi, int64_t h, int64_t w, int64_t k, int64_t stride, int64_t pad,
               int64_t p, int64_t oy, int64_t ox) {
  const int64_t ch = p / (k * k);
  const int64_t iy = oy * stride + p / k % k - pad;
  const int64_t ix = ox * stride + p % k - pad;
  return iy >= 0 && iy < h && ix >= 0 && ix < w ? xi[(ch * h + iy) * w + ix] : 0.0f;
}

// gemm.direct reads a conv's im2col (stride-1 "same" convs) or im2row
// (narrow convs) in place instead of materializing it. Both must reproduce,
// bit for bit, the materialized reference written out here: a per-element
// im2col or im2row, gemm.direct's Run over it, then the epilogue. The wide
// grid walks output widths whose 32-lane column tiles start at every kind of
// column offset (one lane pattern for 8, 16 and 32; several for 12, 24, 31,
// 33 and 40; whole tiles spanning many rows for 1, 2, 3 and 5), outputs on
// both sides of 32 and 64 pixels, and 1 to 33 output channels (8-, 4- and
// 1-row tiles). The copy each sample is read from is sized so that the first
// and the last vector read of every conv touch its first and its last float,
// which the asan job checks. An off-by-one lane mask, a tap read from the
// wrong row, or an epilogue applied out of order fails here.
TEST(ConvPropertyTest, InPlaceOperandBitwiseMatchesMaterialized) {
  const kernels::GemmSolver* direct = kernels::SolverRegistry::Global().FindGemm("gemm.direct");
  ASSERT_NE(direct, nullptr);
  if (!kernels::InPlaceConvSolver(direct)) {
    std::printf("[ note ] no in-place conv operands on this build; both sides materialize\n");
  }
  const auto bitwise_equal = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * sizeof(float)) == 0;
  };
  const int64_t out_channels[] = {1, 3, 4, 8, 9, 24, 33};
  const int64_t channels[] = {1, 3, 16};
  const int64_t batches[] = {1, 3, 8};
  Rng rng(77);
  int cases = 0;
  for (const int64_t k : {1, 3, 5}) {
    for (const int64_t ow : {1, 2, 3, 5, 8, 12, 16, 24, 31, 32, 33, 40}) {
      // Heights putting OH*OW just below and just above 32 and 64.
      std::set<int64_t> heights;
      for (const int64_t edge : {32, 64}) {
        heights.insert(std::max<int64_t>(1, (edge - 1) / ow));
        heights.insert(edge / ow + 1);
      }
      for (const int64_t oh : heights) {
        const int64_t o = out_channels[cases % 7];
        const int64_t c = channels[cases % 3];
        const int64_t n = batches[(cases / 3) % 3];
        const bool bias = (cases & 1) != 0;
        const bool skip = (cases & 2) != 0;
        const bool relu = (cases & 4) != 0;
        ++cases;
        SCOPED_TRACE(::testing::Message() << "k=" << k << " out=" << oh << "x" << ow << " o=" << o
                                          << " c=" << c << " n=" << n << " bias=" << bias
                                          << " skip=" << skip << " relu=" << relu);
        const int64_t pad = (k - 1) / 2;
        const int64_t spatial = oh * ow;
        const int64_t ckk = c * k * k;
        const Tensor x = Tensor::RandomGaussian(Shape{n, c, oh, ow}, rng);
        const Tensor wts = Tensor::RandomGaussian(Shape{o, c, k, k}, rng);
        const Tensor b = bias ? Tensor::RandomGaussian(Shape{o}, rng) : Tensor();
        const Tensor res = Tensor::RandomGaussian(Shape{n, o, oh, ow}, rng);
        Tensor got(res.shape());
        Conv2dForwardInto(x, wts, b, Conv2dArgs{1, pad}, got, skip ? &res : nullptr, relu,
                          direct);

        Tensor want(res.shape());
        std::vector<float> col(static_cast<size_t>(ckk * spatial));
        const kernels::ProblemDesc desc =
            kernels::GemmProblem(kernels::OpFamily::kGemmNN, o, ckk, spatial);
        for (int64_t i = 0; i < n; ++i) {
          const float* xi = x.data() + i * c * oh * ow;
          for (int64_t p = 0; p < ckk; ++p) {
            for (int64_t s = 0; s < spatial; ++s) {
              col[static_cast<size_t>(p * spatial + s)] =
                  TapValue(xi, oh, ow, k, 1, pad, p, s / ow, s % ow);
            }
          }
          float* y = want.data() + i * o * spatial;
          direct->Run(desc, kernels::MakeGemmCall(desc, wts.data(), col.data(), y, false));
          ReferenceEpilogue(o, spatial, bias ? b.data() : nullptr,
                            skip ? res.data() + i * o * spatial : nullptr, relu, y);
        }
        EXPECT_TRUE(bitwise_equal(got, want));
      }
    }
  }
  EXPECT_GE(cases, 120);

  // Narrow convs: one pixels x channels GEMM over the batch, whose A rows
  // gather their taps from the zero-bordered samples (or from x itself
  // without padding).
  const int64_t narrow_out_channels[] = {24, 33, 64, 96};
  const int64_t narrow_channels[] = {1, 3, 16, 64};
  int narrow_cases = 0;
  for (const int64_t k : {1, 3, 8}) {
    for (const int64_t s : {1, 2, 8}) {
      for (const int64_t pad : {0, 1}) {
        for (const auto& [oh, ow] : {std::pair<int64_t, int64_t>{1, 1}, {2, 2}, {3, 3}, {4, 4},
                                     {1, 23}}) {
          const int64_t h = (oh - 1) * s + k - 2 * pad;
          const int64_t w = (ow - 1) * s + k - 2 * pad;
          if (h < 1 || w < 1) {
            continue;  // a 1x1 kernel over padding only
          }
          const int64_t o = narrow_out_channels[narrow_cases % 4];
          const int64_t c = narrow_channels[(narrow_cases / 4) % 4];
          const int64_t n = batches[narrow_cases % 3];
          const bool bias = (narrow_cases & 1) != 0;
          const bool skip = (narrow_cases & 2) != 0;
          const bool relu = (narrow_cases & 4) != 0;
          ++narrow_cases;
          SCOPED_TRACE(::testing::Message()
                       << "narrow k=" << k << " s=" << s << " p=" << pad << " out=" << oh << "x"
                       << ow << " o=" << o << " c=" << c << " n=" << n << " bias=" << bias
                       << " skip=" << skip << " relu=" << relu);
          const int64_t spatial = oh * ow;
          const int64_t ckk = c * k * k;
          const Tensor x = Tensor::RandomGaussian(Shape{n, c, h, w}, rng);
          const Tensor wt = Tensor::RandomGaussian(Shape{ckk, o}, rng);
          const Tensor b = bias ? Tensor::RandomGaussian(Shape{o}, rng) : Tensor();
          const Tensor res = Tensor::RandomGaussian(Shape{n, o, oh, ow}, rng);
          Tensor got(res.shape());
          NarrowConv2dForwardInto(x, wt, k, b, Conv2dArgs{s, pad}, got, skip ? &res : nullptr,
                                  relu, direct);

          std::vector<float> rows(static_cast<size_t>(n * spatial * ckk));
          for (int64_t i = 0; i < n; ++i) {
            for (int64_t px = 0; px < spatial; ++px) {
              for (int64_t p = 0; p < ckk; ++p) {
                rows[static_cast<size_t>((i * spatial + px) * ckk + p)] = TapValue(
                    x.data() + i * c * h * w, h, w, k, s, pad, p, px / ow, px % ow);
              }
            }
          }
          std::vector<float> y(static_cast<size_t>(n * spatial * o));
          const kernels::ProblemDesc desc =
              kernels::GemmProblem(kernels::OpFamily::kGemmNN, n * spatial, ckk, o);
          direct->Run(desc, kernels::MakeGemmCall(desc, rows.data(), wt.data(), y.data(), false));
          Tensor want(res.shape());
          for (int64_t i = 0; i < n; ++i) {
            float* plane = want.data() + i * o * spatial;
            for (int64_t px = 0; px < spatial; ++px) {
              for (int64_t oc = 0; oc < o; ++oc) {
                plane[oc * spatial + px] = y[static_cast<size_t>((i * spatial + px) * o + oc)];
              }
            }
            ReferenceEpilogue(o, spatial, bias ? b.data() : nullptr,
                              skip ? res.data() + i * o * spatial : nullptr, relu, plane);
          }
          EXPECT_TRUE(bitwise_equal(got, want));
        }
      }
    }
  }
  EXPECT_GE(narrow_cases, 60);
}

TEST(MaxPoolTest, SelectsWindowMaxima) {
  Tensor x = Tensor::FromVector(Shape{1, 1, 4, 4},
                                {1, 2, 5, 4,   //
                                 3, 0, 1, 1,   //
                                 9, 8, 0, 0,   //
                                 7, 6, 0, 2});
  std::vector<int64_t> argmax;
  Tensor y = MaxPool2dForward(x, 2, 2, argmax);
  EXPECT_EQ(y.shape().dims(), (std::vector<int64_t>{1, 1, 2, 2}));
  EXPECT_EQ(y.at(0), 3.0f);
  EXPECT_EQ(y.at(1), 5.0f);
  EXPECT_EQ(y.at(2), 9.0f);
  EXPECT_EQ(y.at(3), 2.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  Rng rng(5);
  Tensor x = Tensor::RandomGaussian(Shape{1, 2, 4, 4}, rng);
  std::vector<int64_t> argmax;
  Tensor y = MaxPool2dForward(x, 2, 2, argmax);
  Tensor g = Tensor::Full(y.shape(), 1.0f);
  Tensor gx = MaxPool2dBackward(x.shape(), g, argmax);
  EXPECT_FLOAT_EQ(SumAll(gx), static_cast<float>(y.size()));
  // Gradient lands only at argmax positions.
  for (int64_t i = 0; i < gx.size(); ++i) {
    EXPECT_TRUE(gx.at(i) == 0.0f || gx.at(i) == 1.0f);
  }
}

TEST(GlobalAvgPoolTest, ForwardBackward) {
  Tensor x = Tensor::FromVector(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y = GlobalAvgPoolForward(x);
  EXPECT_FLOAT_EQ(y.at(0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(1), 10.0f);
  Tensor g = Tensor::FromVector(Shape{1, 2}, {4.0f, 8.0f});
  Tensor gx = GlobalAvgPoolBackward(x.shape(), g);
  EXPECT_FLOAT_EQ(gx.at(0), 1.0f);
  EXPECT_FLOAT_EQ(gx.at(4), 2.0f);
}

TEST(BilinearResizeTest, IdentityWhenSameSize) {
  Rng rng(6);
  Tensor x = Tensor::RandomGaussian(Shape{1, 2, 5, 5}, rng);
  EXPECT_LT(MaxDiff(BilinearResizeForward(x, 5, 5), x), 1e-6f);
}

TEST(BilinearResizeTest, PreservesConstantFields) {
  Tensor x = Tensor::Full(Shape{1, 1, 4, 4}, 3.0f);
  Tensor y = BilinearResizeForward(x, 7, 3);
  for (int64_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y.at(i), 3.0f, 1e-6f);
  }
}

TEST(BilinearResizeTest, BackwardConservesMass) {
  Rng rng(7);
  Tensor grad_out = Tensor::RandomGaussian(Shape{1, 1, 6, 6}, rng);
  Tensor gx = BilinearResizeBackward(Shape{1, 1, 3, 3}, grad_out);
  // Interpolation weights per output pixel sum to 1, so total mass matches.
  EXPECT_NEAR(SumAll(gx), SumAll(grad_out), 1e-4f);
}

TEST(TokenResizeTest, IdentityAndMass) {
  Rng rng(8);
  Tensor x = Tensor::RandomGaussian(Shape{2, 4, 3}, rng);
  EXPECT_LT(MaxDiff(LinearResizeTokensForward(x, 4), x), 1e-6f);
  Tensor g = Tensor::RandomGaussian(Shape{2, 8, 3}, rng);
  Tensor gx = LinearResizeTokensBackward(Shape{2, 4, 3}, g);
  EXPECT_NEAR(SumAll(gx), SumAll(g), 1e-4f);
}

TEST(ConvOutDimTest, FormulaAndGuard) {
  EXPECT_EQ(ConvOutDim(32, 3, 1, 1), 32);
  EXPECT_EQ(ConvOutDim(32, 2, 2, 0), 16);
  EXPECT_EQ(ConvOutDim(5, 3, 2, 0), 2);
  EXPECT_THROW(ConvOutDim(2, 5, 1, 0), CheckError);
}

}  // namespace
}  // namespace gmorph
