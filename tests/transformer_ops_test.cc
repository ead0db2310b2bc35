// Tests for the transformer kernels: the branch-free FastExp, the sigmoid-form
// GELU and the fused linear epilogue, and the LayerNorm / attention /
// embedding kernels against straightforward reference loops.
#include "src/tensor/transformer_ops.h"

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/tensor/fast_exp.h"
#include "src/tensor/tensor_ops.h"
#include "tests/test_util.h"

namespace gmorph {
namespace {

using testing::MaxDiff;

TEST(FastExpTest, RelativeErrorBelowOneInAMillionOnItsRange) {
  double worst = 0.0;
  float worst_x = 0.0f;
  // Every 331st float bit pattern of [0, 88] and of [-87, 0]: ~7 million
  // probes spread over every binade, both signs.
  for (const float hi : {88.0f, -87.0f}) {
    const uint32_t sign = std::bit_cast<uint32_t>(hi) & 0x80000000u;
    const uint32_t last = std::bit_cast<uint32_t>(hi) & 0x7fffffffu;
    for (uint32_t bits = 0; bits <= last; bits += 331) {
      const float x = std::bit_cast<float>(sign | bits);
      const double want = std::exp(static_cast<double>(x));
      const double rel = std::fabs(static_cast<double>(FastExp(x)) - want) / want;
      if (rel > worst) {
        worst = rel;
        worst_x = x;
      }
    }
  }
  EXPECT_LE(worst, 1e-6) << "at x = " << worst_x;
}

TEST(FastExpTest, EdgeCases) {
  EXPECT_EQ(FastExp(0.0f), 1.0f);
  EXPECT_TRUE(std::isnan(FastExp(std::numeric_limits<float>::quiet_NaN())));
  // Very negative inputs flush to a result in [0, FLT_MIN].
  for (float x : {-87.4f, -100.0f, -1e30f, -std::numeric_limits<float>::infinity()}) {
    EXPECT_GE(FastExp(x), 0.0f) << x;
    EXPECT_LE(FastExp(x), FLT_MIN) << x;
  }
  // At and past the upper clamp the built exponent stays finite; 88.7228
  // is where an unclamped reduction would round n up to 128.
  for (float x : {kExpHi, 88.7228f, 1e30f, std::numeric_limits<float>::infinity()}) {
    EXPECT_TRUE(std::isfinite(FastExp(x))) << x;
    EXPECT_GT(FastExp(x), 1e38f) << x;
  }
  // The lower clamp itself still evaluates accurately (to ~FLT_MIN).
  EXPECT_NEAR(FastExp(kExpLo) / std::exp(static_cast<double>(kExpLo)), 1.0, 1e-6);
  EXPECT_NEAR(FastExp(kExpLo) / FLT_MIN, 1.0, 1e-5);
}

TEST(GeluTest, SigmoidFormMatchesTanhForm) {
  for (float v = -8.0f; v <= 8.0f; v += 0.01f) {
    const double u = 0.7978845608028654 * (v + 0.044715 * v * v * v);
    const double want = 0.5 * v * (1.0 + std::tanh(u));
    EXPECT_NEAR(Gelu(v), want, 1e-6 * (1.0 + std::fabs(want))) << v;
  }
  EXPECT_EQ(Gelu(0.0f), 0.0f);
  EXPECT_NEAR(Gelu(-100.0f), 0.0f, 1e-30f);  // exp(-2u) saturates at the clamp
  EXPECT_EQ(Gelu(100.0f), 100.0f);
}

TEST(LinearEpilogueTest, BiasSkipThenActivation) {
  std::vector<float> row = {-3.0f, 0.5f, 2.0f};
  const std::vector<float> bias = {1.0f, 1.0f, 1.0f};
  const std::vector<float> skip = {0.5f, -4.0f, 0.0f};
  LinearEpilogueRow(row.data(), 3, bias.data(), skip.data(), Activation::kRelu);
  EXPECT_EQ(row, (std::vector<float>{0.0f, 0.0f, 3.0f}));
  row = {0.25f, -0.5f, 1.0f};
  LinearEpilogueRow(row.data(), 3, nullptr, nullptr, Activation::kGelu);
  EXPECT_FLOAT_EQ(row[0], Gelu(0.25f));
  EXPECT_FLOAT_EQ(row[1], Gelu(-0.5f));
  EXPECT_FLOAT_EQ(row[2], Gelu(1.0f));
}

TEST(LayerNormKernelTest, MatchesDoublePrecisionReference) {
  Rng rng(3);
  const Tensor x = Tensor::RandomGaussian(Shape{2, 5, 24}, rng);
  const Tensor gamma = Tensor::RandomGaussian(Shape{24}, rng);
  const Tensor beta = Tensor::RandomGaussian(Shape{24}, rng);
  Tensor out(x.shape());
  std::vector<float> xhat(static_cast<size_t>(x.size()));
  std::vector<float> inv_std(10);
  LayerNormForwardInto(x, gamma, beta, 1e-5f, out, xhat.data(), inv_std.data());
  for (int64_t r = 0; r < 10; ++r) {
    double mean = 0.0;
    double var = 0.0;
    for (int64_t j = 0; j < 24; ++j) {
      mean += x.at(r * 24 + j) / 24.0;
    }
    for (int64_t j = 0; j < 24; ++j) {
      var += (x.at(r * 24 + j) - mean) * (x.at(r * 24 + j) - mean) / 24.0;
    }
    const double istd = 1.0 / std::sqrt(var + 1e-5);
    EXPECT_NEAR(inv_std[static_cast<size_t>(r)], istd, 1e-5 * istd);
    for (int64_t j = 0; j < 24; ++j) {
      const double xh = (x.at(r * 24 + j) - mean) * istd;
      EXPECT_NEAR(xhat[static_cast<size_t>(r * 24 + j)], xh, 1e-5);
      EXPECT_NEAR(out.at(r * 24 + j), gamma.at(j) * xh + beta.at(j), 1e-5);
    }
  }
}

// Reference multi-head attention over (N, T, 3D) in double precision.
Tensor NaiveAttention(const Tensor& qkv, int64_t heads) {
  const int64_t n = qkv.shape()[0];
  const int64_t t = qkv.shape()[1];
  const int64_t dim = qkv.shape()[2] / 3;
  const int64_t hd = dim / heads;
  Tensor out(Shape{n, t, dim});
  const auto at = [&](int64_t i, int64_t tok, int64_t col) {
    return static_cast<double>(qkv.at((i * t + tok) * 3 * dim + col));
  };
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t h = 0; h < heads; ++h) {
      for (int64_t r = 0; r < t; ++r) {
        std::vector<double> p(static_cast<size_t>(t));
        double mx = -1e300;
        for (int64_t j = 0; j < t; ++j) {
          double s = 0.0;
          for (int64_t c = 0; c < hd; ++c) {
            s += at(i, r, h * hd + c) * at(i, j, dim + h * hd + c);
          }
          p[static_cast<size_t>(j)] = s / std::sqrt(static_cast<double>(hd));
          mx = std::max(mx, p[static_cast<size_t>(j)]);
        }
        double sum = 0.0;
        for (double& e : p) {
          e = std::exp(e - mx);
          sum += e;
        }
        for (int64_t c = 0; c < hd; ++c) {
          double acc = 0.0;
          for (int64_t j = 0; j < t; ++j) {
            acc += p[static_cast<size_t>(j)] / sum * at(i, j, 2 * dim + h * hd + c);
          }
          out.at((i * t + r) * dim + h * hd + c) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

TEST(AttentionKernelTest, MatchesReferenceAcrossShapes) {
  Rng rng(5);
  struct Case {
    int64_t n, t, dim, heads;
  };
  for (const Case& c : {Case{1, 64, 32, 4}, Case{2, 16, 48, 6}, Case{3, 7, 12, 3},
                        Case{1, 33, 8, 1}}) {
    const Tensor qkv = Tensor::RandomGaussian(Shape{c.n, c.t, 3 * c.dim}, rng);
    Tensor out(Shape{c.n, c.t, c.dim});
    Tensor probs(Shape{c.n, c.heads, c.t, c.t});
    AttentionForwardInto(qkv, c.heads, out, &probs);
    EXPECT_LT(MaxDiff(out, NaiveAttention(qkv, c.heads)), 1e-5f)
        << "n=" << c.n << " t=" << c.t << " dim=" << c.dim << " heads=" << c.heads;
    // The probability cache holds row-stochastic softmax weights, and the
    // inference form (no cache) computes the same output bits.
    for (int64_t row = 0; row < c.n * c.heads * c.t; ++row) {
      double sum = 0.0;
      for (int64_t j = 0; j < c.t; ++j) {
        sum += probs.at(row * c.t + j);
      }
      EXPECT_NEAR(sum, 1.0, 1e-5);
    }
    Tensor plain(out.shape());
    AttentionForwardInto(qkv, c.heads, plain);
    EXPECT_EQ(MaxDiff(out, plain), 0.0f);
  }
  Tensor bad(Shape{1, 4, 8});
  EXPECT_THROW(AttentionForwardInto(Tensor::Zeros(Shape{1, 4, 24}), 3, bad), CheckError);
}

TEST(EmbeddingKernelTest, PatchTokensAndTokenGather) {
  Rng rng(7);
  const Tensor h = Tensor::RandomGaussian(Shape{2, 3, 2, 2}, rng);  // (N, D, G, G)
  const Tensor pos = Tensor::RandomGaussian(Shape{4, 3}, rng);
  Tensor tokens(Shape{2, 4, 3});
  PatchTokensForwardInto(h, pos, tokens);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t t = 0; t < 4; ++t) {
      for (int64_t d = 0; d < 3; ++d) {
        EXPECT_EQ(tokens.at((i * 4 + t) * 3 + d), h.at((i * 3 + d) * 4 + t) + pos.at(t * 3 + d));
      }
    }
  }

  const Tensor table = Tensor::RandomGaussian(Shape{5, 3}, rng);
  const Tensor seq_pos = Tensor::RandomGaussian(Shape{2, 3}, rng);
  const Tensor ids = Tensor::FromVector(Shape{2, 2}, {4, 0, 1, 4});
  Tensor emb(Shape{2, 2, 3});
  std::vector<int64_t> decoded(4);
  TokenEmbeddingForwardInto(ids, table, seq_pos, emb, decoded.data());
  EXPECT_EQ(decoded, (std::vector<int64_t>{4, 0, 1, 4}));
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t d = 0; d < 3; ++d) {
      EXPECT_EQ(emb.at(i * 3 + d), table.at(decoded[static_cast<size_t>(i)] * 3 + d) +
                                       seq_pos.at((i % 2) * 3 + d));
    }
  }
  // Ids outside [0, V) are rejected.
  const Tensor out_of_range = Tensor::FromVector(Shape{1, 2}, {0, 5});
  Tensor one(Shape{1, 2, 3});
  EXPECT_THROW(TokenEmbeddingForwardInto(out_of_range, table, seq_pos, one), CheckError);
}

}  // namespace
}  // namespace gmorph
