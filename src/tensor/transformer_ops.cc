#include "src/tensor/transformer_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/kernels/builtin_solvers.h"
#include "src/kernels/scratch.h"
#include "src/tensor/fast_exp.h"

namespace gmorph {
namespace {

// Row loops split so each chunk covers at least this many elements.
int64_t RowGrain(int64_t per_row) {
  return std::max<int64_t>(1, (1 << 15) / std::max<int64_t>(1, per_row));
}

// Independent partial accumulators for row reductions. GCC does not
// reassociate a single float accumulator without -ffast-math, so a plain
// `sum += x[j]` loop stays scalar; kLanes partials make the main loop a
// vector loop. The lane order is fixed, so results stay deterministic.
constexpr int64_t kLanes = 16;

float RowSum(const float* x, int64_t n) {
  float lanes[kLanes] = {};
  int64_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) {
      lanes[l] += x[j + l];
    }
  }
  float total = 0.0f;
  for (; j < n; ++j) {
    total += x[j];
  }
  for (int64_t l = 0; l < kLanes; ++l) {
    total += lanes[l];
  }
  return total;
}

float RowSquaredDeviation(const float* x, int64_t n, float mean) {
  float lanes[kLanes] = {};
  int64_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) {
      const float d = x[j + l] - mean;
      lanes[l] += d * d;
    }
  }
  float total = 0.0f;
  for (; j < n; ++j) {
    const float d = x[j] - mean;
    total += d * d;
  }
  for (int64_t l = 0; l < kLanes; ++l) {
    total += lanes[l];
  }
  return total;
}

}  // namespace

void LayerNormForwardInto(const Tensor& x, const Tensor& gamma, const Tensor& beta, float eps,
                          Tensor& out, float* xhat, float* inv_std) {
  const int64_t dim = gamma.size();
  GMORPH_CHECK(dim > 0 && x.shape()[-1] == dim && beta.size() == dim,
               "layernorm: x " << x.shape().ToString() << " gamma " << gamma.shape().ToString());
  GMORPH_CHECK(out.size() == x.size());
  const int64_t rows = x.size() / dim;
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pb = beta.data();
  float* po = out.data();
  const float inv_dim = 1.0f / static_cast<float>(dim);
  ParallelFor(0, rows, RowGrain(dim), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* row = px + r * dim;
      // Two passes (mean, then squared deviations) keep the variance
      // accurate in float without the cancellation of E[x^2] - mean^2.
      const float mean = RowSum(row, dim) * inv_dim;
      const float istd = 1.0f / std::sqrt(RowSquaredDeviation(row, dim, mean) * inv_dim + eps);
      float* yo = po + r * dim;
      if (xhat != nullptr) {
        float* xh = xhat + r * dim;
        for (int64_t j = 0; j < dim; ++j) {
          xh[j] = (row[j] - mean) * istd;
        }
        inv_std[r] = istd;
      }
      for (int64_t j = 0; j < dim; ++j) {
        yo[j] = pg[j] * ((row[j] - mean) * istd) + pb[j];
      }
    }
  });
}

void AttentionForwardInto(const Tensor& qkv, int64_t heads, Tensor& out, Tensor* probs) {
  GMORPH_CHECK(qkv.shape().Rank() == 3 && qkv.shape()[2] % 3 == 0,
               "attention expects (N, T, 3D), got " << qkv.shape().ToString());
  const int64_t n = qkv.shape()[0];
  const int64_t t = qkv.shape()[1];
  const int64_t stride = qkv.shape()[2];  // one token's Q, K and V
  const int64_t dim = stride / 3;
  GMORPH_CHECK(heads > 0 && dim > 0 && dim % heads == 0,
               "dim " << dim << " not divisible by " << heads << " heads");
  const int64_t hd = dim / heads;
  GMORPH_CHECK(out.shape() == Shape({n, t, dim}),
               "attention out " << out.shape().ToString() << " want (" << n << "," << t << ","
                                << dim << ")");
  GMORPH_CHECK(probs == nullptr || probs->shape() == Shape({n, heads, t, t}));
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  const float* pqkv = qkv.data();
  float* po = out.data();
  // Both products run on the direct GEMM micro-kernel, which reads its left
  // operand through arbitrary strides: K and V^T come straight out of the
  // QKV rows, and only Q^T (the right operand, whose rows must be
  // contiguous) is copied per head.
  const kernels::GemmSolver* gemm = kernels::GemmDirectSolver();
  const kernels::ProblemDesc scores_desc =
      kernels::GemmProblem(kernels::OpFamily::kGemmNN, t, hd, t);
  const kernels::ProblemDesc ctx_desc =
      kernels::GemmProblem(kernels::OpFamily::kGemmNN, hd, t, t);
  // (sample, head) pairs write disjoint column blocks of `out` (and disjoint
  // planes of `probs`), so the flattened pair index parallelizes cleanly;
  // chunks carry at least ~32K flops of attention work.
  ParallelFor(0, n * heads, RowGrain(t * t + t * hd), [&](int64_t lo, int64_t hi) {
    // Everything runs transposed, with the query index innermost: S^T[j][r]
    // is key j's score row over all queries r. The softmax max and sum are
    // then per-query lane arrays (mx[r], sum[r]) accumulated across key rows,
    // which GCC vectorizes without reassociating a float reduction, and the
    // context product is wide in the query count however small the head is.
    ScratchScope scope;
    float* qt = scope.AllocFloats(static_cast<size_t>(hd * t));   // scaled Q^T
    float* st = scope.AllocFloats(static_cast<size_t>(t * t));    // S^T, then E^T
    float* ctxt = scope.AllocFloats(static_cast<size_t>(hd * t));  // unnormalized ctx^T
    float* mx = scope.AllocFloats(static_cast<size_t>(t));
    float* inv_sum = scope.AllocFloats(static_cast<size_t>(t));
    for (int64_t ih = lo; ih < hi; ++ih) {
      const int64_t i = ih / heads;
      const int64_t h = ih % heads;
      const float* q = pqkv + i * t * stride + h * hd;
      const float* k = q + dim;
      const float* v = q + 2 * dim;
      for (int64_t r = 0; r < t; ++r) {
        for (int64_t c = 0; c < hd; ++c) {
          qt[c * t + r] = q[r * stride + c] * scale;
        }
      }
      // S^T = K Q^T, then the per-query max over keys.
      gemm->Run(scores_desc, kernels::GemmCall{{k, stride, 1}, {qt, t, 1}, st, false});
      std::fill_n(mx, t, -std::numeric_limits<float>::infinity());
      for (int64_t j = 0; j < t; ++j) {
        const float* sj = st + j * t;
        for (int64_t r = 0; r < t; ++r) {
          mx[r] = mx[r] < sj[r] ? sj[r] : mx[r];
        }
      }
      // E^T = exp(S^T - max) and the per-query sums.
      std::fill_n(inv_sum, t, 0.0f);
      for (int64_t j = 0; j < t; ++j) {
        float* sj = st + j * t;
        for (int64_t r = 0; r < t; ++r) {
          sj[r] = FastExp(sj[r] - mx[r]);
          inv_sum[r] += sj[r];
        }
      }
      for (int64_t r = 0; r < t; ++r) {
        inv_sum[r] = 1.0f / inv_sum[r];
      }
      // ctx^T = V^T E^T, normalized on the way out.
      gemm->Run(ctx_desc, kernels::GemmCall{{v, 1, stride}, {st, t, 1}, ctxt, false});
      float* ctx = po + i * t * dim + h * hd;
      for (int64_t r = 0; r < t; ++r) {
        for (int64_t c = 0; c < hd; ++c) {
          ctx[r * dim + c] = ctxt[c * t + r] * inv_sum[r];
        }
      }
      if (probs != nullptr) {
        float* pr = probs->data() + ih * t * t;
        for (int64_t r = 0; r < t; ++r) {
          for (int64_t j = 0; j < t; ++j) {
            pr[r * t + j] = st[j * t + r] * inv_sum[r];
          }
        }
      }
    }
  });
}

void PatchTokensForwardInto(const Tensor& h, const Tensor& pos, Tensor& out) {
  GMORPH_CHECK(h.shape().Rank() == 4, "patch tokens expect (N, D, G, G'), got "
                                          << h.shape().ToString());
  const int64_t n = h.shape()[0];
  const int64_t dim = h.shape()[1];
  const int64_t tokens = h.shape()[2] * h.shape()[3];
  GMORPH_CHECK(pos.shape() == Shape({tokens, dim}) && out.shape() == Shape({n, tokens, dim}),
               "patch tokens: h " << h.shape().ToString() << " pos " << pos.shape().ToString()
                                  << " out " << out.shape().ToString());
  const float* ph = h.data();
  const float* pp = pos.data();
  float* po = out.data();
  ParallelFor(0, n, RowGrain(tokens * dim), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* src = ph + i * dim * tokens;
      float* dst = po + i * tokens * dim;
      for (int64_t tok = 0; tok < tokens; ++tok) {
        float* row = dst + tok * dim;
        const float* prow = pp + tok * dim;
        for (int64_t d = 0; d < dim; ++d) {
          row[d] = src[d * tokens + tok] + prow[d];
        }
      }
    }
  });
}

void TokenEmbeddingForwardInto(const Tensor& ids, const Tensor& table, const Tensor& pos,
                               Tensor& out, int64_t* ids_out) {
  GMORPH_CHECK(ids.shape().Rank() == 2 && table.shape().Rank() == 2 &&
                   pos.shape().Rank() == 2 && pos.shape()[0] == ids.shape()[1] &&
                   pos.shape()[1] == table.shape()[1],
               "token embedding: ids " << ids.shape().ToString() << " table "
                                       << table.shape().ToString() << " pos "
                                       << pos.shape().ToString());
  const int64_t seq_len = ids.shape()[1];
  const int64_t vocab = table.shape()[0];
  const int64_t dim = table.shape()[1];
  GMORPH_CHECK(out.shape() == Shape({ids.shape()[0], seq_len, dim}));
  const float* px = ids.data();
  const float* ptable = table.data();
  const float* ppos = pos.data();
  float* po = out.data();
  // Serial: a gather this small gains nothing from threads, and the range
  // check then throws on the calling thread.
  for (int64_t i = 0; i < ids.size(); ++i) {
    const int64_t id = static_cast<int64_t>(std::lround(px[i]));
    GMORPH_CHECK(id >= 0 && id < vocab, "token id " << id << " out of range");
    if (ids_out != nullptr) {
      ids_out[i] = id;
    }
    const float* row = ptable + id * dim;
    const float* prow = ppos + (i % seq_len) * dim;
    float* dst = po + i * dim;
    for (int64_t j = 0; j < dim; ++j) {
      dst[j] = row[j] + prow[j];
    }
  }
}

}  // namespace gmorph
