#include "src/nn/attention.h"

#include <cmath>
#include <sstream>

#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/kernels/scratch.h"
#include "src/tensor/tensor_ops.h"
#include "src/tensor/transformer_ops.h"

namespace gmorph {
namespace {

// (sample, head) pairs are independent; chunk them so each chunk carries at
// least ~32K flops worth of attention work.
int64_t HeadGrain(int64_t t, int64_t head_dim) {
  return std::max<int64_t>(1, (1 << 15) / std::max<int64_t>(1, t * t + t * head_dim));
}

// Copies one head's panel out of / into a (N, T, 3D) or (N, T, D) tensor
// (backward pass; the forward kernel reads the panels in place).
void GatherPanel(const float* src, int64_t t, int64_t row_stride, int64_t offset, int64_t width,
                 float* dst) {
  for (int64_t i = 0; i < t; ++i) {
    const float* s = src + i * row_stride + offset;
    float* d = dst + i * width;
    for (int64_t j = 0; j < width; ++j) {
      d[j] = s[j];
    }
  }
}

void ScatterPanel(const float* src, int64_t t, int64_t row_stride, int64_t offset, int64_t width,
                  float* dst) {
  for (int64_t i = 0; i < t; ++i) {
    const float* s = src + i * width;
    float* d = dst + i * row_stride + offset;
    for (int64_t j = 0; j < width; ++j) {
      d[j] = s[j];
    }
  }
}

}  // namespace

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t dim, int64_t num_heads, Rng& rng)
    : dim_(dim), num_heads_(num_heads), head_dim_(dim / num_heads) {
  GMORPH_CHECK(dim % num_heads == 0, "dim " << dim << " not divisible by heads " << num_heads);
  qkv_ = std::make_unique<Linear>(dim, 3 * dim, rng);
  proj_ = std::make_unique<Linear>(dim, dim, rng);
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& x, bool training) {
  GMORPH_CHECK(x.shape().Rank() == 3 && x.shape()[2] == dim_);
  cached_input_shape_ = x.shape();
  const int64_t n = x.shape()[0];
  const int64_t t = x.shape()[1];
  Tensor qkv = qkv_->Forward(x, training);  // (N, T, 3D)
  Tensor merged(Shape{n, t, dim_});
  if (training) {
    cached_qkv_ = qkv;
    cached_attn_ = Tensor(Shape{n, num_heads_, t, t});
    AttentionForwardInto(qkv, num_heads_, merged, &cached_attn_);
  } else {
    cached_qkv_ = Tensor();
    cached_attn_ = Tensor();
    AttentionForwardInto(qkv, num_heads_, merged);
  }
  return proj_->Forward(merged, training);
}

Tensor MultiHeadSelfAttention::Backward(const Tensor& grad_out) {
  GMORPH_CHECK(!cached_qkv_.empty(),
               "MultiHeadSelfAttention::Backward requires a training-mode Forward first");
  const int64_t n = cached_input_shape_[0];
  const int64_t t = cached_input_shape_[1];
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  Tensor grad_merged = proj_->Backward(grad_out);  // (N, T, D)
  Tensor grad_qkv(Shape{n, t, 3 * dim_});

  ParallelFor(0, n * num_heads_, HeadGrain(t, head_dim_), [&](int64_t lo, int64_t hi) {
    ScratchScope scope;
    float* q = scope.AllocFloats(static_cast<size_t>(t * head_dim_));
    float* k = scope.AllocFloats(static_cast<size_t>(t * head_dim_));
    float* v = scope.AllocFloats(static_cast<size_t>(t * head_dim_));
    float* dctx = scope.AllocFloats(static_cast<size_t>(t * head_dim_));
    float* dattn = scope.AllocFloats(static_cast<size_t>(t * t));
    float* dscores = scope.AllocFloats(static_cast<size_t>(t * t));
    float* dq = scope.AllocFloats(static_cast<size_t>(t * head_dim_));
    float* dk = scope.AllocFloats(static_cast<size_t>(t * head_dim_));
    float* dv = scope.AllocFloats(static_cast<size_t>(t * head_dim_));
    for (int64_t ih = lo; ih < hi; ++ih) {
      const int64_t i = ih / num_heads_;
      const int64_t h = ih % num_heads_;
      const float* qkv_n = cached_qkv_.data() + i * t * 3 * dim_;
      float* dqkv_n = grad_qkv.data() + i * t * 3 * dim_;
      const int64_t off = h * head_dim_;
      GatherPanel(qkv_n, t, 3 * dim_, off, head_dim_, q);
      GatherPanel(qkv_n, t, 3 * dim_, dim_ + off, head_dim_, k);
      GatherPanel(qkv_n, t, 3 * dim_, 2 * dim_ + off, head_dim_, v);
      GatherPanel(grad_merged.data() + i * t * dim_, t, dim_, off, head_dim_, dctx);

      const float* attn = cached_attn_.data() + ((i * num_heads_ + h) * t) * t;
      // dA = dCtx * V^T ; dV = A^T * dCtx
      MatmulNT(dctx, v, dattn, t, head_dim_, t);
      MatmulTN(attn, dctx, dv, t, t, head_dim_);
      // Softmax backward per row, folding in the score scale.
      for (int64_t r = 0; r < t; ++r) {
        const float* ar = attn + r * t;
        const float* gr = dattn + r * t;
        float* sr = dscores + r * t;
        float dot = 0.0f;
        for (int64_t j = 0; j < t; ++j) {
          dot += ar[j] * gr[j];
        }
        for (int64_t j = 0; j < t; ++j) {
          sr[j] = scale * ar[j] * (gr[j] - dot);
        }
      }
      // dQ = dS * K ; dK = dS^T * Q
      MatmulNN(dscores, k, dq, t, t, head_dim_);
      MatmulTN(dscores, q, dk, t, t, head_dim_);

      ScatterPanel(dq, t, 3 * dim_, off, head_dim_, dqkv_n);
      ScatterPanel(dk, t, 3 * dim_, dim_ + off, head_dim_, dqkv_n);
      ScatterPanel(dv, t, 3 * dim_, 2 * dim_ + off, head_dim_, dqkv_n);
    }
  });
  return qkv_->Backward(grad_qkv);
}

std::vector<Parameter*> MultiHeadSelfAttention::Parameters() {
  std::vector<Parameter*> out = qkv_->Parameters();
  for (Parameter* p : proj_->Parameters()) {
    out.push_back(p);
  }
  return out;
}

std::string MultiHeadSelfAttention::Name() const {
  std::ostringstream os;
  os << "MHSA(d=" << dim_ << ",h=" << num_heads_ << ")";
  return os.str();
}

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t dim, int64_t num_heads)
    : dim_(dim), num_heads_(num_heads), head_dim_(dim / num_heads) {}

std::unique_ptr<Module> MultiHeadSelfAttention::CloneImpl() const {
  std::unique_ptr<MultiHeadSelfAttention> m(new MultiHeadSelfAttention(dim_, num_heads_));
  m->qkv_.reset(static_cast<Linear*>(qkv_->Clone().release()));
  m->proj_.reset(static_cast<Linear*>(proj_->Clone().release()));
  return m;
}

}  // namespace gmorph
