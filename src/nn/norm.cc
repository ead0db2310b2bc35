#include "src/nn/norm.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/tensor/transformer_ops.h"

namespace gmorph {
namespace {

// Channel/row loops split so each chunk covers at least this many elements.
int64_t NormGrain(int64_t per_item) {
  return std::max<int64_t>(1, (1 << 15) / std::max<int64_t>(1, per_item));
}

}  // namespace

BatchNorm2d::BatchNorm2d(int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_("gamma", Tensor::Full(Shape{channels}, 1.0f)),
      beta_("beta", Tensor::Zeros(Shape{channels})),
      running_mean_(Tensor::Zeros(Shape{channels})),
      running_var_(Tensor::Full(Shape{channels}, 1.0f)) {}

Tensor BatchNorm2d::Forward(const Tensor& x, bool training) {
  GMORPH_CHECK(x.shape().Rank() == 4 && x.shape()[1] == channels_);
  const int64_t n = x.shape()[0];
  const int64_t c = channels_;
  const int64_t spatial = x.shape()[2] * x.shape()[3];
  const int64_t m = n * spatial;

  Tensor out(x.shape());
  const float* px = x.data();
  float* po = out.data();

  if (training) {
    cached_xhat_ = Tensor(x.shape());
    cached_inv_std_ = Tensor(Shape{c});
    float* pxh = cached_xhat_.data();
    // Channels are independent: statistics, running-stat updates, and the
    // normalized planes all live in per-channel slots.
    ParallelFor(0, c, NormGrain(m), [&](int64_t ch_lo, int64_t ch_hi) {
      for (int64_t ch = ch_lo; ch < ch_hi; ++ch) {
        double sum = 0.0;
        double sq = 0.0;
        for (int64_t i = 0; i < n; ++i) {
          const float* plane = px + (i * c + ch) * spatial;
          for (int64_t s = 0; s < spatial; ++s) {
            sum += plane[s];
            sq += static_cast<double>(plane[s]) * plane[s];
          }
        }
        const float mean = static_cast<float>(sum / m);
        const float var = static_cast<float>(sq / m) - mean * mean;
        const float inv_std = 1.0f / std::sqrt(var + eps_);
        cached_inv_std_.at(ch) = inv_std;
        running_mean_.at(ch) = (1 - momentum_) * running_mean_.at(ch) + momentum_ * mean;
        running_var_.at(ch) = (1 - momentum_) * running_var_.at(ch) + momentum_ * var;
        const float g = gamma_.value.at(ch);
        const float b = beta_.value.at(ch);
        for (int64_t i = 0; i < n; ++i) {
          const float* plane = px + (i * c + ch) * spatial;
          float* xh = pxh + (i * c + ch) * spatial;
          float* yo = po + (i * c + ch) * spatial;
          for (int64_t s = 0; s < spatial; ++s) {
            const float v = (plane[s] - mean) * inv_std;
            xh[s] = v;
            yo[s] = g * v + b;
          }
        }
      }
    });
  } else {
    ParallelFor(0, c, NormGrain(m), [&](int64_t ch_lo, int64_t ch_hi) {
      for (int64_t ch = ch_lo; ch < ch_hi; ++ch) {
        const float mean = running_mean_.at(ch);
        const float inv_std = 1.0f / std::sqrt(running_var_.at(ch) + eps_);
        const float g = gamma_.value.at(ch);
        const float b = beta_.value.at(ch);
        // Fold into a single affine transform per channel.
        const float scale = g * inv_std;
        const float shift = b - mean * scale;
        for (int64_t i = 0; i < n; ++i) {
          const float* plane = px + (i * c + ch) * spatial;
          float* yo = po + (i * c + ch) * spatial;
          for (int64_t s = 0; s < spatial; ++s) {
            yo[s] = scale * plane[s] + shift;
          }
        }
      }
    });
  }
  return out;
}

Tensor BatchNorm2d::Backward(const Tensor& grad_out) {
  GMORPH_CHECK(!cached_xhat_.empty(),
                   "BatchNorm2d::Backward requires a training-mode Forward first");
  const int64_t n = grad_out.shape()[0];
  const int64_t c = channels_;
  const int64_t spatial = grad_out.shape()[2] * grad_out.shape()[3];
  const int64_t m = n * spatial;

  Tensor grad_x(grad_out.shape());
  const float* pg = grad_out.data();
  const float* pxh = cached_xhat_.data();
  float* pgx = grad_x.data();

  // Per-channel gradient slots (gamma_.grad.at(ch), beta_.grad.at(ch)) make
  // channels safe to process in parallel.
  ParallelFor(0, c, NormGrain(m), [&](int64_t ch_lo, int64_t ch_hi) {
    for (int64_t ch = ch_lo; ch < ch_hi; ++ch) {
      double sum_dy = 0.0;
      double sum_dy_xhat = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const float* dy = pg + (i * c + ch) * spatial;
        const float* xh = pxh + (i * c + ch) * spatial;
        for (int64_t s = 0; s < spatial; ++s) {
          sum_dy += dy[s];
          sum_dy_xhat += static_cast<double>(dy[s]) * xh[s];
        }
      }
      gamma_.grad.at(ch) += static_cast<float>(sum_dy_xhat);
      beta_.grad.at(ch) += static_cast<float>(sum_dy);

      const float g = gamma_.value.at(ch);
      const float inv_std = cached_inv_std_.at(ch);
      const float k = g * inv_std / static_cast<float>(m);
      const float mean_dy = static_cast<float>(sum_dy);
      const float mean_dy_xhat = static_cast<float>(sum_dy_xhat);
      for (int64_t i = 0; i < n; ++i) {
        const float* dy = pg + (i * c + ch) * spatial;
        const float* xh = pxh + (i * c + ch) * spatial;
        float* dx = pgx + (i * c + ch) * spatial;
        for (int64_t s = 0; s < spatial; ++s) {
          dx[s] = k * (static_cast<float>(m) * dy[s] - mean_dy - xh[s] * mean_dy_xhat);
        }
      }
    }
  });
  return grad_x;
}

std::vector<Parameter*> BatchNorm2d::Parameters() { return {&gamma_, &beta_}; }

std::string BatchNorm2d::Name() const {
  std::ostringstream os;
  os << "BatchNorm2d(" << channels_ << ")";
  return os.str();
}

std::unique_ptr<Module> BatchNorm2d::CloneImpl() const {
  return std::make_unique<BatchNorm2d>(*this);
}

LayerNorm::LayerNorm(int64_t dim, float eps)
    : dim_(dim),
      eps_(eps),
      gamma_("gamma", Tensor::Full(Shape{dim}, 1.0f)),
      beta_("beta", Tensor::Zeros(Shape{dim})) {}

Tensor LayerNorm::Forward(const Tensor& x, bool training) {
  Tensor out(x.shape());
  if (training) {
    cached_xhat_ = Tensor(x.shape());
    cached_inv_std_ = Tensor(Shape{x.size() / dim_});
    LayerNormForwardInto(x, gamma_.value, beta_.value, eps_, out, cached_xhat_.data(),
                         cached_inv_std_.data());
  } else {
    cached_xhat_ = Tensor();
    cached_inv_std_ = Tensor();
    LayerNormForwardInto(x, gamma_.value, beta_.value, eps_, out);
  }
  return out;
}

Tensor LayerNorm::Backward(const Tensor& grad_out) {
  GMORPH_CHECK(!cached_xhat_.empty(),
               "LayerNorm::Backward requires a training-mode Forward first");
  const int64_t rows = grad_out.size() / dim_;
  Tensor grad_x(grad_out.shape());
  const float* pg = grad_out.data();
  const float* pxh = cached_xhat_.data();
  float* pgx = grad_x.data();
  const float* gamma = gamma_.value.data();
  float* ggamma = gamma_.grad.data();
  float* gbeta = beta_.grad.data();
  // Serial on purpose: every row accumulates into the shared gamma/beta
  // gradient vectors, so a row-parallel version would race on them.
  for (int64_t r = 0; r < rows; ++r) {
    const float* dy = pg + r * dim_;
    const float* xh = pxh + r * dim_;
    float* dx = pgx + r * dim_;
    float sum_t = 0.0f;
    float sum_t_xhat = 0.0f;
    for (int64_t j = 0; j < dim_; ++j) {
      const float t = dy[j] * gamma[j];
      sum_t += t;
      sum_t_xhat += t * xh[j];
      ggamma[j] += dy[j] * xh[j];
      gbeta[j] += dy[j];
    }
    const float inv_std = cached_inv_std_.at(r);
    const float inv_dim = 1.0f / static_cast<float>(dim_);
    for (int64_t j = 0; j < dim_; ++j) {
      const float t = dy[j] * gamma[j];
      dx[j] = inv_std * (t - inv_dim * sum_t - inv_dim * xh[j] * sum_t_xhat);
    }
  }
  return grad_x;
}

std::vector<Parameter*> LayerNorm::Parameters() { return {&gamma_, &beta_}; }

std::string LayerNorm::Name() const {
  std::ostringstream os;
  os << "LayerNorm(" << dim_ << ")";
  return os.str();
}

std::unique_ptr<Module> LayerNorm::CloneImpl() const { return std::make_unique<LayerNorm>(*this); }

}  // namespace gmorph
