#include "src/nn/activations.h"

#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/tensor/tensor_ops.h"

namespace gmorph {
namespace {

// Elementwise activations only split work above this many elements.
constexpr int64_t kActGrain = 1 << 15;

}  // namespace

void ReluInPlace(Tensor& x) {
  float* p = x.data();
  ParallelFor(0, x.size(), kActGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      if (p[i] < 0.0f) {
        p[i] = 0.0f;
      }
    }
  });
}

Tensor ReLU::Forward(const Tensor& x, bool /*training*/) {
  cached_input_ = x;
  Tensor out = x.Clone();
  ReluInPlace(out);
  return out;
}

Tensor ReLU::Backward(const Tensor& grad_out) {
  GMORPH_CHECK(!cached_input_.empty());
  Tensor grad_x(grad_out.shape());
  const float* px = cached_input_.data();
  const float* pg = grad_out.data();
  float* po = grad_x.data();
  ParallelFor(0, grad_out.size(), kActGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      po[i] = px[i] > 0.0f ? pg[i] : 0.0f;
    }
  });
  return grad_x;
}

Tensor GELU::Forward(const Tensor& x, bool /*training*/) {
  cached_input_ = x;
  Tensor out(x.shape());
  GeluForwardInto(x, out);
  return out;
}

Tensor GELU::Backward(const Tensor& grad_out) {
  GMORPH_CHECK(!cached_input_.empty());
  Tensor grad_x(grad_out.shape());
  const float* px = cached_input_.data();
  const float* pg = grad_out.data();
  float* po = grad_x.data();
  ParallelFor(0, grad_out.size(), kActGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      // d/dv [v s] with s = sigma(2u): s + 2 v s (1 - s) du/dv, the sigmoid
      // form of the tanh derivative 0.5 (1 + th) + 0.5 v sech^2(u) du/dv.
      const float v = px[i];
      const float u = kGeluC * (v + kGeluA * v * v * v);
      const float s = 1.0f / (1.0f + FastExp(-2.0f * u));
      const float du = kGeluC * (1.0f + 3.0f * kGeluA * v * v);
      po[i] = pg[i] * (s + 2.0f * v * s * (1.0f - s) * du);
    }
  });
  return grad_x;
}

}  // namespace gmorph
