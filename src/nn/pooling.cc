#include "src/nn/pooling.h"

#include <sstream>

#include "src/common/check.h"

namespace gmorph {

Tensor MaxPool2d::Forward(const Tensor& x, bool /*training*/) {
  cached_input_shape_ = x.shape();
  return MaxPool2dForward(x, kernel_, stride_, argmax_);
}

Tensor MaxPool2d::Backward(const Tensor& grad_out) {
  GMORPH_CHECK(!argmax_.empty());
  return MaxPool2dBackward(cached_input_shape_, grad_out, argmax_);
}

std::string MaxPool2d::Name() const {
  std::ostringstream os;
  os << "MaxPool2d(k=" << kernel_ << ",s=" << stride_ << ")";
  return os.str();
}

Tensor GlobalAvgPool2d::Forward(const Tensor& x, bool /*training*/) {
  cached_input_shape_ = x.shape();
  return GlobalAvgPoolForward(x);
}

Tensor GlobalAvgPool2d::Backward(const Tensor& grad_out) {
  return GlobalAvgPoolBackward(cached_input_shape_, grad_out);
}

Tensor Flatten::Forward(const Tensor& x, bool /*training*/) {
  cached_input_shape_ = x.shape();
  const int64_t n = x.shape()[0];
  return x.Reshape(Shape{n, x.size() / n});
}

Tensor Flatten::Backward(const Tensor& grad_out) {
  return grad_out.Reshape(cached_input_shape_);
}

Tensor MeanPoolTokens::Forward(const Tensor& x, bool /*training*/) {
  GMORPH_CHECK(x.shape().Rank() == 3);
  cached_input_shape_ = x.shape();
  const int64_t n = x.shape()[0];
  const int64_t t = x.shape()[1];
  const int64_t d = x.shape()[2];
  Tensor out(Shape{n, d});
  const float* px = x.data();
  float* po = out.data();
  const float inv = 1.0f / static_cast<float>(t);
  for (int64_t i = 0; i < n; ++i) {
    float* row = po + i * d;
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
  return out;
}

Tensor MeanPoolTokens::Backward(const Tensor& grad_out) {
  const int64_t n = cached_input_shape_[0];
  const int64_t t = cached_input_shape_[1];
  const int64_t d = cached_input_shape_[2];
  Tensor grad_x(cached_input_shape_);
  const float* pg = grad_out.data();
  float* px = grad_x.data();
  const float inv = 1.0f / static_cast<float>(t);
  for (int64_t i = 0; i < n; ++i) {
    const float* row = pg + i * d;
    for (int64_t tt = 0; tt < t; ++tt) {
      float* dst = px + (i * t + tt) * d;
      for (int64_t j = 0; j < d; ++j) {
        dst[j] = row[j] * inv;
      }
    }
  }
  return grad_x;
}

}  // namespace gmorph
