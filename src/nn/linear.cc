#include "src/nn/linear.h"

#include <sstream>

#include "src/common/check.h"
#include "src/nn/init.h"
#include "src/tensor/tensor_ops.h"

namespace gmorph {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      weight_("weight", HeInit(Shape{in_features, out_features}, in_features, rng)),
      bias_("bias", bias ? Tensor::Zeros(Shape{out_features}) : Tensor()) {}

Tensor Linear::Forward(const Tensor& x, bool /*training*/) {
  GMORPH_CHECK(x.shape()[-1] == in_features_,
                   "Linear(" << in_features_ << ") got " << x.shape().ToString());
  cached_input_ = x;
  std::vector<int64_t> out_dims = x.shape().dims();
  out_dims.back() = out_features_;
  Tensor out(Shape(std::move(out_dims)));
  LinearForwardInto(x, weight_.value, bias_.value, out);
  return out;
}

Tensor Linear::Backward(const Tensor& grad_out) {
  GMORPH_CHECK(!cached_input_.empty());
  const int64_t rows = cached_input_.size() / in_features_;
  GMORPH_CHECK(grad_out.size() == rows * out_features_);

  // dW += X^T * dY
  MatmulTN(cached_input_.data(), grad_out.data(), weight_.grad.data(), rows, in_features_,
           out_features_, /*accumulate=*/true);
  if (has_bias_) {
    float* gb = bias_.grad.data();
    const float* gy = grad_out.data();
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = gy + r * out_features_;
      for (int64_t j = 0; j < out_features_; ++j) {
        gb[j] += row[j];
      }
    }
  }
  // dX = dY * W^T
  Tensor grad_x(cached_input_.shape());
  MatmulNT(grad_out.data(), weight_.value.data(), grad_x.data(), rows, out_features_,
           in_features_);
  return grad_x;
}

std::vector<Parameter*> Linear::Parameters() {
  if (has_bias_) {
    return {&weight_, &bias_};
  }
  return {&weight_};
}

std::string Linear::Name() const {
  std::ostringstream os;
  os << "Linear(" << in_features_ << "->" << out_features_ << ")";
  return os.str();
}

std::unique_ptr<Module> Linear::CloneImpl() const { return std::make_unique<Linear>(*this); }

}  // namespace gmorph
