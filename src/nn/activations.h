// Pointwise activation modules: ReLU and GELU (tanh approximation, computed
// in its sigmoid form by the shared Gelu() kernel).
#ifndef GMORPH_SRC_NN_ACTIVATIONS_H_
#define GMORPH_SRC_NN_ACTIVATIONS_H_

#include <memory>
#include <string>

#include "src/nn/module.h"

namespace gmorph {

class ReLU : public Module {
 public:
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::string Name() const override { return "ReLU"; }

 protected:
  std::unique_ptr<Module> CloneImpl() const override { return std::make_unique<ReLU>(*this); }

 private:
  Tensor cached_input_;
};

class GELU : public Module {
 public:
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::string Name() const override { return "GELU"; }

 protected:
  std::unique_ptr<Module> CloneImpl() const override { return std::make_unique<GELU>(*this); }

 private:
  Tensor cached_input_;
};

// Free-function forms used by fused kernels.
void ReluInPlace(Tensor& x);

}  // namespace gmorph

#endif  // GMORPH_SRC_NN_ACTIVATIONS_H_
