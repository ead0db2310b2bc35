// Pointwise activation modules: ReLU, GELU (tanh approximation, computed in
// its sigmoid form by the shared Gelu() kernel), Sigmoid and Tanh.
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

class Sigmoid : public Module {
 public:
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::string Name() const override { return "Sigmoid"; }

 protected:
  std::unique_ptr<Module> CloneImpl() const override { return std::make_unique<Sigmoid>(*this); }

 private:
  Tensor cached_output_;
};

class Tanh : public Module {
 public:
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::string Name() const override { return "Tanh"; }

 protected:
  std::unique_ptr<Module> CloneImpl() const override { return std::make_unique<Tanh>(*this); }

 private:
  Tensor cached_output_;
};

// Free-function forms used by fused kernels.
void ReluInPlace(Tensor& x);

}  // namespace gmorph

#endif  // GMORPH_SRC_NN_ACTIVATIONS_H_
