// Pooling and reshaping modules: MaxPool2d, GlobalAvgPool2d, Flatten, and
// MeanPoolTokens (sequence -> vector, used by transformer heads).
#ifndef GMORPH_SRC_NN_POOLING_H_
#define GMORPH_SRC_NN_POOLING_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/module.h"
#include "src/tensor/conv_ops.h"

namespace gmorph {

class MaxPool2d : public Module {
 public:
  MaxPool2d(int64_t kernel, int64_t stride) : kernel_(kernel), stride_(stride) {}

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::string Name() const override;

 protected:
  std::unique_ptr<Module> CloneImpl() const override {
    return std::make_unique<MaxPool2d>(*this);
  }

 private:
  int64_t kernel_;
  int64_t stride_;
  Shape cached_input_shape_;
  std::vector<int64_t> argmax_;
};

class GlobalAvgPool2d : public Module {
 public:
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::string Name() const override { return "GlobalAvgPool2d"; }

 protected:
  std::unique_ptr<Module> CloneImpl() const override {
    return std::make_unique<GlobalAvgPool2d>(*this);
  }

 private:
  Shape cached_input_shape_;
};

// (N, C, H, W) -> (N, C*H*W).
class Flatten : public Module {
 public:
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::string Name() const override { return "Flatten"; }

 protected:
  std::unique_ptr<Module> CloneImpl() const override { return std::make_unique<Flatten>(*this); }

 private:
  Shape cached_input_shape_;
};

// (N, T, D) -> (N, D) by averaging over tokens.
class MeanPoolTokens : public Module {
 public:
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::string Name() const override { return "MeanPoolTokens"; }

 protected:
  std::unique_ptr<Module> CloneImpl() const override {
    return std::make_unique<MeanPoolTokens>(*this);
  }

 private:
  Shape cached_input_shape_;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_NN_POOLING_H_
