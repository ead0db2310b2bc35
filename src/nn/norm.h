// Normalization layers: BatchNorm2d (per-channel, NCHW) and LayerNorm (last
// dimension, used by transformer blocks).
#ifndef GMORPH_SRC_NN_NORM_H_
#define GMORPH_SRC_NN_NORM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/module.h"

namespace gmorph {

class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(int64_t channels, float momentum = 0.1f, float eps = 1e-5f);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Parameters() override;
  std::vector<Tensor*> Buffers() override { return {&running_mean_, &running_var_}; }
  std::string Name() const override;

  int64_t channels() const { return channels_; }
  const Parameter& gamma() const { return gamma_; }
  const Parameter& beta() const { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  float eps() const { return eps_; }

 protected:
  std::unique_ptr<Module> CloneImpl() const override;

 private:
  int64_t channels_;
  float momentum_;
  float eps_;
  Parameter gamma_;  // (C)
  Parameter beta_;   // (C)
  Tensor running_mean_;
  Tensor running_var_;
  // Cached from the training-mode forward pass for the backward pass.
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  // (C)
};

class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim, float eps = 1e-5f);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Parameters() override;
  std::string Name() const override;

  int64_t dim() const { return dim_; }
  float eps() const { return eps_; }
  const Parameter& gamma() const { return gamma_; }
  const Parameter& beta() const { return beta_; }

 protected:
  std::unique_ptr<Module> CloneImpl() const override;

 private:
  int64_t dim_;
  float eps_;
  Parameter gamma_;
  Parameter beta_;
  // Set by a training-mode Forward only.
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  // one per row
};

}  // namespace gmorph

#endif  // GMORPH_SRC_NN_NORM_H_
