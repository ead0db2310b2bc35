// Module: the unit of differentiable computation.
//
// GMorph's fine-tuner needs gradients, but full taped autograd is overkill for
// the block-structured models the search manipulates. Instead every Module
// implements an explicit Backward() that consumes dL/d(output) and returns
// dL/d(input), caching whatever it needs from the last Forward(). This is the
// classic layer-wise reverse-mode scheme (Caffe-style) and composes through
// Sequential and the fused multi-task tree executor.
//
// Threading: a Module instance is stateful across Forward/Backward (cached
// activations) and must not be shared between concurrent executions.
#ifndef GMORPH_SRC_NN_MODULE_H_
#define GMORPH_SRC_NN_MODULE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"

namespace gmorph {

// A learnable tensor plus its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(Tensor::Zeros(value.shape())) {}
};

class Module {
 public:
  virtual ~Module() = default;

  // Computes the output for `x`. `training` selects batch-stat vs running-stat
  // behaviour in normalization layers.
  virtual Tensor Forward(const Tensor& x, bool training) = 0;

  // Given dL/d(output of last Forward), accumulates parameter gradients and
  // returns dL/d(input of last Forward).
  virtual Tensor Backward(const Tensor& grad_out) = 0;

  // All learnable parameters, in a canonical stable order (used for weight
  // transfer between abstract-graph candidates and for the optimizer).
  virtual std::vector<Parameter*> Parameters() { return {}; }

  // Non-learnable state that must travel with checkpoints (e.g. BatchNorm
  // running statistics). Never touched by optimizers.
  virtual std::vector<Tensor*> Buffers() { return {}; }

  virtual std::string Name() const = 0;

  // Deep copy: cloned parameters do not alias this module's storage.
  std::unique_ptr<Module> Clone() const;

  int64_t ParamCount() const;
  void ZeroGrad();

  // Exports parameter values followed by buffer values (deep copies).
  std::vector<Tensor> ExportParameters() const;
  // Imports a list produced by ExportParameters. Accepts either parameters
  // only, or parameters followed by buffers (older checkpoints may lack
  // buffers); shapes are validated.
  void ImportParameters(const std::vector<Tensor>& values);

 protected:
  // Shallow copy of the derived object; Clone() detaches the parameters after.
  virtual std::unique_ptr<Module> CloneImpl() const = 0;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_NN_MODULE_H_
