// TaskModel: a single-task DNN materialized from a ModelSpec, with one module
// per BlockSpec so that block index i in the spec always corresponds to module
// i. The model parser relies on this correspondence to attach per-block
// weights to abstract-graph nodes.
#ifndef GMORPH_SRC_MODELS_TASK_MODEL_H_
#define GMORPH_SRC_MODELS_TASK_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/models/model_spec.h"
#include "src/nn/module.h"

namespace gmorph {

class TaskModel {
 public:
  // Instantiates fresh weights for every block.
  TaskModel(ModelSpec spec, Rng& rng);

  Tensor Forward(const Tensor& x, bool training);
  Tensor Backward(const Tensor& grad_out);

  std::vector<Parameter*> Parameters();

  const ModelSpec& spec() const { return spec_; }
  size_t num_blocks() const { return modules_.size(); }
  Module& block(size_t i) { return *modules_[i]; }
  const Module& block(size_t i) const { return *modules_[i]; }

  // Per-block deep copies of weights, indexed like spec().blocks.
  std::vector<std::vector<Tensor>> ExportWeights() const;
  void ImportWeights(const std::vector<std::vector<Tensor>>& weights);

  int64_t TotalCapacity() const { return spec_.TotalCapacity(); }

 private:
  ModelSpec spec_;
  std::vector<std::unique_ptr<Module>> modules_;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_MODELS_TASK_MODEL_H_
