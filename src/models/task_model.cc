#include "src/models/task_model.h"

#include "src/common/check.h"

namespace gmorph {

TaskModel::TaskModel(ModelSpec spec, Rng& rng) : spec_(std::move(spec)) {
  modules_.reserve(spec_.blocks.size());
  for (const BlockSpec& b : spec_.blocks) {
    modules_.push_back(MakeModule(b, rng));
  }
}

Tensor TaskModel::Forward(const Tensor& x, bool training) {
  Tensor h = x;
  for (auto& m : modules_) {
    h = m->Forward(h, training);
  }
  return h;
}

Tensor TaskModel::Backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

std::vector<Parameter*> TaskModel::Parameters() {
  std::vector<Parameter*> out;
  for (auto& m : modules_) {
    for (Parameter* p : m->Parameters()) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<std::vector<Tensor>> TaskModel::ExportWeights() const {
  std::vector<std::vector<Tensor>> out;
  out.reserve(modules_.size());
  for (const auto& m : modules_) {
    out.push_back(m->ExportParameters());
  }
  return out;
}

void TaskModel::ImportWeights(const std::vector<std::vector<Tensor>>& weights) {
  GMORPH_CHECK(weights.size() == modules_.size());
  for (size_t i = 0; i < modules_.size(); ++i) {
    modules_[i]->ImportParameters(weights[i]);
  }
}

}  // namespace gmorph
