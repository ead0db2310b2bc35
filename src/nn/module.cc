#include "src/nn/module.h"

#include "src/common/check.h"

namespace gmorph {

std::unique_ptr<Module> Module::Clone() const {
  std::unique_ptr<Module> m = CloneImpl();
  for (Parameter* p : m->Parameters()) {
    p->value = p->value.Clone();
    p->grad = Tensor::Zeros(p->value.shape());
  }
  for (Tensor* b : m->Buffers()) {
    *b = b->Clone();
  }
  return m;
}

int64_t Module::ParamCount() const {
  int64_t n = 0;
  for (const Parameter* p : const_cast<Module*>(this)->Parameters()) {
    n += p->value.size();
  }
  return n;
}

void Module::ZeroGrad() {
  for (Parameter* p : Parameters()) {
    p->grad.Zero();
  }
}

std::vector<Tensor> Module::ExportParameters() const {
  std::vector<Tensor> out;
  Module* self = const_cast<Module*>(this);
  for (const Parameter* p : self->Parameters()) {
    out.push_back(p->value.Clone());
  }
  for (const Tensor* b : self->Buffers()) {
    out.push_back(b->Clone());
  }
  return out;
}

void Module::ImportParameters(const std::vector<Tensor>& values) {
  auto params = Parameters();
  auto buffers = Buffers();
  const bool with_buffers = values.size() == params.size() + buffers.size();
  GMORPH_CHECK(with_buffers || values.size() == params.size(),
                   "ImportParameters count mismatch in " << Name() << ": got " << values.size()
                                                         << ", want " << params.size() << " or "
                                                         << params.size() + buffers.size());
  for (size_t i = 0; i < params.size(); ++i) {
    GMORPH_CHECK(params[i]->value.shape() == values[i].shape(),
                     "ImportParameters shape mismatch at " << params[i]->name);
    params[i]->value = values[i].Clone();
  }
  if (with_buffers) {
    for (size_t i = 0; i < buffers.size(); ++i) {
      const Tensor& src = values[params.size() + i];
      GMORPH_CHECK(buffers[i]->shape() == src.shape(),
                       "ImportParameters buffer shape mismatch in " << Name());
      *buffers[i] = src.Clone();
    }
  }
}

}  // namespace gmorph
