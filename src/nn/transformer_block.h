// Pre-LN transformer encoder block:
//   x = x + MHSA(LN(x));  x = x + MLP(LN(x)),  MLP = Linear -> GELU -> Linear.
// This is the computation block the abstract graph manipulates for ViT / BERT
// style models.
#ifndef GMORPH_SRC_NN_TRANSFORMER_BLOCK_H_
#define GMORPH_SRC_NN_TRANSFORMER_BLOCK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/activations.h"
#include "src/nn/attention.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"
#include "src/nn/norm.h"

namespace gmorph {

class TransformerBlock : public Module {
 public:
  TransformerBlock(int64_t dim, int64_t num_heads, int64_t mlp_ratio, Rng& rng);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Parameters() override;
  std::string Name() const override;

  // Sub-layers, for the FusedEngine's lowering into plan steps.
  const LayerNorm& ln1() const { return *ln1_; }
  const MultiHeadSelfAttention& attn() const { return *attn_; }
  const LayerNorm& ln2() const { return *ln2_; }
  const Linear& fc1() const { return *fc1_; }
  const Linear& fc2() const { return *fc2_; }

 protected:
  std::unique_ptr<Module> CloneImpl() const override;

 private:
  TransformerBlock() = default;

  int64_t dim_ = 0;
  int64_t num_heads_ = 0;
  int64_t mlp_ratio_ = 0;
  std::unique_ptr<LayerNorm> ln1_;
  std::unique_ptr<MultiHeadSelfAttention> attn_;
  std::unique_ptr<LayerNorm> ln2_;
  std::unique_ptr<Linear> fc1_;
  GELU gelu_;
  std::unique_ptr<Linear> fc2_;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_NN_TRANSFORMER_BLOCK_H_
