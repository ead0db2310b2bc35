// Multi-head self-attention over (N, T, D) sequences.
//
// The fused QKV projection produces (N, T, 3D); the attention core
// (AttentionForwardInto, shared with the FusedEngine's attention step) reads
// each head's Q/K/V in place from it, and the output projection maps the
// merged heads back to D. The backward pass materializes contiguous
// (T, head_dim) panels so its products run through the GEMM cores.
#ifndef GMORPH_SRC_NN_ATTENTION_H_
#define GMORPH_SRC_NN_ATTENTION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"

namespace gmorph {

class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int64_t dim, int64_t num_heads, Rng& rng);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Parameters() override;
  std::string Name() const override;

  int64_t num_heads() const { return num_heads_; }
  const Linear& qkv() const { return *qkv_; }
  const Linear& proj() const { return *proj_; }

 protected:
  std::unique_ptr<Module> CloneImpl() const override;

 private:
  // Leaves sub-layers unset; used by CloneImpl.
  MultiHeadSelfAttention(int64_t dim, int64_t num_heads);

  int64_t dim_;
  int64_t num_heads_;
  int64_t head_dim_;
  std::unique_ptr<Linear> qkv_;   // D -> 3D
  std::unique_ptr<Linear> proj_;  // D -> D

  // Caches for backward, set by a training-mode Forward only.
  Tensor cached_qkv_;    // (N, T, 3D)
  Tensor cached_attn_;   // (N, H, T, T) softmax weights
  Shape cached_input_shape_;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_NN_ATTENTION_H_
