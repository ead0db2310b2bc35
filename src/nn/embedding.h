// Input embedding stems for transformer models.
//
// TokenEmbedding (BERT-style): (N, T) integer token ids stored as floats ->
// (N, T, D) via table lookup plus a learned positional embedding.
// PatchEmbed (ViT-style): (N, C, H, W) image -> (N, T, D) via a patch-sized
// strided convolution plus a learned positional embedding.
#ifndef GMORPH_SRC_NN_EMBEDDING_H_
#define GMORPH_SRC_NN_EMBEDDING_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/conv2d.h"
#include "src/nn/module.h"

namespace gmorph {

class TokenEmbedding : public Module {
 public:
  TokenEmbedding(int64_t vocab_size, int64_t seq_len, int64_t dim, Rng& rng);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Parameters() override;
  std::string Name() const override;

  const Parameter& table() const { return table_; }
  const Parameter& pos() const { return pos_; }

 protected:
  std::unique_ptr<Module> CloneImpl() const override;

 private:
  int64_t vocab_size_;
  int64_t seq_len_;
  int64_t dim_;
  Parameter table_;    // (vocab, D)
  Parameter pos_;      // (T, D)
  std::vector<int64_t> cached_ids_;
};

class PatchEmbed : public Module {
 public:
  PatchEmbed(int64_t in_channels, int64_t image_size, int64_t patch_size, int64_t dim, Rng& rng);

  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Parameter*> Parameters() override;
  std::string Name() const override;

  int64_t num_tokens() const { return num_tokens_; }
  const Conv2d& proj() const { return *proj_; }
  const Parameter& pos() const { return pos_; }

 protected:
  std::unique_ptr<Module> CloneImpl() const override;

 private:
  PatchEmbed() = default;

  int64_t patch_grid_ = 0;   // tokens per side
  int64_t num_tokens_ = 0;
  int64_t dim_ = 0;
  std::unique_ptr<Conv2d> proj_;
  Parameter pos_;  // (T, D)
};

}  // namespace gmorph

#endif  // GMORPH_SRC_NN_EMBEDDING_H_
