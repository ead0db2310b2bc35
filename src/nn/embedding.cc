#include "src/nn/embedding.h"

#include <sstream>

#include "src/common/check.h"
#include "src/tensor/transformer_ops.h"

namespace gmorph {

TokenEmbedding::TokenEmbedding(int64_t vocab_size, int64_t seq_len, int64_t dim, Rng& rng)
    : vocab_size_(vocab_size),
      seq_len_(seq_len),
      dim_(dim),
      table_("table", Tensor::RandomGaussian(Shape{vocab_size, dim}, rng, 0.02f)),
      pos_("pos", Tensor::RandomGaussian(Shape{seq_len, dim}, rng, 0.02f)) {}

Tensor TokenEmbedding::Forward(const Tensor& x, bool /*training*/) {
  GMORPH_CHECK(x.shape().Rank() == 2 && x.shape()[1] == seq_len_,
                   "TokenEmbedding got " << x.shape().ToString());
  cached_ids_.resize(static_cast<size_t>(x.size()));
  Tensor out(Shape{x.shape()[0], seq_len_, dim_});
  TokenEmbeddingForwardInto(x, table_.value, pos_.value, out, cached_ids_.data());
  return out;
}

Tensor TokenEmbedding::Backward(const Tensor& grad_out) {
  GMORPH_CHECK(!cached_ids_.empty());
  const int64_t total = static_cast<int64_t>(cached_ids_.size());
  const float* pg = grad_out.data();
  float* gtable = table_.grad.data();
  float* gpos = pos_.grad.data();
  for (int64_t i = 0; i < total; ++i) {
    const float* src = pg + i * dim_;
    float* trow = gtable + cached_ids_[static_cast<size_t>(i)] * dim_;
    float* prow = gpos + (i % seq_len_) * dim_;
    for (int64_t j = 0; j < dim_; ++j) {
      trow[j] += src[j];
      prow[j] += src[j];
    }
  }
  // The input is discrete ids; there is no gradient to propagate further.
  return Tensor::Zeros(Shape{total / seq_len_, seq_len_});
}

std::vector<Parameter*> TokenEmbedding::Parameters() { return {&table_, &pos_}; }

std::string TokenEmbedding::Name() const {
  std::ostringstream os;
  os << "TokenEmbedding(v=" << vocab_size_ << ",d=" << dim_ << ")";
  return os.str();
}

std::unique_ptr<Module> TokenEmbedding::CloneImpl() const {
  return std::make_unique<TokenEmbedding>(*this);
}

PatchEmbed::PatchEmbed(int64_t in_channels, int64_t image_size, int64_t patch_size, int64_t dim,
                       Rng& rng)
    : patch_grid_(image_size / patch_size),
      num_tokens_(patch_grid_ * patch_grid_),
      dim_(dim),
      pos_("pos", Tensor::RandomGaussian(Shape{num_tokens_, dim}, rng, 0.02f)) {
  GMORPH_CHECK(image_size % patch_size == 0,
                   "image " << image_size << " not divisible by patch " << patch_size);
  proj_ = std::make_unique<Conv2d>(in_channels, dim, patch_size, patch_size, 0, rng);
}

Tensor PatchEmbed::Forward(const Tensor& x, bool training) {
  Tensor h = proj_->Forward(x, training);  // (N, D, G, G)
  Tensor out(Shape{h.shape()[0], num_tokens_, dim_});
  PatchTokensForwardInto(h, pos_.value, out);
  return out;
}

Tensor PatchEmbed::Backward(const Tensor& grad_out) {
  const int64_t n = grad_out.shape()[0];
  Tensor grad_h(Shape{n, dim_, patch_grid_, patch_grid_});
  const float* pg = grad_out.data();
  float* ph = grad_h.data();
  float* gpos = pos_.grad.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* src = pg + i * num_tokens_ * dim_;
    float* dst = ph + i * dim_ * num_tokens_;
    for (int64_t tok = 0; tok < num_tokens_; ++tok) {
      const float* row = src + tok * dim_;
      float* prow = gpos + tok * dim_;
      for (int64_t d = 0; d < dim_; ++d) {
        dst[d * num_tokens_ + tok] = row[d];
        prow[d] += row[d];
      }
    }
  }
  return proj_->Backward(grad_h);
}

std::vector<Parameter*> PatchEmbed::Parameters() {
  std::vector<Parameter*> out = proj_->Parameters();
  out.push_back(&pos_);
  return out;
}

std::string PatchEmbed::Name() const {
  std::ostringstream os;
  os << "PatchEmbed(t=" << num_tokens_ << ",d=" << dim_ << ")";
  return os.str();
}

std::unique_ptr<Module> PatchEmbed::CloneImpl() const {
  std::unique_ptr<PatchEmbed> m(new PatchEmbed());
  m->patch_grid_ = patch_grid_;
  m->num_tokens_ = num_tokens_;
  m->dim_ = dim_;
  m->proj_.reset(static_cast<Conv2d*>(proj_->Clone().release()));
  m->pos_ = pos_;
  return m;
}

}  // namespace gmorph
