// Transformer kernels: LayerNorm, the multi-head attention core, and the two
// embedding stems.
//
// These are the single implementation of each op: the nn modules call them
// for eager execution and fine-tuning (passing backward caches only when
// training), and the FusedEngine runs them as plan steps over arena buffers.
// None allocates tensor storage; per-head workspace comes from the
// thread-local scratch arena. Results are bitwise independent of the thread
// count: every output row is produced by one thread in a fixed order.
#ifndef GMORPH_SRC_TENSOR_TRANSFORMER_OPS_H_
#define GMORPH_SRC_TENSOR_TRANSFORMER_OPS_H_

#include <cstdint>

#include "src/tensor/tensor.h"

namespace gmorph {

// LayerNorm over the last dimension: out = gamma * (x - mean) * inv_std + beta
// with inv_std = 1 / sqrt(var + eps). gamma/beta are (D). When non-null,
// `xhat` receives the normalized rows (x.size() floats) and `inv_std` one
// value per row, for the backward pass.
void LayerNormForwardInto(const Tensor& x, const Tensor& gamma, const Tensor& beta, float eps,
                          Tensor& out, float* xhat = nullptr, float* inv_std = nullptr);

// Softmax attention over a fused QKV activation: qkv (N, T, 3D) holds Q, K and
// V side by side per token; `heads` splits D into heads of D/heads. Writes
// the concatenated per-head contexts softmax(Q K^T / sqrt(D/heads)) V into
// out (N, T, D), reading Q/K/V in place. When non-null, `probs` (N, H, T, T)
// receives the attention probabilities for the backward pass.
void AttentionForwardInto(const Tensor& qkv, int64_t heads, Tensor& out, Tensor* probs = nullptr);

// ViT token layout: the patch convolution's h (N, D, G, G') becomes tokens,
// out[n, t, d] = h[n, d, t] + pos[t, d] with out (N, G*G', D), pos (G*G', D).
void PatchTokensForwardInto(const Tensor& h, const Tensor& pos, Tensor& out);

// BERT embedding gather: ids (N, T) holds integer token ids stored as floats;
// out[n, t] = table[id] + pos[t] with table (V, D), pos (T, D), out (N, T, D).
// Every id must lie in [0, V) (checked). When non-null, `ids_out` receives
// the N*T decoded ids for the backward pass.
void TokenEmbeddingForwardInto(const Tensor& ids, const Tensor& table, const Tensor& pos,
                               Tensor& out, int64_t* ids_out = nullptr);

}  // namespace gmorph

#endif  // GMORPH_SRC_TENSOR_TRANSFORMER_OPS_H_
