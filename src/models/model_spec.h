// Declarative model description.
//
// A ModelSpec is an ordered list of BlockSpecs — one per computation block in
// the paper's sense (a VGG conv layer, a ResNet residual block, a transformer
// encoder block, a pooling/reshape step, a task head). The abstract graph
// stores BlockSpecs in its nodes, so a mutated graph can always be
// re-materialized into runnable modules (Model Generator), and capacities /
// FLOPs can be computed without instantiating weights.
#ifndef GMORPH_SRC_MODELS_MODEL_SPEC_H_
#define GMORPH_SRC_MODELS_MODEL_SPEC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/module.h"
#include "src/tensor/shape.h"

namespace gmorph {

enum class BlockType {
  kConvReLU,        // VGG-style conv layer (no BN)
  kConvBNReLU,      // stem conv with BN (ResNet)
  kResidual,        // ResNet basic block
  kMaxPool,
  kGlobalAvgPool,   // (C,H,W) -> (C)
  kFlatten,         // (C,H,W) -> (C*H*W)
  kLinearReLU,      // hidden FC layer
  kHead,            // final Linear producing task logits
  kPatchEmbed,      // ViT stem
  kTokenEmbed,      // BERT stem
  kTransformer,     // encoder block
  kMeanPoolTokens,  // (T,D) -> (D)
  kRescale,         // adapter inserted by graph mutation
};

// Returns a short mnemonic, e.g. "ConvReLU".
std::string BlockTypeName(BlockType type);

struct BlockSpec {
  BlockType type = BlockType::kConvReLU;

  // Convolution / residual parameters.
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t padding = 1;

  // Pooling parameters.
  int64_t pool_kernel = 2;
  int64_t pool_stride = 2;

  // Linear / head parameters.
  int64_t in_features = 0;
  int64_t out_features = 0;

  // Transformer parameters.
  int64_t dim = 0;
  int64_t heads = 0;
  int64_t mlp_ratio = 4;

  // Embedding parameters.
  int64_t vocab = 0;
  int64_t seq_len = 0;
  int64_t image_size = 0;
  int64_t patch = 0;

  // Rescale parameters (per-sample shapes).
  Shape rescale_in;
  Shape rescale_out;

  std::string ToString() const;
};

// Full-field structural equality (weights are not part of a spec). Used by
// the MTL baselines to find identical layers across architectures.
bool SpecEquals(const BlockSpec& a, const BlockSpec& b);

// Convenience constructors.
BlockSpec ConvReLUSpec(int64_t in_c, int64_t out_c, int64_t kernel = 3, int64_t stride = 1,
                       int64_t padding = 1);
BlockSpec ConvBNReLUSpec(int64_t in_c, int64_t out_c, int64_t kernel = 3, int64_t stride = 1,
                         int64_t padding = 1);
BlockSpec ResidualSpec(int64_t in_c, int64_t out_c, int64_t stride = 1);
BlockSpec MaxPoolSpec(int64_t kernel = 2, int64_t stride = 2);
BlockSpec GlobalAvgPoolSpec();
BlockSpec FlattenSpec();
BlockSpec LinearReLUSpec(int64_t in_f, int64_t out_f);
BlockSpec HeadSpec(int64_t in_f, int64_t classes);
BlockSpec PatchEmbedSpec(int64_t in_c, int64_t image_size, int64_t patch, int64_t dim);
BlockSpec TokenEmbedSpec(int64_t vocab, int64_t seq_len, int64_t dim);
BlockSpec TransformerSpec(int64_t dim, int64_t heads, int64_t mlp_ratio = 4);
BlockSpec MeanPoolTokensSpec();
BlockSpec RescaleSpec(const Shape& in, const Shape& out);

// Materializes the block as a trainable module with fresh weights.
std::unique_ptr<Module> MakeModule(const BlockSpec& spec, Rng& rng);

// Per-sample output shape given a per-sample input shape.
Shape BlockOutShape(const BlockSpec& spec, const Shape& in);

// Number of learnable parameters (matches MakeModule(spec)->ParamCount()).
int64_t BlockCapacity(const BlockSpec& spec);
// Elements of the block's buffers (BatchNorm running mean and variance),
// which Module::ExportParameters appends after the parameters.
int64_t BlockBufferElements(const BlockSpec& spec);

// Forward FLOPs per sample given a per-sample input shape (multiply-adds
// counted as 2 ops, matching common convention).
int64_t BlockFlops(const BlockSpec& spec, const Shape& in);

// A complete single-task architecture.
struct ModelSpec {
  std::string name;
  Shape input_shape;  // per-sample: {C,H,W} for vision, {T} for token ids
  std::vector<BlockSpec> blocks;

  // Per-sample output shape of the whole model.
  Shape OutputShape() const;
  int64_t TotalCapacity() const;
  int64_t TotalFlops() const;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_MODELS_MODEL_SPEC_H_
