#include "src/models/model_spec.h"

#include <sstream>

#include "src/common/check.h"
#include "src/nn/activations.h"
#include "src/nn/blocks.h"
#include "src/nn/conv2d.h"
#include "src/nn/embedding.h"
#include "src/nn/linear.h"
#include "src/nn/pooling.h"
#include "src/nn/rescale.h"
#include "src/nn/sequential.h"
#include "src/nn/transformer_block.h"
#include "src/tensor/conv_ops.h"

namespace gmorph {

std::string BlockTypeName(BlockType type) {
  switch (type) {
    case BlockType::kConvReLU:
      return "ConvReLU";
    case BlockType::kConvBNReLU:
      return "ConvBNReLU";
    case BlockType::kResidual:
      return "Residual";
    case BlockType::kMaxPool:
      return "MaxPool";
    case BlockType::kGlobalAvgPool:
      return "GlobalAvgPool";
    case BlockType::kFlatten:
      return "Flatten";
    case BlockType::kLinearReLU:
      return "LinearReLU";
    case BlockType::kHead:
      return "Head";
    case BlockType::kPatchEmbed:
      return "PatchEmbed";
    case BlockType::kTokenEmbed:
      return "TokenEmbed";
    case BlockType::kTransformer:
      return "Transformer";
    case BlockType::kMeanPoolTokens:
      return "MeanPoolTokens";
    case BlockType::kRescale:
      return "Rescale";
  }
  return "Unknown";
}

std::string BlockSpec::ToString() const {
  std::ostringstream os;
  os << BlockTypeName(type);
  switch (type) {
    case BlockType::kConvReLU:
    case BlockType::kConvBNReLU:
    case BlockType::kResidual:
      os << "(" << in_channels << "->" << out_channels << ",s=" << stride << ")";
      break;
    case BlockType::kLinearReLU:
    case BlockType::kHead:
      os << "(" << in_features << "->" << out_features << ")";
      break;
    case BlockType::kTransformer:
      os << "(d=" << dim << ",h=" << heads << ")";
      break;
    case BlockType::kRescale:
      os << rescale_in.ToString() << "->" << rescale_out.ToString();
      break;
    default:
      break;
  }
  return os.str();
}

bool SpecEquals(const BlockSpec& a, const BlockSpec& b) {
  return a.type == b.type && a.in_channels == b.in_channels &&
         a.out_channels == b.out_channels && a.kernel == b.kernel && a.stride == b.stride &&
         a.padding == b.padding && a.pool_kernel == b.pool_kernel &&
         a.pool_stride == b.pool_stride && a.in_features == b.in_features &&
         a.out_features == b.out_features && a.dim == b.dim && a.heads == b.heads &&
         a.mlp_ratio == b.mlp_ratio && a.vocab == b.vocab && a.seq_len == b.seq_len &&
         a.image_size == b.image_size && a.patch == b.patch && a.rescale_in == b.rescale_in &&
         a.rescale_out == b.rescale_out;
}

BlockSpec ConvReLUSpec(int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride,
                       int64_t padding) {
  BlockSpec s;
  s.type = BlockType::kConvReLU;
  s.in_channels = in_c;
  s.out_channels = out_c;
  s.kernel = kernel;
  s.stride = stride;
  s.padding = padding;
  return s;
}

BlockSpec ConvBNReLUSpec(int64_t in_c, int64_t out_c, int64_t kernel, int64_t stride,
                         int64_t padding) {
  BlockSpec s = ConvReLUSpec(in_c, out_c, kernel, stride, padding);
  s.type = BlockType::kConvBNReLU;
  return s;
}

BlockSpec ResidualSpec(int64_t in_c, int64_t out_c, int64_t stride) {
  BlockSpec s;
  s.type = BlockType::kResidual;
  s.in_channels = in_c;
  s.out_channels = out_c;
  s.stride = stride;
  return s;
}

BlockSpec MaxPoolSpec(int64_t kernel, int64_t stride) {
  BlockSpec s;
  s.type = BlockType::kMaxPool;
  s.pool_kernel = kernel;
  s.pool_stride = stride;
  return s;
}

BlockSpec GlobalAvgPoolSpec() {
  BlockSpec s;
  s.type = BlockType::kGlobalAvgPool;
  return s;
}

BlockSpec FlattenSpec() {
  BlockSpec s;
  s.type = BlockType::kFlatten;
  return s;
}

BlockSpec LinearReLUSpec(int64_t in_f, int64_t out_f) {
  BlockSpec s;
  s.type = BlockType::kLinearReLU;
  s.in_features = in_f;
  s.out_features = out_f;
  return s;
}

BlockSpec HeadSpec(int64_t in_f, int64_t classes) {
  BlockSpec s;
  s.type = BlockType::kHead;
  s.in_features = in_f;
  s.out_features = classes;
  return s;
}

BlockSpec PatchEmbedSpec(int64_t in_c, int64_t image_size, int64_t patch, int64_t dim) {
  BlockSpec s;
  s.type = BlockType::kPatchEmbed;
  s.in_channels = in_c;
  s.image_size = image_size;
  s.patch = patch;
  s.dim = dim;
  return s;
}

BlockSpec TokenEmbedSpec(int64_t vocab, int64_t seq_len, int64_t dim) {
  BlockSpec s;
  s.type = BlockType::kTokenEmbed;
  s.vocab = vocab;
  s.seq_len = seq_len;
  s.dim = dim;
  return s;
}

BlockSpec TransformerSpec(int64_t dim, int64_t heads, int64_t mlp_ratio) {
  BlockSpec s;
  s.type = BlockType::kTransformer;
  s.dim = dim;
  s.heads = heads;
  s.mlp_ratio = mlp_ratio;
  return s;
}

BlockSpec MeanPoolTokensSpec() {
  BlockSpec s;
  s.type = BlockType::kMeanPoolTokens;
  return s;
}

BlockSpec RescaleSpec(const Shape& in, const Shape& out) {
  BlockSpec s;
  s.type = BlockType::kRescale;
  s.rescale_in = in;
  s.rescale_out = out;
  return s;
}

std::unique_ptr<Module> MakeModule(const BlockSpec& spec, Rng& rng) {
  switch (spec.type) {
    case BlockType::kConvReLU:
      return std::make_unique<ConvBlock>(spec.in_channels, spec.out_channels, spec.kernel,
                                         spec.stride, spec.padding, /*batch_norm=*/false, rng);
    case BlockType::kConvBNReLU:
      return std::make_unique<ConvBlock>(spec.in_channels, spec.out_channels, spec.kernel,
                                         spec.stride, spec.padding, /*batch_norm=*/true, rng);
    case BlockType::kResidual:
      return std::make_unique<ResidualBlock>(spec.in_channels, spec.out_channels, spec.stride,
                                             rng);
    case BlockType::kMaxPool:
      return std::make_unique<MaxPool2d>(spec.pool_kernel, spec.pool_stride);
    case BlockType::kGlobalAvgPool:
      return std::make_unique<GlobalAvgPool2d>();
    case BlockType::kFlatten:
      return std::make_unique<Flatten>();
    case BlockType::kLinearReLU: {
      auto seq = std::make_unique<Sequential>();
      seq->Append(std::make_unique<Linear>(spec.in_features, spec.out_features, rng));
      seq->Append(std::make_unique<ReLU>());
      return seq;
    }
    case BlockType::kHead:
      return std::make_unique<Linear>(spec.in_features, spec.out_features, rng);
    case BlockType::kPatchEmbed:
      return std::make_unique<PatchEmbed>(spec.in_channels, spec.image_size, spec.patch,
                                          spec.dim, rng);
    case BlockType::kTokenEmbed:
      return std::make_unique<TokenEmbedding>(spec.vocab, spec.seq_len, spec.dim, rng);
    case BlockType::kTransformer:
      return std::make_unique<TransformerBlock>(spec.dim, spec.heads, spec.mlp_ratio, rng);
    case BlockType::kMeanPoolTokens:
      return std::make_unique<MeanPoolTokens>();
    case BlockType::kRescale:
      return std::make_unique<Rescale>(spec.rescale_in, spec.rescale_out, rng);
  }
  GMORPH_CHECK(false, "unknown block type");
  return nullptr;
}

Shape BlockOutShape(const BlockSpec& spec, const Shape& in) {
  switch (spec.type) {
    case BlockType::kConvReLU:
    case BlockType::kConvBNReLU: {
      GMORPH_CHECK(in.Rank() == 3 && in[0] == spec.in_channels,
                       "conv block " << spec.ToString() << " got " << in.ToString());
      const int64_t oh = ConvOutDim(in[1], spec.kernel, spec.stride, spec.padding);
      const int64_t ow = ConvOutDim(in[2], spec.kernel, spec.stride, spec.padding);
      return Shape{spec.out_channels, oh, ow};
    }
    case BlockType::kResidual: {
      GMORPH_CHECK(in.Rank() == 3 && in[0] == spec.in_channels,
                       "residual block " << spec.ToString() << " got " << in.ToString());
      const int64_t oh = ConvOutDim(in[1], 3, spec.stride, 1);
      const int64_t ow = ConvOutDim(in[2], 3, spec.stride, 1);
      return Shape{spec.out_channels, oh, ow};
    }
    case BlockType::kMaxPool: {
      GMORPH_CHECK(in.Rank() == 3);
      return Shape{in[0], ConvOutDim(in[1], spec.pool_kernel, spec.pool_stride, 0),
                   ConvOutDim(in[2], spec.pool_kernel, spec.pool_stride, 0)};
    }
    case BlockType::kGlobalAvgPool:
      GMORPH_CHECK(in.Rank() == 3);
      return Shape{in[0]};
    case BlockType::kFlatten:
      return Shape{in.NumElements()};
    case BlockType::kLinearReLU:
    case BlockType::kHead:
      GMORPH_CHECK(in[-1] == spec.in_features,
                       spec.ToString() << " got " << in.ToString());
      return Shape{spec.out_features};
    case BlockType::kPatchEmbed: {
      const int64_t grid = spec.image_size / spec.patch;
      return Shape{grid * grid, spec.dim};
    }
    case BlockType::kTokenEmbed:
      return Shape{spec.seq_len, spec.dim};
    case BlockType::kTransformer:
      GMORPH_CHECK(in.Rank() == 2 && in[1] == spec.dim,
                       "transformer " << spec.ToString() << " got " << in.ToString());
      return in;
    case BlockType::kMeanPoolTokens:
      GMORPH_CHECK(in.Rank() == 2);
      return Shape{in[1]};
    case BlockType::kRescale:
      GMORPH_CHECK(in == spec.rescale_in,
                       "rescale expected " << spec.rescale_in.ToString() << " got "
                                           << in.ToString());
      return spec.rescale_out;
  }
  GMORPH_CHECK(false, "unknown block type");
  return {};
}

int64_t BlockCapacity(const BlockSpec& spec) {
  switch (spec.type) {
    case BlockType::kConvReLU:
      return spec.out_channels * spec.in_channels * spec.kernel * spec.kernel +
             spec.out_channels;
    case BlockType::kConvBNReLU:
      // conv (no bias) + BN gamma/beta
      return spec.out_channels * spec.in_channels * spec.kernel * spec.kernel +
             2 * spec.out_channels;
    case BlockType::kResidual: {
      const bool proj = spec.stride != 1 || spec.in_channels != spec.out_channels;
      int64_t n = spec.out_channels * spec.in_channels * 9 + 2 * spec.out_channels;  // conv1+bn1
      n += spec.out_channels * spec.out_channels * 9 + 2 * spec.out_channels;        // conv2+bn2
      if (proj) {
        n += spec.out_channels * spec.in_channels + 2 * spec.out_channels;
      }
      return n;
    }
    case BlockType::kMaxPool:
    case BlockType::kGlobalAvgPool:
    case BlockType::kFlatten:
    case BlockType::kMeanPoolTokens:
      return 0;
    case BlockType::kLinearReLU:
    case BlockType::kHead:
      return spec.in_features * spec.out_features + spec.out_features;
    case BlockType::kPatchEmbed: {
      const int64_t grid = spec.image_size / spec.patch;
      return spec.dim * spec.in_channels * spec.patch * spec.patch + spec.dim +
             grid * grid * spec.dim;
    }
    case BlockType::kTokenEmbed:
      return spec.vocab * spec.dim + spec.seq_len * spec.dim;
    case BlockType::kTransformer: {
      const int64_t d = spec.dim;
      const int64_t m = spec.mlp_ratio;
      int64_t n = 2 * 2 * d;                    // two LayerNorms
      n += d * 3 * d + 3 * d + d * d + d;       // qkv + proj
      n += d * m * d + m * d + m * d * d + d;   // mlp fc1 + fc2
      return n;
    }
    case BlockType::kRescale: {
      if (spec.rescale_in.Rank() == 3 && spec.rescale_in[0] != spec.rescale_out[0]) {
        return spec.rescale_out[0] * spec.rescale_in[0] + spec.rescale_out[0];
      }
      if (spec.rescale_in.Rank() == 2 && spec.rescale_in[1] != spec.rescale_out[1]) {
        return spec.rescale_in[1] * spec.rescale_out[1] + spec.rescale_out[1];
      }
      return 0;
    }
  }
  GMORPH_CHECK(false, "unknown block type");
  return 0;
}

int64_t BlockBufferElements(const BlockSpec& spec) {
  // Each BatchNorm2d keeps a running mean and a running variance per channel.
  const int64_t bn = 2 * spec.out_channels;
  switch (spec.type) {
    case BlockType::kConvBNReLU:
      return bn;
    case BlockType::kResidual: {
      const bool proj = spec.stride != 1 || spec.in_channels != spec.out_channels;
      return (proj ? 3 : 2) * bn;
    }
    default:
      return 0;
  }
}

int64_t BlockFlops(const BlockSpec& spec, const Shape& in) {
  const Shape out = BlockOutShape(spec, in);
  switch (spec.type) {
    case BlockType::kConvReLU:
    case BlockType::kConvBNReLU: {
      const int64_t spatial = out[1] * out[2];
      int64_t f = 2 * spec.in_channels * spec.kernel * spec.kernel * spec.out_channels * spatial;
      f += 4 * out.NumElements();  // bias/BN + ReLU
      return f;
    }
    case BlockType::kResidual: {
      const int64_t spatial = out[1] * out[2];
      const bool proj = spec.stride != 1 || spec.in_channels != spec.out_channels;
      int64_t f = 2 * spec.in_channels * 9 * spec.out_channels * spatial;
      f += 2 * spec.out_channels * 9 * spec.out_channels * spatial;
      if (proj) {
        f += 2 * spec.in_channels * spec.out_channels * spatial;
      }
      f += 10 * out.NumElements();  // BNs, adds, ReLUs
      return f;
    }
    case BlockType::kMaxPool:
      return in.NumElements();
    case BlockType::kGlobalAvgPool:
    case BlockType::kFlatten:
    case BlockType::kMeanPoolTokens:
      return in.NumElements();
    case BlockType::kLinearReLU:
    case BlockType::kHead:
      return 2 * spec.in_features * spec.out_features;
    case BlockType::kPatchEmbed: {
      const int64_t grid = spec.image_size / spec.patch;
      return 2 * spec.in_channels * spec.patch * spec.patch * spec.dim * grid * grid;
    }
    case BlockType::kTokenEmbed:
      return 2 * spec.seq_len * spec.dim;
    case BlockType::kTransformer: {
      const int64_t t = in[0];
      const int64_t d = spec.dim;
      const int64_t m = spec.mlp_ratio;
      int64_t f = 2 * t * d * 3 * d;  // qkv
      f += 2 * t * t * d * 2;         // scores + context
      f += 2 * t * d * d;             // proj
      f += 2 * t * d * m * d * 2;     // mlp
      f += 12 * t * d;                // norms, residual adds, gelu
      return f;
    }
    case BlockType::kRescale: {
      int64_t f = 8 * out.NumElements();  // interpolation
      if (spec.rescale_in.Rank() == 3 && spec.rescale_in[0] != spec.rescale_out[0]) {
        f += 2 * spec.rescale_in[0] * spec.rescale_out[0] * spec.rescale_out[1] *
             spec.rescale_out[2];
      } else if (spec.rescale_in.Rank() == 2 && spec.rescale_in[1] != spec.rescale_out[1]) {
        f += 2 * spec.rescale_out[0] * spec.rescale_in[1] * spec.rescale_out[1];
      }
      return f;
    }
  }
  GMORPH_CHECK(false, "unknown block type");
  return 0;
}

Shape ModelSpec::OutputShape() const {
  Shape s = input_shape;
  for (const BlockSpec& b : blocks) {
    s = BlockOutShape(b, s);
  }
  return s;
}

int64_t ModelSpec::TotalCapacity() const {
  int64_t n = 0;
  for (const BlockSpec& b : blocks) {
    n += BlockCapacity(b);
  }
  return n;
}

int64_t ModelSpec::TotalFlops() const {
  Shape s = input_shape;
  int64_t f = 0;
  for (const BlockSpec& b : blocks) {
    f += BlockFlops(b, s);
    s = BlockOutShape(b, s);
  }
  return f;
}

}  // namespace gmorph
