#include "src/runtime/fused_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>

#include "src/analysis/driver.h"
#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/kernels/registry.h"
#include "src/obs/trace.h"
#include "src/nn/blocks.h"
#include "src/nn/embedding.h"
#include "src/nn/linear.h"
#include "src/nn/pooling.h"
#include "src/nn/rescale.h"
#include "src/nn/sequential.h"
#include "src/nn/transformer_block.h"
#include "src/tensor/tensor_ops.h"
#include "src/tensor/transformer_ops.h"

namespace gmorph {
namespace {

// Folds a BatchNorm (inference form, running stats) into the preceding
// convolution: w'[o] = w[o] * gamma[o]/sqrt(var[o]+eps),
// b'[o] = beta[o] - mean[o] * gamma[o]/sqrt(var[o]+eps) (+ folded conv bias).
void FoldBatchNorm(const BatchNorm2d& bn, int64_t out_c, Tensor& weight, Tensor& bias) {
  const int64_t per_filter = weight.size() / out_c;
  ParallelFor(0, out_c, std::max<int64_t>(1, (1 << 15) / std::max<int64_t>(1, per_filter)),
              [&](int64_t lo, int64_t hi) {
                for (int64_t o = lo; o < hi; ++o) {
                  const float inv_std = 1.0f / std::sqrt(bn.running_var().at(o) + bn.eps());
                  const float scale = bn.gamma().value.at(o) * inv_std;
                  float* w = weight.data() + o * per_filter;
                  for (int64_t i = 0; i < per_filter; ++i) {
                    w[i] *= scale;
                  }
                  bias.at(o) = bn.beta().value.at(o) - bn.running_mean().at(o) * scale +
                               bias.at(o) * scale;
                }
              });
}

}  // namespace

FusedEngine::FusedEngine(MultiTaskModel* model) : FusedEngine(model, Options()) {}

FusedEngine::FusedEngine(MultiTaskModel* model, const Options& options)
    : model_(model), options_(options) {
  const AbsGraph& graph = model_->graph();
  node_value_.assign(static_cast<size_t>(graph.size()), -1);
  groups_.emplace_back();  // group 0: the shared prefix chain

  Value input;
  input.shape = graph.node(graph.root()).output_shape;
  input.def_seq = -1;
  input.def_group = 0;
  values_.push_back(std::move(input));
  node_value_[static_cast<size_t>(graph.root())] = 0;

  LowerFrom(graph.root(), 0);
  PlanBuffers();

  for (int t = 0; t < graph.num_tasks(); ++t) {
    const int head = graph.HeadOfTask(t);
    GMORPH_CHECK(head >= 0, "task " << t << " has no head");
    head_values_.push_back(node_value_[static_cast<size_t>(head)]);
  }

  AnnotateSolvers();
  MaybeVerifyPlan();
}

void FusedEngine::MaybeVerifyPlan() const {
  // Self-check the current plan: always in debug builds, opt-in via
  // GMORPH_VERIFY=1 in release. A verifier error here is a planner bug, so it
  // is fatal rather than a diagnostic the caller could ignore. Runs again
  // after Quantize() — the int8 annotations must lint clean too.
#ifdef NDEBUG
  static const bool verify_plan = [] {
    const char* v = std::getenv("GMORPH_VERIFY");
    return v != nullptr && std::string(v) != "0";
  }();
#else
  constexpr bool verify_plan = true;
#endif
  if (verify_plan) {
    // Route through the unified driver so the plan gets the full pass
    // pipeline (PlanVerifier + dtype propagation + memory certification);
    // the summary note is muted — this is a self-check, not a report.
    MemAnalysisOptions mem;
    mem.summary = false;
    const DiagnosticList verdict = RunPlanPasses(ExportPlan(), mem);
    GMORPH_CHECK(verdict.ok(), "execution plan failed verification:\n" << verdict.ToString());
  }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

void FusedEngine::LowerFrom(int node_id, int group) {
  const AbsGraph& graph = model_->graph();
  const std::vector<int> children = graph.node(node_id).children;
  if (children.size() == 1) {
    // Chains extend the current group.
    LowerNode(children[0], group);
    LowerFrom(children[0], group);
    return;
  }
  for (int child : children) {
    const int child_group = static_cast<int>(groups_.size());
    groups_.emplace_back();
    groups_[static_cast<size_t>(child_group)].parent = group;
    groups_[static_cast<size_t>(group)].children.push_back(child_group);
    LowerNode(child, child_group);
    LowerFrom(child, child_group);
  }
}

int FusedEngine::NewValue(const Shape& per_sample_shape, int group) {
  Value v;
  v.shape = per_sample_shape;
  v.def_group = group;
  const int id = static_cast<int>(values_.size());
  values_.push_back(std::move(v));
  return id;
}

int FusedEngine::NewAlias(int of_value, const Shape& per_sample_shape) {
  const int root = ResolveAlias(of_value);
  Value v;
  v.shape = per_sample_shape;
  v.alias_of = root;
  const int id = static_cast<int>(values_.size());
  values_.push_back(std::move(v));
  if (root == 0) {
    input_aliases_.push_back(id);
  }
  return id;
}

int FusedEngine::ResolveAlias(int value) const {
  while (values_[static_cast<size_t>(value)].alias_of >= 0) {
    value = values_[static_cast<size_t>(value)].alias_of;
  }
  return value;
}

void FusedEngine::RecordUse(int value, int seq, int group) {
  values_[static_cast<size_t>(ResolveAlias(value))].events.emplace_back(seq, group);
}

int FusedEngine::AddStep(Step step) {
  const int seq = static_cast<int>(steps_.size());
  Value& out = values_[static_cast<size_t>(step.out)];
  out.def_seq = seq;
  out.def_group = step.group;
  RecordUse(step.out, seq, step.group);  // the def itself is a write event
  RecordUse(step.in0, seq, step.group);
  if (step.skip >= 0) {
    RecordUse(step.skip, seq, step.group);
  }
  groups_[static_cast<size_t>(step.group)].steps.push_back(seq);
  steps_.push_back(std::move(step));
  return seq;
}

void FusedEngine::LowerNode(int node_id, int group) {
  const AbsGraph& graph = model_->graph();
  const AbsNode& node = graph.node(node_id);
  Module* module = model_->module(node_id);
  const int in_value = node_value_[static_cast<size_t>(node.parent)];

  // Appends `s` as one of this node's steps, writing a fresh value of
  // `shape`; returns that value.
  const auto emit = [&](Step s, const Shape& shape) {
    s.weight_shape = s.weight.shape();
    if (s.kind == OpKind::kConv && shape[1] * shape[2] < kernels::kWideMinN) {
      // A narrow conv runs pixels x channels (kernels::ConvProblem), with W^T
      // as the GEMM's B operand: transpose once here and keep only W^T.
      const int64_t o = s.weight_shape[0];
      const int64_t ckk = s.weight.size() / o;
      Tensor wt(Shape{ckk, o});
      kernels::Transpose(o, ckk, s.weight.data(), ckk, wt.data(), o);
      s.weight = std::move(wt);
      s.narrow = true;
    }
    s.node = node_id;
    s.group = group;
    s.out = NewValue(shape, group);
    const int out = s.out;
    AddStep(std::move(s));
    return out;
  };
  // A parameterless step from the node's input to its output.
  const auto simple = [&](OpKind kind, std::string label) {
    Step s;
    s.kind = kind;
    s.in0 = in_value;
    s.label = std::move(label);
    return emit(std::move(s), node.output_shape);
  };
  // Folded-conv step shared by ConvBlock / residual lowering.
  const auto folded_conv = [&](const Conv2d& conv, const BatchNorm2d* bn, bool relu,
                               const char* tag, int in, int skip) {
    Step s;
    s.kind = OpKind::kConv;
    s.act = relu ? Activation::kRelu : Activation::kNone;
    s.conv_args = conv.args();
    s.weight = conv.weight().value.Clone();
    s.bias = Tensor::Zeros(Shape{conv.out_channels()});
    if (!conv.bias().value.empty()) {
      for (int64_t o = 0; o < conv.out_channels(); ++o) {
        s.bias.at(o) = conv.bias().value.at(o);
      }
    }
    if (bn != nullptr) {
      FoldBatchNorm(*bn, conv.out_channels(), s.weight, s.bias);
    }
    std::ostringstream label;
    label << tag << " " << conv.in_channels() << "->" << conv.out_channels() << " k"
          << conv.kernel() << "s" << s.conv_args.stride << (bn ? " +bn" : "")
          << (relu ? " +relu" : "") << (skip >= 0 ? " +skip" : "");
    s.label = label.str();
    s.in0 = in;
    s.skip = skip;
    ++num_fused_convs_;
    return emit(std::move(s), node.output_shape);
  };
  // Linear step over handles into the live module (they stay in sync with
  // training); bias, residual skip and activation run in its epilogue.
  const auto linear = [&](const Linear& lin, const char* tag, int in, int skip, Activation act,
                          const Shape& shape) {
    Step s;
    s.kind = OpKind::kLinear;
    s.act = act;
    s.weight = lin.weight().value;
    s.bias = lin.bias().value;
    s.in0 = in;
    s.skip = skip;
    s.label = std::string(tag) + " " + std::to_string(lin.in_features()) + "->" +
              std::to_string(lin.out_features()) + (skip >= 0 ? " +skip" : "") +
              (act == Activation::kRelu ? " +relu" : "") +
              (act == Activation::kGelu ? " +gelu" : "");
    ++num_fused_linears_;
    return emit(std::move(s), shape);
  };
  const auto layer_norm = [&](const LayerNorm& ln, int in) {
    Step s;
    s.kind = OpKind::kLayerNorm;
    s.weight = ln.gamma().value;
    s.bias = ln.beta().value;
    s.eps = ln.eps();
    s.in0 = in;
    s.label = "layernorm " + std::to_string(ln.dim());
    return emit(std::move(s), values_[static_cast<size_t>(in)].shape);
  };

  int result = -1;
  switch (node.spec.type) {
    case BlockType::kConvReLU:
    case BlockType::kConvBNReLU: {
      auto* block = dynamic_cast<ConvBlock*>(module);
      GMORPH_CHECK(block != nullptr);
      result = folded_conv(block->conv(), block->bn(), /*relu=*/true, "conv", in_value, -1);
      break;
    }
    case BlockType::kResidual: {
      auto* block = dynamic_cast<ResidualBlock*>(module);
      GMORPH_CHECK(block != nullptr);
      // conv1 halves/keeps the spatial dims; conv2 is shape-preserving, so
      // both intermediates share the node's output shape.
      const int mid =
          folded_conv(block->conv1(), &block->bn1(), /*relu=*/true, "res.conv1", in_value, -1);
      int skip = in_value;
      if (block->proj() != nullptr) {
        skip = folded_conv(*block->proj(), block->proj_bn(), /*relu=*/false, "res.proj",
                           in_value, -1);
      }
      result = folded_conv(block->conv2(), &block->bn2(), /*relu=*/true, "res.conv2", mid, skip);
      break;
    }
    case BlockType::kMaxPool: {
      Step s;
      s.kind = OpKind::kMaxPool;
      s.pool_kernel = node.spec.pool_kernel;
      s.pool_stride = node.spec.pool_stride;
      s.in0 = in_value;
      s.label = "maxpool k" + std::to_string(s.pool_kernel);
      result = emit(std::move(s), node.output_shape);
      break;
    }
    case BlockType::kGlobalAvgPool:
      result = simple(OpKind::kGlobalAvgPool, "gap");
      break;
    case BlockType::kMeanPoolTokens:
      result = simple(OpKind::kMeanPoolTokens, "meanpool");
      break;
    case BlockType::kFlatten:
      // Pure metadata: the flattened value shares the parent's storage.
      result = NewAlias(in_value, node.output_shape);
      break;
    case BlockType::kLinearReLU: {
      auto* seq = dynamic_cast<Sequential*>(module);
      const Linear* lin =
          (seq != nullptr && seq->size() >= 1) ? dynamic_cast<Linear*>(&seq->at(0)) : nullptr;
      GMORPH_CHECK(lin != nullptr, "LinearReLU node " << node_id << " is not a Linear sequence");
      result = linear(*lin, "linear", in_value, -1, Activation::kRelu, node.output_shape);
      break;
    }
    case BlockType::kHead: {
      const auto* lin = dynamic_cast<Linear*>(module);
      GMORPH_CHECK(lin != nullptr, "head node " << node_id << " is not a Linear");
      result = linear(*lin, "head", in_value, -1, Activation::kNone, node.output_shape);
      values_[static_cast<size_t>(result)].is_head = true;
      break;
    }
    case BlockType::kRescale: {
      auto* rs = dynamic_cast<Rescale*>(module);
      GMORPH_CHECK(rs != nullptr);
      if (rs->IsIdentity()) {
        result = NewAlias(in_value, node.output_shape);
        ++num_eliminated_;
        break;
      }
      const Shape& in_shape = rs->in_shape();
      const Shape& out_shape = rs->out_shape();
      result = in_value;
      if (rs->needs_spatial()) {
        Step s;
        s.in0 = result;
        if (in_shape.Rank() == 3) {
          s.kind = OpKind::kBilinearResize;
          s.label = "resize " + std::to_string(out_shape[1]) + "x" + std::to_string(out_shape[2]);
          result = emit(std::move(s), Shape{in_shape[0], out_shape[1], out_shape[2]});
        } else {
          s.kind = OpKind::kTokenResize;
          s.label = "tok.resize " + std::to_string(out_shape[0]);
          result = emit(std::move(s), Shape{out_shape[0], in_shape[1]});
        }
      }
      if (rs->channel_adapter() != nullptr) {
        const Conv2d& conv = *rs->channel_adapter();
        Step s;
        s.kind = OpKind::kConv;
        s.conv_args = conv.args();
        s.weight = conv.weight().value;  // handles: 1x1 adapter, no folding
        s.bias = conv.bias().value;
        s.in0 = result;
        s.label = "adapter.conv " + std::to_string(conv.in_channels()) + "->" +
                  std::to_string(conv.out_channels());
        ++num_fused_convs_;
        result = emit(std::move(s), node.output_shape);
      } else if (rs->dim_adapter() != nullptr) {
        result = linear(*rs->dim_adapter(), "adapter.linear", result, -1, Activation::kNone,
                        node.output_shape);
      }
      break;
    }
    case BlockType::kPatchEmbed: {
      auto* embed = dynamic_cast<PatchEmbed*>(module);
      GMORPH_CHECK(embed != nullptr);
      // The patch convolution is an ordinary conv step (handles, no BN to
      // fold); a layout step then turns its (D, G, G) grid into (T, D)
      // tokens and adds the positional embedding.
      const Conv2d& conv = embed->proj();
      const Shape& image = values_[static_cast<size_t>(in_value)].shape;
      GMORPH_CHECK(image.Rank() == 3);
      Step c;
      c.kind = OpKind::kConv;
      c.conv_args = conv.args();
      c.weight = conv.weight().value;
      c.bias = conv.bias().value;
      c.in0 = in_value;
      c.label = "conv.patch " + std::to_string(conv.in_channels()) + "->" +
                std::to_string(conv.out_channels()) + " k" + std::to_string(conv.kernel()) +
                "s" + std::to_string(c.conv_args.stride);
      ++num_fused_convs_;
      const Shape grid{
          conv.out_channels(),
          ConvOutDim(image[1], conv.kernel(), c.conv_args.stride, c.conv_args.padding),
          ConvOutDim(image[2], conv.kernel(), c.conv_args.stride, c.conv_args.padding)};
      Step t;
      t.kind = OpKind::kPatchTokens;
      t.weight = embed->pos().value;
      t.in0 = emit(std::move(c), grid);
      t.label = "tokens " + std::to_string(node.output_shape[0]) + "x" +
                std::to_string(node.output_shape[1]) + " +pos";
      result = emit(std::move(t), node.output_shape);
      break;
    }
    case BlockType::kTokenEmbed: {
      auto* embed = dynamic_cast<TokenEmbedding*>(module);
      GMORPH_CHECK(embed != nullptr);
      Step s;
      s.kind = OpKind::kEmbedding;
      s.weight = embed->table().value;
      s.bias = embed->pos().value;
      s.in0 = in_value;
      s.label = "embed " + std::to_string(s.weight.shape()[0]) + "x" +
                std::to_string(s.weight.shape()[1]) + " +pos";
      result = emit(std::move(s), node.output_shape);
      break;
    }
    case BlockType::kTransformer: {
      auto* block = dynamic_cast<TransformerBlock*>(module);
      GMORPH_CHECK(block != nullptr);
      // Pre-LN encoder block: x1 = x + proj(attn(qkv(LN1(x)))),
      // out = x1 + fc2(GELU(fc1(LN2(x1)))). Both residual adds and the GELU
      // ride in the producing linear's epilogue; attention reads Q/K/V in
      // place from the QKV value.
      const Shape& tokens = node.output_shape;  // (T, D)
      const MultiHeadSelfAttention& attn = block->attn();
      const int h1 = layer_norm(block->ln1(), in_value);
      const int qkv = linear(attn.qkv(), "linear.qkv", h1, -1, Activation::kNone,
                             Shape{tokens[0], attn.qkv().out_features()});
      Step a;
      a.kind = OpKind::kAttention;
      a.heads = attn.num_heads();
      a.in0 = qkv;
      a.label = "attention h" + std::to_string(a.heads) + " t" + std::to_string(tokens[0]);
      const int ctx = emit(std::move(a), tokens);
      const int x1 = linear(attn.proj(), "linear.proj", ctx, in_value, Activation::kNone, tokens);
      const int h2 = layer_norm(block->ln2(), x1);
      const int mlp = linear(block->fc1(), "linear.fc1", h2, -1, Activation::kGelu,
                             Shape{tokens[0], block->fc1().out_features()});
      result = linear(block->fc2(), "linear.fc2", mlp, x1, Activation::kNone, tokens);
      break;
    }
  }
  node_value_[static_cast<size_t>(node_id)] = result;
}

// ---------------------------------------------------------------------------
// Static memory planning
// ---------------------------------------------------------------------------

bool FusedEngine::HappensBefore(const std::pair<int, int>& event, int seq, int group) const {
  if (event.first >= seq) {
    return false;
  }
  // The event's group must be an ancestor of (or equal to) the def's group:
  // an ancestor group's steps all execute before the fork into `group`, and
  // same-group steps execute in seq order. Any other relation (sibling
  // branches) is unordered under branch-parallel execution.
  int g = group;
  while (g != -1) {
    if (g == event.second) {
      return true;
    }
    g = groups_[static_cast<size_t>(g)].parent;
  }
  return false;
}

void FusedEngine::PlanBuffers() {
  // Values are created in step order, so iterating by id processes defs in
  // a valid execution order. Greedy interval coloring: reuse the first
  // size-matching buffer whose every resident value is fully dead (all events
  // happen-before this def); otherwise open a new buffer.
  for (size_t v = 1; v < values_.size(); ++v) {
    Value& val = values_[v];
    if (val.alias_of >= 0) {
      continue;
    }
    const int64_t elems = val.shape.NumElements();
    if (val.is_head) {
      // Heads get dedicated buffers: returned tensors must survive the rest
      // of the run (and until the caller is done with them).
      val.buffer = static_cast<int>(buffers_.size());
      buffers_.push_back(Buffer{elems, /*reusable=*/false, {static_cast<int>(v)}});
      continue;
    }
    int chosen = -1;
    for (size_t b = 0; b < buffers_.size() && chosen < 0; ++b) {
      if (!buffers_[b].reusable || buffers_[b].elems_per_sample != elems) {
        continue;
      }
      bool compatible = true;
      for (int w : buffers_[b].values) {
        for (const auto& event : values_[static_cast<size_t>(w)].events) {
          if (!HappensBefore(event, val.def_seq, val.def_group)) {
            compatible = false;
            break;
          }
        }
        if (!compatible) {
          break;
        }
      }
      if (compatible) {
        chosen = static_cast<int>(b);
      }
    }
    if (chosen < 0) {
      chosen = static_cast<int>(buffers_.size());
      buffers_.push_back(Buffer{elems, /*reusable=*/true, {}});
    }
    buffers_[static_cast<size_t>(chosen)].values.push_back(static_cast<int>(v));
    val.buffer = chosen;
  }
}

int64_t FusedEngine::planned_bytes_per_sample() const {
  int64_t total = 0;
  for (const Buffer& b : buffers_) {
    total += b.elems_per_sample * static_cast<int64_t>(sizeof(float));
  }
  return total;
}

// ---------------------------------------------------------------------------
// Solver resolution
// ---------------------------------------------------------------------------

int FusedEngine::GroupThreads(int group) const {
  if (options_.branch_parallel) {
    // A group executes inside the branch-parallel ParallelFor iff some fork
    // on its ancestor path has more than one child; kernels there degrade to
    // serial via the nesting guard and must be keyed as threads=1.
    for (int g = group; g > 0;) {
      const int parent = groups_[static_cast<size_t>(g)].parent;
      if (groups_[static_cast<size_t>(parent)].children.size() > 1) {
        return 1;
      }
      g = parent;
    }
  }
  return KernelThreads();
}

bool FusedEngine::StepProblemDesc(const Step& step, int64_t batch,
                                  kernels::ProblemDesc* desc) const {
  switch (step.kind) {
    case OpKind::kConv: {
      // The conv's GEMM (kernels::ConvProblem). Wide f32 convs and every
      // int8 conv run it per sample inside the per-batch ParallelFor, i.e. in
      // the serial nested regime. A narrow f32 conv runs one pixels x
      // channels GEMM over the whole batch, m = batch*OH*OW, outside that
      // loop.
      const Shape& w = step.weight_shape;
      const Shape& out = values_[static_cast<size_t>(step.out)].shape;
      if (w.Rank() != 4 || out.Rank() != 3) {
        return false;
      }
      *desc = kernels::ConvProblem(
          step.qconv != nullptr ? kernels::DType::kInt8 : kernels::DType::kF32, w[0],
          w[1] * w[2] * w[3], out[1], out[2]);
      if (step.narrow && step.qconv == nullptr) {
        desc->m *= batch;
        desc->threads = GroupThreads(step.group);
      }
      return true;
    }
    case OpKind::kLinear: {
      // LinearForwardInto flattens leading dims into rows, so m scales with
      // the batch while k/n come from the weight. The quantized path keeps
      // the same logical dims, just at dtype int8.
      const Shape& w = step.weight.shape();
      if (w.Rank() != 2 || w[0] <= 0) {
        return false;
      }
      const Shape& in = values_[static_cast<size_t>(step.in0)].shape;
      desc->op = kernels::OpFamily::kGemmNN;
      desc->dtype =
          step.qlinear != nullptr ? kernels::DType::kInt8 : kernels::DType::kF32;
      desc->m = batch * (in.NumElements() / w[0]);
      desc->k = w[0];
      desc->n = w[1];
      desc->aux0 = desc->aux1 = 0;
      desc->threads = GroupThreads(step.group);
      return true;
    }
    case OpKind::kMaxPool: {
      const Shape& in = values_[static_cast<size_t>(step.in0)].shape;
      if (in.Rank() != 3) {
        return false;
      }
      desc->op = kernels::OpFamily::kMaxPool;
      desc->m = batch * in[0];
      desc->k = in[1];
      desc->n = in[2];
      desc->aux0 = step.pool_kernel;
      desc->aux1 = step.pool_stride;
      desc->threads = GroupThreads(step.group);
      return true;
    }
    default:
      return false;
  }
}

const char* FusedEngine::Pin::name() const {
  if (gemm != nullptr) {
    return gemm->name();
  }
  if (qgemm != nullptr) {
    return qgemm->name();
  }
  return pool != nullptr ? pool->name() : "";
}

FusedEngine::Pin FusedEngine::PinStep(const Step& step, int64_t batch) const {
  Pin pin;
  kernels::ProblemDesc desc;
  if (!StepProblemDesc(step, batch, &desc)) {
    return pin;
  }
  const kernels::SolverRegistry& registry = kernels::SolverRegistry::Global();
  if (desc.op == kernels::OpFamily::kMaxPool) {
    pin.pool = registry.ResolvePool(desc);
  } else if (desc.dtype == kernels::DType::kInt8) {
    pin.qgemm = registry.ResolveQGemm(desc);
  } else {
    pin.gemm = registry.ResolveGemm(desc);
  }
  return pin;
}

void FusedEngine::AnnotateSolvers() {
  for (Step& step : steps_) {
    step.solver = PinStep(step, /*batch=*/1).name();
  }
}

std::vector<kernels::ProblemDesc> FusedEngine::KernelProblems(int64_t batch) const {
  std::set<kernels::ProblemDesc> dedup;
  for (const Step& step : steps_) {
    kernels::ProblemDesc desc;
    if (StepProblemDesc(step, batch, &desc)) {
      dedup.insert(desc);
    }
  }
  return std::vector<kernels::ProblemDesc>(dedup.begin(), dedup.end());
}

// ---------------------------------------------------------------------------
// Int8 post-training quantization
// ---------------------------------------------------------------------------

quant::QuantRecipe FusedEngine::Calibrate(const std::vector<Tensor>& batches) {
  quant::CalibrationObserver observer;
  observer_ = &observer;
  for (const Tensor& batch : batches) {
    Run(batch);
  }
  observer_ = nullptr;

  quant::QuantRecipe recipe;
  for (size_t s = 0; s < steps_.size(); ++s) {
    const Step& step = steps_[s];
    if (step.kind != OpKind::kConv && step.kind != OpKind::kLinear) {
      continue;
    }
    if (step.kind == OpKind::kLinear && step.skip >= 0) {
      continue;  // the int8 linear epilogue has no residual-add path
    }
    const quant::TensorRange* range = observer.Range(static_cast<int64_t>(s));
    if (range == nullptr || !range->valid()) {
      continue;  // step never executed over the calibration set
    }
    quant::StepQuantSpec spec;
    spec.seq = static_cast<int64_t>(s);
    spec.label = step.label;
    spec.in_q = quant::ActQuantFromRange(*range);
    const Shape& w = step.weight_shape;
    if (step.kind == OpKind::kConv) {
      if (w.Rank() != 4) {
        continue;
      }
      spec.kind = "conv";
      // Conv weights are (O, C, KH, KW): one contiguous row of C*KH*KW taps
      // per output channel, or one column of W^T for a narrow conv.
      const int64_t ckk = w[1] * w[2] * w[3];
      spec.w_scales = step.narrow ? quant::ColAbsMaxScales(step.weight.data(), ckk, w[0])
                                  : quant::RowAbsMaxScales(step.weight.data(), w[0], ckk);
    } else {
      if (w.Rank() != 2) {
        continue;
      }
      spec.kind = "linear";
      // Linear weights are (in, out): output channels run over columns.
      spec.w_scales = quant::ColAbsMaxScales(step.weight.data(), w[0], w[1]);
    }
    recipe.steps.push_back(std::move(spec));
  }
  return recipe;
}

int FusedEngine::Quantize(const quant::QuantRecipe& recipe) {
  int applied = 0;
  for (const quant::StepQuantSpec& spec : recipe.steps) {
    if (spec.seq < 0 || spec.seq >= static_cast<int64_t>(steps_.size())) {
      continue;
    }
    Step& step = steps_[static_cast<size_t>(spec.seq)];
    const Shape& w = step.weight_shape;
    if (step.kind == OpKind::kConv && spec.kind == "conv" && w.Rank() == 4 &&
        static_cast<int64_t>(spec.w_scales.size()) == w[0]) {
      const Shape& out = values_[static_cast<size_t>(step.out)].shape;
      // PackConvWeights reads W (O, C, KH, KW): a narrow conv's W^T is
      // transposed back into a temporary.
      Tensor w_rows = step.weight;
      if (step.narrow) {
        const int64_t ckk = step.weight.shape()[0];
        w_rows = Tensor(w);
        kernels::Transpose(ckk, w[0], step.weight.data(), w[0], w_rows.data(), ckk);
      }
      step.qconv = std::make_unique<quant::QConvWeights>(quant::PackConvWeights(
          w_rows, step.bias, spec.in_q, spec.w_scales, out[1], out[2]));
      step.qlinear.reset();
      ++applied;
    } else if (step.kind == OpKind::kLinear && step.skip < 0 && spec.kind == "linear" &&
               w.Rank() == 2 && static_cast<int64_t>(spec.w_scales.size()) == w[1]) {
      step.qlinear = std::make_unique<quant::QLinearWeights>(
          quant::PackLinearWeights(step.weight, step.bias, spec.in_q, spec.w_scales));
      step.qconv.reset();
      ++applied;
    }
  }
  num_quantized_steps_ = 0;
  for (const Step& step : steps_) {
    num_quantized_steps_ += step.quantized() ? 1 : 0;
  }
  if (applied > 0) {
    // Cached bindings pinned f32 solvers; rebuild them lazily, re-resolve the
    // plan annotations at the new dtypes, and re-lint the plan.
    bindings_.clear();
    AnnotateSolvers();
    MaybeVerifyPlan();
  }
  return applied;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

FusedEngine::Binding& FusedEngine::BindingFor(int64_t batch) {
  auto it = bindings_.find(batch);
  if (it != bindings_.end()) {
    return *it->second;
  }
  auto bind = std::make_unique<Binding>();
  bind->buffers.reserve(buffers_.size());
  for (const Buffer& b : buffers_) {
    bind->buffers.push_back(Tensor::Zeros(Shape{batch * b.elems_per_sample}));
  }
  bind->values.resize(values_.size());
  for (size_t v = 1; v < values_.size(); ++v) {
    const Value& val = values_[v];
    if (val.alias_of == 0) {
      continue;  // views of the input: rebound by every Run()
    }
    // Alias roots have smaller ids, so they are bound already.
    const Tensor& storage = val.alias_of > 0 ? bind->values[static_cast<size_t>(val.alias_of)]
                                             : bind->buffers[static_cast<size_t>(val.buffer)];
    bind->values[v] = storage.Reshape(val.shape.WithBatch(batch));
  }
  // Pin every conv, linear and pool step's solver once per (plan, batch):
  // linear m, pool planes and narrow conv m scale with the batch, so the
  // descriptor — and with it the tuned winner — can differ between bindings.
  // Steady-state Run() then never touches the registry or the tuning DB.
  bind->pins.reserve(steps_.size());
  for (const Step& step : steps_) {
    bind->pins.push_back(PinStep(step, batch));
  }
  Binding& ref = *bind;
  bindings_.emplace(batch, std::move(bind));
  return ref;
}

std::vector<Tensor> FusedEngine::Run(const Tensor& input) {
  obs::TraceSpan span("engine/run", obs::TraceCat::kEngine);
  GMORPH_CHECK(input.shape().Rank() >= 1, "FusedEngine::Run needs a batched input");
  const int64_t batch = input.shape()[0];
  Binding& bind = BindingFor(batch);
  bind.values[0] = input;
  for (int v : input_aliases_) {
    bind.values[static_cast<size_t>(v)] =
        input.Reshape(values_[static_cast<size_t>(v)].shape.WithBatch(batch));
  }
  ExecGroup(0, bind);
  std::vector<Tensor> outputs;
  outputs.reserve(head_values_.size());
  for (int hv : head_values_) {
    outputs.push_back(bind.values[static_cast<size_t>(hv)]);
  }
  return outputs;
}

void FusedEngine::ExecGroup(int group, Binding& bind) {
  for (int si : groups_[static_cast<size_t>(group)].steps) {
    ExecStep(si, bind);
  }
  const std::vector<int>& kids = groups_[static_cast<size_t>(group)].children;
  if (kids.empty()) {
    return;
  }
  if (options_.branch_parallel && kids.size() > 1 && !InParallelRegion()) {
    // Divergent subtrees touch disjoint buffers (enforced by the coloring
    // rule), so they can run on the pool; kernels inside each branch fall
    // back to serial via the nesting guard.
    ParallelFor(0, static_cast<int64_t>(kids.size()), 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        ExecGroup(kids[static_cast<size_t>(i)], bind);
      }
    });
  } else {
    for (int kid : kids) {
      ExecGroup(kid, bind);
    }
  }
}

void FusedEngine::ExecStep(int seq, Binding& bind) {
  Step& step = steps_[static_cast<size_t>(seq)];
  // Span both feeds the Perfetto trace (when enabled) and accumulates into the
  // per-step profile that Profile()/DumpPlan() report.
  obs::TraceSpan span(step.label, obs::TraceCat::kEngine, &step.seconds);
  // Hardware-counter deltas for the roofline profile; disabled cost is one
  // relaxed atomic load, mirroring the tracer contract.
  obs::PerfStepScope counters(&step.counters);
  ++step.calls;
  const Tensor& in = bind.values[static_cast<size_t>(step.in0)];
  Tensor& out = bind.values[static_cast<size_t>(step.out)];
  const Tensor* skip = step.skip >= 0 ? &bind.values[static_cast<size_t>(step.skip)] : nullptr;
  if (observer_ != nullptr &&
      (step.kind == OpKind::kConv || step.kind == OpKind::kLinear)) {
    observer_->Observe(seq, in.data(), in.size());
  }
  const Pin& pin = bind.pins[static_cast<size_t>(seq)];
  switch (step.kind) {
    case OpKind::kConv:
      if (step.qconv != nullptr) {
        quant::QConv2dForwardInto(in, *step.qconv, step.conv_args, out, skip,
                                  step.act == Activation::kRelu, pin.qgemm);
      } else if (step.narrow) {
        NarrowConv2dForwardInto(in, step.weight, step.weight_shape[2], step.bias,
                                step.conv_args, out, skip, step.act == Activation::kRelu,
                                pin.gemm);
      } else {
        Conv2dForwardInto(in, step.weight, step.bias, step.conv_args, out, skip,
                          step.act == Activation::kRelu, pin.gemm);
      }
      break;
    case OpKind::kLinear:
      if (step.qlinear != nullptr) {
        quant::QLinearForwardInto(in, *step.qlinear, out, step.act, pin.qgemm);
      } else {
        LinearForwardInto(in, step.weight, step.bias, out, step.act, skip, pin.gemm);
      }
      break;
    case OpKind::kMaxPool:
      MaxPool2dForwardInto(in, step.pool_kernel, step.pool_stride, out, pin.pool);
      break;
    case OpKind::kGlobalAvgPool:
      GlobalAvgPoolForwardInto(in, out);
      break;
    case OpKind::kMeanPoolTokens:
      MeanPoolTokensForwardInto(in, out);
      break;
    case OpKind::kBilinearResize:
      BilinearResizeForwardInto(in, out);
      break;
    case OpKind::kTokenResize:
      LinearResizeTokensForwardInto(in, out);
      break;
    case OpKind::kLayerNorm:
      LayerNormForwardInto(in, step.weight, step.bias, step.eps, out);
      break;
    case OpKind::kAttention:
      AttentionForwardInto(in, step.heads, out);
      break;
    case OpKind::kPatchTokens:
      PatchTokensForwardInto(in, step.weight, out);
      break;
    case OpKind::kEmbedding:
      TokenEmbeddingForwardInto(in, step.weight, step.bias, out);
      break;
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

void FusedEngine::StepCostPerSample(const Step& step, double* flops, double* bytes) const {
  *flops = 0.0;
  *bytes = 0.0;
  const auto elems = [&](int value) {
    return value < 0 ? 0.0
                     : static_cast<double>(
                           values_[static_cast<size_t>(value)].shape.NumElements());
  };
  const double in_elems = elems(step.in0);
  const double out_elems = elems(step.out);
  // Int8 steps read s8 weights; their activations stay f32 in memory.
  const double weight_bytes = step.quantized() ? 1.0 : 4.0;
  switch (step.kind) {
    case OpKind::kConv: {
      const Shape& w = step.weight_shape;
      const double weight_elems = static_cast<double>(w.NumElements());
      // The conv GEMM per sample: 2 * O * (C*KH*KW) * (OH*OW), plus the fused
      // epilogue (bias/skip/relu) at one op per output element.
      *flops = 2.0 * static_cast<double>(w[0] * w[1] * w[2] * w[3]) * (out_elems / w[0]) +
               out_elems * (step.skip >= 0 ? 2.0 : 1.0);
      *bytes = 4.0 * (in_elems + out_elems + elems(step.skip)) + weight_bytes * weight_elems +
               4.0 * static_cast<double>(step.bias.size());
      break;
    }
    case OpKind::kLinear: {
      const Shape& w = step.weight.shape();
      const double rows = w[0] > 0 ? in_elems / static_cast<double>(w[0]) : 0.0;
      // GEMM plus the epilogue: bias, skip add, and ~8 ops per GELU.
      const double epilogue = 1.0 + (step.skip >= 0 ? 1.0 : 0.0) +
                              (step.act == Activation::kGelu ? 8.0 : 0.0);
      *flops = 2.0 * rows * static_cast<double>(w[0] * w[1]) + epilogue * out_elems;
      *bytes = 4.0 * (in_elems + out_elems + elems(step.skip)) +
               weight_bytes * static_cast<double>(w.NumElements()) +
               4.0 * static_cast<double>(step.bias.size());
      break;
    }
    case OpKind::kMaxPool:
      // One compare per pooled window element.
      *flops = out_elems * static_cast<double>(step.pool_kernel * step.pool_kernel);
      *bytes = 4.0 * (in_elems + out_elems);
      break;
    case OpKind::kGlobalAvgPool:
    case OpKind::kMeanPoolTokens:
      *flops = in_elems;
      *bytes = 4.0 * (in_elems + out_elems);
      break;
    case OpKind::kBilinearResize:
      // 4-tap interpolation: ~8 ops per output element.
      *flops = 8.0 * out_elems;
      *bytes = 4.0 * (in_elems + out_elems);
      break;
    case OpKind::kTokenResize:
      *flops = 4.0 * out_elems;
      *bytes = 4.0 * (in_elems + out_elems);
      break;
    case OpKind::kLayerNorm:
      // Mean, squared deviation, normalize, scale and shift.
      *flops = 7.0 * in_elems;
      *bytes = 4.0 * (in_elems + out_elems + 2.0 * static_cast<double>(step.weight.size()));
      break;
    case OpKind::kAttention: {
      // Per head: QK^T and PV at 2*T*T*hd each, plus ~6 ops per softmax
      // score; summed over heads that is 4*T*T*D + 6*H*T*T.
      const Shape& in = values_[static_cast<size_t>(step.in0)].shape;
      const double t = static_cast<double>(in[0]);
      *flops = 4.0 * t * t * (out_elems / t) + 6.0 * static_cast<double>(step.heads) * t * t;
      *bytes = 4.0 * (in_elems + out_elems);
      break;
    }
    case OpKind::kPatchTokens:
      *flops = out_elems;  // the positional add
      *bytes = 4.0 * (in_elems + 2.0 * out_elems);
      break;
    case OpKind::kEmbedding:
      // One add per element of a gathered row; reads the row, its position
      // and the id.
      *flops = out_elems;
      *bytes = 4.0 * (in_elems + 3.0 * out_elems);
      break;
  }
}

std::vector<FusedEngine::StepProfile> FusedEngine::Profile() const {
  std::vector<StepProfile> out;
  out.reserve(steps_.size());
  for (const Step& s : steps_) {
    StepProfile p;
    p.label = s.label;
    p.solver = s.solver;
    p.node = s.node;
    p.calls = s.calls;
    p.total_ms = s.seconds * 1e3;
    StepCostPerSample(s, &p.flops, &p.bytes);
    p.counters = s.counters;
    out.push_back(std::move(p));
  }
  return out;
}

void FusedEngine::ResetProfile() {
  for (Step& s : steps_) {
    s.calls = 0;
    s.seconds = 0.0;
    s.counters = obs::PerfCounts{};
  }
}

std::string FusedEngine::DumpPlan() const {
  std::ostringstream os;
  os << "plan: " << steps_.size() << " steps, " << values_.size() << " values, "
     << buffers_.size() << " buffers (" << planned_bytes_per_sample()
     << " planned bytes/sample), " << groups_.size() << " groups\n";
  os << "fused convs=" << num_fused_convs_ << " linears=" << num_fused_linears_
     << " eliminated=" << num_eliminated_ << "\n";
  for (size_t i = 0; i < steps_.size(); ++i) {
    const Step& s = steps_[i];
    const Value& out = values_[static_cast<size_t>(s.out)];
    os << "  [" << i << "] g" << s.group << " node" << s.node << " " << s.label << "  v"
       << s.in0;
    if (s.skip >= 0) {
      os << "+v" << s.skip;
    }
    os << " -> v" << s.out << " " << out.shape.ToString();
    if (!s.solver.empty()) {
      os << " solver=" << s.solver;
    }
    if (s.quantized()) {
      os << " int8";
    }
    os << " (buf" << out.buffer << (out.is_head ? ", head" : "") << ")\n";
  }
  for (size_t v = 0; v < values_.size(); ++v) {
    if (values_[v].alias_of >= 0) {
      os << "  alias v" << v << " -> v" << values_[v].alias_of << " "
         << values_[v].shape.ToString() << "\n";
    }
  }
  for (size_t b = 0; b < buffers_.size(); ++b) {
    os << "  buf" << b << ": " << buffers_[b].elems_per_sample << " elems/sample"
       << (buffers_[b].reusable ? "" : " (dedicated)") << ", values";
    for (int v : buffers_[b].values) {
      os << " v" << v;
    }
    os << "\n";
  }
  return os.str();
}

PlanIR FusedEngine::ExportPlan() const {
  PlanIR plan;
  plan.values.reserve(values_.size());
  for (const Value& v : values_) {
    PlanValue pv;
    pv.shape = v.shape;
    pv.alias_of = v.alias_of;
    pv.is_head = v.is_head;
    pv.buffer = v.buffer;
    plan.values.push_back(std::move(pv));
  }
  plan.steps.reserve(steps_.size());
  for (const Step& s : steps_) {
    PlanStep ps;
    switch (s.kind) {
      case OpKind::kConv:
        ps.kind = PlanOp::kConv;
        break;
      case OpKind::kLinear:
        ps.kind = PlanOp::kLinear;
        break;
      case OpKind::kMaxPool:
        ps.kind = PlanOp::kMaxPool;
        break;
      case OpKind::kGlobalAvgPool:
        ps.kind = PlanOp::kGlobalAvgPool;
        break;
      case OpKind::kMeanPoolTokens:
        ps.kind = PlanOp::kMeanPoolTokens;
        break;
      case OpKind::kBilinearResize:
        ps.kind = PlanOp::kBilinearResize;
        break;
      case OpKind::kTokenResize:
        ps.kind = PlanOp::kTokenResize;
        break;
      case OpKind::kLayerNorm:
        ps.kind = PlanOp::kLayerNorm;
        break;
      case OpKind::kAttention:
        ps.kind = PlanOp::kAttention;
        break;
      case OpKind::kPatchTokens:
        ps.kind = PlanOp::kPatchTokens;
        break;
      case OpKind::kEmbedding:
        ps.kind = PlanOp::kEmbedding;
        break;
    }
    ps.node = s.node;
    ps.label = s.label;
    ps.in0 = s.in0;
    ps.skip = s.skip;
    ps.out = s.out;
    ps.group = s.group;
    ps.weight_shape = s.weight_shape;
    ps.stride = s.conv_args.stride;
    ps.padding = s.conv_args.padding;
    ps.act = s.act;
    ps.pool_kernel = s.pool_kernel;
    ps.pool_stride = s.pool_stride;
    ps.heads = s.heads;
    ps.solver = s.solver;
    ps.dtype = s.quantized() ? kernels::DType::kInt8 : kernels::DType::kF32;
    plan.steps.push_back(std::move(ps));
  }
  plan.groups.reserve(groups_.size());
  for (const Group& g : groups_) {
    PlanGroup pg;
    pg.parent = g.parent;
    pg.steps = g.steps;
    pg.children = g.children;
    plan.groups.push_back(std::move(pg));
  }
  plan.buffers.reserve(buffers_.size());
  for (const Buffer& b : buffers_) {
    plan.buffers.push_back(PlanBuffer{b.elems_per_sample, b.reusable});
  }
  plan.head_values = head_values_;
  return plan;
}

}  // namespace gmorph
