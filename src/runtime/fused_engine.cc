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

FusedEngine::FusedEngine(MultiTaskModel* model) : model_(model) {
  const AbsGraph& graph = model_->graph();
  node_value_.assign(static_cast<size_t>(graph.size()), -1);
  plan_.groups.emplace_back();  // group 0: the shared prefix chain
  node_value_[static_cast<size_t>(graph.root())] = NewValue(graph.node(graph.root()).output_shape);

  LowerFrom(graph.root(), 0);
  PlanBuffers();

  for (int t = 0; t < graph.num_tasks(); ++t) {
    const int head = graph.HeadOfTask(t);
    GMORPH_CHECK(head >= 0, "task " << t << " has no head");
    plan_.head_values.push_back(node_value_[static_cast<size_t>(head)]);
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
    const DiagnosticList verdict = RunPlanPasses(plan_, mem);
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
    const int child_group = static_cast<int>(plan_.groups.size());
    plan_.groups.emplace_back();
    plan_.groups[static_cast<size_t>(child_group)].parent = group;
    plan_.groups[static_cast<size_t>(group)].children.push_back(child_group);
    LowerNode(child, child_group);
    LowerFrom(child, child_group);
  }
}

int FusedEngine::NewValue(const Shape& per_sample_shape) {
  PlanValue v;
  v.shape = per_sample_shape;
  plan_.values.push_back(std::move(v));
  return static_cast<int>(plan_.values.size()) - 1;
}

int FusedEngine::NewAlias(int of_value, const Shape& per_sample_shape) {
  const int id = NewValue(per_sample_shape);
  const int root = ResolveAlias(of_value);
  plan_.values[static_cast<size_t>(id)].alias_of = root;
  if (root == 0) {
    input_aliases_.push_back(id);
  }
  return id;
}

int FusedEngine::ResolveAlias(int value) const {
  while (plan_.values[static_cast<size_t>(value)].alias_of >= 0) {
    value = plan_.values[static_cast<size_t>(value)].alias_of;
  }
  return value;
}

void FusedEngine::LowerNode(int node_id, int group) {
  const AbsGraph& graph = model_->graph();
  const AbsNode& node = graph.node(node_id);
  Module* module = model_->module(node_id);
  const int in_value = node_value_[static_cast<size_t>(node.parent)];

  // Appends `s` as one of this node's steps, writing a fresh value of
  // `shape`; returns that value.
  const auto emit = [&](PlanStep s, StepPayload p, const Shape& shape) {
    s.weight_shape = p.weight.shape();
    if (s.kind == PlanOp::kConv && shape[1] * shape[2] < kernels::kWideMinN) {
      // A narrow conv runs pixels x channels (kernels::ConvProblem), with W^T
      // as the GEMM's B operand: transpose once here and keep only W^T.
      const int64_t o = s.weight_shape[0];
      const int64_t ckk = p.weight.size() / o;
      Tensor wt(Shape{ckk, o});
      kernels::Transpose(o, ckk, p.weight.data(), ckk, wt.data(), o);
      p.weight = std::move(wt);
      p.narrow = true;
    }
    s.node = node_id;
    s.group = group;
    s.out = NewValue(shape);
    plan_.groups[static_cast<size_t>(group)].steps.push_back(
        static_cast<int>(plan_.steps.size()));
    plan_.steps.push_back(std::move(s));
    payloads_.push_back(std::move(p));
    return plan_.steps.back().out;
  };
  // A parameterless step from `in` to a value of `shape`.
  const auto simple = [&](PlanOp kind, std::string label, int in, const Shape& shape) {
    PlanStep s;
    s.kind = kind;
    s.in0 = in;
    s.label = std::move(label);
    return emit(std::move(s), StepPayload{}, shape);
  };
  const auto conv_step = [](const Conv2d& conv, int in) {
    PlanStep s;
    s.kind = PlanOp::kConv;
    s.stride = conv.args().stride;
    s.padding = conv.args().padding;
    s.in0 = in;
    return s;
  };
  // Folded-conv step shared by ConvBlock / residual lowering.
  const auto folded_conv = [&](const Conv2d& conv, const BatchNorm2d* bn, bool relu,
                               const char* tag, int in, int skip) {
    PlanStep s = conv_step(conv, in);
    s.act = relu ? Activation::kRelu : Activation::kNone;
    s.skip = skip;
    StepPayload p;
    p.weight = conv.weight().value.Clone();
    p.bias = Tensor::Zeros(Shape{conv.out_channels()});
    if (!conv.bias().value.empty()) {
      for (int64_t o = 0; o < conv.out_channels(); ++o) {
        p.bias.at(o) = conv.bias().value.at(o);
      }
    }
    if (bn != nullptr) {
      FoldBatchNorm(*bn, conv.out_channels(), p.weight, p.bias);
    }
    std::ostringstream label;
    label << tag << " " << conv.in_channels() << "->" << conv.out_channels() << " k"
          << conv.kernel() << "s" << s.stride << (bn ? " +bn" : "") << (relu ? " +relu" : "")
          << (skip >= 0 ? " +skip" : "");
    s.label = label.str();
    ++num_fused_convs_;
    return emit(std::move(s), std::move(p), node.output_shape);
  };
  // Linear step over handles into the live module (they stay in sync with
  // training); bias, residual skip and activation run in its epilogue.
  const auto linear = [&](const Linear& lin, const char* tag, int in, int skip, Activation act,
                          const Shape& shape) {
    PlanStep s;
    s.kind = PlanOp::kLinear;
    s.act = act;
    s.in0 = in;
    s.skip = skip;
    s.label = std::string(tag) + " " + std::to_string(lin.in_features()) + "->" +
              std::to_string(lin.out_features()) + (skip >= 0 ? " +skip" : "") +
              (act == Activation::kRelu ? " +relu" : "") +
              (act == Activation::kGelu ? " +gelu" : "");
    StepPayload p;
    p.weight = lin.weight().value;
    p.bias = lin.bias().value;
    return emit(std::move(s), std::move(p), shape);
  };
  const auto layer_norm = [&](const LayerNorm& ln, int in) {
    PlanStep s;
    s.kind = PlanOp::kLayerNorm;
    s.in0 = in;
    s.label = "layernorm " + std::to_string(ln.dim());
    StepPayload p;
    p.weight = ln.gamma().value;
    p.bias = ln.beta().value;
    p.eps = ln.eps();
    return emit(std::move(s), std::move(p), plan_.values[static_cast<size_t>(in)].shape);
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
      PlanStep s;
      s.kind = PlanOp::kMaxPool;
      s.pool_kernel = node.spec.pool_kernel;
      s.pool_stride = node.spec.pool_stride;
      s.in0 = in_value;
      s.label = "maxpool k" + std::to_string(s.pool_kernel);
      result = emit(std::move(s), StepPayload{}, node.output_shape);
      break;
    }
    case BlockType::kGlobalAvgPool:
      result = simple(PlanOp::kGlobalAvgPool, "gap", in_value, node.output_shape);
      break;
    case BlockType::kMeanPoolTokens:
      result = simple(PlanOp::kMeanPoolTokens, "meanpool", in_value, node.output_shape);
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
      plan_.values[static_cast<size_t>(result)].is_head = true;
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
        if (in_shape.Rank() == 3) {
          result = simple(PlanOp::kBilinearResize,
                          "resize " + std::to_string(out_shape[1]) + "x" +
                              std::to_string(out_shape[2]),
                          result, Shape{in_shape[0], out_shape[1], out_shape[2]});
        } else {
          result = simple(PlanOp::kTokenResize, "tok.resize " + std::to_string(out_shape[0]),
                          result, Shape{out_shape[0], in_shape[1]});
        }
      }
      if (rs->channel_adapter() != nullptr) {
        const Conv2d& conv = *rs->channel_adapter();
        PlanStep s = conv_step(conv, result);
        s.label = "adapter.conv " + std::to_string(conv.in_channels()) + "->" +
                  std::to_string(conv.out_channels());
        StepPayload p;
        p.weight = conv.weight().value;  // handles: 1x1 adapter, no folding
        p.bias = conv.bias().value;
        ++num_fused_convs_;
        result = emit(std::move(s), std::move(p), node.output_shape);
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
      const Shape& image = plan_.values[static_cast<size_t>(in_value)].shape;
      GMORPH_CHECK(image.Rank() == 3);
      PlanStep c = conv_step(conv, in_value);
      c.label = "conv.patch " + std::to_string(conv.in_channels()) + "->" +
                std::to_string(conv.out_channels()) + " k" + std::to_string(conv.kernel()) +
                "s" + std::to_string(c.stride);
      StepPayload cp;
      cp.weight = conv.weight().value;
      cp.bias = conv.bias().value;
      ++num_fused_convs_;
      const Shape grid{conv.out_channels(),
                       ConvOutDim(image[1], conv.kernel(), c.stride, c.padding),
                       ConvOutDim(image[2], conv.kernel(), c.stride, c.padding)};
      PlanStep t;
      t.kind = PlanOp::kPatchTokens;
      t.in0 = emit(std::move(c), std::move(cp), grid);
      t.label = "tokens " + std::to_string(node.output_shape[0]) + "x" +
                std::to_string(node.output_shape[1]) + " +pos";
      StepPayload tp;
      tp.weight = embed->pos().value;
      result = emit(std::move(t), std::move(tp), node.output_shape);
      break;
    }
    case BlockType::kTokenEmbed: {
      auto* embed = dynamic_cast<TokenEmbedding*>(module);
      GMORPH_CHECK(embed != nullptr);
      PlanStep s;
      s.kind = PlanOp::kEmbedding;
      s.in0 = in_value;
      StepPayload p;
      p.weight = embed->table().value;
      p.bias = embed->pos().value;
      s.label = "embed " + std::to_string(p.weight.shape()[0]) + "x" +
                std::to_string(p.weight.shape()[1]) + " +pos";
      result = emit(std::move(s), std::move(p), node.output_shape);
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
      PlanStep a;
      a.kind = PlanOp::kAttention;
      a.heads = attn.num_heads();
      a.in0 = qkv;
      a.label = "attention h" + std::to_string(a.heads) + " t" + std::to_string(tokens[0]);
      const int ctx = emit(std::move(a), StepPayload{}, tokens);
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
    g = plan_.groups[static_cast<size_t>(g)].parent;
  }
  return false;
}

void FusedEngine::PlanBuffers() {
  // Liveness: each root value's def and every read of it (through any alias),
  // as (step seq, group) events.
  std::vector<std::vector<std::pair<int, int>>> events(plan_.values.size());
  std::vector<std::pair<int, int>> def(plan_.values.size(), {-1, 0});
  for (size_t seq = 0; seq < plan_.steps.size(); ++seq) {
    const PlanStep& step = plan_.steps[seq];
    const std::pair<int, int> event(static_cast<int>(seq), step.group);
    def[static_cast<size_t>(step.out)] = event;
    for (int v : {step.out, step.in0, step.skip}) {
      if (v >= 0) {
        events[static_cast<size_t>(ResolveAlias(v))].push_back(event);
      }
    }
  }
  // Values are created in step order, so iterating by id processes defs in
  // a valid execution order. Greedy interval coloring: reuse the first
  // size-matching buffer whose every resident value is fully dead (all events
  // happen-before this def); otherwise open a new buffer.
  std::vector<std::vector<int>> residents;  // per buffer
  for (size_t v = 1; v < plan_.values.size(); ++v) {
    PlanValue& val = plan_.values[v];
    if (val.alias_of >= 0) {
      continue;
    }
    const int64_t elems = val.shape.NumElements();
    if (val.is_head) {
      // Heads get dedicated buffers: returned tensors must survive the rest
      // of the run (and until the caller is done with them).
      val.buffer = static_cast<int>(plan_.buffers.size());
      plan_.buffers.push_back(PlanBuffer{elems, /*reusable=*/false});
      residents.emplace_back();
      continue;
    }
    int chosen = -1;
    for (size_t b = 0; b < plan_.buffers.size() && chosen < 0; ++b) {
      if (!plan_.buffers[b].reusable || plan_.buffers[b].elems_per_sample != elems) {
        continue;
      }
      bool compatible = true;
      for (int w : residents[b]) {
        for (const auto& event : events[static_cast<size_t>(w)]) {
          if (!HappensBefore(event, def[v].first, def[v].second)) {
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
      chosen = static_cast<int>(plan_.buffers.size());
      plan_.buffers.push_back(PlanBuffer{elems, /*reusable=*/true});
      residents.emplace_back();
    }
    residents[static_cast<size_t>(chosen)].push_back(static_cast<int>(v));
    val.buffer = chosen;
  }
}

// ---------------------------------------------------------------------------
// Solver resolution
// ---------------------------------------------------------------------------

int FusedEngine::GroupThreads(int group) const {
  // A group executes inside the branch-parallel ParallelFor iff some fork on
  // its ancestor path has more than one child; kernels there degrade to
  // serial via the nesting guard and must be keyed as threads=1.
  for (int g = group; g > 0;) {
    const int parent = plan_.groups[static_cast<size_t>(g)].parent;
    if (plan_.groups[static_cast<size_t>(parent)].children.size() > 1) {
      return 1;
    }
    g = parent;
  }
  return KernelThreads();
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

FusedEngine::Pin FusedEngine::PinStep(const PlanStep& step, int64_t batch) const {
  Pin pin;
  kernels::ProblemDesc desc;
  if (StepProblem(plan_, step, batch, GroupThreads(step.group), &desc) != StepKernel::kProblem) {
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
  for (PlanStep& step : plan_.steps) {
    step.solver = PinStep(step, /*batch=*/1).name();
  }
}

std::vector<kernels::ProblemDesc> FusedEngine::KernelProblems(int64_t batch) const {
  std::set<kernels::ProblemDesc> dedup;
  for (const PlanStep& step : plan_.steps) {
    kernels::ProblemDesc desc;
    if (StepProblem(plan_, step, batch, GroupThreads(step.group), &desc) ==
        StepKernel::kProblem) {
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
  for (size_t s = 0; s < plan_.steps.size(); ++s) {
    const PlanStep& step = plan_.steps[s];
    const StepPayload& payload = payloads_[s];
    if (step.kind != PlanOp::kConv && step.kind != PlanOp::kLinear) {
      continue;
    }
    if (step.kind == PlanOp::kLinear && step.skip >= 0) {
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
    const float* weight = payload.weight.data();
    if (step.kind == PlanOp::kConv) {
      if (w.Rank() != 4) {
        continue;
      }
      spec.kind = "conv";
      // Conv weights are (O, C, KH, KW): one contiguous row of C*KH*KW taps
      // per output channel, or one column of W^T for a narrow conv.
      const int64_t ckk = w[1] * w[2] * w[3];
      spec.w_scales = payload.narrow ? quant::ColAbsMaxScales(weight, ckk, w[0])
                                     : quant::RowAbsMaxScales(weight, w[0], ckk);
    } else {
      if (w.Rank() != 2) {
        continue;
      }
      spec.kind = "linear";
      // Linear weights are (in, out): output channels run over columns.
      spec.w_scales = quant::ColAbsMaxScales(weight, w[0], w[1]);
    }
    recipe.steps.push_back(std::move(spec));
  }
  return recipe;
}

int FusedEngine::Quantize(const quant::QuantRecipe& recipe) {
  int applied = 0;
  for (const quant::StepQuantSpec& spec : recipe.steps) {
    if (spec.seq < 0 || spec.seq >= static_cast<int64_t>(plan_.steps.size())) {
      continue;
    }
    PlanStep& step = plan_.steps[static_cast<size_t>(spec.seq)];
    StepPayload& payload = payloads_[static_cast<size_t>(spec.seq)];
    const Shape& w = step.weight_shape;
    if (step.kind == PlanOp::kConv && spec.kind == "conv" && w.Rank() == 4 &&
        static_cast<int64_t>(spec.w_scales.size()) == w[0]) {
      const Shape& out = plan_.values[static_cast<size_t>(step.out)].shape;
      // PackConvWeights reads W (O, C, KH, KW): a narrow conv's W^T is
      // transposed back into a temporary.
      Tensor w_rows = payload.weight;
      if (payload.narrow) {
        const int64_t ckk = payload.weight.shape()[0];
        w_rows = Tensor(w);
        kernels::Transpose(ckk, w[0], payload.weight.data(), w[0], w_rows.data(), ckk);
      }
      payload.qconv = std::make_unique<quant::QConvWeights>(quant::PackConvWeights(
          w_rows, payload.bias, spec.in_q, spec.w_scales, out[1], out[2]));
      step.dtype = kernels::DType::kInt8;
      ++applied;
    } else if (step.kind == PlanOp::kLinear && step.skip < 0 && spec.kind == "linear" &&
               w.Rank() == 2 && static_cast<int64_t>(spec.w_scales.size()) == w[1]) {
      payload.qlinear = std::make_unique<quant::QLinearWeights>(
          quant::PackLinearWeights(payload.weight, payload.bias, spec.in_q, spec.w_scales));
      step.dtype = kernels::DType::kInt8;
      ++applied;
    }
  }
  num_quantized_steps_ = 0;
  for (const PlanStep& step : plan_.steps) {
    num_quantized_steps_ += step.dtype == kernels::DType::kInt8 ? 1 : 0;
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
  bind->buffers.reserve(plan_.buffers.size());
  for (const PlanBuffer& b : plan_.buffers) {
    bind->buffers.push_back(Tensor::Zeros(Shape{batch * b.elems_per_sample}));
  }
  bind->values.resize(plan_.values.size());
  for (size_t v = 1; v < plan_.values.size(); ++v) {
    const PlanValue& val = plan_.values[v];
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
  bind->pins.reserve(plan_.steps.size());
  for (const PlanStep& step : plan_.steps) {
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
        input.Reshape(plan_.values[static_cast<size_t>(v)].shape.WithBatch(batch));
  }
  ExecGroup(0, bind);
  std::vector<Tensor> outputs;
  outputs.reserve(plan_.head_values.size());
  for (int hv : plan_.head_values) {
    outputs.push_back(bind.values[static_cast<size_t>(hv)]);
  }
  return outputs;
}

void FusedEngine::ExecGroup(int group, Binding& bind) {
  const PlanGroup& g = plan_.groups[static_cast<size_t>(group)];
  for (int si : g.steps) {
    ExecStep(si, bind);
  }
  const std::vector<int>& kids = g.children;
  if (kids.empty()) {
    return;
  }
  if (kids.size() > 1 && !InParallelRegion()) {
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
  const PlanStep& step = plan_.steps[static_cast<size_t>(seq)];
  StepPayload& p = payloads_[static_cast<size_t>(seq)];
  // Span both feeds the Perfetto trace (when enabled) and accumulates into the
  // per-step profile that Profile() reports.
  obs::TraceSpan span(step.label, obs::TraceCat::kEngine, &p.seconds);
  // Hardware-counter deltas for the roofline profile; disabled cost is one
  // relaxed atomic load, mirroring the tracer contract.
  obs::PerfStepScope counters(&p.counters);
  ++p.calls;
  const Tensor& in = bind.values[static_cast<size_t>(step.in0)];
  Tensor& out = bind.values[static_cast<size_t>(step.out)];
  const Tensor* skip = step.skip >= 0 ? &bind.values[static_cast<size_t>(step.skip)] : nullptr;
  if (observer_ != nullptr &&
      (step.kind == PlanOp::kConv || step.kind == PlanOp::kLinear)) {
    observer_->Observe(seq, in.data(), in.size());
  }
  const Pin& pin = bind.pins[static_cast<size_t>(seq)];
  switch (step.kind) {
    case PlanOp::kConv: {
      const Conv2dArgs args{step.stride, step.padding};
      const bool relu = step.act == Activation::kRelu;
      if (p.qconv != nullptr) {
        quant::QConv2dForwardInto(in, *p.qconv, args, out, skip, relu, pin.qgemm);
      } else if (p.narrow) {
        NarrowConv2dForwardInto(in, p.weight, step.weight_shape[2], p.bias, args, out, skip,
                                relu, pin.gemm);
      } else {
        Conv2dForwardInto(in, p.weight, p.bias, args, out, skip, relu, pin.gemm);
      }
      break;
    }
    case PlanOp::kLinear:
      if (p.qlinear != nullptr) {
        quant::QLinearForwardInto(in, *p.qlinear, out, step.act, pin.qgemm);
      } else {
        LinearForwardInto(in, p.weight, p.bias, out, step.act, skip, pin.gemm);
      }
      break;
    case PlanOp::kMaxPool:
      MaxPool2dForwardInto(in, step.pool_kernel, step.pool_stride, out, pin.pool);
      break;
    case PlanOp::kGlobalAvgPool:
      GlobalAvgPoolForwardInto(in, out);
      break;
    case PlanOp::kMeanPoolTokens:
      MeanPoolTokensForwardInto(in, out);
      break;
    case PlanOp::kBilinearResize:
      BilinearResizeForwardInto(in, out);
      break;
    case PlanOp::kTokenResize:
      LinearResizeTokensForwardInto(in, out);
      break;
    case PlanOp::kLayerNorm:
      LayerNormForwardInto(in, p.weight, p.bias, p.eps, out);
      break;
    case PlanOp::kAttention:
      AttentionForwardInto(in, step.heads, out);
      break;
    case PlanOp::kPatchTokens:
      PatchTokensForwardInto(in, p.weight, out);
      break;
    case PlanOp::kEmbedding:
      TokenEmbeddingForwardInto(in, p.weight, p.bias, out);
      break;
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

void FusedEngine::StepCostPerSample(int seq, double* flops, double* bytes) const {
  const PlanStep& step = plan_.steps[static_cast<size_t>(seq)];
  const double bias_elems = static_cast<double>(payloads_[static_cast<size_t>(seq)].bias.size());
  *flops = 0.0;
  *bytes = 0.0;
  const auto elems = [&](int value) {
    return value < 0 ? 0.0
                     : static_cast<double>(
                           plan_.values[static_cast<size_t>(value)].shape.NumElements());
  };
  const double in_elems = elems(step.in0);
  const double out_elems = elems(step.out);
  // Int8 steps read s8 weights; their activations stay f32 in memory.
  const double weight_bytes = step.dtype == kernels::DType::kInt8 ? 1.0 : 4.0;
  switch (step.kind) {
    case PlanOp::kConv: {
      const Shape& w = step.weight_shape;
      const double weight_elems = static_cast<double>(w.NumElements());
      // The conv GEMM per sample: 2 * O * (C*KH*KW) * (OH*OW), plus the fused
      // epilogue (bias/skip/relu) at one op per output element.
      *flops = 2.0 * static_cast<double>(w[0] * w[1] * w[2] * w[3]) * (out_elems / w[0]) +
               out_elems * (step.skip >= 0 ? 2.0 : 1.0);
      *bytes = 4.0 * (in_elems + out_elems + elems(step.skip)) + weight_bytes * weight_elems +
               4.0 * bias_elems;
      break;
    }
    case PlanOp::kLinear: {
      const Shape& w = step.weight_shape;
      const double rows = w[0] > 0 ? in_elems / static_cast<double>(w[0]) : 0.0;
      // GEMM plus the epilogue: bias, skip add, and ~8 ops per GELU.
      const double epilogue = 1.0 + (step.skip >= 0 ? 1.0 : 0.0) +
                              (step.act == Activation::kGelu ? 8.0 : 0.0);
      *flops = 2.0 * rows * static_cast<double>(w[0] * w[1]) + epilogue * out_elems;
      *bytes = 4.0 * (in_elems + out_elems + elems(step.skip)) +
               weight_bytes * static_cast<double>(w.NumElements()) + 4.0 * bias_elems;
      break;
    }
    case PlanOp::kMaxPool:
      // One compare per pooled window element.
      *flops = out_elems * static_cast<double>(step.pool_kernel * step.pool_kernel);
      *bytes = 4.0 * (in_elems + out_elems);
      break;
    case PlanOp::kGlobalAvgPool:
    case PlanOp::kMeanPoolTokens:
      *flops = in_elems;
      *bytes = 4.0 * (in_elems + out_elems);
      break;
    case PlanOp::kBilinearResize:
      // 4-tap interpolation: ~8 ops per output element.
      *flops = 8.0 * out_elems;
      *bytes = 4.0 * (in_elems + out_elems);
      break;
    case PlanOp::kTokenResize:
      *flops = 4.0 * out_elems;
      *bytes = 4.0 * (in_elems + out_elems);
      break;
    case PlanOp::kLayerNorm:
      // Mean, squared deviation, normalize, scale and shift.
      *flops = 7.0 * in_elems;
      *bytes = 4.0 * (in_elems + out_elems +
                      2.0 * static_cast<double>(step.weight_shape.NumElements()));
      break;
    case PlanOp::kAttention: {
      // Per head: QK^T and PV at 2*T*T*hd each, plus ~6 ops per softmax
      // score; summed over heads that is 4*T*T*D + 6*H*T*T.
      const Shape& in = plan_.values[static_cast<size_t>(step.in0)].shape;
      const double t = static_cast<double>(in[0]);
      *flops = 4.0 * t * t * (out_elems / t) + 6.0 * static_cast<double>(step.heads) * t * t;
      *bytes = 4.0 * (in_elems + out_elems);
      break;
    }
    case PlanOp::kPatchTokens:
      *flops = out_elems;  // the positional add
      *bytes = 4.0 * (in_elems + 2.0 * out_elems);
      break;
    case PlanOp::kEmbedding:
      // One add per element of a gathered row; reads the row, its position
      // and the id.
      *flops = out_elems;
      *bytes = 4.0 * (in_elems + 3.0 * out_elems);
      break;
  }
}

std::vector<FusedEngine::StepProfile> FusedEngine::Profile() const {
  std::vector<StepProfile> out;
  out.reserve(plan_.steps.size());
  for (size_t seq = 0; seq < plan_.steps.size(); ++seq) {
    const PlanStep& s = plan_.steps[seq];
    const StepPayload& p = payloads_[seq];
    StepProfile prof;
    prof.label = s.label;
    prof.solver = s.solver;
    prof.node = s.node;
    prof.calls = p.calls;
    prof.total_ms = p.seconds * 1e3;
    StepCostPerSample(static_cast<int>(seq), &prof.flops, &prof.bytes);
    prof.counters = p.counters;
    out.push_back(std::move(prof));
  }
  return out;
}

void FusedEngine::ResetProfile() {
  for (StepPayload& p : payloads_) {
    p.calls = 0;
    p.seconds = 0.0;
    p.counters = obs::PerfCounts{};
  }
}

}  // namespace gmorph
