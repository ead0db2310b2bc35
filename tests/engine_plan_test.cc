// Tests for the FusedEngine execution planner: eager/fused parity across the
// model zoo and mutated graphs, bitwise determinism, branch-parallel
// scheduling (CNN and transformer bundles), full lowering with costed steps,
// batched rows against single-sample runs (bit for bit on B1's fused plan),
// solvers pinned per binding, and the zero-allocation steady state of the
// static memory plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>

#include "src/analysis/plan_io.h"
#include "src/common/parallel_for.h"
#include "src/core/model_parser.h"
#include "src/core/mutation.h"
#include "src/data/benchmarks.h"
#include "src/kernels/registry.h"
#include "src/kernels/scratch.h"
#include "src/kernels/tune_db.h"
#include "src/models/zoo.h"
#include "src/obs/metrics.h"
#include "src/runtime/engine.h"
#include "src/runtime/fused_engine.h"
#include "tests/test_util.h"

namespace gmorph {
namespace {

// Gaussian images for vision models, integer token ids for BERT.
Tensor InputFor(const Shape& per_sample, int64_t batch, Rng& rng) {
  const Shape shape = per_sample.WithBatch(batch);
  if (per_sample.Rank() == 1) {
    Tensor x = Tensor::Zeros(shape);
    for (int64_t i = 0; i < x.size(); ++i) {
      x.at(i) = std::floor(rng.NextDouble() * 8.0);
    }
    return x;
  }
  return Tensor::RandomGaussian(shape, rng);
}

Tensor InputFor(const ModelSpec& spec, int64_t batch, Rng& rng) {
  return InputFor(spec.input_shape, batch, rng);
}

struct ZooCase {
  std::string name;
  ModelSpec spec;
};

std::vector<ZooCase> ZooCases() {
  VisionModelOptions v;
  v.base_width = 4;
  v.classes = 3;
  TransformerModelOptions vit = ViTBaseOptions();
  vit.classes = 3;
  TransformerModelOptions bert = BertBaseOptions();
  bert.classes = 2;
  return {
      {"vgg11", MakeVgg11(v)},       {"vgg13", MakeVgg13(v)},
      {"vgg16", MakeVgg16(v)},       {"resnet18", MakeResNet18(v)},
      {"resnet34", MakeResNet34(v)}, {"vit", MakeViT("vit", vit)},
      {"bert", MakeBert("bert", bert)},
  };
}

class EngineZooParity : public ::testing::TestWithParam<ZooCase> {};

TEST_P(EngineZooParity, FusedMatchesEager) {
  const ZooCase& c = GetParam();
  Rng rng(11);
  AbsGraph g = ParseModelSpecs({c.spec});
  MultiTaskModel model(g, rng);
  auto eager = MakeEngine(EngineKind::kEager, &model);
  auto fused = MakeEngine(EngineKind::kFused, &model);
  const Tensor x = InputFor(c.spec, /*batch=*/2, rng);
  std::vector<Tensor> eager_out = eager->Run(x);
  std::vector<Tensor> fused_out = fused->Run(x);
  ASSERT_EQ(eager_out.size(), fused_out.size());
  for (size_t t = 0; t < eager_out.size(); ++t) {
    EXPECT_LT(testing::MaxDiff(eager_out[t], fused_out[t]), 1e-4f) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllZoo, EngineZooParity, ::testing::ValuesIn(ZooCases()),
                         [](const ::testing::TestParamInfo<ZooCase>& info) {
                           return info.param.name;
                         });

TEST(EnginePlanTest, ResidualBlocksLowerFully) {
  Rng rng(12);
  VisionModelOptions opts;
  opts.base_width = 4;
  AbsGraph g = ParseModelSpecs({MakeResNet18(opts)});
  MultiTaskModel model(g, rng);
  FusedEngine fused(&model);
  // Every convolution — stem, both block convs, projection shortcuts — is
  // folded into a plan step; no residual block falls back to Module::Forward.
  EXPECT_EQ(fused.num_fallback_modules(), 0);
  EXPECT_GT(fused.num_fused_convs(), 16);  // 1 stem + 8 blocks * 2 + projections
}

TEST(EnginePlanTest, IdentityRescaleBecomesAlias) {
  Rng rng(13);
  VisionModelOptions opts;
  opts.base_width = 4;
  // Splice an identity rescale (equal in/out shapes) into a VGG chain — the
  // planner must lower it to a buffer alias, not a copy step, and downstream
  // blocks must read through the alias.
  AbsGraph g = ParseModelSpecs({MakeVgg11(opts), MakeVgg11(opts)});
  const int first = g.node(g.root()).children[0];
  const int second = g.node(first).children[0];
  const AbsNode& first_node = g.node(first);
  const int rescale = g.AddNode(first, first_node.task_id, first_node.op_id,
                                RescaleSpec(first_node.output_shape, first_node.output_shape));
  g.Reparent(second, rescale);
  g.Validate();
  MultiTaskModel model(g, rng);
  FusedEngine fused(&model);
  EXPECT_GE(fused.num_eliminated(), 1);

  EagerEngine eager(&model);
  const Tensor x = Tensor::RandomGaussian(Shape{2, 3, 32, 32}, rng);
  std::vector<Tensor> eager_out = eager.Run(x);
  std::vector<Tensor> fused_out = fused.Run(x);
  ASSERT_EQ(eager_out.size(), fused_out.size());
  for (size_t t = 0; t < eager_out.size(); ++t) {
    EXPECT_LT(testing::MaxDiff(eager_out[t], fused_out[t]), 1e-4f);
  }
}

TEST(EnginePlanTest, MutatedGraphWithRescalesMatchesEager) {
  Rng rng(14);
  VisionModelOptions narrow;
  narrow.base_width = 4;
  VisionModelOptions wide;
  wide.base_width = 8;
  // Mixed-width bundle so sampled mutations insert non-identity rescale
  // adapters (channel/spatial mismatches) alongside residual blocks.
  AbsGraph base = ParseModelSpecs({MakeVgg11(narrow), MakeResNet18(wide)});
  std::optional<AbsGraph> mutated = SampleMutatePass(base, 3, ShapeSimilarity::kAny, rng);
  ASSERT_TRUE(mutated.has_value());
  MultiTaskModel model(*mutated, rng);
  auto eager = MakeEngine(EngineKind::kEager, &model);
  auto fused = MakeEngine(EngineKind::kFused, &model);
  const Tensor x = Tensor::RandomGaussian(Shape{2, 3, 32, 32}, rng);
  std::vector<Tensor> eager_out = eager->Run(x);
  std::vector<Tensor> fused_out = fused->Run(x);
  ASSERT_EQ(eager_out.size(), fused_out.size());
  for (size_t t = 0; t < eager_out.size(); ++t) {
    EXPECT_LT(testing::MaxDiff(eager_out[t], fused_out[t]), 1e-4f);
  }
}

// Two-task transformer bundles (B6/B7 style: a base and a large encoder on
// one input), whose per-task subtrees fork into parallel branches that run
// LayerNorm, attention and the epilogue-fused linears.
std::vector<std::vector<ModelSpec>> TransformerBundles() {
  TransformerModelOptions vit_base = ViTBaseOptions();
  TransformerModelOptions vit_large = ViTLargeOptions();
  TransformerModelOptions bert_base = BertBaseOptions();
  TransformerModelOptions bert_large = BertLargeOptions();
  return {{MakeViT("vit-l", vit_large), MakeViT("vit-b", vit_base)},
          {MakeBert("bert-l", bert_large), MakeBert("bert-b", bert_base)}};
}

TEST(EnginePlanTest, BranchParallelMatchesSerialBitwise) {
  VisionModelOptions opts;
  opts.base_width = 4;
  std::vector<std::vector<ModelSpec>> bundles = TransformerBundles();
  bundles.insert(bundles.begin(), {MakeVgg11(opts), MakeVgg13(opts), MakeResNet18(opts)});
  for (const std::vector<ModelSpec>& specs : bundles) {
    Rng rng(15);
    AbsGraph g = ParseModelSpecs(specs);
    MultiTaskModel model(g, rng);
    FusedEngine parallel_engine(&model);
    FusedEngine serial_engine(&model);
    const Tensor x = InputFor(specs[0], /*batch=*/2, rng);
    std::vector<Tensor> par = parallel_engine.Run(x);
    std::vector<Tensor> ser;
    {
      // Nested in a parallel region, Run() forks no branch: it runs them in
      // order, and every kernel serially.
      ParallelRegionGuard serial;
      ser = serial_engine.Run(x);
    }
    ASSERT_EQ(par.size(), ser.size());
    for (size_t t = 0; t < par.size(); ++t) {
      EXPECT_EQ(testing::MaxDiff(par[t], ser[t]), 0.0f) << specs[0].name;
    }
  }
}

TEST(EnginePlanDeterminismTest, RunIsBitwiseStableAcrossCallsAndThreadCounts) {
  VisionModelOptions opts;
  opts.base_width = 4;
  std::vector<std::vector<ModelSpec>> bundles = TransformerBundles();
  bundles.insert(bundles.begin(), {MakeVgg11(opts), MakeResNet18(opts)});
  const int restore_threads = KernelThreads();
  for (const std::vector<ModelSpec>& specs : bundles) {
    Rng rng(16);
    AbsGraph g = ParseModelSpecs(specs);
    MultiTaskModel model(g, rng);
    FusedEngine fused(&model);
    const Tensor x = InputFor(specs[0], /*batch=*/3, rng);

    std::vector<Tensor> baseline;
    for (int threads : {1, 2, 4}) {
      SetKernelThreads(threads);
      for (int repeat = 0; repeat < 2; ++repeat) {
        std::vector<Tensor> out = fused.Run(x);
        if (baseline.empty()) {
          for (Tensor& t : out) {
            baseline.push_back(t.Clone());  // outputs alias engine buffers
          }
          continue;
        }
        ASSERT_EQ(out.size(), baseline.size());
        for (size_t t = 0; t < out.size(); ++t) {
          EXPECT_EQ(testing::MaxDiff(out[t], baseline[t]), 0.0f)
              << specs[0].name << " threads=" << threads << " repeat=" << repeat;
        }
      }
    }
  }
  SetKernelThreads(restore_threads);
}

TEST(EnginePlanTest, EveryZooModelLowersIntoCostedSteps) {
  for (const ZooCase& c : ZooCases()) {
    Rng rng(19);
    AbsGraph g = ParseModelSpecs({c.spec});
    MultiTaskModel model(g, rng);
    FusedEngine fused(&model);
    EXPECT_EQ(fused.num_fallback_modules(), 0) << c.name;
    fused.Run(InputFor(c.spec, /*batch=*/1, rng));
    // Every step carries a cost model, so the roofline report has no opaque
    // rows; transformer blocks show up as their lowered steps.
    int attention_steps = 0;
    for (const FusedEngine::StepProfile& step : fused.Profile()) {
      EXPECT_GT(step.flops, 0.0) << c.name << " " << step.label;
      EXPECT_GT(step.bytes, 0.0) << c.name << " " << step.label;
      attention_steps += step.label.rfind("attention", 0) == 0 ? 1 : 0;
    }
    int blocks = 0;
    for (const BlockSpec& block : c.spec.blocks) {
      blocks += block.type == BlockType::kTransformer ? 1 : 0;
    }
    EXPECT_EQ(attention_steps, blocks) << c.name;
  }
}

TEST(EnginePlanTest, TransformerSteadyStateAllocatesNothing) {
  for (const std::vector<ModelSpec>& specs : TransformerBundles()) {
    Rng rng(20);
    AbsGraph g = ParseModelSpecs(specs);
    MultiTaskModel model(g, rng);
    FusedEngine fused(&model);
    const Tensor x1 = InputFor(specs[0], /*batch=*/1, rng);
    const Tensor x4 = InputFor(specs[0], /*batch=*/4, rng);
    // f32 first, then the same plan after int8 quantization: once each batch
    // size is bound (and the scratch arena has grown to the widest step),
    // Run() touches neither the tensor allocator nor the arena's heap.
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) {
        ASSERT_GT(fused.Quantize(fused.Calibrate({x4})), 0) << specs[0].name;
      }
      fused.Run(x1);
      fused.Run(x4);
      const int64_t tensor_bytes = Tensor::TotalAllocatedBytes();
      const int64_t scratch_bytes = ScratchArena::TotalHeapBytes();
      for (int i = 0; i < 3; ++i) {
        fused.Run(x1);
        fused.Run(x4);
      }
      EXPECT_EQ(Tensor::TotalAllocatedBytes(), tensor_bytes) << specs[0].name << " pass " << pass;
      EXPECT_EQ(ScratchArena::TotalHeapBytes(), scratch_bytes)
          << specs[0].name << " pass " << pass;
    }
  }
}

TEST(EnginePlanTest, SteadyStateRunAllocatesNoTensorStorage) {
  Rng rng(17);
  VisionModelOptions opts;
  opts.base_width = 4;
  // Fully-lowerable bundle (convs, pools, flatten, linears — no fallbacks):
  // after the first Run binds each batch size, Run must touch neither the
  // tensor allocator nor the scratch arena's heap again. The 4x4 and 2x2
  // convs run one pixels x channels GEMM over the batch, whose row and
  // result matrices come from the scratch arena.
  AbsGraph g = ParseModelSpecs({MakeVgg11(opts), MakeVgg13(opts)});
  MultiTaskModel model(g, rng);
  FusedEngine fused(&model);
  EXPECT_EQ(fused.num_fallback_modules(), 0);

  const Tensor x1 = Tensor::RandomGaussian(Shape{1, 3, 32, 32}, rng);
  const Tensor x4 = Tensor::RandomGaussian(Shape{4, 3, 32, 32}, rng);
  const int64_t unbound = Tensor::TotalAllocatedBytes();
  fused.Run(x1);  // first sight of each batch size allocates its binding
  fused.Run(x4);
  EXPECT_GT(Tensor::TotalAllocatedBytes(), unbound);

  const int64_t bound = Tensor::TotalAllocatedBytes();
  const int64_t scratch_bytes = ScratchArena::TotalHeapBytes();
  for (int i = 0; i < 3; ++i) {
    fused.Run(x1);
    fused.Run(x4);
  }
  EXPECT_EQ(Tensor::TotalAllocatedBytes(), bound);
  EXPECT_EQ(ScratchArena::TotalHeapBytes(), scratch_bytes);
}

// Installs an empty global tuning DB for the test's lifetime, so every
// registry resolution counts as a miss, and restores the untuned state.
class EmptyTuneDbScope {
 public:
  EmptyTuneDbScope() { kernels::SetGlobalTuneDb(std::make_shared<kernels::TuneDb>()); }
  ~EmptyTuneDbScope() { kernels::SetGlobalTuneDb(nullptr); }
};

TEST(EnginePlanTest, SteadyStateRunResolvesNoSolvers) {
  ASSERT_EQ(kernels::GlobalTuneDb(), nullptr);  // the state the scope restores
  const EmptyTuneDbScope db_scope;
  const obs::Counter& hits = obs::GetCounter("kernels.resolve_db_hits");
  const obs::Counter& misses = obs::GetCounter("kernels.resolve_heuristic");
  const auto resolutions = [&] { return hits.Value() + misses.Value(); };

  VisionModelOptions opts;
  opts.base_width = 4;
  const std::vector<std::vector<ModelSpec>> bundles = {
      {MakeVgg11(opts), MakeResNet18(opts)}, TransformerBundles()[0]};
  for (const std::vector<ModelSpec>& specs : bundles) {
    Rng rng(21);
    AbsGraph g = ParseModelSpecs(specs);
    MultiTaskModel model(g, rng);
    FusedEngine fused(&model);
    const Tensor x1 = InputFor(specs[0], /*batch=*/1, rng);
    const Tensor x8 = InputFor(specs[0], /*batch=*/8, rng);
    // f32, then the same plan after int8 quantization: binding a batch size
    // pins every conv, linear and pool solver, so later runs at either size
    // never consult the registry.
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) {
        ASSERT_GT(fused.Quantize(fused.Calibrate({x8})), 0) << specs[0].name;
      }
      fused.Run(x1);
      fused.Run(x8);
      const int64_t bound = resolutions();
      for (int i = 0; i < 2; ++i) {
        fused.Run(x1);
        fused.Run(x8);
      }
      EXPECT_EQ(resolutions(), bound) << specs[0].name << " pass " << pass;
    }
  }

  // KernelProblems reports what a binding pins: each conv too narrow for the
  // wide GEMM tile (OH*OW < kWideMinN) runs one pixels x channels GEMM over
  // the batch, m = b*OH*OW, k = C*KH*KW, n = O, at batch 1 as at batch 8, and
  // never the per-sample m = O, n = OH*OW form. The exported plan, and its
  // text, still carry the conv's logical w=[O,C,KH,KW].
  Rng rng(22);
  AbsGraph g = ParseModelSpecs({MakeVgg11(opts)});
  MultiTaskModel model(g, rng);
  const FusedEngine fused(&model);
  const PlanIR plan = fused.ExportPlan();
  std::ostringstream text;
  PlanToText(plan, text);
  const auto lists = [&](int64_t batch, int64_t m, int64_t k, int64_t n) {
    const std::vector<kernels::ProblemDesc> descs = fused.KernelProblems(batch);
    return std::any_of(descs.begin(), descs.end(), [&](const kernels::ProblemDesc& d) {
      return d.op == kernels::OpFamily::kGemmNN && d.dtype == kernels::DType::kF32 &&
             d.m == m && d.k == k && d.n == n;
    });
  };
  int narrow_convs = 0;
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const PlanStep& step = plan.steps[s];
    const Shape& out = plan.values[static_cast<size_t>(step.out)].shape;
    if (step.kind != PlanOp::kConv || out[1] * out[2] >= kernels::kWideMinN) {
      continue;
    }
    ++narrow_convs;
    const Shape& w = step.weight_shape;
    ASSERT_EQ(w.Rank(), 4) << step.label;
    EXPECT_EQ(w[0], out[0]) << step.label;
    const int64_t spatial = out[1] * out[2];
    const int64_t ckk = w[1] * w[2] * w[3];
    for (const int64_t b : {1, 8}) {
      EXPECT_TRUE(lists(b, b * spatial, ckk, w[0])) << step.label << " batch " << b;
      EXPECT_FALSE(lists(b, w[0], ckk, spatial)) << step.label << " batch " << b;
    }
    const std::string token = " w=" + std::to_string(w[0]) + "x" + std::to_string(w[1]) + "x" +
                              std::to_string(w[2]) + "x" + std::to_string(w[3]) + " ";
    const std::string line = "step " + std::to_string(s) + " ";
    const size_t at = text.str().find(line);
    ASSERT_NE(at, std::string::npos);
    EXPECT_NE(text.str().substr(at, text.str().find('\n', at) - at).find(token),
              std::string::npos)
        << step.label;
  }
  EXPECT_GE(narrow_convs, 2);  // VGG-11 at 32x32 runs convs at 4x4 and 2x2
}

// Every row of a batch-8 Run() against a batch-1 Run() of that row. Batch 8
// batches the linears and the narrow convs' GEMMs, which may change a
// solver, and with it the summation order, but nothing else.
TEST(EnginePlanTest, BatchedRowsMatchSingleSampleRuns) {
  std::vector<std::pair<std::string, AbsGraph>> graphs;
  for (const ZooCase& c : ZooCases()) {
    if (c.name != "vit" && c.name != "bert") {  // the five CNNs
      graphs.emplace_back(c.name, ParseModelSpecs({c.spec}));
    }
  }
  {
    BenchmarkScale scale;
    scale.train_size = 8;
    scale.test_size = 8;
    const BenchmarkDef b1 = MakeBenchmark(1, scale, 23);
    std::vector<ModelSpec> specs;
    for (const BenchmarkTask& task : b1.tasks) {
      specs.push_back(task.model);
    }
    Rng structure(1);
    std::optional<AbsGraph> fused_b1 =
        SampleMutatePass(ParseModelSpecs(specs), 4, ShapeSimilarity::kSimilar, structure);
    ASSERT_TRUE(fused_b1.has_value());
    graphs.emplace_back("b1-fusion", std::move(*fused_b1));
  }
  for (const std::vector<ModelSpec>& specs : TransformerBundles()) {
    graphs.emplace_back(specs[0].name, ParseModelSpecs(specs));
  }

  for (const auto& [name, g] : graphs) {
    Rng rng(24);
    MultiTaskModel model(g, rng);
    FusedEngine fused(&model);
    const Tensor x8 = InputFor(g.node(g.root()).output_shape, /*batch=*/8, rng);
    std::vector<Tensor> batched;
    for (const Tensor& y : fused.Run(x8)) {
      batched.push_back(y.Clone());  // outputs alias engine buffers
    }
    const int64_t row_elems = x8.size() / 8;
    for (int64_t r = 0; r < 8; ++r) {
      Tensor row(x8.shape().WithoutBatch().WithBatch(1));
      std::memcpy(row.data(), x8.data() + r * row_elems,
                  static_cast<size_t>(row_elems) * sizeof(float));
      const std::vector<Tensor> single = fused.Run(row);
      ASSERT_EQ(single.size(), batched.size());
      for (size_t t = 0; t < single.size(); ++t) {
        const int64_t n = single[t].size();
        float max_abs = 0.0f;
        float max_diff = 0.0f;
        for (int64_t j = 0; j < n; ++j) {
          max_abs = std::max(max_abs, std::fabs(single[t].at(j)));
          max_diff = std::max(max_diff, std::fabs(batched[t].at(r * n + j) - single[t].at(j)));
        }
        EXPECT_LE(max_diff, 1e-5f * (1.0f + max_abs)) << name << " row " << r << " task " << t;
      }
    }
  }
}

// infer-b1's plan: B1's three VGG-13s after four sharing mutations. Its
// narrow convs (32->64 and 64->64 at 4x4, 64->64 at 2x2) run one pixels x
// channels GEMM over the batch on gemm.direct, where each output sums its k
// products in the same order whatever m is, so every row of a batch-8 Run()
// equals a batch-1 Run() of that row bit for bit.
TEST(EnginePlanTest, NarrowConvRowsMatchSingleSampleRunsBitwise) {
  BenchmarkScale scale;
  scale.train_size = 8;
  scale.test_size = 8;
  const BenchmarkDef b1 = MakeBenchmark(1, scale, 23);
  std::vector<ModelSpec> specs;
  for (const BenchmarkTask& task : b1.tasks) {
    specs.push_back(task.model);
  }
  Rng structure(1);
  const std::optional<AbsGraph> g =
      SampleMutatePass(ParseModelSpecs(specs), 4, ShapeSimilarity::kSimilar, structure);
  ASSERT_TRUE(g.has_value());
  Rng rng(25);
  MultiTaskModel model(*g, rng);
  FusedEngine fused(&model);

  const PlanIR plan = fused.ExportPlan();
  int narrow_direct = 0;
  for (const PlanStep& step : plan.steps) {
    const Shape& out = plan.values[static_cast<size_t>(step.out)].shape;
    if (step.kind == PlanOp::kConv && out[1] * out[2] < kernels::kWideMinN) {
      EXPECT_EQ(step.solver, "gemm.direct") << step.label;
      ++narrow_direct;
    }
  }
  EXPECT_EQ(narrow_direct, 12);  // four narrow convs in each of three branches

  const Tensor x8 = InputFor(g->node(g->root()).output_shape, /*batch=*/8, rng);
  std::vector<Tensor> batched;
  for (const Tensor& y : fused.Run(x8)) {
    batched.push_back(y.Clone());  // outputs alias engine buffers
  }
  const int64_t row_elems = x8.size() / 8;
  for (int64_t r = 0; r < 8; ++r) {
    Tensor row(x8.shape().WithoutBatch().WithBatch(1));
    std::memcpy(row.data(), x8.data() + r * row_elems,
                static_cast<size_t>(row_elems) * sizeof(float));
    const std::vector<Tensor> single = fused.Run(row);
    ASSERT_EQ(single.size(), batched.size());
    for (size_t t = 0; t < single.size(); ++t) {
      const int64_t n = single[t].size();
      EXPECT_EQ(std::memcmp(single[t].data(), batched[t].data() + r * n,
                            static_cast<size_t>(n) * sizeof(float)),
                0)
          << "row " << r << " task " << t;
    }
  }
}

TEST(EnginePlanTest, PlanReusesBuffersAndProfiles) {
  Rng rng(18);
  VisionModelOptions opts;
  opts.base_width = 4;
  AbsGraph g = ParseModelSpecs({MakeVgg16(opts)});
  MultiTaskModel model(g, rng);
  FusedEngine fused(&model);
  // Liveness coloring must fold the 13-conv chain into fewer buffers than
  // values (ping-pong within each size class).
  EXPECT_LT(fused.num_buffers(), fused.num_steps());

  const Tensor x = Tensor::RandomGaussian(Shape{1, 3, 32, 32}, rng);
  fused.Run(x);
  fused.Run(x);
  int64_t total_calls = 0;
  for (const auto& step : fused.Profile()) {
    EXPECT_EQ(step.calls, 2);
    total_calls += step.calls;
  }
  EXPECT_EQ(total_calls, 2 * fused.num_steps());
  fused.ResetProfile();
  for (const auto& step : fused.Profile()) {
    EXPECT_EQ(step.calls, 0);
    EXPECT_EQ(step.total_ms, 0.0);
  }
}

}  // namespace
}  // namespace gmorph
