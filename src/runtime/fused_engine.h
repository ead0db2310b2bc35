// FusedEngine: compiler-style optimized executor (the "TensorRT" stand-in).
//
// At construction the multi-task tree is lowered into a flat execution plan:
//
//   1. BN folding      — every Conv+BN pair (VGG layers, ResNet stem, the
//                        three convolutions of a residual block) becomes a
//                        single convolution with folded weights/bias.
//   2. Epilogue fusion — bias, the residual skip-add and ReLU are applied
//                        in the pass that writes each conv sample's GEMM
//                        result (Conv2dForwardInto); a stride-1 "same" conv
//                        on gemm.direct applies them on the register tile,
//                        which reads im2col in place. A conv whose OH*OW is
//                        narrower than the wide GEMM tile runs the whole
//                        batch as one GEMM with output pixels as rows and
//                        output channels as columns, over a W^T transposed
//                        once here (NarrowConv2dForwardInto; on gemm.direct
//                        its im2row is read in place too); its epilogue
//                        transposes each sample back to NCHW first. Linears
//                        fuse bias, residual skip-add and ReLU/GELU the same
//                        way (LinearForwardInto). A transformer block lowers to
//                        LayerNorm, QKV linear, attention, proj linear (+skip),
//                        LayerNorm, fc1 (+GELU) and fc2 (+skip) steps; the
//                        ViT/BERT stems to a patch conv plus a token-layout
//                        step, or an embedding-gather step.
//   3. Identity/reshape elimination — identity rescale adapters and Flatten
//                        become alias entries in the value table (no step, no
//                        copy). Every other block lowers to planned steps;
//                        there is no opaque Module::Forward fallback.
//   4. Static memory planning — per-activation liveness over the plan is
//                        computed at construction and values are assigned to
//                        a small set of reusable arena buffers (greedy
//                        interval coloring keyed by byte size), so
//                        steady-state Run() performs zero tensor-storage
//                        allocations.
//   5. Branch-parallel scheduling — after the shared prefix, per-task
//                        subtrees are independent and are dispatched onto the
//                        process pool; nested kernel parallelism degrades to
//                        serial via the existing nesting guard.
//
// Returned output tensors alias engine-owned buffers: they are valid until
// the next Run() on this engine. Like Module, a FusedEngine must not be used
// from concurrent executions. The plan snapshots conv weights (folded, or
// transposed for narrow convs) and references linear weights by handle;
// rebuild the engine after re-training.
#ifndef GMORPH_SRC_RUNTIME_FUSED_ENGINE_H_
#define GMORPH_SRC_RUNTIME_FUSED_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/plan_ir.h"
#include "src/kernels/solver.h"
#include "src/obs/perf_counters.h"
#include "src/quant/calibrate.h"
#include "src/quant/quant_ops.h"
#include "src/quant/recipe.h"
#include "src/runtime/engine.h"
#include "src/tensor/conv_ops.h"

namespace gmorph {

class FusedEngine : public InferenceEngine {
 public:
  struct Options {
    // Dispatch divergent branches onto the process pool instead of running
    // them sequentially.
    bool branch_parallel = true;
  };

  // `model` must outlive the engine; the plan holds folded copies of conv
  // parameters and handles to every other parameter tensor.
  explicit FusedEngine(MultiTaskModel* model);
  FusedEngine(MultiTaskModel* model, const Options& options);

  std::vector<Tensor> Run(const Tensor& input) override;
  std::string Name() const override { return "fused"; }

  // ---- Int8 post-training quantization ----
  // Calibration: runs the f32 plan over each batch while observing the input
  // range of every conv/linear step, then derives the per-step quantization
  // recipe (u8 asymmetric activation params + per-output-channel s8 weight
  // scales). The engine is left unchanged — apply the recipe with Quantize().
  quant::QuantRecipe Calibrate(const std::vector<Tensor>& batches);
  // Applies a recipe: packs s8 weights once, each conv's into the operand
  // layout of the GEMM family its output shape selects (kernels::ConvProblem:
  // output pixels on the lanes for wide outputs, output channels for narrow
  // ones), precomputes column sums / dequant scales / bias copies, drops all
  // cached bindings, and re-annotates solvers. Steps whose
  // seq/kind/channel-count do not match the live plan are skipped, as are
  // linears with a residual skip-add (the int8 linear epilogue has none, so
  // transformer proj/fc2 stay f32; Calibrate emits no spec for them). Returns
  // the number of steps switched to int8. Steady-state Run() afterwards still
  // performs zero tensor-storage allocations — quantized steps draw their u8
  // image, tap words and s32 accumulator workspace from the thread-local
  // scratch arena.
  int Quantize(const quant::QuantRecipe& recipe);
  int num_quantized_steps() const { return num_quantized_steps_; }

  // ---- Introspection for tests / reporting ----
  int num_fused_convs() const { return num_fused_convs_; }
  int num_eliminated() const { return num_eliminated_; }
  int num_fused_linears() const { return num_fused_linears_; }
  // Blocks executed through Module::Forward instead of plan steps. Every
  // block type lowers, so this is always 0; reports still print it.
  int num_fallback_modules() const { return 0; }
  int num_steps() const { return static_cast<int>(steps_.size()); }
  // Arena slots after liveness coloring and their total per-sample footprint;
  // without planning each step output would hold its own activation.
  int num_buffers() const { return static_cast<int>(buffers_.size()); }
  int64_t planned_bytes_per_sample() const;

  // Per-step cumulative wall time, invocation count, and hardware-counter
  // deltas since construction (or the last ResetProfile). Counter deltas are
  // only accumulated while obs::EnableStepCounters() is armed and
  // perf_event_open is permitted; otherwise `counters` stays invalid and
  // wall-time profiling is unaffected. `flops` / `bytes` are the step's
  // per-sample arithmetic work and logical tensor traffic (operands +
  // results; intermediate im2col materialization excluded).
  struct StepProfile {
    std::string label;
    std::string solver;  // plan-time annotation; empty for untunable kinds
    int node = -1;
    int64_t calls = 0;
    double total_ms = 0.0;
    double flops = 0.0;  // per sample
    double bytes = 0.0;  // per sample
    obs::PerfCounts counters;
  };
  std::vector<StepProfile> Profile() const;
  void ResetProfile();

  // Human-readable plan: steps, value table, buffer assignment, groups.
  std::string DumpPlan() const;

  // Snapshots the lowered plan (values, steps, groups, buffer assignment —
  // but not the engine's own liveness bookkeeping) for the PlanVerifier and
  // plan-dump tooling. Construction runs VerifyPlan over this export in debug
  // builds, and in release builds when GMORPH_VERIFY=1 is set.
  PlanIR ExportPlan() const;

  // The kernel problem descriptors this plan executes at the given batch
  // size (deduplicated): the GEMM of every conv step (per sample, m = O and
  // n = OH*OW, for wide outputs; m = batch*OH*OW, k = C*KH*KW and n = O over
  // the whole batch for narrow f32 ones), the batched GEMM of every linear
  // step (transformer projections and MLPs included), and every max-pool.
  // They are exactly the descriptors a binding at that batch pins solvers
  // for, and the shape list `gmorph_cli --autotune` feeds the autotuner.
  std::vector<kernels::ProblemDesc> KernelProblems(int64_t batch) const;

 private:
  enum class OpKind {
    kConv,           // folded conv (+skip add)(+ReLU) epilogue
    kLinear,         // linear (+skip add)(+ReLU|GELU)
    kMaxPool,
    kGlobalAvgPool,
    kMeanPoolTokens,
    kBilinearResize,
    kTokenResize,
    kLayerNorm,      // weight = gamma, bias = beta
    kAttention,      // fused QKV -> merged heads
    kPatchTokens,    // ViT conv output -> tokens; weight = positions
    kEmbedding,      // BERT gather; weight = token table, bias = positions
  };

  // One SSA-style activation. Aliases (identity rescale, flatten) resolve to
  // a root value and share its buffer.
  struct Value {
    Shape shape;          // per-sample
    int alias_of = -1;    // root value id if this is an alias entry
    bool is_head = false;
    int buffer = -1;      // arena slot (planned root values only)
    int def_seq = -1;
    int def_group = 0;
    // def + every use, as (step seq, group id); used by the happens-before
    // compatibility test during buffer coloring.
    std::vector<std::pair<int, int>> events;
  };

  struct Step {
    OpKind kind = OpKind::kConv;
    int node = -1;     // graph node (profiling / dump)
    std::string label;
    int in0 = -1;      // value ids
    int skip = -1;     // residual skip value (kConv / kLinear)
    int out = -1;
    int group = 0;
    // Folded conv parameters; handles into the live modules for every other
    // kind (see OpKind for what weight/bias hold). A narrow conv holds a
    // snapshot of W^T [C*KH*KW, O] instead of W.
    Tensor weight;
    Tensor bias;
    // The logical shape of `weight`, as the plan exports it: [O, C, KH, KW]
    // for every conv, the narrow ones included.
    Shape weight_shape;
    // kConv: OH*OW < kWideMinN, so the f32 conv runs as one pixels x channels
    // GEMM over the batch (NarrowConv2dForwardInto) and `weight` is W^T.
    bool narrow = false;
    Conv2dArgs conv_args;
    Activation act = Activation::kNone;  // kConv: ReLU only
    // kMaxPool
    int64_t pool_kernel = 0;
    int64_t pool_stride = 0;
    int64_t heads = 0;  // kAttention
    float eps = 0.0f;   // kLayerNorm
    // Solver resolved at plan time for the step's tunable kernel at batch 1;
    // empty for step kinds without one. Exported with the plan so the
    // PlanVerifier can lint applicability.
    std::string solver;
    // Set by Quantize(): packed int8 parameters for kConv / kLinear steps.
    // A step with one of these executes on the u8·s8 path.
    std::unique_ptr<quant::QConvWeights> qconv;
    std::unique_ptr<quant::QLinearWeights> qlinear;
    bool quantized() const { return qconv != nullptr || qlinear != nullptr; }
    // Profiling accumulators (each step is executed by one thread at a time).
    int64_t calls = 0;
    double seconds = 0.0;
    obs::PerfCounts counters;
  };

  // A maximal chain of the tree: steps run in order, then children fork (in
  // parallel when enabled).
  struct Group {
    int parent = -1;
    std::vector<int> steps;
    std::vector<int> children;
  };

  struct Buffer {
    int64_t elems_per_sample = 0;
    bool reusable = true;  // head buffers are dedicated
    std::vector<int> values;
  };

  // The solver a step's tunable kernel runs at one batch size, resolved from
  // StepProblemDesc. At most one pointer is set; none for untunable kinds.
  struct Pin {
    const kernels::GemmSolver* gemm = nullptr;    // f32 kConv / kLinear
    const kernels::QGemmSolver* qgemm = nullptr;  // int8 kConv / kLinear
    const kernels::PoolSolver* pool = nullptr;    // kMaxPool
    const char* name() const;  // "" when no solver is pinned
  };

  // Buffers and per-value tensor handles materialized for one batch size.
  struct Binding {
    std::vector<Tensor> buffers;
    std::vector<Tensor> values;
    // Per-step solvers pinned when the binding is made, so steady-state Run()
    // never consults the registry or the tuning DB.
    std::vector<Pin> pins;
  };

  // ---- Construction passes ----
  void LowerNode(int node_id, int group);
  void LowerFrom(int node_id, int group);
  int NewValue(const Shape& per_sample_shape, int group);
  int NewAlias(int of_value, const Shape& per_sample_shape);
  int AddStep(Step step);
  void RecordUse(int value, int seq, int group);
  void PlanBuffers();
  bool HappensBefore(const std::pair<int, int>& event, int seq, int group) const;
  // Parallelism a step in `group` runs under: 1 inside a branch-parallel
  // fork (kernels nest to serial there), the kernel pool width otherwise.
  int GroupThreads(int group) const;
  // Fills `desc` with the kernel problem the step runs at `batch`, and is
  // the one place that decides it. kConv: kernels::ConvProblem — per sample
  // in the serial regime, except that a narrow f32 conv runs one pixels x
  // channels GEMM with m = batch*OH*OW under the group's parallelism;
  // kLinear: the batched GEMM; kMaxPool: the pool over every plane. Returns
  // false for step kinds without one.
  bool StepProblemDesc(const Step& step, int64_t batch, kernels::ProblemDesc* desc) const;
  // Resolves the solver for StepProblemDesc(step, batch) through the
  // registry (tuned winner when a DB is loaded, else the heuristic).
  Pin PinStep(const Step& step, int64_t batch) const;
  // Per-sample arithmetic work and logical tensor traffic of a step (see
  // StepProfile::flops/bytes).
  void StepCostPerSample(const Step& step, double* flops, double* bytes) const;
  // Records each step's batch-1 pinned solver name (Step::solver).
  void AnnotateSolvers();
  // Runs the PlanVerifier over ExportPlan(): always in debug builds, opt-in
  // via GMORPH_VERIFY=1 in release. Fatal on error (a planner bug).
  void MaybeVerifyPlan() const;

  // ---- Execution ----
  Binding& BindingFor(int64_t batch);
  void ExecGroup(int group, Binding& bind);
  void ExecStep(int seq, Binding& bind);
  int ResolveAlias(int value) const;

  MultiTaskModel* model_;
  Options options_;
  std::vector<Step> steps_;
  std::vector<Value> values_;
  std::vector<Group> groups_;
  std::vector<Buffer> buffers_;
  std::vector<int> node_value_;   // graph node id -> value id
  std::vector<int> head_values_;  // per task
  std::vector<int> input_aliases_;  // alias values rooted at the input
  std::map<int64_t, std::unique_ptr<Binding>> bindings_;  // by batch size

  int num_fused_convs_ = 0;
  int num_eliminated_ = 0;
  int num_fused_linears_ = 0;
  int num_quantized_steps_ = 0;
  // Non-null only while Calibrate() drives observed runs.
  quant::CalibrationObserver* observer_ = nullptr;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_RUNTIME_FUSED_ENGINE_H_
