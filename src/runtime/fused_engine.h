// FusedEngine: compiler-style optimized executor (the "TensorRT" stand-in).
//
// At construction the multi-task tree is lowered into a flat execution plan,
// a PlanIR (src/analysis/plan_ir.h): the one form the engine plans, executes,
// verifies and prints. Beside it the engine keeps, per step, only what the
// plan does not describe: weight and bias tensors, LayerNorm eps, the
// narrow-conv flag, int8 packs and profile accumulators.
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
//                        computed at construction (inside PlanBuffers only)
//                        and values are assigned to a small set of reusable
//                        arena buffers (greedy interval coloring keyed by
//                        byte size), so steady-state Run() performs zero
//                        tensor-storage allocations.
//   5. Branch-parallel scheduling — after the shared prefix, per-task
//                        subtrees are independent and are dispatched onto the
//                        process pool; nested kernel parallelism degrades to
//                        serial via the existing nesting guard. A Run() that
//                        is itself nested in a parallel region runs the
//                        branches in order.
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
  // `model` must outlive the engine; the plan holds folded copies of conv
  // parameters and handles to every other parameter tensor.
  explicit FusedEngine(MultiTaskModel* model);

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
  // Blocks executed through Module::Forward instead of plan steps. Every
  // block type lowers, so this is always 0; reports still print it.
  int num_fallback_modules() const { return 0; }
  int num_steps() const { return static_cast<int>(plan_.steps.size()); }
  // Arena slots after liveness coloring; without planning each step output
  // would hold its own activation.
  int num_buffers() const { return static_cast<int>(plan_.buffers.size()); }

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

  // The lowered plan (values, steps, groups, buffer assignment, solver
  // annotations, step dtypes) that the engine executes, for the PlanVerifier
  // and the plan printers (PlanToText). It carries no liveness bookkeeping.
  // Construction, and Quantize() when it changes the plan, run the analysis
  // passes over it in debug builds, and in release builds when
  // GMORPH_VERIFY=1 is set.
  const PlanIR& ExportPlan() const { return plan_; }

  // The kernel problem descriptors this plan executes at the given batch
  // size (deduplicated; StepProblem of every step): the GEMM of every conv
  // step (per sample, m = O and n = OH*OW, for wide outputs; m = batch*OH*OW,
  // k = C*KH*KW and n = O over the whole batch for narrow f32 ones), the
  // batched GEMM of every linear step (transformer projections and MLPs
  // included), and every max-pool. They are exactly the descriptors a
  // binding at that batch pins solvers for, and the shape list
  // `gmorph_cli --autotune` feeds the autotuner.
  std::vector<kernels::ProblemDesc> KernelProblems(int64_t batch) const;

 private:
  // What executing plan step `seq` needs beyond plan_.steps[seq].
  struct StepPayload {
    // Folded conv parameters; handles into the live modules for every other
    // kind (see PlanOp for what weight/bias hold). A narrow conv holds a
    // snapshot of W^T [C*KH*KW, O] instead of W.
    Tensor weight;
    Tensor bias;
    float eps = 0.0f;  // kLayerNorm
    // kConv: OH*OW < kWideMinN, so the f32 conv runs as one pixels x channels
    // GEMM over the batch (NarrowConv2dForwardInto) and `weight` is W^T.
    bool narrow = false;
    // Set by Quantize(), beside PlanStep::dtype = kInt8: packed int8
    // parameters for kConv / kLinear steps.
    std::unique_ptr<quant::QConvWeights> qconv;
    std::unique_ptr<quant::QLinearWeights> qlinear;
    // Profiling accumulators (each step is executed by one thread at a time).
    int64_t calls = 0;
    double seconds = 0.0;
    obs::PerfCounts counters;
  };

  // The solver a step's tunable kernel runs at one batch size, resolved from
  // StepProblem. At most one pointer is set; none for untunable kinds.
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
  int NewValue(const Shape& per_sample_shape);
  int NewAlias(int of_value, const Shape& per_sample_shape);
  void PlanBuffers();
  bool HappensBefore(const std::pair<int, int>& event, int seq, int group) const;
  // Parallelism a step in `group` runs under: 1 inside a branch-parallel
  // fork (kernels nest to serial there), the kernel pool width otherwise.
  int GroupThreads(int group) const;
  // Resolves the solver for StepProblem(step, batch) under the step's group
  // parallelism through the registry (tuned winner when a DB is loaded, else
  // the heuristic).
  Pin PinStep(const PlanStep& step, int64_t batch) const;
  // Per-sample arithmetic work and logical tensor traffic of step `seq` (see
  // StepProfile::flops/bytes).
  void StepCostPerSample(int seq, double* flops, double* bytes) const;
  // Records each step's batch-1 pinned solver name (PlanStep::solver).
  void AnnotateSolvers();
  // Runs the analysis passes over the plan: always in debug builds, opt-in
  // via GMORPH_VERIFY=1 in release. Fatal on error (a planner bug).
  void MaybeVerifyPlan() const;

  // ---- Execution ----
  Binding& BindingFor(int64_t batch);
  void ExecGroup(int group, Binding& bind);
  void ExecStep(int seq, Binding& bind);
  int ResolveAlias(int value) const;

  MultiTaskModel* model_;
  PlanIR plan_;
  std::vector<StepPayload> payloads_;  // one per plan_.steps entry
  std::vector<int> node_value_;   // graph node id -> value id
  std::vector<int> input_aliases_;  // alias values rooted at the input
  std::map<int64_t, std::unique_ptr<Binding>> bindings_;  // by batch size

  int num_fused_convs_ = 0;
  int num_eliminated_ = 0;
  int num_quantized_steps_ = 0;
  // Non-null only while Calibrate() drives observed runs.
  quant::CalibrationObserver* observer_ = nullptr;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_RUNTIME_FUSED_ENGINE_H_
