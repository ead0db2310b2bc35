// PlanIR: a FusedEngine execution plan, in the one form the engine plans in.
//
// FusedEngine lowers its model straight into a PlanIR and keeps beside it only
// what the plan does not describe (parameter tensors, LayerNorm eps, the
// narrow-conv weight layout, int8 packs, profile accumulators). ExportPlan()
// hands out that plan; the PlanVerifier symbolically executes it without
// access to engine internals, PlanToText (plan_io.h) prints it for
// `--dump-plan` and `--export-plan`, and tests and the CLI's plan-lint mode
// hand-construct plans with deliberately seeded defects.
//
// The checkers deliberately receive *less* than the planner computes: no
// liveness events and no def bookkeeping (those stay inside the engine's
// buffer planning). They recompute all of that from the steps alone, so a bug
// in the engine's own liveness tracking cannot hide a bug in its buffer
// assignment.
#ifndef GMORPH_SRC_ANALYSIS_PLAN_IR_H_
#define GMORPH_SRC_ANALYSIS_PLAN_IR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernels/solver.h"
#include "src/tensor/shape.h"
#include "src/tensor/tensor_ops.h"

namespace gmorph {

enum class PlanOp {
  kConv,           // conv (+skip add)(+ReLU); weight (O,C,KH,KW)
  kLinear,         // linear (+skip add)(+ReLU|GELU); weight (in_features, out_features)
  kMaxPool,
  kGlobalAvgPool,  // (C,H,W) -> (C)
  kMeanPoolTokens, // (T,D) -> (D)
  kBilinearResize, // (C,H,W) -> (C,H',W')
  kTokenResize,    // (T,D) -> (T',D)
  kLayerNorm,      // (...,D) -> (...,D); weight = gamma (D)
  kAttention,      // fused QKV (T,3D) -> (T,D) over `heads` heads
  kPatchTokens,    // (D,G,G') -> (G*G',D) + positions; weight = positions (G*G',D)
  kEmbedding,      // token ids (T) -> (T,D) + positions; weight = table (V,D)
};

std::string PlanOpName(PlanOp op);

// One SSA-style activation. Aliases (flatten, identity rescale) carry no
// buffer of their own; every other value except the input owns one.
struct PlanValue {
  Shape shape;         // per-sample
  int alias_of = -1;   // value id this is a reshape view of
  bool is_head = false;
  int buffer = -1;     // arena slot for planned root values
  // Storage dtype of the value's bytes in memory. Today every activation is
  // stored f32 — quantized steps consume f32 input (u8 quantize at the
  // boundary) and write f32 output (dequant epilogue) — so the engine always
  // exports kF32; the dtype-propagation analysis certifies exactly that
  // invariant, and the field is where a future bf16/int8-storage plan will
  // record per-value precision. Serializes as an optional `dtype=` token.
  kernels::DType dtype = kernels::DType::kF32;
};

struct PlanStep {
  PlanOp kind = PlanOp::kConv;
  int node = -1;       // originating graph node (for attribution only)
  std::string label;
  int in0 = -1;        // value ids
  int skip = -1;       // residual skip input (kConv / kLinear)
  int out = -1;
  int group = 0;
  // Kernel signature payload.
  Shape weight_shape;  // kConv / kLinear / kLayerNorm / kPatchTokens / kEmbedding
  int64_t stride = 1;  // kConv
  int64_t padding = 0; // kConv
  Activation act = Activation::kNone;  // epilogue (kConv: ReLU only)
  int64_t pool_kernel = 0;  // kMaxPool
  int64_t pool_stride = 0;  // kMaxPool
  int64_t heads = 0;        // kAttention
  // Kernel solver resolved at plan time for the step's problem at batch 1
  // (StepProblem; registry name, e.g. "gemm.packed"); empty for untuned/legacy
  // plans and for step kinds without a tunable kernel. For kConv this names
  // the solver of the conv's GEMM in the orientation kernels::ConvProblem
  // picks.
  std::string solver;
  // Execution precision of the step's kernel. kInt8 marks a quantized
  // conv/linear step (FusedEngine::Quantize sets it beside the int8 packs):
  // its GEMM is the u8·s8 product; for kConv its family (qconv_pixels or
  // qconv_channels) and dims come from kernels::ConvProblem via StepProblem.
  // f32 plans serialize without a dtype token (back-compat).
  kernels::DType dtype = kernels::DType::kF32;
};

// A maximal chain: steps run in listed order, then children fork (possibly in
// parallel). Group 0 is the shared prefix rooted at the plan input.
struct PlanGroup {
  int parent = -1;
  std::vector<int> steps;
  std::vector<int> children;
};

struct PlanBuffer {
  int64_t elems_per_sample = 0;
  bool reusable = true;  // head buffers are dedicated
};

struct PlanIR {
  // Value 0 is the plan input: never defined by a step, live from the start.
  std::vector<PlanValue> values;
  std::vector<PlanStep> steps;
  std::vector<PlanGroup> groups;
  std::vector<PlanBuffer> buffers;
  std::vector<int> head_values;  // per task, in task order
};

// Diagnostic locations: "step 3 [<label, else kind name>]" ("step 3" alone for
// an out-of-range id) and "value v7".
std::string StepPath(const PlanIR& plan, int seq);
std::string ValuePath(int value);

// How a step maps to a tunable kernel (see StepProblem).
enum class StepKernel {
  kNone,       // the step kind has no tunable kernel
  kMalformed,  // conv, linear or max-pool whose shapes do not define one
  kProblem,    // the problem descriptor was filled in
};

// The kernel problem `step` of `plan` runs at `batch`, at the step's dtype:
//   - kConv: kernels::ConvProblem. Wide f32 convs and every int8 conv run it
//     per sample inside the per-batch loop, at threads = 1. A narrow f32 conv
//     (OH*OW < kernels::kWideMinN) runs one pixels x channels GEMM over the
//     whole batch: m = batch*OH*OW.
//   - kLinear: the batched GEMM, m = batch * rows, k = in, n = out.
//   - kMaxPool: the pool over every plane, m = batch * C.
// `threads` is the parallelism of the step's group; it applies where the
// kernel runs outside the per-sample loop (narrow f32 convs, linears, pools).
// The engine's solver pins and annotations, KernelProblems and the
// PlanVerifier's solver check all call this one function; `plan`'s value ids
// must be in range.
StepKernel StepProblem(const PlanIR& plan, const PlanStep& step, int64_t batch, int threads,
                       kernels::ProblemDesc* desc);

}  // namespace gmorph

#endif  // GMORPH_SRC_ANALYSIS_PLAN_IR_H_
