// PlanIR: a public, self-contained mirror of a FusedEngine execution plan.
//
// FusedEngine::ExportPlan() snapshots its lowered plan into this form so the
// PlanVerifier can symbolically execute it without access to engine
// internals, and so tests (and the CLI's plan-lint mode, see plan_io.h) can
// hand-construct plans with deliberately seeded defects.
//
// The verifier deliberately receives *less* than the engine keeps: no
// liveness events and no def bookkeeping. It recomputes all of that from the
// steps alone, so a bug in the engine's own liveness tracking cannot hide a
// bug in its buffer assignment.
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
  // Kernel solver resolved at plan time (registry name, e.g. "gemm.packed");
  // empty for untuned/legacy plans and for step kinds without a tunable
  // kernel. For kConv this names the solver of the per-sample im2col GEMM.
  std::string solver;
  // Execution precision of the step's kernel. kInt8 marks a quantized
  // conv/linear step: its GEMM is the u8·s8 product; for kConv its family
  // (qconv_pixels or qconv_channels) and dims come from kernels::ConvProblem,
  // which CheckSolvers calls too. f32 plans serialize without a dtype token
  // (back-compat).
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

}  // namespace gmorph

#endif  // GMORPH_SRC_ANALYSIS_PLAN_IR_H_
