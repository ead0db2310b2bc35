#include "src/analysis/plan_ir.h"

#include "src/kernels/registry.h"

namespace gmorph {

std::string PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kConv:
      return "conv";
    case PlanOp::kLinear:
      return "linear";
    case PlanOp::kMaxPool:
      return "maxpool";
    case PlanOp::kGlobalAvgPool:
      return "gap";
    case PlanOp::kMeanPoolTokens:
      return "meanpool";
    case PlanOp::kBilinearResize:
      return "resize";
    case PlanOp::kTokenResize:
      return "tokresize";
    case PlanOp::kLayerNorm:
      return "layernorm";
    case PlanOp::kAttention:
      return "attention";
    case PlanOp::kPatchTokens:
      return "tokens";
    case PlanOp::kEmbedding:
      return "embed";
  }
  return "unknown";
}

std::string StepPath(const PlanIR& plan, int seq) {
  std::string path = "step " + std::to_string(seq);
  if (seq >= 0 && seq < static_cast<int>(plan.steps.size())) {
    const PlanStep& s = plan.steps[static_cast<size_t>(seq)];
    path += " [" + (s.label.empty() ? PlanOpName(s.kind) : s.label) + "]";
  }
  return path;
}

std::string ValuePath(int value) {
  return "value v" + std::to_string(value);
}

StepKernel StepProblem(const PlanIR& plan, const PlanStep& step, int64_t batch, int threads,
                       kernels::ProblemDesc* desc) {
  const Shape& in = plan.values[static_cast<size_t>(step.in0)].shape;
  const Shape& out = plan.values[static_cast<size_t>(step.out)].shape;
  const Shape& w = step.weight_shape;
  switch (step.kind) {
    case PlanOp::kConv:
      if (w.Rank() != 4 || out.Rank() != 3) {
        return StepKernel::kMalformed;
      }
      *desc = kernels::ConvProblem(step.dtype, w[0], w[1] * w[2] * w[3], out[1], out[2]);
      if (step.dtype == kernels::DType::kF32 && out[1] * out[2] < kernels::kWideMinN) {
        desc->m *= batch;
        desc->threads = threads;
      }
      return StepKernel::kProblem;
    case PlanOp::kLinear:
      // LinearForwardInto flattens leading dims into rows, so m scales with
      // the batch while k/n come from the weight.
      if (w.Rank() != 2 || w[0] <= 0 || in.Rank() < 1) {
        return StepKernel::kMalformed;
      }
      *desc = kernels::ProblemDesc{};
      desc->op = kernels::OpFamily::kGemmNN;
      desc->m = batch * (in.NumElements() / w[0]);
      desc->k = w[0];
      desc->n = w[1];
      break;
    case PlanOp::kMaxPool:
      if (in.Rank() != 3) {
        return StepKernel::kMalformed;
      }
      *desc = kernels::ProblemDesc{};
      desc->op = kernels::OpFamily::kMaxPool;
      desc->m = batch * in[0];
      desc->k = in[1];
      desc->n = in[2];
      desc->aux0 = step.pool_kernel;
      desc->aux1 = step.pool_stride;
      break;
    default:
      return StepKernel::kNone;
  }
  desc->dtype = step.dtype;
  desc->threads = threads;
  return StepKernel::kProblem;
}

}  // namespace gmorph
