#include "src/analysis/dtype_analysis.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gmorph {
namespace {

// The dataflow lattice over storage dtypes.
enum class Fact : uint8_t { kBottom, kF32, kInt8, kTop };

Fact FromDType(kernels::DType d) {
  return d == kernels::DType::kInt8 ? Fact::kInt8 : Fact::kF32;
}

Fact Join(Fact a, Fact b) {
  if (a == b || b == Fact::kBottom) {
    return a;
  }
  if (a == Fact::kBottom) {
    return b;
  }
  return Fact::kTop;
}

const char* FactName(Fact f) {
  switch (f) {
    case Fact::kBottom:
      return "unknown";
    case Fact::kF32:
      return "f32";
    case Fact::kInt8:
      return "int8";
    case Fact::kTop:
      return "conflict";
  }
  return "?";
}

// Storage dtype a step writes. Every current kernel materializes f32: int8
// execution steps carry the dequant epilogue, so even they store f32. A
// future int8-storage or bf16 path changes exactly this function (and
// RequiredInputFact below) and inherits all the boundary checks.
Fact StepOutputFact(const PlanStep& step) {
  (void)step;
  return Fact::kF32;
}

// Storage dtype a step's kernel reads. Quantized conv/linear steps quantize
// u8 from f32 at their input boundary, so they too consume f32 storage.
Fact RequiredInputFact(const PlanStep& step) {
  (void)step;
  return Fact::kF32;
}

}  // namespace

DiagnosticList AnalyzePlanDtypes(const PlanIR& plan) {
  DiagnosticList diags;
  const int V = static_cast<int>(plan.values.size());
  const int S = static_cast<int>(plan.steps.size());
  if (V == 0) {
    return diags;  // the verifier owns the empty-plan finding
  }

  const auto valid_value = [&](int v) { return v >= 0 && v < V; };

  // ---- Forward fixpoint: seed input + step outputs, flow through aliases ----
  std::vector<Fact> fact(static_cast<size_t>(V), Fact::kBottom);
  fact[0] = Fact::kF32;  // the plan input is an external f32 tensor
  for (int s = 0; s < S; ++s) {
    const PlanStep& step = plan.steps[static_cast<size_t>(s)];
    if (valid_value(step.out)) {
      fact[static_cast<size_t>(step.out)] =
          Join(fact[static_cast<size_t>(step.out)], StepOutputFact(step));
    }
  }
  // Alias edges form chains (cycles are a verifier error but must not hang
  // us); the lattice is finite and Join monotone, so iterating to a fixpoint
  // terminates — V+1 sweeps bound the longest acyclic chain.
  bool changed = true;
  for (int round = 0; changed && round <= V; ++round) {
    changed = false;
    for (int v = 0; v < V; ++v) {
      const int src = plan.values[static_cast<size_t>(v)].alias_of;
      if (src < 0 || !valid_value(src) || src == v) {
        continue;
      }
      const Fact joined = Join(fact[static_cast<size_t>(v)], fact[static_cast<size_t>(src)]);
      if (joined != fact[static_cast<size_t>(v)]) {
        fact[static_cast<size_t>(v)] = joined;
        changed = true;
      }
    }
  }

  // ---- Declared annotation vs propagated fact ------------------------------
  for (int v = 0; v < V; ++v) {
    const Fact declared = FromDType(plan.values[static_cast<size_t>(v)].dtype);
    const Fact computed = fact[static_cast<size_t>(v)];
    if (computed != Fact::kBottom && computed != Fact::kTop &&
        Join(computed, declared) == Fact::kTop) {
      diags.Error("plan.dtype.mismatch", ValuePath(v))
          << "declared storage dtype " << FactName(declared) << " but dataflow computes "
          << FactName(computed)
          << (v == 0 ? " (the plan input is an external f32 tensor)"
                     : " (every producing kernel writes f32 storage)");
    }
  }

  // ---- Alias edges must preserve the storage dtype -------------------------
  for (int v = 0; v < V; ++v) {
    const PlanValue& val = plan.values[static_cast<size_t>(v)];
    if (val.alias_of < 0 || !valid_value(val.alias_of) || val.alias_of == v) {
      continue;
    }
    const PlanValue& target = plan.values[static_cast<size_t>(val.alias_of)];
    if (FromDType(val.dtype) != FromDType(target.dtype)) {
      diags.Error("plan.dtype.alias", ValuePath(v))
          << "declares " << kernels::DTypeName(val.dtype) << " but aliases v" << val.alias_of
          << " stored " << kernels::DTypeName(target.dtype)
          << "; a reshape view cannot change the storage dtype";
    }
  }

  // ---- Per-step execution dtype + operand boundaries -----------------------
  for (int s = 0; s < S; ++s) {
    const PlanStep& step = plan.steps[static_cast<size_t>(s)];
    if (step.dtype == kernels::DType::kInt8 && step.kind != PlanOp::kConv &&
        step.kind != PlanOp::kLinear) {
      diags.Error("plan.dtype.step", StepPath(plan, s))
          << "kind " << PlanOpName(step.kind)
          << " has no int8 kernel; only conv/linear steps can execute quantized";
    } else if (step.dtype == kernels::DType::kInt8 && step.kind == PlanOp::kLinear &&
               step.skip >= 0) {
      diags.Error("plan.dtype.step", StepPath(plan, s))
          << "the int8 linear epilogue has no residual skip-add; this step must stay f32";
    }
    const Fact required = RequiredInputFact(step);
    for (int operand : {step.in0, step.skip}) {
      if (!valid_value(operand)) {
        continue;
      }
      const Fact stored = Join(fact[static_cast<size_t>(operand)],
                               FromDType(plan.values[static_cast<size_t>(operand)].dtype));
      if (stored != required && stored != Fact::kBottom && stored != Fact::kTop) {
        diags.Error("plan.dtype.input", StepPath(plan, s))
            << "reads v" << operand << " stored " << FactName(stored) << " but its kernel"
            << (step.dtype == kernels::DType::kInt8
                    ? " quantizes from f32 at the input boundary"
                    : " consumes f32")
            << "; a well-formed f32<->int8 boundary keeps activations f32 in memory";
      }
    }
  }

  // ---- Heads are returned to callers as f32 scores -------------------------
  for (size_t t = 0; t < plan.head_values.size(); ++t) {
    const int hv = plan.head_values[t];
    if (!valid_value(hv)) {
      continue;
    }
    if (plan.values[static_cast<size_t>(hv)].dtype != kernels::DType::kF32) {
      diags.Error("plan.dtype.head", ValuePath(hv))
          << "task " << t << " head is stored "
          << kernels::DTypeName(plan.values[static_cast<size_t>(hv)].dtype)
          << "; task outputs must be f32";
    }
  }

  // ---- Arena slots are typed: no buffer may mix storage dtypes -------------
  const int B = static_cast<int>(plan.buffers.size());
  std::vector<int> buffer_rep(static_cast<size_t>(B), -1);  // first resident
  for (int v = 0; v < V; ++v) {
    const PlanValue& val = plan.values[static_cast<size_t>(v)];
    if (val.alias_of >= 0 || val.buffer < 0 || val.buffer >= B) {
      continue;
    }
    int& rep = buffer_rep[static_cast<size_t>(val.buffer)];
    if (rep < 0) {
      rep = v;
      continue;
    }
    const PlanValue& first = plan.values[static_cast<size_t>(rep)];
    if (FromDType(first.dtype) != FromDType(val.dtype)) {
      diags.Error("plan.dtype.buffer", "buffer " + std::to_string(val.buffer))
          << "holds v" << rep << " (" << kernels::DTypeName(first.dtype) << ") and v" << v
          << " (" << kernels::DTypeName(val.dtype)
          << "); an arena slot stores exactly one dtype";
    }
  }
  return diags;
}

}  // namespace gmorph
