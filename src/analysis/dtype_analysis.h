// Forward dtype-propagation analysis over plan IR (plan.dtype.* rules).
//
// A fixpoint dataflow pass on the lattice
//
//     bottom (unknown)  <  { f32, int8 }  <  top (conflict)
//
// attached to every plan value's *storage* dtype. Facts are seeded at the
// plan input (external tensors are f32) and at every step output (all
// current kernels — including int8-execution conv/linear steps, which
// quantize u8 at their input boundary and dequantize in their epilogue —
// write f32 storage), then propagated through alias edges to a fixpoint.
// Each value's declared `PlanValue::dtype` annotation is joined against the
// propagated fact; a join to top is a producer/consumer disagreement.
//
// Certified invariants:
//   plan.dtype.mismatch  declared storage dtype conflicts with the producer
//   plan.dtype.input     a step consumes storage its kernel cannot read
//                        (every kernel boundary today reads f32)
//   plan.dtype.step      step kind cannot execute at its kernel dtype
//                        (int8 execution exists only for conv/linear)
//   plan.dtype.alias     alias declares a dtype different from its root
//   plan.dtype.head      head outputs must be f32 (task scores are f32)
//   plan.dtype.buffer    one arena slot holds values of different dtypes
//
// This is the groundwork the ROADMAP's mixed-precision item builds on: when
// bf16/int8 storage lands, the seeding functions here (input dtype, per-step
// output dtype, per-kernel operand requirements) are the single place that
// changes, and the fixpoint + boundary checks stay as the safety net.
//
// The pass is independent of PlanVerifier and tolerates malformed plans
// (out-of-range ids are skipped; the verifier owns those findings).
#ifndef GMORPH_SRC_ANALYSIS_DTYPE_ANALYSIS_H_
#define GMORPH_SRC_ANALYSIS_DTYPE_ANALYSIS_H_

#include "src/common/diagnostics.h"
#include "src/analysis/plan_ir.h"

namespace gmorph {

DiagnosticList AnalyzePlanDtypes(const PlanIR& plan);

}  // namespace gmorph

#endif  // GMORPH_SRC_ANALYSIS_DTYPE_ANALYSIS_H_
