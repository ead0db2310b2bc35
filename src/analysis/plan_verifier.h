// PlanVerifier: a static-analysis pass over FusedEngine execution plans.
//
// Symbolically executes a PlanIR: independently recomputes per-value liveness
// from the steps alone, rebuilds the fork/join happens-before relation from
// the group tree, and proves the plan safe under branch-parallel execution.
// Each violation is a structured Diagnostic:
//
//   plan.value.index / plan.step.index / plan.group.index / plan.buffer.index
//                           id out of range (aborts the remaining stages)
//   plan.alias.cycle        alias chain does not terminate
//   plan.alias.shape        alias element count differs from its root
//   plan.alias.stale        alias read after its root's buffer was overwritten
//   plan.value.multidef     value written by more than one step (or input 0
//                           written at all)
//   plan.value.undef        value read but never defined
//   plan.value.unused       defined value never read (warning)
//   plan.step.out.alias     step writes into an alias entry
//   plan.group.tree         group parent links not a tree rooted at group 0
//   plan.group.member       step listed in the wrong group (or not at all)
//   plan.group.order        step sequence disagrees with group execution order
//   plan.race.cross_branch  step reads a value written by a concurrent
//                           sibling branch (static schedule race)
//   plan.race.use_before_def  read ordered before its own write
//   plan.buffer.overlap     two simultaneously-live values share a buffer
//   plan.buffer.size        value does not fit its buffer exactly
//   plan.buffer.head        head value not in a dedicated buffer
//   plan.buffer.alias / plan.buffer.unassigned
//                           buffer assignment on the wrong value class
//   plan.head.flag          head_values entry not marked is_head
//   plan.shape.*            step in/out shapes disagree with the kernel
//                           signature (conv, linear, pool, gap, meanpool,
//                           resize, tokresize, layernorm, attention, tokens,
//                           embed, skip)
//   plan.solver.kind        solver named on a step kind without a tunable
//                           kernel
//   plan.solver.unknown     solver name not in the kernel registry
//   plan.solver.applicable  named solver rejects the step's problem shape
#ifndef GMORPH_SRC_ANALYSIS_PLAN_VERIFIER_H_
#define GMORPH_SRC_ANALYSIS_PLAN_VERIFIER_H_

#include "src/common/diagnostics.h"
#include "src/analysis/plan_ir.h"

namespace gmorph {

DiagnosticList VerifyPlan(const PlanIR& plan);

}  // namespace gmorph

#endif  // GMORPH_SRC_ANALYSIS_PLAN_VERIFIER_H_
