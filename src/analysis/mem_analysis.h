// Peak-memory certification of a plan's static arena (plan.mem.* rules).
//
// Independently of the engine's planner and of PlanVerifier's pairwise
// overlap checks, this pass recomputes per-value liveness from the steps
// alone and certifies the memory plan at the arena level:
//
//   plan.mem.arena    (error)   the summed arena is smaller than the
//                               certified peak of simultaneously live bytes —
//                               no correct buffer assignment can fit, so the
//                               planner under-allocated somewhere even if
//                               every pairwise overlap test happened to pass;
//   plan.mem.waste    (warning) the arena exceeds the waste bound over the
//                               certified peak (planner fragmentation);
//   plan.mem.buffer   (warning) an arena slot no planned value ever occupies;
//   plan.mem.summary  (note)    the certified numbers for the record.
//
// The certified peak is computed over the *sequential* schedule (steps in
// sequence order; heads stay live to the end of the run). That is a sound
// lower bound for any valid assignment: values whose sequential live
// intervals share a point are pairwise non-disjoint under the fork/join
// happens-before relation too (ordering under happens-before implies
// ordering in sequence), so they form a clique no buffer sharing can break.
// For serial plans the bound is exact; branch-parallel plans may need more
// than the bound, which keeps plan.mem.arena a true error, never noise.
//
// All byte counts are per sample (elements x sizeof(float), the arena's unit:
// every activation is stored f32 today — see dtype_analysis.h).
#ifndef GMORPH_SRC_ANALYSIS_MEM_ANALYSIS_H_
#define GMORPH_SRC_ANALYSIS_MEM_ANALYSIS_H_

#include <cstdint>

#include "src/common/diagnostics.h"
#include "src/analysis/plan_ir.h"

namespace gmorph {

struct MemAnalysisOptions {
  // plan.mem.waste fires when arena_bytes > waste_factor * peak_bytes +
  // slack_bytes. The certified peak is a sequential-schedule lower bound;
  // real plans legitimately exceed it (dedicated head buffers, values on
  // sibling branches kept simultaneously resident for parallel group
  // execution). Measured across the seven zoo scenarios' exported plans the
  // arena runs 1.7-5.9x the certified peak, so the threshold sits above that
  // band: it flags pathological assignments, not the planner's normal
  // conservatism. The slack keeps tiny plans (where one head buffer
  // dominates) out of the noise.
  double waste_factor = 8.0;
  int64_t slack_bytes = 4096;
  // Emit the plan.mem.summary note (off in the engine's self-verify path,
  // where only actionable findings matter).
  bool summary = true;
};

// The raw certification result, exposed for tests and calibration.
struct MemCertificate {
  int64_t peak_bytes = 0;      // certified peak live bytes per sample
  int peak_step = -1;          // step at which the peak occurs (-1: none)
  int64_t arena_bytes = 0;     // sum of all arena buffers per sample
};

MemCertificate CertifyPlanMemory(const PlanIR& plan);

DiagnosticList AnalyzePlanMemory(const PlanIR& plan, const MemAnalysisOptions& options = {});

}  // namespace gmorph

#endif  // GMORPH_SRC_ANALYSIS_MEM_ANALYSIS_H_
