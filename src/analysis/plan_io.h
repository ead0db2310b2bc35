// Text serialization for PlanIR: a small line-oriented format so execution
// plans can be dumped for inspection and — more importantly — hand-written
// with deliberately seeded defects and linted via `gmorph_cli --verify`.
//
// Format (`gmorph-plan v1`):
//
//   gmorph-plan v1
//   value <id> shape=AxBxC [alias=<id>] [head] [buffer=<id>]
//   step <seq> group=<g> kind=<name> in=<v> out=<v> [skip=<v>]
//        [w=OxCxKhxKw] [stride=N] [pad=N] [relu|gelu] [pool_k=N] [pool_s=N]
//        [heads=N]
//   group <id> parent=<p>
//   buffer <id> elems=<n> [dedicated]
//   head <value>
//
// Kind names: conv, linear, maxpool, gap, meanpool, resize, tokresize,
// layernorm, attention, tokens, embed. `#` starts a comment. Group step
// lists are derived from the steps' own group= fields (in sequence order);
// group children from the parent links. Ids must be dense from 0.
#ifndef GMORPH_SRC_ANALYSIS_PLAN_IO_H_
#define GMORPH_SRC_ANALYSIS_PLAN_IO_H_

#include <iosfwd>
#include <string>

#include "src/common/diagnostics.h"
#include "src/analysis/plan_ir.h"

namespace gmorph {

struct PlanParseResult {
  PlanIR plan;
  DiagnosticList diagnostics;  // rule ids: plan.io.*
  bool ok() const { return diagnostics.ok(); }
};

// Parses the text format above. Syntax/format violations are reported as
// plan.io.* diagnostics; a result with ok()==false still carries whatever
// was parsed so callers can report both parse and verification findings.
PlanParseResult ParsePlanText(std::istream& in);
PlanParseResult ParsePlanTextFile(const std::string& path);

// Writes `plan` in the same format; ParsePlanText inverts it.
void PlanToText(const PlanIR& plan, std::ostream& out);

}  // namespace gmorph

#endif  // GMORPH_SRC_ANALYSIS_PLAN_IO_H_
