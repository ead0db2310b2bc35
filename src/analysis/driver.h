// The unified analysis driver: one entry point that runs the verifiers as
// passes, applies a severity policy, and renders the result in text, JSON, or
// SARIF 2.1.0.
//
// Pipelines:
//   RunGraphPasses(graph)   GraphVerifier under uniform options — the search
//                           rejects candidates through this entry point;
//   RunPlanPasses(plan)     PlanVerifier + the dtype-propagation analysis +
//                           the peak-memory certifier;
//   AnalyzeFile(path)       sniffs the artifact kind from the file head
//                           (binary graph or weight-file magic, or the shared
//                           "gmorph-<kind> vN" header line) and runs the
//                           matching linter; unknown files fall back to being
//                           parsed as a search config naming a benchmark.
//
// Severity policy, applied uniformly after the passes run:
//   --Werror=<rule|prefix>  promote matching warnings to errors;
//   --Wno=<rule|prefix>     drop matching warnings/notes (errors cannot be
//                           silenced by flag — only a baseline entry, which
//                           pins an exact finding, can suppress one);
//   baseline file           text file of "rule.id node path" lines (and #
//                           comments) naming known findings to suppress.
// Patterns must select at least one registered rule (see rules.h).
//
// Exit-code policy (uniform across all artifact kinds and formats):
//   0  clean after policy (warnings/notes do not fail);
//   1  at least one error diagnostic survived the policy;
//   2  the input could not be read at all.
#ifndef GMORPH_SRC_ANALYSIS_DRIVER_H_
#define GMORPH_SRC_ANALYSIS_DRIVER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/diagnostics.h"
#include "src/analysis/graph_verifier.h"
#include "src/analysis/mem_analysis.h"
#include "src/analysis/plan_ir.h"

namespace gmorph {

enum class AnalysisFormat { kText, kJson, kSarif };

struct AnalysisOptions {
  std::vector<std::string> werror;  // promote matching warnings to errors
  std::vector<std::string> wno;     // drop matching warnings/notes
  std::string baseline_path;        // empty: no baseline suppression
  MemAnalysisOptions mem;
  // Lowers a verified graph into a plan for the plan passes (installed by the
  // CLI as FusedEngine::ExportPlan — the analysis layer cannot link the
  // runtime). Empty: graph inputs get graph passes only.
  std::function<PlanIR(const AbsGraph& graph, uint64_t seed)> plan_from_graph;
  uint64_t seed = 42;  // model materialization seed for graph/config inputs
};

// Rejects --Werror=/--Wno= patterns that select no registered rule. Returns
// false with a human-readable reason.
bool ValidateAnalysisOptions(const AnalysisOptions& options, std::string* error);

struct AnalysisReport {
  DiagnosticList diags;        // post-policy findings
  std::string input_path;
  std::string input_kind;      // "plan", "graph", "config", "tunedb", ...
  int suppressed_baseline = 0;
  int suppressed_wno = 0;
  int promoted = 0;            // warnings escalated by --Werror
  bool unreadable = false;     // exit-code-2 condition
  std::string unreadable_reason;

  int exit_code() const {
    return unreadable ? 2 : (diags.ok() ? 0 : 1);
  }
};

// Pass pipelines (no policy applied; callers that want the policy use
// AnalyzeFile or ApplySeverityPolicy).
DiagnosticList RunGraphPasses(const AbsGraph& graph, const GraphVerifyOptions& options = {});
DiagnosticList RunPlanPasses(const PlanIR& plan, const MemAnalysisOptions& mem = {});

// Applies baseline suppression and the --Wno/--Werror policy to `diags`,
// filling the report's counters. The baseline is loaded from
// options.baseline_path; a named-but-unreadable baseline marks the report
// unreadable (a policy the user asked for must not be silently skipped).
void ApplySeverityPolicy(const AnalysisOptions& options, DiagnosticList diags,
                         AnalysisReport* report);

// Full driver: sniff, run passes, apply policy.
AnalysisReport AnalyzeFile(const std::string& path, const AnalysisOptions& options);

// Renderers. Text matches the historical --verify output (one diagnostic per
// line plus a trailer); JSON is a stable machine-readable envelope; SARIF is
// a minimal valid SARIF 2.1.0 log with one run.
std::string RenderAnalysisText(const AnalysisReport& report);
std::string RenderAnalysisJson(const AnalysisReport& report);
std::string RenderAnalysisSarif(const AnalysisReport& report);
std::string RenderAnalysis(const AnalysisReport& report, AnalysisFormat format);

}  // namespace gmorph

#endif  // GMORPH_SRC_ANALYSIS_DRIVER_H_
