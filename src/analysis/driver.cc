#include "src/analysis/driver.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "src/analysis/dtype_analysis.h"
#include "src/analysis/plan_io.h"
#include "src/analysis/plan_verifier.h"
#include "src/analysis/rules.h"
#include "src/common/artifact_header.h"
#include "src/common/check.h"
#include "src/common/config.h"
#include "src/core/eval_cache.h"
#include "src/core/graph_io.h"
#include "src/core/model_parser.h"
#include "src/core/search_checkpoint.h"
#include "src/data/benchmarks.h"
#include "src/kernels/machine.h"
#include "src/kernels/tune_db.h"
#include "src/obs/json.h"
#include "src/quant/recipe.h"

namespace gmorph {
namespace {

using obs::JsonEscape;

// One baseline entry: an exact (rule id, node path) pair a previous run
// acknowledged. The file format is one finding per line — the rule id, one
// space, then the node path verbatim (it may itself contain spaces):
//
//   # plan fixtures carry this historical warning
//   plan.value.unused value v7
struct Baseline {
  std::vector<std::pair<std::string, std::string>> entries;

  bool Matches(const Diagnostic& d) const {
    for (const auto& [rule, path] : entries) {
      if (d.rule_id == rule && d.node_path == path) {
        return true;
      }
    }
    return false;
  }
};

bool LoadBaseline(const std::string& path, Baseline* baseline, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open baseline file " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') {
      continue;
    }
    const size_t space = line.find(' ', start);
    const std::string rule = line.substr(start, space - start);
    if (FindRule(rule) == nullptr) {
      *error = path + ":" + std::to_string(lineno) + ": unknown rule '" + rule + "'";
      return false;
    }
    std::string node_path =
        space == std::string::npos ? std::string() : line.substr(space + 1);
    while (!node_path.empty() && (node_path.back() == ' ' || node_path.back() == '\r')) {
      node_path.pop_back();
    }
    baseline->entries.emplace_back(rule, std::move(node_path));
  }
  return true;
}

bool MatchesAny(const std::string& rule_id, const std::vector<std::string>& patterns) {
  for (const std::string& pattern : patterns) {
    if (RuleMatchesPattern(rule_id, pattern)) {
      return true;
    }
  }
  return false;
}

const char* SarifLevel(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "none";
}

// The kind word of the first line when it names a known gmorph text artifact.
std::string SniffTextKind(const std::string& head) {
  const size_t eol = head.find('\n');
  std::string first = head.substr(0, eol);
  if (!first.empty() && first.back() == '\r') {
    first.pop_back();
  }
  std::string kind;
  if (!ParseArtifactHeaderLine(first, &kind, nullptr)) {
    // Version-damaged headers ("gmorph-plan vX") still dispatch by prefix so
    // the matching linter reports the version error instead of the config
    // fallback rejecting the file wholesale.
    const size_t space = first.find(' ');
    kind = first.substr(0, space);
  }
  return kind;
}

}  // namespace

bool ValidateAnalysisOptions(const AnalysisOptions& options, std::string* error) {
  for (const std::vector<std::string>* patterns : {&options.werror, &options.wno}) {
    for (const std::string& pattern : *patterns) {
      if (!PatternSelectsAnyRule(pattern)) {
        *error = "pattern '" + pattern + "' selects no registered rule (see --list-rules)";
        return false;
      }
    }
  }
  return true;
}

DiagnosticList RunGraphPasses(const AbsGraph& graph, const GraphVerifyOptions& options) {
  return VerifyGraph(graph, options);
}

DiagnosticList RunPlanPasses(const PlanIR& plan, const MemAnalysisOptions& mem) {
  DiagnosticList diags = VerifyPlan(plan);
  diags.Merge(AnalyzePlanDtypes(plan));
  diags.Merge(AnalyzePlanMemory(plan, mem));
  return diags;
}

void ApplySeverityPolicy(const AnalysisOptions& options, DiagnosticList diags,
                         AnalysisReport* report) {
  Baseline baseline;
  if (!options.baseline_path.empty()) {
    std::string error;
    if (!LoadBaseline(options.baseline_path, &baseline, &error)) {
      report->unreadable = true;
      report->unreadable_reason = error;
      return;
    }
  }
  for (Diagnostic d : diags.items()) {
    if (baseline.Matches(d)) {
      ++report->suppressed_baseline;
      continue;
    }
    if (d.severity != Severity::kError && MatchesAny(d.rule_id, options.wno)) {
      ++report->suppressed_wno;
      continue;
    }
    if (d.severity == Severity::kWarning && MatchesAny(d.rule_id, options.werror)) {
      d.severity = Severity::kError;
      ++report->promoted;
    }
    report->diags.Add(std::move(d));
  }
}

AnalysisReport AnalyzeFile(const std::string& path, const AnalysisOptions& options) {
  AnalysisReport report;
  report.input_path = path;
  std::string patterns_error;
  if (!ValidateAnalysisOptions(options, &patterns_error)) {
    report.unreadable = true;
    report.unreadable_reason = patterns_error;
    return report;
  }

  std::ifstream probe(path, std::ios::binary);
  if (!probe) {
    report.unreadable = true;
    report.unreadable_reason = "cannot open " + path;
    return report;
  }
  std::string head(64, '\0');
  probe.read(head.data(), static_cast<std::streamsize>(head.size()));
  head.resize(static_cast<size_t>(probe.gcount()));
  probe.close();

  DiagnosticList diags;
  if (head.rfind("GMORPHG", 0) == 0 ||
      (head.size() >= 8 && head.compare(0, 8, "1GHPROMG") == 0)) {
    // Binary graph (magic, either byte order): graph passes with the
    // serializer round-trip, then the plan passes when lowering is available.
    report.input_kind = "graph";
    GraphLoadResult loaded = TryLoadGraph(path);
    if (!loaded.ok()) {
      ApplySeverityPolicy(options, std::move(loaded.diagnostics), &report);
      return report;
    }
    GraphVerifyOptions gopts;
    gopts.roundtrip = true;
    diags = RunGraphPasses(*loaded.graph, gopts);
    if (diags.ok() && options.plan_from_graph) {
      try {
        diags.Merge(RunPlanPasses(options.plan_from_graph(*loaded.graph, options.seed),
                                  options.mem));
      } catch (const CheckError& e) {
        diags.Add(Diagnostic::FromCheckError(e));
      }
    }
    ApplySeverityPolicy(options, std::move(diags), &report);
    return report;
  }

  const std::string kind = SniffTextKind(head);
  if (kind == kPlanArtifact.kind) {
    report.input_kind = "plan";
    PlanParseResult parsed = ParsePlanTextFile(path);
    diags = std::move(parsed.diagnostics);
    if (diags.ok()) {
      diags.Merge(RunPlanPasses(parsed.plan, options.mem));
    }
  } else if (kind == kEvalCacheArtifact.kind) {
    report.input_kind = "evalcache";
    diags = VerifyEvalCacheFile(path);
  } else if (kind == kCheckpointArtifact.kind) {
    report.input_kind = "checkpoint";
    diags = VerifyCheckpointFile(path);
  } else if (kind == kTuneDbArtifact.kind) {
    report.input_kind = "tunedb";
    diags = kernels::VerifyTuneDbFile(path);
  } else if (kind == kMachineArtifact.kind) {
    report.input_kind = "machine";
    diags = kernels::VerifyMachineFile(path);
  } else if (kind == kQuantRecipeArtifact.kind) {
    report.input_kind = "quantrecipe";
    diags = quant::VerifyQuantRecipeFile(path);
  } else {
    // Fall back to treating the file as a search config naming a benchmark
    // (or an input_graph to load).
    report.input_kind = "config";
    Config config;
    try {
      config = Config::FromFile(path);
    } catch (const CheckError& e) {
      report.unreadable = true;
      report.unreadable_reason =
          path + " is neither a gmorph artifact nor a config: " + e.what();
      return report;
    }
    const uint64_t seed = static_cast<uint64_t>(config.GetInt("seed", 42));
    AbsGraph graph;
    const std::string graph_path = config.GetString("input_graph", "");
    if (!graph_path.empty()) {
      GraphLoadResult loaded = TryLoadGraph(graph_path);
      if (!loaded.ok()) {
        ApplySeverityPolicy(options, std::move(loaded.diagnostics), &report);
        return report;
      }
      graph = std::move(*loaded.graph);
    } else {
      const int bench_index = static_cast<int>(config.GetInt("benchmark", 1));
      BenchmarkScale scale;
      scale.train_size = 1;  // datasets are unused here; keep it cheap
      scale.test_size = 1;
      scale.cnn_width = config.GetInt("cnn_width", 8);
      BenchmarkDef def = MakeBenchmark(bench_index, scale, seed);
      std::vector<ModelSpec> specs;
      for (const auto& task : def.tasks) {
        specs.push_back(task.model);
      }
      graph = ParseModelSpecs(specs);
    }
    GraphVerifyOptions gopts;
    gopts.roundtrip = true;
    diags = RunGraphPasses(graph, gopts);
    if (diags.ok() && options.plan_from_graph) {
      try {
        diags.Merge(RunPlanPasses(options.plan_from_graph(graph, seed), options.mem));
      } catch (const CheckError& e) {
        diags.Add(Diagnostic::FromCheckError(e));
      }
    }
  }
  ApplySeverityPolicy(options, std::move(diags), &report);
  return report;
}

std::string RenderAnalysisText(const AnalysisReport& report) {
  std::ostringstream os;
  if (report.unreadable) {
    os << "verify: " << report.unreadable_reason << "\n";
    return os.str();
  }
  for (const Diagnostic& d : report.diags.items()) {
    os << d.ToString() << "\n";
  }
  const int suppressed = report.suppressed_baseline + report.suppressed_wno;
  if (suppressed > 0 || report.promoted > 0) {
    os << "verify: " << report.suppressed_baseline << " baselined, " << report.suppressed_wno
       << " disabled, " << report.promoted << " promoted to error\n";
  }
  if (!report.diags.ok()) {
    os << "verify: " << report.diags.error_count() << " error(s)\n";
  } else {
    os << "verify: clean (" << report.diags.size() << " warning(s)/note(s))\n";
  }
  return os.str();
}

std::string RenderAnalysisJson(const AnalysisReport& report) {
  std::ostringstream os;
  os << "{\"file\": \"" << JsonEscape(report.input_path) << "\", \"kind\": \""
     << JsonEscape(report.input_kind) << "\", \"exit_code\": " << report.exit_code()
     << ", \"errors\": " << (report.unreadable ? 0 : report.diags.error_count())
     << ", \"suppressed\": " << report.suppressed_baseline + report.suppressed_wno
     << ", \"promoted\": " << report.promoted;
  if (report.unreadable) {
    os << ", \"unreadable\": \"" << JsonEscape(report.unreadable_reason) << "\"";
  }
  os << ", \"diagnostics\": [";
  bool first = true;
  for (const Diagnostic& d : report.diags.items()) {
    if (!first) {
      os << ", ";
    }
    first = false;
    os << "{\"severity\": \"" << SeverityName(d.severity) << "\", \"rule\": \""
       << JsonEscape(d.rule_id) << "\", \"path\": \"" << JsonEscape(d.node_path)
       << "\", \"message\": \"" << JsonEscape(d.message) << "\"}";
  }
  os << "]}\n";
  return os.str();
}

std::string RenderAnalysisSarif(const AnalysisReport& report) {
  // Minimal valid SARIF 2.1.0: one run, the fired rules in tool.driver.rules,
  // one result per diagnostic with the node path as a logical location.
  std::vector<std::string> rule_ids;
  const auto rule_index = [&](const std::string& id) {
    for (size_t i = 0; i < rule_ids.size(); ++i) {
      if (rule_ids[i] == id) {
        return static_cast<int>(i);
      }
    }
    rule_ids.push_back(id);
    return static_cast<int>(rule_ids.size()) - 1;
  };
  std::ostringstream results;
  bool first = true;
  for (const Diagnostic& d : report.diags.items()) {
    const int index = rule_index(d.rule_id);
    if (!first) {
      results << ", ";
    }
    first = false;
    results << "{\"ruleId\": \"" << JsonEscape(d.rule_id) << "\", \"ruleIndex\": " << index
            << ", \"level\": \"" << SarifLevel(d.severity) << "\", \"message\": {\"text\": \""
            << JsonEscape(d.message) << "\"}, \"locations\": [{\"physicalLocation\": "
            << "{\"artifactLocation\": {\"uri\": \"" << JsonEscape(report.input_path)
            << "\"}}, \"logicalLocations\": [{\"fullyQualifiedName\": \""
            << JsonEscape(d.node_path) << "\"}]}]}";
  }
  std::ostringstream rules;
  first = true;
  for (const std::string& id : rule_ids) {
    if (!first) {
      rules << ", ";
    }
    first = false;
    rules << "{\"id\": \"" << JsonEscape(id) << "\"";
    if (const RuleInfo* info = FindRule(id)) {
      rules << ", \"shortDescription\": {\"text\": \"" << JsonEscape(info->description)
            << "\"}, \"defaultConfiguration\": {\"level\": \""
            << SarifLevel(info->default_severity) << "\"}";
    }
    rules << "}";
  }
  std::ostringstream os;
  os << "{\"$schema\": "
        "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/"
        "sarif-schema-2.1.0.json\", \"version\": \"2.1.0\", \"runs\": [{\"tool\": "
        "{\"driver\": {\"name\": \"gmorph\", \"rules\": ["
     << rules.str() << "]}}, \"results\": [" << results.str() << "]}]}\n";
  return os.str();
}

std::string RenderAnalysis(const AnalysisReport& report, AnalysisFormat format) {
  switch (format) {
    case AnalysisFormat::kText:
      return RenderAnalysisText(report);
    case AnalysisFormat::kJson:
      return RenderAnalysisJson(report);
    case AnalysisFormat::kSarif:
      return RenderAnalysisSarif(report);
  }
  return RenderAnalysisText(report);
}

}  // namespace gmorph
