#include "src/analysis/driver.h"

#include <algorithm>
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
#include "src/tensor/serialization.h"

namespace gmorph {
namespace {

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
  if (head.rfind("GMORPHW1", 0) == 0 || head.rfind("1WHPROMG", 0) == 0) {
    // Weight file (magic, either byte order).
    report.input_kind = "weights";
    ApplySeverityPolicy(options, VerifyWeightsFile(path), &report);
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
  obs::JsonWriter w(obs::kSpacedJson);
  w.BeginObject().Key("file").String(report.input_path).Key("kind").String(report.input_kind);
  w.Key("exit_code").Int(report.exit_code());
  w.Key("errors").Int(report.unreadable ? 0 : report.diags.error_count());
  w.Key("suppressed").Int(report.suppressed_baseline + report.suppressed_wno);
  w.Key("promoted").Int(report.promoted);
  if (report.unreadable) {
    w.Key("unreadable").String(report.unreadable_reason);
  }
  w.Key("diagnostics").BeginArray();
  for (const Diagnostic& d : report.diags.items()) {
    w.BeginObject().Key("severity").String(SeverityName(d.severity));
    w.Key("rule").String(d.rule_id).Key("path").String(d.node_path);
    w.Key("message").String(d.message).EndObject();
  }
  w.EndArray().EndObject();
  return w.Take() + "\n";
}

std::string RenderAnalysisSarif(const AnalysisReport& report) {
  // Minimal valid SARIF 2.1.0: one run, the fired rules in tool.driver.rules
  // (in order of first firing), one result per diagnostic with the node path
  // as a logical location.
  std::vector<std::string> rule_ids;
  for (const Diagnostic& d : report.diags.items()) {
    if (std::find(rule_ids.begin(), rule_ids.end(), d.rule_id) == rule_ids.end()) {
      rule_ids.push_back(d.rule_id);
    }
  }
  obs::JsonWriter w(obs::kSpacedJson);
  w.BeginObject().Key("$schema").String(
      "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/"
      "sarif-schema-2.1.0.json");
  w.Key("version").String("2.1.0").Key("runs").BeginArray().BeginObject();
  w.Key("tool").BeginObject().Key("driver").BeginObject().Key("name").String("gmorph");
  w.Key("rules").BeginArray();
  for (const std::string& id : rule_ids) {
    w.BeginObject().Key("id").String(id);
    if (const RuleInfo* info = FindRule(id)) {
      w.Key("shortDescription").BeginObject().Key("text").String(info->description).EndObject();
      w.Key("defaultConfiguration").BeginObject();
      w.Key("level").String(SarifLevel(info->default_severity)).EndObject();
    }
    w.EndObject();
  }
  w.EndArray().EndObject().EndObject().Key("results").BeginArray();
  for (const Diagnostic& d : report.diags.items()) {
    w.BeginObject().Key("ruleId").String(d.rule_id);
    w.Key("ruleIndex").Int(std::find(rule_ids.begin(), rule_ids.end(), d.rule_id) -
                           rule_ids.begin());
    w.Key("level").String(SarifLevel(d.severity));
    w.Key("message").BeginObject().Key("text").String(d.message).EndObject();
    w.Key("locations").BeginArray().BeginObject().Key("physicalLocation").BeginObject();
    w.Key("artifactLocation").BeginObject().Key("uri").String(report.input_path).EndObject();
    w.EndObject().Key("logicalLocations").BeginArray().BeginObject();
    w.Key("fullyQualifiedName").String(d.node_path).EndObject().EndArray();
    w.EndObject().EndArray().EndObject();
  }
  w.EndArray().EndObject().EndArray().EndObject();
  return w.Take() + "\n";
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
