// The unified analysis driver: rule registry invariants, the dtype-propagation
// and peak-memory dataflow analyses, the severity policy
// (--Werror/--Wno/baseline), AnalyzeFile's kind sniffing, and the
// text/JSON/SARIF renderers.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/driver.h"
#include "src/analysis/dtype_analysis.h"
#include "src/analysis/mem_analysis.h"
#include "src/analysis/plan_ir.h"
#include "src/analysis/rules.h"

#ifndef GMORPH_TESTDATA_DIR
#define GMORPH_TESTDATA_DIR "tests/testdata"
#endif

namespace gmorph {
namespace {

std::string Testdata(const char* file) {
  return std::string(GMORPH_TESTDATA_DIR) + "/" + file;
}

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

TEST(RuleRegistryTest, RulesAreSortedAndUnique) {
  const auto rules = AllRules();
  ASSERT_FALSE(rules.empty());
  for (size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(std::string(rules[i - 1].id), std::string(rules[i].id))
        << "registry must be sorted and duplicate-free";
  }
}

TEST(RuleRegistryTest, EveryRuleHasADescription) {
  for (const RuleInfo& rule : AllRules()) {
    EXPECT_NE(rule.description[0], '\0') << rule.id;
  }
}

TEST(RuleRegistryTest, FindRuleResolvesExactIdsOnly) {
  ASSERT_NE(FindRule("plan.buffer.overlap"), nullptr);
  EXPECT_EQ(std::string(FindRule("plan.buffer.overlap")->id), "plan.buffer.overlap");
  EXPECT_EQ(FindRule("plan.buffer"), nullptr);
  EXPECT_EQ(FindRule("no.such.rule"), nullptr);
}

TEST(RuleRegistryTest, PatternsMatchExactAndDottedPrefix) {
  EXPECT_TRUE(RuleMatchesPattern("plan.buffer.overlap", "plan.buffer.overlap"));
  EXPECT_TRUE(RuleMatchesPattern("plan.buffer.overlap", "plan"));
  EXPECT_TRUE(RuleMatchesPattern("plan.buffer.overlap", "plan."));
  EXPECT_TRUE(RuleMatchesPattern("plan.buffer.overlap", "plan.*"));
  EXPECT_TRUE(RuleMatchesPattern("plan.buffer.overlap", "plan.buffer"));
  EXPECT_FALSE(RuleMatchesPattern("plan.buffer.overlap", "plan.buf"));
  EXPECT_FALSE(RuleMatchesPattern("planner.x", "plan"));
  EXPECT_TRUE(PatternSelectsAnyRule("tune"));
  EXPECT_FALSE(PatternSelectsAnyRule("bogus"));
}

TEST(RuleRegistryTest, ListRulesTextCoversTheWholeRegistry) {
  const std::string text = ListRulesText();
  for (const RuleInfo& rule : AllRules()) {
    EXPECT_NE(text.find(rule.id), std::string::npos) << rule.id;
  }
  EXPECT_NE(text.find("# " + std::to_string(AllRules().size()) + " rules."),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Plan-building helpers (mirrors verifier_test.cc's minimal chain)
// ---------------------------------------------------------------------------

PlanStep LinearStep(int in, int out, int group = 0) {
  PlanStep s;
  s.kind = PlanOp::kLinear;
  s.in0 = in;
  s.out = out;
  s.group = group;
  s.weight_shape = Shape{4, 4};
  return s;
}

PlanValue Val4(int buffer = -1, bool head = false) {
  PlanValue v;
  v.shape = Shape{4};
  v.buffer = buffer;
  v.is_head = head;
  return v;
}

void IndexGroups(PlanIR& plan) {
  for (int s = 0; s < static_cast<int>(plan.steps.size()); ++s) {
    plan.groups[static_cast<size_t>(plan.steps[static_cast<size_t>(s)].group)].steps.push_back(s);
  }
  for (int g = 1; g < static_cast<int>(plan.groups.size()); ++g) {
    plan.groups[static_cast<size_t>(plan.groups[static_cast<size_t>(g)].parent)]
        .children.push_back(g);
  }
}

PlanIR CleanChainPlan() {
  PlanIR plan;
  plan.values = {Val4(), Val4(0), Val4(1, /*head=*/true)};
  plan.groups.emplace_back();
  plan.buffers = {PlanBuffer{4, true}, PlanBuffer{4, false}};
  plan.steps = {LinearStep(0, 1), LinearStep(1, 2)};
  plan.head_values = {2};
  IndexGroups(plan);
  return plan;
}

// ---------------------------------------------------------------------------
// Dtype-propagation analysis
// ---------------------------------------------------------------------------

TEST(DtypeAnalysisTest, CleanChainHasNoFindings) {
  EXPECT_TRUE(AnalyzePlanDtypes(CleanChainPlan()).empty());
}

TEST(DtypeAnalysisTest, DetectsDeclaredInt8AgainstComputedF32) {
  PlanIR plan = CleanChainPlan();
  plan.values[1].dtype = kernels::DType::kInt8;
  const DiagnosticList diags = AnalyzePlanDtypes(plan);
  EXPECT_TRUE(diags.HasRule("plan.dtype.mismatch")) << diags.ToString();
}

TEST(DtypeAnalysisTest, DetectsInt8PlanInput) {
  PlanIR plan = CleanChainPlan();
  plan.values[0].dtype = kernels::DType::kInt8;
  const DiagnosticList diags = AnalyzePlanDtypes(plan);
  EXPECT_TRUE(diags.HasRule("plan.dtype.mismatch")) << diags.ToString();
}

TEST(DtypeAnalysisTest, DetectsAliasChangingDtype) {
  PlanIR plan = CleanChainPlan();
  PlanValue alias;
  alias.shape = Shape{4};
  alias.alias_of = 1;
  alias.dtype = kernels::DType::kInt8;
  plan.values.push_back(alias);
  const DiagnosticList diags = AnalyzePlanDtypes(plan);
  EXPECT_TRUE(diags.HasRule("plan.dtype.alias")) << diags.ToString();
}

TEST(DtypeAnalysisTest, DetectsInt8OnNonGemmStep) {
  PlanIR plan = CleanChainPlan();
  PlanStep pool;
  pool.kind = PlanOp::kMaxPool;
  pool.in0 = 1;
  pool.out = 2;
  pool.dtype = kernels::DType::kInt8;
  plan.steps[1] = pool;
  const DiagnosticList diags = AnalyzePlanDtypes(plan);
  EXPECT_TRUE(diags.HasRule("plan.dtype.step")) << diags.ToString();

  // A linear with a residual skip-add has no int8 epilogue either.
  PlanIR skip_plan = CleanChainPlan();
  skip_plan.steps[1].skip = 0;
  skip_plan.steps[1].dtype = kernels::DType::kInt8;
  const DiagnosticList skip_diags = AnalyzePlanDtypes(skip_plan);
  EXPECT_TRUE(skip_diags.HasRule("plan.dtype.step")) << skip_diags.ToString();
}

TEST(DtypeAnalysisTest, DetectsInt8OperandAtKernelBoundary) {
  // v1 has no producer (fact stays bottom), so its declared int8 storage is
  // what the consuming kernel would read — a boundary violation.
  PlanIR plan = CleanChainPlan();
  plan.steps.erase(plan.steps.begin());
  plan.groups[0].steps = {0};
  plan.steps[0].in0 = 1;
  plan.values[1].dtype = kernels::DType::kInt8;
  const DiagnosticList diags = AnalyzePlanDtypes(plan);
  EXPECT_TRUE(diags.HasRule("plan.dtype.input")) << diags.ToString();
}

TEST(DtypeAnalysisTest, DetectsInt8Head) {
  PlanIR plan = CleanChainPlan();
  plan.values[2].dtype = kernels::DType::kInt8;
  const DiagnosticList diags = AnalyzePlanDtypes(plan);
  EXPECT_TRUE(diags.HasRule("plan.dtype.head")) << diags.ToString();
}

TEST(DtypeAnalysisTest, DetectsMixedDtypeBuffer) {
  // Two residents of buffer 0 with different declared storage dtypes.
  PlanIR plan = CleanChainPlan();
  plan.values[1].dtype = kernels::DType::kInt8;
  PlanValue other = Val4(0);
  plan.values.push_back(other);
  const DiagnosticList diags = AnalyzePlanDtypes(plan);
  EXPECT_TRUE(diags.HasRule("plan.dtype.buffer")) << diags.ToString();
}

TEST(DtypeAnalysisTest, QuantizedStepKeepsF32Storage) {
  // An int8 conv/linear step is the supported mixed-precision shape: it
  // quantizes at the input boundary and dequantizes at the output, so all
  // storage stays f32 and the analysis is silent.
  PlanIR plan = CleanChainPlan();
  plan.steps[0].dtype = kernels::DType::kInt8;
  EXPECT_TRUE(AnalyzePlanDtypes(plan).empty());
}

// ---------------------------------------------------------------------------
// Peak-memory certification
// ---------------------------------------------------------------------------

TEST(MemAnalysisTest, CertifiesTheCleanChainExactly) {
  const MemCertificate cert = CertifyPlanMemory(CleanChainPlan());
  // At step 1 both v1 (16 bytes) and head v2 (16 bytes) are live.
  EXPECT_EQ(cert.peak_bytes, 32);
  EXPECT_EQ(cert.peak_step, 1);
  EXPECT_EQ(cert.arena_bytes, 32);
}

TEST(MemAnalysisTest, CleanChainPassesWithSummaryNote) {
  const DiagnosticList diags = AnalyzePlanMemory(CleanChainPlan());
  EXPECT_TRUE(diags.ok()) << diags.ToString();
  EXPECT_TRUE(diags.HasRule("plan.mem.summary"));
}

TEST(MemAnalysisTest, SummaryNoteCanBeMuted) {
  MemAnalysisOptions options;
  options.summary = false;
  EXPECT_TRUE(AnalyzePlanMemory(CleanChainPlan(), options).empty());
}

TEST(MemAnalysisTest, DetectsUndersizedArena) {
  // Shrink the arena below the certified peak by pointing both values at one
  // shared buffer (the overlap is the verifier's finding; the arena shortfall
  // is the certifier's).
  PlanIR plan = CleanChainPlan();
  plan.values[2].buffer = 0;
  plan.buffers.pop_back();
  const DiagnosticList diags = AnalyzePlanMemory(plan);
  EXPECT_TRUE(diags.HasRule("plan.mem.arena")) << diags.ToString();
}

TEST(MemAnalysisTest, WarnsOnDeadArenaSlot) {
  PlanIR plan = CleanChainPlan();
  plan.buffers.push_back(PlanBuffer{4, true});  // no value ever lives here
  const DiagnosticList diags = AnalyzePlanMemory(plan);
  EXPECT_TRUE(diags.ok()) << diags.ToString();
  EXPECT_TRUE(diags.HasRule("plan.mem.buffer"));
}

TEST(MemAnalysisTest, WarnsOnWastefulArena) {
  PlanIR plan = CleanChainPlan();
  MemAnalysisOptions options;
  options.waste_factor = 1.0;
  options.slack_bytes = 0;
  plan.buffers[0].elems_per_sample = 4096;  // vastly oversized slot
  const DiagnosticList diags = AnalyzePlanMemory(plan, options);
  EXPECT_TRUE(diags.ok()) << diags.ToString();
  EXPECT_TRUE(diags.HasRule("plan.mem.waste"));
}

TEST(MemAnalysisTest, HeadsStayLiveToTheEnd) {
  // The head defined at step 0 must be counted live through the last step
  // even though no later step reads it.
  PlanIR plan;
  plan.values = {Val4(), Val4(0, /*head=*/true), Val4(1, /*head=*/true)};
  plan.groups.emplace_back();
  plan.buffers = {PlanBuffer{4, false}, PlanBuffer{4, false}};
  plan.steps = {LinearStep(0, 1), LinearStep(0, 2)};
  plan.head_values = {1, 2};
  IndexGroups(plan);
  const MemCertificate cert = CertifyPlanMemory(plan);
  EXPECT_EQ(cert.peak_bytes, 32);
  EXPECT_EQ(cert.peak_step, 1);
}

// ---------------------------------------------------------------------------
// Severity policy
// ---------------------------------------------------------------------------

DiagnosticList MixedDiags() {
  DiagnosticList diags;
  diags.Error("plan.buffer.overlap", "buffer 0") << "overlap";
  diags.Warning("plan.value.unused", "value v7") << "unused";
  diags.Note("plan.mem.summary", "plan") << "summary";
  return diags;
}

TEST(SeverityPolicyTest, WerrorPromotesMatchingWarnings) {
  AnalysisOptions options;
  options.werror = {"plan.value.unused"};
  AnalysisReport report;
  ApplySeverityPolicy(options, MixedDiags(), &report);
  EXPECT_EQ(report.promoted, 1);
  EXPECT_EQ(report.diags.error_count(), 2);
}

TEST(SeverityPolicyTest, WnoDropsWarningsAndNotesButNeverErrors) {
  AnalysisOptions options;
  options.wno = {"plan"};
  AnalysisReport report;
  ApplySeverityPolicy(options, MixedDiags(), &report);
  EXPECT_EQ(report.suppressed_wno, 2);  // the warning and the note
  EXPECT_EQ(report.diags.error_count(), 1);
  EXPECT_TRUE(report.diags.HasRule("plan.buffer.overlap"));
}

TEST(SeverityPolicyTest, WnoShieldsAWarningFromWerror) {
  AnalysisOptions options;
  options.wno = {"plan.value.unused"};
  options.werror = {"plan.value.unused"};
  AnalysisReport report;
  ApplySeverityPolicy(options, MixedDiags(), &report);
  EXPECT_EQ(report.promoted, 0);
  EXPECT_EQ(report.suppressed_wno, 1);
}

TEST(SeverityPolicyTest, BaselinePinsExactRuleAndPath) {
  const std::string path = ::testing::TempDir() + "/policy.baseline";
  {
    std::ofstream out(path);
    out << "# known findings\n";
    out << "plan.buffer.overlap buffer 0\n";
  }
  AnalysisOptions options;
  options.baseline_path = path;
  AnalysisReport report;
  ApplySeverityPolicy(options, MixedDiags(), &report);
  EXPECT_EQ(report.suppressed_baseline, 1);
  EXPECT_TRUE(report.diags.ok());  // the overlap error is baselined away

  // A different node path is a new finding and must not be suppressed.
  DiagnosticList moved;
  moved.Error("plan.buffer.overlap", "buffer 1") << "overlap elsewhere";
  AnalysisReport fresh;
  ApplySeverityPolicy(options, std::move(moved), &fresh);
  EXPECT_EQ(fresh.suppressed_baseline, 0);
  EXPECT_FALSE(fresh.diags.ok());
  std::remove(path.c_str());
}

TEST(SeverityPolicyTest, BaselineWithUnknownRuleIsUnreadable) {
  const std::string path = ::testing::TempDir() + "/bad.baseline";
  {
    std::ofstream out(path);
    out << "no.such.rule somewhere\n";
  }
  AnalysisOptions options;
  options.baseline_path = path;
  AnalysisReport report;
  ApplySeverityPolicy(options, MixedDiags(), &report);
  EXPECT_TRUE(report.unreadable);
  EXPECT_EQ(report.exit_code(), 2);
  std::remove(path.c_str());
}

TEST(SeverityPolicyTest, ValidateRejectsPatternsSelectingNothing) {
  AnalysisOptions options;
  options.werror = {"plan."};
  std::string error;
  EXPECT_TRUE(ValidateAnalysisOptions(options, &error));
  options.wno = {"not.a.rule"};
  EXPECT_FALSE(ValidateAnalysisOptions(options, &error));
  EXPECT_NE(error.find("not.a.rule"), std::string::npos);
}

// ---------------------------------------------------------------------------
// AnalyzeFile: kind sniffing + exit codes over the testdata fixtures
// ---------------------------------------------------------------------------

TEST(AnalyzeFileTest, SniffsPlanAndReportsDefects) {
  const AnalysisReport report = AnalyzeFile(Testdata("plan_buffer_overlap.plan"), {});
  EXPECT_EQ(report.input_kind, "plan");
  EXPECT_EQ(report.exit_code(), 1);
  EXPECT_TRUE(report.diags.HasRule("plan.buffer.overlap"));
}

TEST(AnalyzeFileTest, RunsTheDataflowAnalysesOnPlans) {
  const AnalysisReport dtype = AnalyzeFile(Testdata("plan_dtype_int8_value.plan"), {});
  EXPECT_TRUE(dtype.diags.HasRule("plan.dtype.mismatch")) << dtype.diags.ToString();
  const AnalysisReport pool = AnalyzeFile(Testdata("plan_dtype_int8_pool.plan"), {});
  EXPECT_TRUE(pool.diags.HasRule("plan.dtype.step")) << pool.diags.ToString();
  const AnalysisReport mem = AnalyzeFile(Testdata("plan_mem_arena_short.plan"), {});
  EXPECT_TRUE(mem.diags.HasRule("plan.mem.arena")) << mem.diags.ToString();
}

TEST(AnalyzeFileTest, SniffsOtherArtifactKinds) {
  EXPECT_EQ(AnalyzeFile(Testdata("tunedb_corrupt.txt"), {}).input_kind, "tunedb");
  EXPECT_EQ(AnalyzeFile(Testdata("quantrecipe_corrupt.txt"), {}).input_kind, "quantrecipe");
  EXPECT_EQ(AnalyzeFile(Testdata("evalcache_corrupt.txt"), {}).input_kind, "evalcache");
  EXPECT_EQ(AnalyzeFile(Testdata("checkpoint_corrupt.ckpt"), {}).input_kind, "checkpoint");
  const AnalysisReport weights = AnalyzeFile(Testdata("golden_weights.bin"), {});
  EXPECT_EQ(weights.input_kind, "weights");
  EXPECT_EQ(weights.exit_code(), 0) << weights.diags.ToString();
  EXPECT_TRUE(weights.diags.HasRule("weights.summary"));
}

TEST(AnalyzeFileTest, MissingFileIsUnreadable) {
  const AnalysisReport report = AnalyzeFile(Testdata("no_such_file.plan"), {});
  EXPECT_TRUE(report.unreadable);
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(AnalyzeFileTest, BaselineSuppressionReachesExitZero) {
  AnalysisOptions options;
  options.baseline_path = Testdata("verify_overlap.baseline");
  const AnalysisReport report = AnalyzeFile(Testdata("plan_buffer_overlap.plan"), options);
  EXPECT_EQ(report.suppressed_baseline, 1);
  EXPECT_EQ(report.exit_code(), 0) << report.diags.ToString();
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

AnalysisReport OverlapReport() {
  return AnalyzeFile(Testdata("plan_buffer_overlap.plan"), {});
}

TEST(RendererTest, TextMatchesHistoricalVerifyOutput) {
  const std::string text = RenderAnalysisText(OverlapReport());
  EXPECT_NE(text.find("error[plan.buffer.overlap] buffer 0:"), std::string::npos) << text;
  EXPECT_NE(text.find("verify: 1 error(s)"), std::string::npos) << text;
}

TEST(RendererTest, JsonCarriesTheEnvelopeAndEscapes) {
  AnalysisReport report;
  report.input_path = "a\"b";
  report.input_kind = "plan";
  report.diags.Error("plan.io.parse", "line 1") << "tab\there\nline";
  const std::string json = RenderAnalysisJson(report);
  EXPECT_NE(json.find("\"file\": \"a\\\"b\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"exit_code\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("tab\\there\\nline"), std::string::npos) << json;
}

TEST(RendererTest, SarifCarriesRuleMetadataFromTheRegistry) {
  const std::string sarif = RenderAnalysisSarif(OverlapReport());
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"gmorph\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"plan.buffer.overlap\""), std::string::npos);
  // The fired rule's registry metadata rides along for SARIF viewers.
  const RuleInfo* info = FindRule("plan.buffer.overlap");
  ASSERT_NE(info, nullptr);
  EXPECT_NE(sarif.find(info->description), std::string::npos);
}

// Byte pins for the JSON and SARIF renderers: one finding of each severity,
// a rule fired twice, a rule the registry does not know, and paths and
// messages holding a quote, a backslash, a tab, a newline and \x01.
AnalysisReport MixedReport() {
  AnalysisReport report;
  report.input_path = "dir/pl\"an\\x\t.plan";
  report.input_kind = "plan";
  report.suppressed_baseline = 1;
  report.suppressed_wno = 2;
  report.promoted = 1;
  report.diags.Error("plan.buffer.overlap", "buffer 0") << "values v1\nand v2 overlap";
  report.diags.Warning("plan.value.unused", "value \"v7\"") << "unused \x01 entry";
  report.diags.Note("test.unregistered", "path\\with\\backslash") << "tab\there";
  report.diags.Error("plan.buffer.overlap", "buffer 1") << "again";
  return report;
}

AnalysisReport UnreadableReport() {
  AnalysisReport report;
  report.input_path = "missing\n.plan";
  report.unreadable = true;
  report.unreadable_reason = "cannot open \"missing\"\t[\\]";
  return report;
}

TEST(RendererTest, JsonPinsEveryByte) {
  EXPECT_EQ(RenderAnalysisJson(MixedReport()),
            R"({"file": "dir/pl\"an\\x\t.plan", "kind": "plan", "exit_code": 1, )"
            R"("errors": 2, "suppressed": 3, "promoted": 1, "diagnostics": [)"
            R"({"severity": "error", "rule": "plan.buffer.overlap", "path": "buffer 0", )"
            R"("message": "values v1\nand v2 overlap"}, )"
            R"({"severity": "warning", "rule": "plan.value.unused", "path": "value \"v7\"", )"
            R"("message": "unused \u0001 entry"}, )"
            R"({"severity": "note", "rule": "test.unregistered", )"
            R"("path": "path\\with\\backslash", "message": "tab\there"}, )"
            R"({"severity": "error", "rule": "plan.buffer.overlap", "path": "buffer 1", )"
            R"("message": "again"}]})"
            "\n");
  EXPECT_EQ(RenderAnalysisJson(UnreadableReport()),
            R"({"file": "missing\n.plan", "kind": "", "exit_code": 2, "errors": 0, )"
            R"("suppressed": 0, "promoted": 0, )"
            R"("unreadable": "cannot open \"missing\"\t[\\]", "diagnostics": []})"
            "\n");
}

TEST(RendererTest, SarifPinsEveryByte) {
  const std::string head =
      R"({"$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/)"
      R"(Schemata/sarif-schema-2.1.0.json", "version": "2.1.0", "runs": [{"tool": )"
      R"({"driver": {"name": "gmorph", "rules": [)";
  const RuleInfo* overlap = FindRule("plan.buffer.overlap");
  const RuleInfo* unused = FindRule("plan.value.unused");
  ASSERT_NE(overlap, nullptr);
  ASSERT_NE(unused, nullptr);
  const std::string location =
      R"(, "locations": [{"physicalLocation": {"artifactLocation": )"
      R"({"uri": "dir/pl\"an\\x\t.plan"}}, "logicalLocations": [{"fullyQualifiedName": )";
  EXPECT_EQ(RenderAnalysisSarif(MixedReport()),
            head + R"({"id": "plan.buffer.overlap", "shortDescription": {"text": ")" +
                overlap->description +
                R"("}, "defaultConfiguration": {"level": "error"}}, )"
                R"({"id": "plan.value.unused", "shortDescription": {"text": ")" +
                unused->description +
                R"("}, "defaultConfiguration": {"level": "warning"}}, )"
                R"({"id": "test.unregistered"}]}}, "results": [)"
                R"({"ruleId": "plan.buffer.overlap", "ruleIndex": 0, "level": "error", )"
                R"("message": {"text": "values v1\nand v2 overlap"})" +
                location + R"("buffer 0"}]}]}, )"
                R"({"ruleId": "plan.value.unused", "ruleIndex": 1, "level": "warning", )"
                R"("message": {"text": "unused \u0001 entry"})" +
                location + R"("value \"v7\""}]}]}, )"
                R"({"ruleId": "test.unregistered", "ruleIndex": 2, "level": "note", )"
                R"("message": {"text": "tab\there"})" +
                location + R"("path\\with\\backslash"}]}]}, )"
                R"({"ruleId": "plan.buffer.overlap", "ruleIndex": 0, "level": "error", )"
                R"("message": {"text": "again"})" +
                location + R"("buffer 1"}]}]}]}]})" + "\n");
  EXPECT_EQ(RenderAnalysisSarif(UnreadableReport()), head + R"(]}}, "results": []}]})" + "\n");
}

TEST(RendererTest, SarifAndTextAgreeOnFiredRuleIds) {
  const AnalysisReport report = OverlapReport();
  const std::string text = RenderAnalysisText(report);
  const std::string sarif = RenderAnalysisSarif(report);
  for (const Diagnostic& d : report.diags.items()) {
    EXPECT_NE(text.find("[" + d.rule_id + "]"), std::string::npos) << d.rule_id;
    EXPECT_NE(sarif.find("\"ruleId\": \"" + d.rule_id + "\""), std::string::npos) << d.rule_id;
  }
}

// Strict UTF-8 check: decodes each sequence and rejects stray continuation
// bytes, overlong forms, surrogates and code points past U+10FFFF.
bool IsValidUtf8(const std::string& text) {
  constexpr uint32_t kMinCodePoint[] = {0, 0x80, 0x800, 0x10000};
  for (size_t i = 0; i < text.size();) {
    const auto lead = static_cast<unsigned char>(text[i]);
    int extra = -1;  // continuation bytes the lead byte announces
    if (lead < 0x80) {
      extra = 0;
    } else if (lead >= 0xc0 && lead < 0xf8) {
      extra = lead < 0xe0 ? 1 : lead < 0xf0 ? 2 : 3;
    }
    if (extra < 0 || text.size() - i <= static_cast<size_t>(extra)) {
      return false;
    }
    uint32_t code_point = extra == 0 ? lead : lead & (0x3fu >> extra);
    for (int k = 1; k <= extra; ++k) {
      const auto next = static_cast<unsigned char>(text[i + static_cast<size_t>(k)]);
      if ((next & 0xc0) != 0x80) {
        return false;
      }
      code_point = (code_point << 6) | (next & 0x3fu);
    }
    if (code_point < kMinCodePoint[extra] || code_point > 0x10ffff ||
        (code_point >= 0xd800 && code_point <= 0xdfff)) {
      return false;
    }
    i += static_cast<size_t>(extra) + 1;
  }
  return true;
}

// The checkpoint linter quotes a bad header line verbatim; this one holds
// 0xff 0xfe, which no UTF-8 text contains.
TEST(RendererTest, SarifOfABinaryHeaderLineIsValidUtf8) {
  const AnalysisReport report = AnalyzeFile(Testdata("checkpoint_bad_header.ckpt"), {});
  EXPECT_EQ(report.exit_code(), 1);
  const std::string sarif = RenderAnalysisSarif(report);
  EXPECT_TRUE(IsValidUtf8(sarif)) << sarif;
  EXPECT_NE(sarif.find("v1\\u00ff\\u00fe\\u0001\\u0002'"), std::string::npos) << sarif;
  EXPECT_FALSE(IsValidUtf8("\xff"));
}

}  // namespace
}  // namespace gmorph
