// Static-analysis subsystem tests: the check macro / diagnostics engine, the
// GraphVerifier (clean on every benchmark topology, specific rule per seeded
// graph defect), the PlanVerifier (clean on every lowered plan, specific rule
// per seeded plan defect), and the plan text round trip against the lintable
// testdata files.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/diagnostics.h"
#include "src/analysis/graph_verifier.h"
#include "src/analysis/plan_io.h"
#include "src/analysis/plan_verifier.h"
#include "src/common/check.h"
#include "src/core/model_parser.h"
#include "src/core/multitask_model.h"
#include "src/data/benchmarks.h"
#include "src/runtime/fused_engine.h"
#include "src/tensor/conv_ops.h"

#ifndef GMORPH_TESTDATA_DIR
#define GMORPH_TESTDATA_DIR "tests/testdata"
#endif

namespace gmorph {
namespace {

// ---------------------------------------------------------------------------
// Check macro + diagnostics engine
// ---------------------------------------------------------------------------

TEST(CheckMacroTest, PassingChecksAreSilent) {
  GMORPH_CHECK(1 + 1 == 2);
  GMORPH_CHECK(2 > 1, "math works " << 42);
  GMORPH_DCHECK(true);
  GMORPH_DCHECK(true, "also fine");
}

TEST(CheckMacroTest, FailureCarriesStructuredFields) {
  try {
    GMORPH_CHECK(1 == 2, "one is not " << 2);
    FAIL() << "check did not throw";
  } catch (const CheckError& e) {
    EXPECT_EQ(e.expr(), "1 == 2");
    EXPECT_NE(e.file().find("verifier_test"), std::string::npos);
    EXPECT_GT(e.line(), 0);
    EXPECT_NE(e.message().find("one is not 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

// The build maps the source root out of __FILE__, so a check reports the
// same repo-relative path, and --verify prints the same bytes, from any
// checkout directory.
TEST(CheckMacroTest, FileIsRepoRelative) {
  try {
    GMORPH_CHECK(false);
    FAIL() << "check did not throw";
  } catch (const CheckError& e) {
    EXPECT_EQ(e.file(), "tests/verifier_test.cc");
  }
  try {
    ConvOutDim(1, 5, 1, 0);  // a library check
    FAIL() << "check did not throw";
  } catch (const CheckError& e) {
    EXPECT_EQ(e.file(), "src/tensor/conv_ops.cc");
  }
}

TEST(CheckMacroTest, BareFormThrowsToo) {
  EXPECT_THROW(GMORPH_CHECK(false), CheckError);
}

TEST(CheckMacroTest, FromCheckErrorSharesReportingPath) {
  try {
    GMORPH_CHECK(false, "boom");
  } catch (const CheckError& e) {
    const Diagnostic d = Diagnostic::FromCheckError(e);
    EXPECT_EQ(d.severity, Severity::kError);
    EXPECT_EQ(d.rule_id, "check.failed");
    EXPECT_NE(d.node_path.find("verifier_test"), std::string::npos);
    EXPECT_NE(d.message.find("boom"), std::string::npos);
  }
}

TEST(DiagnosticsTest, BuilderStreamsAndListAggregates) {
  DiagnosticList diags;
  EXPECT_TRUE(diags.ok());
  diags.Error("a.rule", "node 1") << "value is " << 7;
  diags.Warning("b.rule", "node 2") << "meh";
  EXPECT_FALSE(diags.ok());  // one error
  EXPECT_EQ(diags.error_count(), 1);
  EXPECT_EQ(diags.size(), 2u);
  EXPECT_TRUE(diags.HasRule("a.rule"));
  EXPECT_TRUE(diags.HasRule("b.rule"));
  EXPECT_FALSE(diags.HasRule("c.rule"));
  EXPECT_NE(diags.ToString().find("error[a.rule] node 1: value is 7"), std::string::npos);

  DiagnosticList warnings_only;
  warnings_only.Warning("w.rule", "x") << "warning";
  EXPECT_TRUE(warnings_only.ok());  // warnings don't fail a pass

  diags.Merge(warnings_only);
  EXPECT_EQ(diags.size(), 3u);
}

// ---------------------------------------------------------------------------
// GraphVerifier
// ---------------------------------------------------------------------------

AbsGraph BenchmarkGraph(int index) {
  BenchmarkScale scale;
  scale.train_size = 1;
  scale.test_size = 1;
  scale.cnn_width = 4;
  BenchmarkDef def = MakeBenchmark(index, scale, 123);
  std::vector<ModelSpec> specs;
  for (const BenchmarkTask& task : def.tasks) {
    specs.push_back(task.model);
  }
  return ParseModelSpecs(specs);
}

// Rebuilds the benchmark graph with one node surgically corrupted.
template <typename Fn>
AbsGraph CorruptGraph(int bench, Fn&& corrupt) {
  AbsGraph g = BenchmarkGraph(bench);
  std::vector<AbsNode> nodes = g.nodes();
  corrupt(nodes);
  return AbsGraph::FromNodesUnchecked(std::move(nodes), g.num_tasks());
}

TEST(GraphVerifierTest, CleanOnEveryBenchmark) {
  GraphVerifyOptions opts;
  opts.roundtrip = true;
  for (int bench = 1; bench <= 7; ++bench) {
    const DiagnosticList diags = VerifyGraph(BenchmarkGraph(bench), opts);
    EXPECT_TRUE(diags.ok()) << "B" << bench << ":\n" << diags.ToString();
  }
}

TEST(GraphVerifierTest, DetectsOutOfRangeParent) {
  const AbsGraph g = CorruptGraph(1, [](std::vector<AbsNode>& nodes) {
    nodes.back().parent = 9999;
  });
  const DiagnosticList diags = VerifyGraph(g);
  EXPECT_TRUE(diags.HasRule("graph.node.index"));
}

TEST(GraphVerifierTest, DetectsBrokenTreeLink) {
  const AbsGraph g = CorruptGraph(1, [](std::vector<AbsNode>& nodes) {
    // Duplicate a child entry: the child is now listed twice.
    for (AbsNode& n : nodes) {
      if (!n.children.empty()) {
        n.children.push_back(n.children.front());
        break;
      }
    }
  });
  const DiagnosticList diags = VerifyGraph(g);
  EXPECT_TRUE(diags.HasRule("graph.tree.link"));
}

TEST(GraphVerifierTest, DetectsEdgeShapeMismatch) {
  const AbsGraph g = CorruptGraph(1, [](std::vector<AbsNode>& nodes) {
    nodes.back().input_shape = Shape{1, 2, 3};
  });
  const DiagnosticList diags = VerifyGraph(g);
  EXPECT_TRUE(diags.HasRule("graph.shape.edge"));
}

TEST(GraphVerifierTest, DetectsShapeInferenceMismatch) {
  const AbsGraph g = CorruptGraph(1, [](std::vector<AbsNode>& nodes) {
    nodes.back().output_shape = Shape{12345};
  });
  const DiagnosticList diags = VerifyGraph(g);
  EXPECT_TRUE(diags.HasRule("graph.shape.infer"));
}

TEST(GraphVerifierTest, DetectsStaleCapacity) {
  const AbsGraph g = CorruptGraph(1, [](std::vector<AbsNode>& nodes) {
    nodes.back().capacity += 100;
  });
  const DiagnosticList diags = VerifyGraph(g);
  EXPECT_TRUE(diags.HasRule("graph.capacity.stale"));
}

TEST(GraphVerifierTest, DetectsUnknownBlockType) {
  const AbsGraph g = CorruptGraph(1, [](std::vector<AbsNode>& nodes) {
    nodes.back().spec.type = static_cast<BlockType>(99);
  });
  const DiagnosticList diags = VerifyGraph(g);
  EXPECT_TRUE(diags.HasRule("graph.spec.type"));
}

TEST(GraphVerifierTest, DetectsHeadTaskOutOfRange) {
  const AbsGraph g = CorruptGraph(1, [](std::vector<AbsNode>& nodes) {
    for (AbsNode& n : nodes) {
      if (n.IsHead()) {
        n.task_id = 42;
        break;
      }
    }
  });
  const DiagnosticList diags = VerifyGraph(g);
  EXPECT_TRUE(diags.HasRule("graph.head.task"));
  EXPECT_TRUE(diags.HasRule("graph.head.count"));  // its original task lost its head
}

// ---------------------------------------------------------------------------
// PlanVerifier — positive coverage on lowered plans
// ---------------------------------------------------------------------------

TEST(PlanVerifierTest, CleanOnEveryLoweredBenchmark) {
  for (int bench = 1; bench <= 7; ++bench) {
    Rng rng(7);
    const AbsGraph g = BenchmarkGraph(bench);
    MultiTaskModel model(g, rng);
    FusedEngine engine(&model);
    const DiagnosticList diags = VerifyPlan(engine.ExportPlan());
    EXPECT_TRUE(diags.ok()) << "B" << bench << ":\n" << diags.ToString();
  }
}

// ---------------------------------------------------------------------------
// PlanVerifier — hand-constructed defects, one rule per test
// ---------------------------------------------------------------------------

// A linear (4)->(4) step with weight (4,4); defaults keep the plan minimal.
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

// Rebuilds group step lists from the steps, like the engine and parser do.
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

TEST(PlanVerifierTest, CleanChainVerifies) {
  const DiagnosticList diags = VerifyPlan(CleanChainPlan());
  EXPECT_TRUE(diags.ok()) << diags.ToString();
}

TEST(PlanVerifierTest, DetectsBufferOverlap) {
  PlanIR plan;
  // v1 and v2 share buffer 0, but v1 is read after v2's def.
  plan.values = {Val4(), Val4(0), Val4(0), Val4(1, true), Val4(2, true)};
  plan.groups.emplace_back();
  plan.buffers = {PlanBuffer{4, true}, PlanBuffer{4, false}, PlanBuffer{4, false}};
  plan.steps = {LinearStep(0, 1), LinearStep(0, 2), LinearStep(1, 3), LinearStep(2, 4)};
  plan.head_values = {3, 4};
  IndexGroups(plan);
  const DiagnosticList diags = VerifyPlan(plan);
  EXPECT_TRUE(diags.HasRule("plan.buffer.overlap")) << diags.ToString();
}

TEST(PlanVerifierTest, DetectsCrossBranchRace) {
  PlanIR plan;
  plan.values = {Val4(), Val4(0), Val4(1, true), Val4(2, true)};
  plan.groups.resize(3);
  plan.groups[1].parent = 0;
  plan.groups[2].parent = 0;
  plan.buffers = {PlanBuffer{4, true}, PlanBuffer{4, false}, PlanBuffer{4, false}};
  // v1 is written in branch group 1 and read from sibling group 2.
  plan.steps = {LinearStep(0, 1, 1), LinearStep(1, 2, 1), LinearStep(1, 3, 2)};
  plan.head_values = {2, 3};
  IndexGroups(plan);
  const DiagnosticList diags = VerifyPlan(plan);
  EXPECT_TRUE(diags.HasRule("plan.race.cross_branch")) << diags.ToString();
}

TEST(PlanVerifierTest, DetectsStaleAlias) {
  PlanIR plan;
  PlanValue root;  // (2,2) in buffer 0
  root.shape = Shape{2, 2};
  root.buffer = 0;
  PlanValue alias;  // flatten view of v1
  alias.shape = Shape{4};
  alias.alias_of = 1;
  PlanValue input;
  input.shape = Shape{2, 2};
  PlanValue head5;
  head5.shape = Shape{2, 2};
  head5.buffer = 2;
  head5.is_head = true;
  plan.values = {input, root, alias, root /* v3 reuses buffer 0 */, Val4(1, true), head5};
  plan.groups.emplace_back();
  plan.buffers = {PlanBuffer{4, true}, PlanBuffer{4, false}, PlanBuffer{4, false}};
  PlanStep s0 = LinearStep(0, 1);
  s0.weight_shape = Shape{2, 2};
  PlanStep s1 = LinearStep(0, 3);
  s1.weight_shape = Shape{2, 2};
  PlanStep s2 = LinearStep(2, 4);  // reads the alias after v3 overwrote buffer 0
  PlanStep s3 = LinearStep(3, 5);
  s3.weight_shape = Shape{2, 2};
  plan.steps = {s0, s1, s2, s3};
  plan.head_values = {4, 5};
  IndexGroups(plan);
  const DiagnosticList diags = VerifyPlan(plan);
  EXPECT_TRUE(diags.HasRule("plan.alias.stale")) << diags.ToString();
}

TEST(PlanVerifierTest, DetectsUseBeforeDef) {
  PlanIR plan;
  plan.values = {Val4(), Val4(0), Val4(1), Val4(2, true)};
  plan.groups.emplace_back();
  plan.buffers = {PlanBuffer{4, true}, PlanBuffer{4, true}, PlanBuffer{4, false}};
  // Step 0 reads v2, which is only defined by step 1.
  plan.steps = {LinearStep(2, 1), LinearStep(0, 2), LinearStep(1, 3)};
  plan.head_values = {3};
  IndexGroups(plan);
  const DiagnosticList diags = VerifyPlan(plan);
  EXPECT_TRUE(diags.HasRule("plan.race.use_before_def")) << diags.ToString();
}

TEST(PlanVerifierTest, DetectsMultipleDefinitions) {
  PlanIR plan = CleanChainPlan();
  plan.steps.push_back(LinearStep(0, 1));  // v1 written twice
  plan.groups[0].steps.push_back(2);
  const DiagnosticList diags = VerifyPlan(plan);
  EXPECT_TRUE(diags.HasRule("plan.value.multidef")) << diags.ToString();
}

TEST(PlanVerifierTest, DetectsAliasCycle) {
  PlanIR plan = CleanChainPlan();
  PlanValue a;
  a.shape = Shape{4};
  a.alias_of = 4;
  PlanValue b;
  b.shape = Shape{4};
  b.alias_of = 3;
  plan.values.push_back(a);  // v3 -> v4
  plan.values.push_back(b);  // v4 -> v3
  const DiagnosticList diags = VerifyPlan(plan);
  EXPECT_TRUE(diags.HasRule("plan.alias.cycle")) << diags.ToString();
}

TEST(PlanVerifierTest, DetectsKernelShapeMismatch) {
  PlanIR plan = CleanChainPlan();
  plan.steps[0].weight_shape = Shape{4, 8};  // produces (8), but v1 is (4)
  const DiagnosticList diags = VerifyPlan(plan);
  EXPECT_TRUE(diags.HasRule("plan.shape.linear")) << diags.ToString();
}

TEST(PlanVerifierTest, DetectsBufferSizeMismatch) {
  PlanIR plan = CleanChainPlan();
  plan.buffers[0].elems_per_sample = 3;  // v1 holds 4 elems
  const DiagnosticList diags = VerifyPlan(plan);
  EXPECT_TRUE(diags.HasRule("plan.buffer.size")) << diags.ToString();
}

TEST(PlanVerifierTest, DetectsSharedHeadBuffer) {
  PlanIR plan = CleanChainPlan();
  plan.buffers[1].reusable = true;  // head buffer must be dedicated
  const DiagnosticList diags = VerifyPlan(plan);
  EXPECT_TRUE(diags.HasRule("plan.buffer.head")) << diags.ToString();
}

TEST(PlanVerifierTest, DetectsIndexErrorsWithoutCrashing) {
  PlanIR plan = CleanChainPlan();
  plan.steps[1].in0 = 99;
  const DiagnosticList diags = VerifyPlan(plan);
  EXPECT_TRUE(diags.HasRule("plan.step.index")) << diags.ToString();
}

// ---------------------------------------------------------------------------
// Plan text I/O + the lintable testdata files
// ---------------------------------------------------------------------------

TEST(PlanIoTest, EnginePlanRoundTripsThroughText) {
  Rng rng(5);
  const AbsGraph g = BenchmarkGraph(2);
  MultiTaskModel model(g, rng);
  FusedEngine engine(&model);
  const PlanIR plan = engine.ExportPlan();

  std::stringstream text;
  PlanToText(plan, text);
  PlanParseResult parsed = ParsePlanText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.diagnostics.ToString();

  ASSERT_EQ(parsed.plan.values.size(), plan.values.size());
  ASSERT_EQ(parsed.plan.steps.size(), plan.steps.size());
  ASSERT_EQ(parsed.plan.groups.size(), plan.groups.size());
  ASSERT_EQ(parsed.plan.buffers.size(), plan.buffers.size());
  EXPECT_EQ(parsed.plan.head_values, plan.head_values);
  for (size_t v = 0; v < plan.values.size(); ++v) {
    EXPECT_EQ(parsed.plan.values[v].shape, plan.values[v].shape) << "v" << v;
    EXPECT_EQ(parsed.plan.values[v].alias_of, plan.values[v].alias_of) << "v" << v;
    EXPECT_EQ(parsed.plan.values[v].buffer, plan.values[v].buffer) << "v" << v;
  }
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    EXPECT_EQ(parsed.plan.steps[s].kind, plan.steps[s].kind) << "step " << s;
    EXPECT_EQ(parsed.plan.steps[s].group, plan.steps[s].group) << "step " << s;
  }
  // The reparsed plan must verify exactly as clean as the original.
  EXPECT_TRUE(VerifyPlan(parsed.plan).ok());
}

TEST(PlanIoTest, RejectsMissingHeaderAndBadFields) {
  std::stringstream no_header("value 0 shape=4\n");
  EXPECT_FALSE(ParsePlanText(no_header).ok());

  std::stringstream bad_field("gmorph-plan v1\nvalue 0 shape=4 wat=7\n");
  PlanParseResult r = ParsePlanText(bad_field);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diagnostics.HasRule("plan.io.parse"));
}

struct PlanFileCase {
  const char* file;
  const char* rule;  // nullptr: must verify clean
};

class PlanFileTest : public ::testing::TestWithParam<PlanFileCase> {};

// The same seeded-defect files `gmorph_cli --verify` lints in ctest: each
// must fire exactly its advertised rule (clean file: no errors at all).
TEST_P(PlanFileTest, FiresAdvertisedRule) {
  const PlanFileCase& c = GetParam();
  const std::string path = std::string(GMORPH_TESTDATA_DIR) + "/" + c.file;
  PlanParseResult parsed = ParsePlanTextFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.diagnostics.ToString();
  const DiagnosticList diags = VerifyPlan(parsed.plan);
  if (c.rule == nullptr) {
    EXPECT_TRUE(diags.ok()) << diags.ToString();
  } else {
    EXPECT_TRUE(diags.HasRule(c.rule)) << diags.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededDefects, PlanFileTest,
    ::testing::Values(PlanFileCase{"plan_clean.plan", nullptr},
                      PlanFileCase{"plan_buffer_overlap.plan", "plan.buffer.overlap"},
                      PlanFileCase{"plan_cross_branch_race.plan", "plan.race.cross_branch"},
                      PlanFileCase{"plan_stale_alias.plan", "plan.alias.stale"}));

}  // namespace
}  // namespace gmorph
