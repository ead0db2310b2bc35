// Dead-rule detector: every registered plan.* / graph.* rule must be firable
// by a seeded defect. Each scenario below corrupts a clean artifact in one
// deliberate way and asserts its target rule fires; the final check walks the
// registry and fails if any plan./graph. rule was never produced by any
// scenario — a rule nothing can trigger is dead weight in the catalog (or,
// worse, a check that silently stopped working).
#include <algorithm>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/diagnostics.h"
#include "src/analysis/driver.h"
#include "src/analysis/dtype_analysis.h"
#include "src/analysis/graph_verifier.h"
#include "src/analysis/mem_analysis.h"
#include "src/analysis/plan_io.h"
#include "src/analysis/plan_verifier.h"
#include "src/analysis/rules.h"
#include "src/core/model_parser.h"
#include "src/data/benchmarks.h"
#include "src/tensor/tensor.h"

#ifndef GMORPH_TESTDATA_DIR
#define GMORPH_TESTDATA_DIR "tests/testdata"
#endif

namespace gmorph {
namespace {

std::string Testdata(const char* file) {
  return std::string(GMORPH_TESTDATA_DIR) + "/" + file;
}

// ---------------------------------------------------------------------------
// Graph scenario helpers
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

template <typename Fn>
AbsGraph CorruptGraph(Fn&& corrupt) {
  AbsGraph g = BenchmarkGraph(1);
  std::vector<AbsNode> nodes = g.nodes();
  corrupt(nodes);
  return AbsGraph::FromNodesUnchecked(std::move(nodes), g.num_tasks());
}

int FindHead(const std::vector<AbsNode>& nodes) {
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].IsHead()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// A non-root node whose input is rank 3 (a conv-stack interior node), for the
// rescale-adapter scenarios.
int FindRank3(const std::vector<AbsNode>& nodes) {
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i].input_shape.Rank() == 3 && !nodes[i].IsHead()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Plan scenario helpers (same minimal chain the verifier tests use)
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

// Mutates the clean chain and verifies the result.
DiagnosticList CorruptChain(const std::function<void(PlanIR&)>& corrupt) {
  PlanIR plan = CleanChainPlan();
  corrupt(plan);
  return VerifyPlan(plan);
}

// A (1,4,4) -> maxpool -> (1,2,2) head plan, for the pool-solver scenarios.
PlanIR PoolPlan(int64_t pool_k, int64_t pool_s) {
  PlanIR plan;
  PlanValue in;
  in.shape = Shape{1, 4, 4};
  PlanValue out;
  out.shape = Shape{1, (4 - pool_k) / pool_s + 1, (4 - pool_k) / pool_s + 1};
  out.buffer = 0;
  out.is_head = true;
  plan.values = {in, out};
  plan.groups.emplace_back();
  plan.buffers = {PlanBuffer{out.shape.NumElements(), false}};
  PlanStep step;
  step.kind = PlanOp::kMaxPool;
  step.in0 = 0;
  step.out = 1;
  step.pool_kernel = pool_k;
  step.pool_stride = pool_s;
  plan.steps = {step};
  plan.head_values = {1};
  IndexGroups(plan);
  return plan;
}

DiagnosticList VerifyTestdataPlan(const char* file) {
  PlanParseResult parsed = ParsePlanTextFile(Testdata(file));
  DiagnosticList diags = std::move(parsed.diagnostics);
  diags.Merge(VerifyPlan(parsed.plan));
  return diags;
}

DiagnosticList RunFullPlanPasses(const char* file) {
  PlanParseResult parsed = ParsePlanTextFile(Testdata(file));
  return RunPlanPasses(parsed.plan);
}

// ---------------------------------------------------------------------------
// The scenario table
// ---------------------------------------------------------------------------

struct Scenario {
  const char* rule;  // the rule this defect is seeded to trigger
  std::function<DiagnosticList()> run;
};

std::vector<Scenario> GraphScenarios() {
  return {
      {"graph.root",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           nodes[1].parent = -1;  // secondary root
         }));
       }},
      {"graph.tasks.range",
       [] {
         AbsGraph g = BenchmarkGraph(1);
         return VerifyGraph(AbsGraph::FromNodesUnchecked(g.nodes(), g.size() + 1));
       }},
      {"graph.node.index",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           nodes.back().parent = 9999;
         }));
       }},
      {"graph.tree.link",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           for (AbsNode& n : nodes) {
             if (!n.children.empty()) {
               n.children.push_back(n.children.front());
               break;
             }
           }
         }));
       }},
      {"graph.tree.reach",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           // Detach the last two nodes into a mutual 2-cycle: internally
           // consistent links, but no path from the root reaches them.
           const int i = static_cast<int>(nodes.size()) - 1;
           const int j = static_cast<int>(nodes.size()) - 2;
           for (AbsNode& n : nodes) {
             n.children.erase(std::remove(n.children.begin(), n.children.end(), i),
                              n.children.end());
             n.children.erase(std::remove(n.children.begin(), n.children.end(), j),
                              n.children.end());
           }
           nodes[static_cast<size_t>(i)].parent = j;
           nodes[static_cast<size_t>(i)].children = {j};
           nodes[static_cast<size_t>(j)].parent = i;
           nodes[static_cast<size_t>(j)].children = {i};
         }));
       }},
      {"graph.shape.infer",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           nodes.back().output_shape = Shape{12345};
         }));
       }},
      {"graph.spec.type",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           nodes.back().spec.type = static_cast<BlockType>(99);
         }));
       }},
      {"graph.shape.edge",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           nodes.back().input_shape = Shape{1, 2, 3};
         }));
       }},
      {"graph.capacity.stale",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           nodes.back().capacity += 100;
         }));
       }},
      {"graph.weights.mismatch",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           AbsNode& n = nodes.back();
           n.weights.push_back(Tensor{Shape{n.capacity + 1}});
         }));
       }},
      {"graph.head.task",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           nodes[static_cast<size_t>(FindHead(nodes))].task_id = 42;
         }));
       }},
      {"graph.head.count",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           // Reassign one head to another task: its own task has none left.
           AbsNode& head = nodes[static_cast<size_t>(FindHead(nodes))];
           head.task_id = head.task_id == 0 ? 1 : 0;
         }));
       }},
      {"graph.head.leaf",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           nodes[static_cast<size_t>(FindHead(nodes))].children.push_back(0);
         }));
       }},
      {"graph.leaf.dangling",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           for (AbsNode& n : nodes) {
             if (!n.children.empty() && n.parent >= 0) {
               n.children.clear();  // interior node becomes a dead branch
               break;
             }
           }
         }));
       }},
      {"graph.rescale.legal",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           AbsNode& n = nodes[static_cast<size_t>(FindRank3(nodes))];
           n.spec.type = BlockType::kRescale;
           n.spec.rescale_in = Shape{9, 9, 9};  // edges carry something else
           n.spec.rescale_out = Shape{8, 8, 8};
         }));
       }},
      {"graph.rescale.identity",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           AbsNode& n = nodes[static_cast<size_t>(FindRank3(nodes))];
           n.spec.type = BlockType::kRescale;
           n.spec.rescale_in = n.input_shape;
           n.spec.rescale_out = n.input_shape;
           n.output_shape = n.input_shape;
         }));
       }},
      {"graph.share.dissimilar",
       [] {
         return VerifyGraph(CorruptGraph([](std::vector<AbsNode>& nodes) {
           AbsNode& n = nodes[static_cast<size_t>(FindRank3(nodes))];
           // Same rank but no dimension in common: feasible yet dissimilar.
           const Shape out{n.input_shape[0] + 1, n.input_shape[1] + 1, n.input_shape[2] + 1};
           n.spec.type = BlockType::kRescale;
           n.spec.rescale_in = n.input_shape;
           n.spec.rescale_out = out;
           n.output_shape = out;
         }));
       }},
      {"graph.roundtrip",
       [] {
         // A graph every semantic check accepts, but whose serialized form
         // the loader rejects: 65 weight tensors on one node (the loader
         // caps weight lists at 64) summing exactly to its capacity, so
         // graph.weights.mismatch stays silent and only the round trip fails.
         AbsGraph g = BenchmarkGraph(1);
         std::vector<AbsNode> nodes = g.nodes();
         for (AbsNode& n : nodes) {
           if (n.capacity >= 65 && n.weights.empty()) {
             for (int i = 0; i < 64; ++i) {
               n.weights.push_back(Tensor{Shape{1}});
             }
             n.weights.push_back(Tensor{Shape{n.capacity - 64}});
             break;
           }
         }
         GraphVerifyOptions opts;
         opts.roundtrip = true;
         return VerifyGraph(AbsGraph::FromNodesUnchecked(std::move(nodes), g.num_tasks()),
                            opts);
       }},
  };
}

std::vector<Scenario> PlanScenarios() {
  return {
      // ---- Structural indices --------------------------------------------
      {"plan.value.index",
       [] { return CorruptChain([](PlanIR& p) { p.values[1].alias_of = 1; }); }},
      {"plan.group.index", [] { return CorruptChain([](PlanIR& p) { p.groups.clear(); }); }},
      {"plan.buffer.index",
       [] { return CorruptChain([](PlanIR& p) { p.values[1].buffer = 7; }); }},
      {"plan.step.index", [] { return CorruptChain([](PlanIR& p) { p.steps[0].in0 = 99; }); }},
      // ---- Aliases --------------------------------------------------------
      {"plan.alias.cycle",
       [] {
         return CorruptChain([](PlanIR& p) {
           PlanValue a = Val4();
           a.alias_of = 4;
           PlanValue b = Val4();
           b.alias_of = 3;
           p.values.push_back(a);
           p.values.push_back(b);
         });
       }},
      {"plan.alias.shape",
       [] {
         return CorruptChain([](PlanIR& p) {
           PlanValue v;
           v.shape = Shape{8};  // 8 elems viewing a 4-elem root
           v.alias_of = 1;
           p.values.push_back(v);
         });
       }},
      {"plan.buffer.alias",
       [] {
         return CorruptChain([](PlanIR& p) {
           PlanValue v = Val4(0);
           v.alias_of = 1;  // a view must not own an arena slot
           p.values.push_back(v);
         });
       }},
      {"plan.alias.stale", [] { return VerifyTestdataPlan("plan_stale_alias.plan"); }},
      // ---- Group tree and ordering ---------------------------------------
      {"plan.group.tree",
       [] { return CorruptChain([](PlanIR& p) { p.groups.emplace_back(); }); }},  // parentless
      {"plan.group.member",
       [] { return CorruptChain([](PlanIR& p) { p.groups[0].steps = {0}; }); }},
      {"plan.group.order",
       [] { return CorruptChain([](PlanIR& p) { p.groups[0].steps = {1, 0}; }); }},
      // ---- SSA discipline -------------------------------------------------
      {"plan.step.out.alias",
       [] {
         return CorruptChain([](PlanIR& p) {
           PlanValue v = Val4();
           v.alias_of = 1;
           p.values.push_back(v);
           p.steps[1].out = 3;  // writes into the view
         });
       }},
      {"plan.value.multidef",
       [] { return CorruptChain([](PlanIR& p) { p.steps[1].out = 1; }); }},
      {"plan.value.undef",
       [] {
         return CorruptChain([](PlanIR& p) {
           p.values.push_back(Val4());
           p.steps[1].in0 = 3;  // reads a value no step defines
         });
       }},
      {"plan.value.unused",
       [] {
         return CorruptChain([](PlanIR& p) {
           p.values.push_back(Val4(2));
           p.buffers.push_back(PlanBuffer{4, true});
         });
       }},
      // ---- Races ----------------------------------------------------------
      {"plan.race.use_before_def",
       [] {
         PlanIR plan;
         plan.values = {Val4(), Val4(0), Val4(1, /*head=*/true)};
         plan.groups.emplace_back();
         plan.buffers = {PlanBuffer{4, true}, PlanBuffer{4, false}};
         plan.steps = {LinearStep(1, 2), LinearStep(0, 1)};  // read before def
         plan.head_values = {2};
         IndexGroups(plan);
         return VerifyPlan(plan);
       }},
      {"plan.race.cross_branch", [] { return VerifyTestdataPlan("plan_cross_branch_race.plan"); }},
      // ---- Kernel shape signatures ---------------------------------------
      {"plan.shape.conv",
       [] {
         return CorruptChain([](PlanIR& p) { p.steps[1].kind = PlanOp::kConv; });
       }},
      {"plan.shape.skip",
       [] {
         // A correct 1x1 conv whose residual skip input has the wrong shape.
         PlanIR plan;
         PlanValue in;
         in.shape = Shape{1, 2, 2};
         PlanValue out;
         out.shape = Shape{1, 2, 2};
         out.buffer = 0;
         out.is_head = true;
         plan.values = {in, out, Val4(1)};
         plan.groups.emplace_back();
         plan.buffers = {PlanBuffer{4, false}, PlanBuffer{4, true}};
         PlanStep conv;
         conv.kind = PlanOp::kConv;
         conv.in0 = 0;
         conv.out = 1;
         conv.skip = 2;  // shape (4,) != output (1,2,2)
         conv.weight_shape = Shape{1, 1, 1, 1};
         conv.stride = 1;
         conv.padding = 0;
         plan.steps = {conv};
         plan.head_values = {1};
         IndexGroups(plan);
         return VerifyPlan(plan);
       }},
      {"plan.shape.linear",
       [] { return CorruptChain([](PlanIR& p) { p.steps[0].weight_shape = Shape{5, 4}; }); }},
      {"plan.shape.pool",
       [] { return CorruptChain([](PlanIR& p) { p.steps[1].kind = PlanOp::kMaxPool; }); }},
      {"plan.shape.gap",
       [] { return CorruptChain([](PlanIR& p) { p.steps[1].kind = PlanOp::kGlobalAvgPool; }); }},
      {"plan.shape.meanpool",
       [] { return CorruptChain([](PlanIR& p) { p.steps[1].kind = PlanOp::kMeanPoolTokens; }); }},
      {"plan.shape.resize",
       [] { return CorruptChain([](PlanIR& p) { p.steps[1].kind = PlanOp::kBilinearResize; }); }},
      {"plan.shape.tokresize",
       [] { return CorruptChain([](PlanIR& p) { p.steps[1].kind = PlanOp::kTokenResize; }); }},
      {"plan.shape.layernorm",
       [] { return CorruptChain([](PlanIR& p) { p.steps[1].kind = PlanOp::kLayerNorm; }); }},
      {"plan.shape.attention",
       [] {
         return CorruptChain([](PlanIR& p) {
           p.steps[1].kind = PlanOp::kAttention;
           p.steps[1].heads = 1;
         });
       }},
      {"plan.shape.tokens",
       [] { return CorruptChain([](PlanIR& p) { p.steps[1].kind = PlanOp::kPatchTokens; }); }},
      {"plan.shape.embed",
       [] { return CorruptChain([](PlanIR& p) { p.steps[1].kind = PlanOp::kEmbedding; }); }},
      // ---- Solver annotations --------------------------------------------
      {"plan.solver.kind",
       [] {
         return CorruptChain([](PlanIR& p) {
           p.steps[1].kind = PlanOp::kGlobalAvgPool;
           p.steps[1].solver = "gemm.ref";  // no tunable kernel for gap
         });
       }},
      {"plan.solver.dtype",
       [] {
         PlanIR plan = PoolPlan(2, 2);
         plan.steps[0].solver = "pool.generic";
         plan.steps[0].dtype = kernels::DType::kInt8;  // int8 is GEMM-only
         return VerifyPlan(plan);
       }},
      {"plan.solver.unknown",
       [] { return CorruptChain([](PlanIR& p) { p.steps[0].solver = "gemm.nope"; }); }},
      {"plan.solver.applicable",
       [] {
         PlanIR plan = PoolPlan(3, 1);
         plan.steps[0].solver = "pool.2x2s2";  // registered, but 2x2-only
         return VerifyPlan(plan);
       }},
      // ---- Buffer assignment ---------------------------------------------
      {"plan.buffer.unassigned",
       [] { return CorruptChain([](PlanIR& p) { p.values[1].buffer = -1; }); }},
      {"plan.buffer.size",
       [] { return CorruptChain([](PlanIR& p) { p.buffers[0].elems_per_sample = 2; }); }},
      {"plan.head.flag",
       [] { return CorruptChain([](PlanIR& p) { p.values[2].is_head = false; }); }},
      {"plan.buffer.head",
       [] { return CorruptChain([](PlanIR& p) { p.buffers[1].reusable = true; }); }},
      {"plan.buffer.overlap", [] { return VerifyTestdataPlan("plan_buffer_overlap.plan"); }},
      // ---- Text format ----------------------------------------------------
      {"plan.io.open",
       [] { return std::move(ParsePlanTextFile(Testdata("no_such_plan.plan")).diagnostics); }},
      {"plan.io.header",
       [] {
         std::istringstream empty("");
         return std::move(ParsePlanText(empty).diagnostics);
       }},
      {"plan.io.parse",
       [] {
         std::istringstream bad("gmorph-plan v1\nvalue banana\n");
         return std::move(ParsePlanText(bad).diagnostics);
       }},
      // ---- Dtype dataflow -------------------------------------------------
      {"plan.dtype.mismatch",
       [] {
         PlanIR plan = CleanChainPlan();
         plan.values[1].dtype = kernels::DType::kInt8;
         return AnalyzePlanDtypes(plan);
       }},
      {"plan.dtype.input",
       [] {
         PlanIR plan = CleanChainPlan();
         plan.steps.erase(plan.steps.begin());  // v1 loses its producer
         plan.groups[0].steps = {0};
         plan.values[1].dtype = kernels::DType::kInt8;
         return AnalyzePlanDtypes(plan);
       }},
      {"plan.dtype.step", [] { return RunFullPlanPasses("plan_dtype_int8_pool.plan"); }},
      {"plan.dtype.alias",
       [] {
         PlanIR plan = CleanChainPlan();
         PlanValue v = Val4();
         v.alias_of = 1;
         v.dtype = kernels::DType::kInt8;
         plan.values.push_back(v);
         return AnalyzePlanDtypes(plan);
       }},
      {"plan.dtype.head",
       [] {
         PlanIR plan = CleanChainPlan();
         plan.values[2].dtype = kernels::DType::kInt8;
         return AnalyzePlanDtypes(plan);
       }},
      {"plan.dtype.buffer",
       [] {
         PlanIR plan = CleanChainPlan();
         plan.values[1].dtype = kernels::DType::kInt8;
         plan.values.push_back(Val4(0));  // f32 resident in the same slot
         return AnalyzePlanDtypes(plan);
       }},
      // ---- Memory certification ------------------------------------------
      {"plan.mem.arena", [] { return RunFullPlanPasses("plan_mem_arena_short.plan"); }},
      {"plan.mem.buffer",
       [] {
         PlanIR plan = CleanChainPlan();
         plan.buffers.push_back(PlanBuffer{4, true});
         return AnalyzePlanMemory(plan);
       }},
      {"plan.mem.waste",
       [] {
         PlanIR plan = CleanChainPlan();
         MemAnalysisOptions options;
         options.waste_factor = 1.0;
         options.slack_bytes = 0;
         plan.buffers[0].elems_per_sample = 4096;
         return AnalyzePlanMemory(plan, options);
       }},
      {"plan.mem.summary", [] { return AnalyzePlanMemory(CleanChainPlan()); }},
  };
}

// ---------------------------------------------------------------------------
// The detector itself
// ---------------------------------------------------------------------------

TEST(RuleCoverageTest, EverySeededDefectFiresItsTargetRule) {
  std::set<std::string> fired;
  for (const auto& scenarios : {GraphScenarios(), PlanScenarios()}) {
    for (const Scenario& scenario : scenarios) {
      const DiagnosticList diags = scenario.run();
      EXPECT_TRUE(diags.HasRule(scenario.rule))
          << "seeded defect for " << scenario.rule << " fired instead:\n"
          << diags.ToString();
      for (const Diagnostic& d : diags.items()) {
        fired.insert(d.rule_id);
      }
    }
  }

  // No dead rules: everything registered under plan./graph. was produced by
  // at least one scenario above.
  std::vector<std::string> dead;
  for (const RuleInfo& rule : AllRules()) {
    const std::string id = rule.id;
    if ((id.rfind("plan.", 0) == 0 || id.rfind("graph.", 0) == 0) && fired.count(id) == 0) {
      dead.push_back(id);
    }
  }
  EXPECT_TRUE(dead.empty()) << "registered rules no scenario can fire: " << [&] {
    std::string joined;
    for (const std::string& id : dead) {
      joined += id + " ";
    }
    return joined;
  }();

  // And the converse: nothing fired that the registry doesn't know.
  for (const std::string& id : fired) {
    EXPECT_NE(FindRule(id), nullptr) << "unregistered rule id fired: " << id;
  }
}

}  // namespace
}  // namespace gmorph
