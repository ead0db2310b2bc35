// Profiler stack: perf-counter groups with their graceful-degradation
// contract, the machine-ceiling probe artifact, the roofline attribution
// report, the /proc-backed process-memory gauges, and the machine.* linter.
//
// Counter availability is environment-dependent (containers and CI deny
// perf_event_open), so every test here either forces the unavailable path
// (bogus leader event, GMORPH_NO_PERF) or branches on PerfCountersAvailable()
// — the suite must pass identically on both kinds of machine.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/common/artifact_header.h"
#include "src/core/model_parser.h"
#include "src/core/multitask_model.h"
#include "src/data/benchmarks.h"
#include "src/kernels/machine.h"
#include "src/kernels/tune_db.h"
#include "src/obs/metrics.h"
#include "src/obs/perf_counters.h"
#include "src/obs/proc_stats.h"
#include "src/runtime/fused_engine.h"
#include "src/runtime/roofline.h"

namespace gmorph {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(PerfCounterTest, CountsAccumulateAndDeriveRates) {
  obs::PerfCounts a;
  a.cycles = 1000;
  a.instructions = 2000;
  a.llc_loads = 100;
  a.llc_misses = 25;
  a.branch_misses = 10;
  a.samples = 1;
  a.valid = true;
  obs::PerfCounts b = a;
  a += b;
  EXPECT_EQ(a.cycles, 2000);
  EXPECT_EQ(a.instructions, 4000);
  EXPECT_EQ(a.samples, 2);
  EXPECT_TRUE(a.valid);
  EXPECT_DOUBLE_EQ(a.Ipc(), 2.0);
  EXPECT_DOUBLE_EQ(a.LlcMissRate(), 0.25);

  // Unmeasured counters never divide by zero.
  obs::PerfCounts empty;
  EXPECT_DOUBLE_EQ(empty.Ipc(), 0.0);
  EXPECT_DOUBLE_EQ(empty.LlcMissRate(), 0.0);
}

TEST(PerfCounterTest, BogusLeaderEventDegradesGracefully) {
  // 0xffffffff is not a perf event type on any kernel: the ENOENT path, the
  // same shape a PMU-less machine hits, exercised deterministically.
  obs::PerfCounterGroup group(0xffffffffu, 0);
  EXPECT_FALSE(group.available());
  EXPECT_FALSE(group.error().empty());
  EXPECT_NE(group.error().find("perf_event_open"), std::string::npos);
  obs::PerfCounts counts;
  EXPECT_FALSE(group.Read(&counts));
  EXPECT_FALSE(counts.valid);
}

TEST(PerfCounterTest, NoPerfEnvForcesUnavailable) {
  ::setenv("GMORPH_NO_PERF", "1", 1);
  obs::PerfCounterGroup group;
  ::unsetenv("GMORPH_NO_PERF");
  EXPECT_FALSE(group.available());
  EXPECT_NE(group.error().find("GMORPH_NO_PERF"), std::string::npos);
}

TEST(PerfCounterTest, StepScopeIsInertWhenDisabled) {
  obs::DisableStepCounters();
  ASSERT_FALSE(obs::StepCountersEnabled());
  obs::PerfCounts acc;
  {
    obs::PerfStepScope scope(&acc);
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) {
      sink = sink + i;
    }
  }
  EXPECT_EQ(acc.samples, 0);
  EXPECT_FALSE(acc.valid);
}

TEST(PerfCounterTest, StepScopeAccumulatesIffCountersAvailable) {
  obs::EnableStepCounters();
  obs::PerfCounts acc;
  {
    obs::PerfStepScope scope(&acc);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) {
      sink = sink + i;
    }
  }
  obs::DisableStepCounters();
  if (obs::PerfCountersAvailable()) {
    EXPECT_EQ(acc.samples, 1);
    EXPECT_TRUE(acc.valid);
    EXPECT_GT(acc.cycles, 0);
    EXPECT_GT(acc.instructions, 0);
  } else {
    // The whole point of the fallback: enabled counting on a denied machine
    // records nothing but never fails.
    EXPECT_EQ(acc.samples, 0);
    EXPECT_FALSE(acc.valid);
  }
}

TEST(MachineCeilingsTest, SaveLoadRoundTripIsTrusted) {
  kernels::MachineCeilings ceilings;
  ceilings.peak_gflops = 48.25;
  ceilings.triad_gbps = 12.5;
  ceilings.threads = 3;
  const std::string path = TempPath("roundtrip.machine");
  ASSERT_TRUE(kernels::SaveMachineCeilings(path, ceilings));

  const kernels::MachineLoadResult loaded = kernels::LoadMachineCeilings(path);
  EXPECT_TRUE(loaded.ok);
  EXPECT_FALSE(loaded.fingerprint_mismatch);
  EXPECT_NEAR(loaded.ceilings.peak_gflops, 48.25, 1e-3);
  EXPECT_NEAR(loaded.ceilings.triad_gbps, 12.5, 1e-3);
  EXPECT_EQ(loaded.ceilings.threads, 3);
  EXPECT_NEAR(loaded.ceilings.RidgeIntensity(), 48.25 / 12.5, 1e-6);
}

TEST(MachineCeilingsTest, ForeignFingerprintIsNotTrusted) {
  const std::string path = TempPath("foreign.machine");
  {
    std::ofstream out(path);
    out << ArtifactHeaderLine(kMachineArtifact) << "\n"
        << "fingerprint 0123456789abcdef\n"  // not this build's fingerprint
        << "threads 2\npeak_gflops 10\ntriad_gbps 5\n";
  }
  const kernels::MachineLoadResult loaded = kernels::LoadMachineCeilings(path);
  EXPECT_TRUE(loaded.ok);
  EXPECT_TRUE(loaded.fingerprint_mismatch);
}

TEST(MachineCeilingsTest, MissingFileIsJustNotOk) {
  const kernels::MachineLoadResult loaded =
      kernels::LoadMachineCeilings(TempPath("nonexistent.machine"));
  EXPECT_FALSE(loaded.ok);
}

// A same-build machine artifact whose entry lines are `body`.
std::string WriteMachineFile(const char* name, const std::string& body) {
  const std::string path = TempPath(name);
  std::ofstream(path) << ArtifactHeaderLine(kMachineArtifact) << "\n"
                      << "fingerprint " << kernels::BuildFingerprint() << "\n"
                      << body;
  return path;
}

TEST(MachineCeilingsTest, EntryLinesValidateKeysAndValues) {
  const std::string clean = "threads 2\npeak_gflops 38.5\ntriad_gbps 9\n";
  const kernels::MachineLoadResult loaded =
      kernels::LoadMachineCeilings(WriteMachineFile("keys.machine", clean));
  EXPECT_TRUE(loaded.ok);
  EXPECT_DOUBLE_EQ(loaded.ceilings.peak_gflops, 38.5);
  for (const char* bad : {"bogus_key 1.0\n", "threads\n", "threads many\n", "threads 2 x\n"}) {
    const std::string path = WriteMachineFile("keys.machine", clean + bad);
    EXPECT_TRUE(kernels::VerifyMachineFile(path).HasRule("machine.entry")) << bad;
  }
}

// threads must be an integer >= 1 that fits in int: casting 2.5 to int
// would load 2, and casting 3000000000 or 1e300 is undefined behaviour. The
// loader drops such a line (so the artifact is re-probed) and the linter
// reports machine.value.
TEST(MachineCeilingsTest, ThreadsMustBeAnIntegerThatFitsInInt) {
  for (const char* threads : {"2.5", "3000000000", "1e300", "0", "-1", "nan"}) {
    const std::string path = WriteMachineFile(
        "threads.machine", std::string("threads ") + threads + "\npeak_gflops 10\ntriad_gbps 5\n");
    EXPECT_FALSE(kernels::LoadMachineCeilings(path).ok) << threads;
    const DiagnosticList diags = kernels::VerifyMachineFile(path);
    EXPECT_TRUE(diags.HasRule("machine.value")) << threads << "\n" << diags.ToString();
    EXPECT_FALSE(diags.ok()) << threads;
  }
}

TEST(MachineCeilingsTest, ResolveMachinePathPrefersOverride) {
  EXPECT_EQ(kernels::ResolveMachinePath("/tmp/explicit.machine"), "/tmp/explicit.machine");
  // Default resolution lands the artifact next to the tuning DB.
  const std::string resolved = kernels::ResolveMachinePath();
  EXPECT_NE(resolved.find("gmorph.machine"), std::string::npos);
}

TEST(MachineVerifierTest, CorruptArtifactFiresMachineRules) {
  const std::string path = TempPath("corrupt.machine");
  {
    std::ofstream out(path);
    out << ArtifactHeaderLine(kMachineArtifact) << "\n"
        << "fingerprint zz\n"          // malformed -> machine.fingerprint error
        << "threads -3\n"              // non-positive -> machine.value
        << "bogus 1.0\n"               // unknown key -> machine.entry
        << "threads 2\n";              // repeated key -> machine.entry
    // peak_gflops / triad_gbps absent -> machine.missing (twice)
  }
  const DiagnosticList diags = kernels::VerifyMachineFile(path);
  int fingerprint = 0, value = 0, entry = 0, missing = 0;
  for (const Diagnostic& d : diags.items()) {
    if (d.rule_id == "machine.fingerprint") ++fingerprint;
    if (d.rule_id == "machine.value") ++value;
    if (d.rule_id == "machine.entry") ++entry;
    if (d.rule_id == "machine.missing") ++missing;
  }
  EXPECT_EQ(fingerprint, 1);
  EXPECT_EQ(value, 1);
  EXPECT_EQ(entry, 2);
  EXPECT_EQ(missing, 2);
  EXPECT_FALSE(diags.ok());
}

TEST(MachineVerifierTest, SavedArtifactLintsClean) {
  kernels::MachineCeilings ceilings;
  ceilings.peak_gflops = 40.0;
  ceilings.triad_gbps = 10.0;
  ceilings.threads = 2;
  const std::string path = TempPath("clean.machine");
  ASSERT_TRUE(kernels::SaveMachineCeilings(path, ceilings));
  const DiagnosticList diags = kernels::VerifyMachineFile(path);
  EXPECT_TRUE(diags.ok()) << diags.ToString();
  EXPECT_TRUE(diags.empty()) << diags.ToString();
}

FusedEngine::StepProfile MakeStep(const char* label, int node, int64_t calls, double total_ms,
                                  double flops, double bytes) {
  FusedEngine::StepProfile p;
  p.label = label;
  p.node = node;
  p.calls = calls;
  p.total_ms = total_ms;
  p.flops = flops;
  p.bytes = bytes;
  return p;
}

kernels::MachineCeilings TestCeilings() {
  kernels::MachineCeilings c;
  c.peak_gflops = 100.0;  // ridge at 10 flop/B
  c.triad_gbps = 10.0;
  c.threads = 1;
  return c;
}

TEST(RooflineReportTest, ClassifiesStepsAgainstTheRidge) {
  // intensity 100 flop/B >> ridge 10 -> compute; 1 flop/B << 10 -> memory;
  // no flops -> opaque; no calls -> idle.
  const std::vector<FusedEngine::StepProfile> profile = {
      MakeStep("dense", 0, 10, 10.0, 1e8, 1e6),
      MakeStep("streamy", 1, 10, 10.0, 1e6, 1e6),
      MakeStep("module", 2, 10, 5.0, 0.0, 0.0),
      MakeStep("never", 3, 0, 0.0, 1e6, 1e6),
  };
  const RooflineReport report = BuildRooflineReport(profile, TestCeilings(), 1, 10, 2);
  ASSERT_EQ(report.steps.size(), 4u);
  EXPECT_EQ(report.steps[0].bound, "compute");
  // 1e8 flops / 1ms = 100 GFLOP/s = 100% of the 100 GFLOP/s roof.
  EXPECT_NEAR(report.steps[0].pct_of_roof, 100.0, 1e-6);
  EXPECT_EQ(report.steps[1].bound, "memory");
  // 1e6 bytes / 1ms = 1 GB/s = 10% of the 10 GB/s roof.
  EXPECT_NEAR(report.steps[1].pct_of_roof, 10.0, 1e-6);
  EXPECT_EQ(report.steps[2].bound, "opaque");
  EXPECT_EQ(report.steps[3].bound, "idle");
  EXPECT_NEAR(report.total_ms, 25.0, 1e-9);

  // Hot list: top-2 by total time, ties broken by plan order (stable sort).
  ASSERT_EQ(report.hot.size(), 2u);
  EXPECT_EQ(report.hot[0], 0);
  EXPECT_EQ(report.hot[1], 1);
}

TEST(RooflineReportTest, BatchScalesPerCallWork) {
  const std::vector<FusedEngine::StepProfile> profile = {
      MakeStep("dense", 0, 4, 4.0, 1e6, 1e4),
  };
  const RooflineReport report = BuildRooflineReport(profile, TestCeilings(), 8, 4);
  // Profile flops are per sample; a call processes the whole batch.
  EXPECT_NEAR(report.steps[0].flops_per_call, 8e6, 1e-3);
  EXPECT_NEAR(report.steps[0].bytes_per_call, 8e4, 1e-3);
  EXPECT_NEAR(report.steps[0].ms_per_call, 1.0, 1e-9);
}

// Int8 steps read s8 weights, so Quantize() cuts each quantized step's
// per-sample traffic by exactly 3 bytes per weight element; activations,
// bias and every f32 step are charged as before.
TEST(RooflineReportTest, Int8StepsCountWeightsAtOneByte) {
  BenchmarkScale scale;
  scale.train_size = 16;
  scale.test_size = 8;
  scale.cnn_width = 4;
  BenchmarkDef def = MakeBenchmark(1, scale, 5);
  std::vector<ModelSpec> specs;
  for (const BenchmarkTask& task : def.tasks) {
    specs.push_back(task.model);
  }
  Rng rng(7);
  MultiTaskModel model(ParseModelSpecs(specs), rng);
  FusedEngine engine(&model);
  const std::vector<FusedEngine::StepProfile> before = engine.Profile();
  ASSERT_GT(engine.Quantize(engine.Calibrate({def.train.InputBatch(0, 8)})), 0);
  const std::vector<FusedEngine::StepProfile> after = engine.Profile();
  const PlanIR plan = engine.ExportPlan();
  ASSERT_EQ(before.size(), plan.steps.size());
  ASSERT_EQ(after.size(), plan.steps.size());
  int quantized = 0;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    const bool int8 = step.dtype == kernels::DType::kInt8;
    quantized += int8 ? 1 : 0;
    const double saved = int8 ? 3.0 * static_cast<double>(step.weight_shape.NumElements()) : 0.0;
    EXPECT_EQ(after[i].bytes, before[i].bytes - saved) << step.label;
    EXPECT_EQ(after[i].flops, before[i].flops) << step.label;
  }
  EXPECT_GT(quantized, 0);
}

TEST(RooflineReportTest, TextAndJsonCarryTheFallbackContract) {
  const std::vector<FusedEngine::StepProfile> profile = {
      MakeStep("conv \"quoted\"", 0, 2, 1.0, 1e6, 1e5),
  };
  const RooflineReport report = BuildRooflineReport(profile, TestCeilings(), 1, 2);
  const std::string text = RooflineReportText(report);
  EXPECT_NE(text.find("roofline: batch=1 runs=2"), std::string::npos);
  EXPECT_NE(text.find("hot steps:"), std::string::npos);
  if (report.counters_available) {
    EXPECT_NE(text.find("counters: available"), std::string::npos);
  } else {
    // The report must still be complete and say why the counter half is zero.
    EXPECT_NE(text.find("counters: unavailable ("), std::string::npos);
  }
  const std::string json = RooflineReportJson(report);
  EXPECT_NE(json.find("\"report\":\"roofline\""), std::string::npos);
  EXPECT_NE(json.find("\"machine\":{"), std::string::npos);
  EXPECT_NE(json.find("\"counters_available\":"), std::string::npos);
  // The label's quote must be escaped, or the JSON is invalid.
  EXPECT_NE(json.find("conv \\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(json.find("conv \"quoted\""), std::string::npos);
}

TEST(RooflineReportTest, JsonEscapesControlCharactersInLabels) {
  const std::vector<FusedEngine::StepProfile> profile = {
      MakeStep("conv\n\x01" "end", 0, 2, 1.0, 1e6, 1e5),
  };
  const std::string json = RooflineReportJson(BuildRooflineReport(profile, TestCeilings(), 1, 2));
  EXPECT_NE(json.find("\"label\":\"conv\\n\\u0001end\""), std::string::npos) << json;
  EXPECT_EQ(json.find("conv\n"), std::string::npos);
}

// Byte pin over a hand-built report (BuildRooflineReport reads the host's
// counters): every number prints as %.6g, counts included, so a million
// calls take the exponent form.
TEST(RooflineReportTest, JsonPinsEveryByte) {
  RooflineReport report;
  report.ceilings.peak_gflops = 74.5;
  report.ceilings.triad_gbps = 10.5;
  report.ceilings.threads = 4;
  report.counters_available = false;
  report.counters_error = "perf_event_open: \"denied\"\n";
  report.batch = 8;
  report.runs = 10;
  report.total_ms = 1.2345678;
  RooflineStep conv;
  conv.label = "conv 3->8 +relu";
  conv.solver = "gemm.direct";
  conv.node = 2;
  conv.calls = 1234567;
  conv.total_ms = 0.5;
  conv.ms_per_call = 4.05e-7;
  conv.flops_per_call = 1.8e6;
  conv.bytes_per_call = 65536;
  conv.gflops = 44.4;
  conv.gbps = 1.6;
  conv.intensity = 27.4658;
  conv.llc_miss_rate = 0.125;
  conv.branch_mpki = 2.5;
  conv.bound = "compute";
  conv.pct_of_roof = 59.6;
  RooflineStep head;
  head.label = "linear\t64";
  head.node = 7;
  head.calls = 3;
  head.total_ms = 0.7345678;
  head.bound = "opaque";
  report.steps = {conv, head};
  report.hot = {1, 0};
  EXPECT_EQ(RooflineReportJson(report),
            R"({"report":"roofline","batch":8,"runs":10,"total_ms":1.23457,)"
            R"("machine":{"peak_gflops":74.5,"triad_gbps":10.5,"ridge_intensity":7.09524,)"
            R"("threads":4},"counters_available":false,)"
            R"("counters_error":"perf_event_open: \"denied\"\n","steps":[)"
            R"({"label":"conv 3->8 +relu","solver":"gemm.direct","node":2,"calls":1.23457e+06,)"
            R"("total_ms":0.5,"ms_per_call":4.05e-07,"flops_per_call":1.8e+06,)"
            R"("bytes_per_call":65536,"gflops":44.4,"gbps":1.6,"intensity":27.4658,"ipc":0,)"
            R"("llc_miss_rate":0.125,"branch_mpki":2.5,"bound":"compute","pct_of_roof":59.6},)"
            R"({"label":"linear\t64","solver":"","node":7,"calls":3,"total_ms":0.734568,)"
            R"("ms_per_call":0,"flops_per_call":0,"bytes_per_call":0,"gflops":0,"gbps":0,)"
            R"("intensity":0,"ipc":0,"llc_miss_rate":0,"branch_mpki":0,"bound":"opaque",)"
            R"("pct_of_roof":0}],"hot":[1,0]})");

  RooflineReport empty;
  empty.ceilings = TestCeilings();
  empty.counters_available = true;
  empty.counters_error = "not printed when counters are available";
  EXPECT_EQ(RooflineReportJson(empty),
            R"({"report":"roofline","batch":1,"runs":0,"total_ms":0,)"
            R"("machine":{"peak_gflops":100,"triad_gbps":10,"ridge_intensity":10,"threads":1},)"
            R"("counters_available":true,"steps":[],"hot":[]})");
}

TEST(ProcStatsTest, ReadsProcessMemoryFromProc) {
  obs::ProcessMemory mem;
  ASSERT_TRUE(obs::ReadProcessMemory(&mem));
  EXPECT_GT(mem.rss_bytes, 0);
  EXPECT_GE(mem.peak_rss_bytes, mem.rss_bytes);
}

TEST(ProcStatsTest, MetricsSnapshotCarriesRssGauges) {
  const std::string json = obs::MetricsRegistry::Global().ToJson();
  EXPECT_NE(json.find("proc.rss_bytes"), std::string::npos);
  EXPECT_NE(json.find("proc.peak_rss_bytes"), std::string::npos);
}

}  // namespace
}  // namespace gmorph
