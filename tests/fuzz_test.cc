// Randomized stress tests: long mutation chains over every benchmark's graph
// topology, executable-model construction on deeply mutated graphs,
// serialization fuzzing, and mutation fuzzing of every artifact loader and
// linter pair. These are the failure-injection counterpart of the targeted
// unit tests.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/driver.h"
#include "src/analysis/graph_verifier.h"
#include "src/analysis/plan_io.h"
#include "src/analysis/plan_verifier.h"
#include "src/common/check.h"
#include "src/common/config.h"
#include "src/common/text_artifact.h"
#include "src/core/eval_cache.h"
#include "src/core/graph_io.h"
#include "src/core/model_parser.h"
#include "src/core/multitask_model.h"
#include "src/core/mutation.h"
#include "src/core/search_checkpoint.h"
#include "src/data/benchmarks.h"
#include "src/kernels/machine.h"
#include "src/kernels/tune_db.h"
#include "src/models/task_model.h"
#include "src/models/zoo.h"
#include "src/quant/recipe.h"
#include "src/runtime/fused_engine.h"
#include "tests/test_util.h"
#include "src/tensor/serialization.h"

namespace gmorph {
namespace {

AbsGraph GraphForBenchmark(int index) {
  BenchmarkScale scale;
  scale.train_size = 4;  // datasets irrelevant here; keep generation cheap
  scale.test_size = 4;
  scale.cnn_width = 4;
  BenchmarkDef def = MakeBenchmark(index, scale, 77);
  std::vector<ModelSpec> specs;
  for (const BenchmarkTask& task : def.tasks) {
    specs.push_back(task.model);
  }
  return ParseModelSpecs(specs);
}

// Per-block weights of a one-conv vision model, holding multiples of 0.25 in
// [-8, 8): exactly representable, so the binary goldens depend on no RNG draw
// and no floating-point contraction.
ModelSpec TinyVisionSpec() {
  return {"tiny",
          Shape{3, 4, 4},
          {ConvReLUSpec(3, 2), MaxPoolSpec(), FlattenSpec(), HeadSpec(8, 2)}};
}

std::vector<std::vector<Tensor>> ConstantWeights() {
  Rng rng(1);
  std::vector<std::vector<Tensor>> weights = TaskModel(TinyVisionSpec(), rng).ExportWeights();
  int k = 0;
  for (std::vector<Tensor>& group : weights) {
    for (Tensor& t : group) {
      t = Tensor(t.shape());
      for (int64_t i = 0; i < t.size(); ++i) {
        t.data()[i] = 0.25f * static_cast<float>(k++ % 64) - 8.0f;
      }
    }
  }
  return weights;
}

// Two tasks of TinyVisionSpec carrying ConstantWeights().
AbsGraph ConstantWeightGraph() {
  Rng rng(1);
  TaskModel a(TinyVisionSpec(), rng);
  TaskModel b(TinyVisionSpec(), rng);
  a.ImportWeights(ConstantWeights());
  b.ImportWeights(ConstantWeights());
  return ParseTaskModels({&a, &b});
}

class MutationFuzzTest : public ::testing::TestWithParam<int> {};

// Long random mutation chains on every benchmark topology (CNNs, cross-family,
// transformers) keep all invariants; non-adapter capacity never grows.
TEST_P(MutationFuzzTest, LongChainsKeepInvariants) {
  const int bench = GetParam();
  AbsGraph g = GraphForBenchmark(bench);
  Rng rng(static_cast<uint64_t>(bench) * 13 + 1);
  auto non_rescale_capacity = [](const AbsGraph& graph) {
    int64_t total = 0;
    for (const AbsNode& n : graph.nodes()) {
      if (n.spec.type != BlockType::kRescale) {
        total += n.capacity;
      }
    }
    return total;
  };
  int64_t last = non_rescale_capacity(g);
  for (int step = 0; step < 20; ++step) {
    const auto pairs = FindShareablePairs(g, ShapeSimilarity::kSimilar);
    if (pairs.empty()) {
      break;
    }
    const SharePair pick =
        pairs[static_cast<size_t>(rng.NextInt(static_cast<int>(pairs.size())))];
    ASSERT_TRUE(ApplyMutation(g, pick));
    g.Validate();
    const int64_t now = non_rescale_capacity(g);
    EXPECT_LE(now, last) << "non-adapter capacity grew at step " << step;
    last = now;
    for (int t = 0; t < g.num_tasks(); ++t) {
      ASSERT_GE(g.HeadOfTask(t), 0);
    }
  }
}

// Deeply mutated graphs always materialize into executable models that emit
// one correctly shaped output per task.
TEST_P(MutationFuzzTest, MutatedGraphsExecute) {
  const int bench = GetParam();
  AbsGraph g = GraphForBenchmark(bench);
  Rng rng(static_cast<uint64_t>(bench) * 17 + 3);
  std::optional<AbsGraph> mutated = SampleMutatePass(g, 5, ShapeSimilarity::kSimilar, rng);
  const AbsGraph& final_graph = mutated.has_value() ? *mutated : g;
  MultiTaskModel model(final_graph, rng);
  const Shape input = final_graph.node(final_graph.root()).output_shape;
  const bool token_input = input.Rank() == 1;
  Tensor x = token_input ? Tensor::Zeros(input.WithBatch(2))
                         : Tensor::RandomGaussian(input.WithBatch(2), rng);
  std::vector<Tensor> outs = model.Forward(x, /*training=*/false);
  ASSERT_EQ(outs.size(), static_cast<size_t>(final_graph.num_tasks()));
  for (int t = 0; t < final_graph.num_tasks(); ++t) {
    EXPECT_EQ(outs[static_cast<size_t>(t)].shape().WithoutBatch(),
              final_graph.node(final_graph.HeadOfTask(t)).output_shape);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, MutationFuzzTest, ::testing::Range(1, 8));

class VerifierFuzzTest : public ::testing::TestWithParam<int> {};

// Every randomly mutated graph passes the GraphVerifier, lowers through the
// FusedEngine, and yields a plan the PlanVerifier proves race- and
// overlap-free. 7 benchmarks x 30 trials = 210 graphs per suite run.
TEST_P(VerifierFuzzTest, MutatedGraphsAndPlansVerifyClean) {
  const int bench = GetParam();
  AbsGraph base = GraphForBenchmark(bench);
  GraphVerifyOptions roundtrip;
  roundtrip.roundtrip = true;
  for (int trial = 0; trial < 30; ++trial) {
    Rng rng(static_cast<uint64_t>(bench) * 1009 + static_cast<uint64_t>(trial) * 31 + 7);
    const int num_mutations = 1 + rng.NextInt(4);
    std::optional<AbsGraph> mutated =
        SampleMutatePass(base, num_mutations, ShapeSimilarity::kSimilar, rng);
    const AbsGraph& g = mutated.has_value() ? *mutated : base;

    const DiagnosticList graph_verdict = VerifyGraph(g, roundtrip);
    ASSERT_TRUE(graph_verdict.ok())
        << "bench " << bench << " trial " << trial << ":\n" << graph_verdict.ToString();

    MultiTaskModel model(g, rng);
    FusedEngine engine(&model);
    EXPECT_EQ(engine.num_fallback_modules(), 0) << "bench " << bench << " trial " << trial;
    const DiagnosticList plan_verdict = VerifyPlan(engine.ExportPlan());
    ASSERT_TRUE(plan_verdict.ok())
        << "bench " << bench << " trial " << trial << ":\n" << plan_verdict.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, VerifierFuzzTest, ::testing::Range(1, 8));

// Random byte-level corruption of serialized graphs must never crash the
// loader or yield an invalid graph — either the load fails with diagnostics
// or the corruption missed the parsed region and the graph verifies clean.
TEST(SerializationFuzzTest, CorruptGraphsRejectedOrHarmless) {
  AbsGraph g = GraphForBenchmark(1);
  const auto dir = std::filesystem::temp_directory_path() / "gmorph_fuzz";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "g.bin").string();
  ASSERT_TRUE(SaveGraph(path, g));
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();

  Rng rng(29);
  for (int trial = 0; trial < 30; ++trial) {
    std::string corrupted = bytes;
    // Flip a few random bytes / truncate.
    if (trial % 3 == 0) {
      corrupted.resize(static_cast<size_t>(rng.NextInt(static_cast<int>(bytes.size()))));
    } else {
      for (int flips = 0; flips < 4; ++flips) {
        const size_t pos = static_cast<size_t>(rng.NextInt(static_cast<int>(corrupted.size())));
        corrupted[pos] = static_cast<char>(rng.NextInt(256));
      }
    }
    const std::string cpath = (dir / "c.bin").string();
    std::ofstream out(cpath, std::ios::binary | std::ios::trunc);
    out.write(corrupted.data(), static_cast<std::streamsize>(corrupted.size()));
    out.close();
    GraphLoadResult loaded = TryLoadGraph(cpath);
    if (loaded.ok()) {
      // Accepted data must still be a fully valid graph.
      EXPECT_TRUE(VerifyGraph(*loaded.graph).ok()) << "trial " << trial;
    } else {
      // Rejections must carry at least one structured diagnostic, never an
      // exception or a partially-initialized graph.
      EXPECT_FALSE(loaded.diagnostics.ok()) << "trial " << trial;
      EXPECT_FALSE(loaded.graph.has_value());
    }
  }
  std::filesystem::remove_all(dir);
}

// Byte flips, truncations and overwritten header words of a saved weight
// file must never throw: LoadWeights either rejects the file (leaving the
// output empty) or the damage missed the file's structure. Every declared
// count and size is bounded by the bytes left in the file, so no mutant can
// make the loader allocate more than the file could fill.
TEST(SerializationFuzzTest, CorruptWeightsRejectedOrHarmless) {
  Rng rng(31);
  VisionModelOptions opts;
  opts.base_width = 4;
  TaskModel model(MakeVgg11(opts), rng);
  const auto dir = std::filesystem::temp_directory_path() / "gmorph_weights_fuzz";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "w.bin").string();
  ASSERT_TRUE(SaveWeights(path, model.ExportWeights()));
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();

  std::vector<std::string> mutants;
  for (int trial = 0; trial < 30; ++trial) {
    std::string corrupted = bytes;
    if (trial % 3 == 0) {
      corrupted.resize(static_cast<size_t>(rng.NextInt(static_cast<int>(bytes.size()))));
    } else {
      for (int flips = 0; flips < 4; ++flips) {
        const size_t pos = static_cast<size_t>(rng.NextInt(static_cast<int>(corrupted.size())));
        corrupted[pos] = static_cast<char>(rng.NextInt(256));
      }
    }
    mutants.push_back(std::move(corrupted));
  }
  // The header words after the magic: the group count, the first group's
  // tensor count, and the first tensor's rank and four dims.
  for (size_t offset = 8; offset < 64; offset += 8) {
    for (uint64_t word : {uint64_t{1} << 31, uint64_t{1} << 62, ~uint64_t{0}}) {
      std::string corrupted = bytes;
      std::memcpy(&corrupted[offset], &word, sizeof(word));
      mutants.push_back(std::move(corrupted));
    }
  }
  const std::string cpath = (dir / "c.bin").string();
  for (size_t i = 0; i < mutants.size(); ++i) {
    {
      std::ofstream out(cpath, std::ios::binary | std::ios::trunc);
      out.write(mutants[i].data(), static_cast<std::streamsize>(mutants[i].size()));
    }
    std::vector<std::vector<Tensor>> loaded;
    bool ok = true;
    EXPECT_NO_THROW(ok = LoadWeights(cpath, loaded)) << "mutant " << i;
    if (!ok) {
      EXPECT_TRUE(loaded.empty()) << "mutant " << i;
    }
  }
  std::filesystem::remove_all(dir);
}

// Every 8-byte word of a saved graph and of a saved weight file, overwritten
// with a count or dimension far beyond the file: no load throws, and none
// allocates more tensor storage than the file holds, since each declared size
// is checked against the bytes left before anything is allocated.
TEST(SerializationFuzzTest, OverwrittenWordsAllocateNoMoreThanTheFile) {
  std::ostringstream graph_out;
  ASSERT_TRUE(SaveGraph(graph_out, ConstantWeightGraph()));
  const std::string graph = graph_out.str();
  const auto dir = std::filesystem::temp_directory_path() / "gmorph_word_fuzz";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "w.bin").string();
  ASSERT_TRUE(SaveWeights(path, ConstantWeights()));
  std::ifstream in(path, std::ios::binary);
  const std::string weights((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();

  for (int64_t word : {int64_t{1} << 20, int64_t{1} << 24, int64_t{1} << 31, int64_t{1} << 62,
                       int64_t{-1}}) {
    for (size_t at = 0; at + sizeof(word) <= graph.size(); at += sizeof(word)) {
      std::string mutant = graph;
      std::memcpy(&mutant[at], &word, sizeof(word));
      std::istringstream bytes(mutant);
      const int64_t before = Tensor::TotalAllocatedBytes();
      const GraphLoadResult loaded = TryLoadGraph(bytes);
      EXPECT_LE(Tensor::TotalAllocatedBytes() - before, static_cast<int64_t>(mutant.size()))
          << "graph word " << at / sizeof(word) << " = " << word;
      EXPECT_EQ(loaded.ok(), loaded.diagnostics.ok()) << loaded.diagnostics.ToString();
    }
    for (size_t at = 0; at + sizeof(word) <= weights.size(); at += sizeof(word)) {
      std::string mutant = weights;
      std::memcpy(&mutant[at], &word, sizeof(word));
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
      }
      std::vector<std::vector<Tensor>> loaded;
      const int64_t before = Tensor::TotalAllocatedBytes();
      bool ok = true;
      EXPECT_NO_THROW(ok = LoadWeights(path, loaded)) << "weights word " << at / sizeof(word);
      EXPECT_LE(Tensor::TotalAllocatedBytes() - before, static_cast<int64_t>(mutant.size()))
          << "weights word " << at / sizeof(word) << " = " << word;
      EXPECT_TRUE(ok || loaded.empty());
    }
  }
  std::filesystem::remove_all(dir);
}

// ---- Artifact loader/linter mutation fuzzing ------------------------------
//
// Every text artifact has one scan shared by its tolerant loader and its
// `gmorph_cli --verify` linter, so the linter must flag whatever the loader
// drops or rejects. Seeds are fresh writer output (pinned byte for byte by
// the golden files) plus the committed corrupt fixtures; each mutant gets one
// seeded mutation. Every loader and linter must return on every mutant.

std::string Testdata(const std::string& name) {
  return std::string(GMORPH_TESTDATA_DIR) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::string ArtifactDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "gmorph_artifact_fuzz_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SearchCheckpoint ConstantCheckpoint() {
  SearchCheckpoint ckpt;
  ckpt.options_hash = 0x5eed;
  ckpt.next_iteration = 3;
  ckpt.elapsed_seconds = 12.5;
  ckpt.original_latency_ms = 3.25;
  ckpt.original_flops = 1000000;
  ckpt.teacher_scores = {0.75, 0.5};
  ckpt.found_improvement = true;
  ckpt.best_graph = ConstantWeightGraph();
  ckpt.best_latency_ms = 2.5;
  ckpt.best_flops = 800000;
  ckpt.best_cost = 800000.0;
  ckpt.best_task_scores = {0.625, 0.5};
  IterationRecord rec;
  rec.iteration = 2;
  rec.candidate_latency_ms = 1.5;
  rec.candidate_flops = 900000;
  rec.accuracy_drop = 0.03125;
  rec.met_target = true;
  rec.cache_hit = true;
  rec.finetune_seconds = 0.75;
  rec.elapsed_seconds = 4.0;
  rec.best_latency_ms = 2.5;
  rec.best_flops = 800000;
  rec.stages.sample = 0.125;
  rec.stages.finetune = 1.5;
  ckpt.trace = {rec, rec};
  ckpt.candidates_finetuned = 4;
  ckpt.candidates_filtered = 2;
  ckpt.candidates_rejected = 1;
  ckpt.cache_hits = 3;
  ckpt.stage_seconds.verify = 0.25;
  ckpt.fingerprints = {"a", "bb"};
  ckpt.elites.push_back({ConstantWeightGraph(), 12.0, 0.0625});
  CapacitySignature sig;
  sig.total = 10;
  sig.shared_total = 2;
  sig.per_task_total = {4, 6};
  sig.per_task_specific = {2, 3};
  ckpt.non_promising = {sig};
  ckpt.policy.iteration = 7;
  ckpt.policy.last_drop = 0.046875;
  return ckpt;
}

// Writer output with fixed contents, one file per format. The golden files in
// testdata pin these bytes.
struct FreshArtifacts {
  std::string tunedb, machine, recipe, evalcache, weights, graph, checkpoint;
};

FreshArtifacts WriteFreshArtifacts(const std::string& dir) {
  FreshArtifacts out{dir + "/fresh.tunedb", dir + "/fresh.machine", dir + "/fresh.quantrecipe",
                     "", dir + "/fresh_weights.bin", dir + "/fresh_graph.bin",
                     dir + "/fresh.ckpt"};
  EXPECT_TRUE(SaveWeights(out.weights, ConstantWeights()));
  EXPECT_TRUE(SaveGraph(out.graph, ConstantWeightGraph()));
  EXPECT_TRUE(SaveCheckpoint(out.checkpoint, ConstantCheckpoint()));

  kernels::TuneDb db;
  kernels::ProblemDesc gemm = kernels::GemmProblem(kernels::OpFamily::kGemmNN, 8, 27, 1024);
  gemm.threads = 4;
  kernels::ProblemDesc pool = kernels::PoolProblem(64, 16, 16, 2, 2);
  pool.threads = 1;
  kernels::ProblemDesc qgemm = kernels::QGemmProblem(16, 64, 32);
  qgemm.threads = 2;
  db.Record(gemm, {"gemm.packed", 12.5, 0.125, nullptr});
  db.Record(pool, {"pool.2x2s2", 3.25, 0.5, nullptr});
  db.Record(qgemm, {"qgemm.ref", 1.0 / 3.0, 0.0001, nullptr});
  EXPECT_TRUE(db.Save(out.tunedb));

  kernels::MachineCeilings ceilings;
  ceilings.threads = 3;
  ceilings.peak_gflops = 38.123456789;
  ceilings.triad_gbps = 11.7;
  EXPECT_TRUE(kernels::SaveMachineCeilings(out.machine, ceilings));

  quant::QuantRecipe recipe;
  recipe.steps.push_back({0, "conv", "block 1/conv", {0.0123456789f, 14},
                          {0.01f, 0.02f, 1.17549435e-38f}});
  recipe.steps.push_back({3, "linear", "", {0.2f, 0}, {0.05f}});
  recipe.steps.push_back({5, "conv", "a=b", {1.5f, 255}, {3.0f, 0.25f}});
  std::string error;
  EXPECT_TRUE(quant::SaveQuantRecipe(recipe, out.recipe, &error)) << error;

  EvaluationCache cache(dir + "/cache", 0x2a);
  EvaluationCache::Entry a;
  a.terminated_early = true;
  a.epochs_run = 2;
  a.flops = 123456;
  a.accuracy_drop = 0.01625;
  a.latency_ms = 1.75;
  a.finetune_seconds = 2.5;
  a.task_scores = {0.875, 0.9375};
  cache.Store("fp-alpha (toy graph)", a, nullptr);
  EvaluationCache::Entry b;
  b.accuracy_drop = 1.0 / 3.0;
  b.latency_ms = 0.1;
  cache.Store("fp-beta", b, nullptr);
  out.evalcache = cache.index_path();
  return out;
}

// The fingerprint hashes the toolchain, so goldens carry a fixed stand-in.
std::string MaskFingerprint(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    out += line.rfind("fingerprint ", 0) == 0 ? "fingerprint 0000000000000000" : line;
    out += "\n";
  }
  return out;
}

TEST(ArtifactFuzzTest, FreshWriterOutputMatchesGoldens) {
  const FreshArtifacts fresh = WriteFreshArtifacts(ArtifactDir("golden"));
  EXPECT_EQ(MaskFingerprint(ReadFile(fresh.tunedb)), ReadFile(Testdata("golden_tunedb.txt")));
  EXPECT_EQ(MaskFingerprint(ReadFile(fresh.machine)), ReadFile(Testdata("golden_machine.txt")));
  EXPECT_EQ(ReadFile(fresh.recipe), ReadFile(Testdata("golden_quantrecipe.txt")));
  EXPECT_EQ(ReadFile(fresh.evalcache), ReadFile(Testdata("golden_evalcache.txt")));
  EXPECT_EQ(ReadFile(fresh.weights), ReadFile(Testdata("golden_weights.bin")));
  EXPECT_EQ(ReadFile(fresh.graph), ReadFile(Testdata("golden_graph.bin")));
  EXPECT_EQ(ReadFile(fresh.checkpoint), ReadFile(Testdata("golden_checkpoint.ckpt")));

  // Each binary golden loads and saves back to its own bytes.
  const std::string dir = ArtifactDir("golden_resave");
  std::vector<std::vector<Tensor>> weights;
  ASSERT_TRUE(LoadWeights(Testdata("golden_weights.bin"), weights));
  ASSERT_TRUE(SaveWeights(dir + "/weights.bin", weights));
  EXPECT_EQ(ReadFile(dir + "/weights.bin"), ReadFile(Testdata("golden_weights.bin")));
  const GraphLoadResult graph = TryLoadGraph(Testdata("golden_graph.bin"));
  ASSERT_TRUE(graph.ok()) << graph.diagnostics.ToString();
  ASSERT_TRUE(SaveGraph(dir + "/graph.bin", *graph.graph));
  EXPECT_EQ(ReadFile(dir + "/graph.bin"), ReadFile(Testdata("golden_graph.bin")));
  const CheckpointLoadResult ckpt = TryLoadCheckpoint(Testdata("golden_checkpoint.ckpt"));
  ASSERT_TRUE(ckpt.ok()) << ckpt.diagnostics.ToString();
  ASSERT_TRUE(SaveCheckpoint(dir + "/checkpoint.ckpt", *ckpt.checkpoint));
  EXPECT_EQ(ReadFile(dir + "/checkpoint.ckpt"), ReadFile(Testdata("golden_checkpoint.ckpt")));
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line + "\n";
  }
  return out;
}

// One seeded mutation: byte flips, a dropped or duplicated line, truncation,
// or an extreme token in place of a whole token or of a key=value value.
std::string Mutate(const std::string& seed, Rng& rng) {
  static const char* const kExtremeTokens[] = {"1e300", "3000000000", "-1", "nan", "2.5", "#"};
  std::string out = seed;
  std::vector<std::string> lines = SplitLines(seed);
  const int kind = rng.NextInt(5);
  if (out.empty() || (kind >= 1 && lines.empty())) {
    return out;
  }
  switch (kind) {
    case 0:
      for (int flips = 1 + rng.NextInt(3); flips > 0; --flips) {
        out[static_cast<size_t>(rng.NextInt(static_cast<int>(out.size())))] =
            static_cast<char>(rng.NextInt(256));
      }
      return out;
    case 1:
      lines.erase(lines.begin() + rng.NextInt(static_cast<int>(lines.size())));
      return JoinLines(lines);
    case 2: {
      const size_t at = static_cast<size_t>(rng.NextInt(static_cast<int>(lines.size())));
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      return JoinLines(lines);
    }
    case 3:
      out.resize(static_cast<size_t>(rng.NextInt(static_cast<int>(out.size()))));
      return out;
    default: {
      std::string& line = lines[static_cast<size_t>(rng.NextInt(static_cast<int>(lines.size())))];
      const std::vector<std::string_view> tokens = SplitTokens(line);
      if (tokens.empty()) {
        return out;
      }
      const std::string_view token = tokens[static_cast<size_t>(
          rng.NextInt(static_cast<int>(tokens.size())))];
      const size_t eq = token.find('=');
      const size_t from = static_cast<size_t>(token.data() - line.data()) +
                          (eq == std::string_view::npos ? 0 : eq + 1);
      const size_t len = eq == std::string_view::npos ? token.size() : token.size() - eq - 1;
      line.replace(from, len, kExtremeTokens[rng.NextInt(6)]);
      return JoinLines(lines);
    }
  }
}

// Runs `check` on `mutants` mutations of every seed, each written to `path`.
template <typename Check>
void FuzzArtifact(const std::vector<std::string>& seeds, const std::string& path, int mutants,
                  uint64_t rng_seed, Check check) {
  Rng rng(rng_seed);
  for (size_t s = 0; s < seeds.size(); ++s) {
    for (int m = 0; m < mutants; ++m) {
      const std::string mutant = Mutate(seeds[s], rng);
      WriteFile(path, mutant);
      SCOPED_TRACE("seed " + std::to_string(s) + " mutant " + std::to_string(m) + ":\n" +
                   mutant);
      check();
      if (::testing::Test::HasFailure()) {
        return;  // one reported mutant is enough
      }
    }
  }
}

TEST(ArtifactFuzzTest, TuneDbLinterFlagsWhatTheLoaderDrops) {
  const std::string dir = ArtifactDir("tunedb");
  const std::string path = dir + "/mutant.tunedb";
  FuzzArtifact({ReadFile(WriteFreshArtifacts(dir).tunedb),
                ReadFile(Testdata("tunedb_corrupt.txt"))},
               path, 500, 11, [&] {
                 kernels::TuneDb db;
                 const kernels::TuneDb::LoadStats stats = db.Load(path);
                 const DiagnosticList lint = kernels::VerifyTuneDbFile(path);
                 if (stats.skipped > 0 || !stats.ok) {
                   EXPECT_FALSE(lint.ok()) << lint.ToString();
                 }
               });
}

TEST(ArtifactFuzzTest, QuantRecipeLinterFlagsWhatTheLoaderRejects) {
  const std::string dir = ArtifactDir("recipe");
  const std::string path = dir + "/mutant.quantrecipe";
  FuzzArtifact({ReadFile(WriteFreshArtifacts(dir).recipe),
                ReadFile(Testdata("quantrecipe_corrupt.txt"))},
               path, 500, 13, [&] {
                 quant::QuantRecipe recipe;
                 std::string error;
                 const bool loaded = quant::LoadQuantRecipe(path, &recipe, &error);
                 const DiagnosticList lint = quant::VerifyQuantRecipeFile(path);
                 if (!loaded) {
                   EXPECT_FALSE(lint.ok()) << error << "\n" << lint.ToString();
                 }
               });
}

TEST(ArtifactFuzzTest, MachineLinterFlagsWhatTheLoaderDrops) {
  const std::string dir = ArtifactDir("machine");
  const std::string path = dir + "/mutant.machine";
  FuzzArtifact({ReadFile(WriteFreshArtifacts(dir).machine),
                ReadFile(Testdata("machine_corrupt.txt"))},
               path, 500, 17, [&] {
                 const kernels::MachineLoadResult loaded = kernels::LoadMachineCeilings(path);
                 const DiagnosticList lint = kernels::VerifyMachineFile(path);
                 if (!loaded.ok) {
                   EXPECT_FALSE(lint.ok()) << lint.ToString();
                 }
               });
}

TEST(ArtifactFuzzTest, EvalCacheLinterFlagsWhatTheLoaderReports) {
  const std::string dir = ArtifactDir("evalcache");
  const FreshArtifacts fresh = WriteFreshArtifacts(dir);
  const std::string cache_dir = dir + "/mutants";
  std::filesystem::create_directories(cache_dir);
  const std::string path = cache_dir + "/evalcache_000000000000002a.txt";
  FuzzArtifact({ReadFile(fresh.evalcache), ReadFile(Testdata("evalcache_corrupt.txt"))}, path,
               500, 19, [&] {
                 EvaluationCache cache(cache_dir, 0x2a);
                 const DiagnosticList lint = VerifyEvalCacheFile(path);
                 if (!cache.load_diagnostics().empty()) {
                   EXPECT_FALSE(lint.ok()) << cache.load_diagnostics().ToString() << "\n"
                                           << lint.ToString();
                 }
               });
}

TEST(ArtifactFuzzTest, PlanTextParsesOrReportsAndParsedPlansVerify) {
  const std::string dir = ArtifactDir("plan");
  // Fresh exports of a CNN bundle (B1) and both transformer bundles (B6 ViT,
  // B7 BERT), so every step kind and epilogue token gets mutated.
  std::vector<std::string> seeds;
  for (int bench : {1, 6, 7}) {
    Rng model_rng(5);
    MultiTaskModel model(GraphForBenchmark(bench), model_rng);
    FusedEngine engine(&model);
    std::ostringstream fresh;
    PlanToText(engine.ExportPlan(), fresh);
    seeds.push_back(fresh.str());
  }
  for (const char* fixture : {"plan_clean.plan", "plan_buffer_overlap.plan",
                              "plan_dtype_int8_value.plan", "plan_mem_arena_short.plan"}) {
    seeds.push_back(ReadFile(Testdata(fixture)));
  }
  const std::string path = dir + "/mutant.plan";
  FuzzArtifact(seeds, path, 200, 23, [&] {
    const PlanParseResult parsed = ParsePlanTextFile(path);
    if (!parsed.ok()) {
      bool has_io_rule = false;
      for (const Diagnostic& d : parsed.diagnostics.items()) {
        has_io_rule |= d.rule_id.rfind("plan.io.", 0) == 0;
      }
      EXPECT_TRUE(has_io_rule) << parsed.diagnostics.ToString();
      return;
    }
    EXPECT_NO_THROW(RunPlanPasses(parsed.plan));
  });
}

TEST(ArtifactFuzzTest, CheckpointLoaderAndLinterAgree) {
  const std::string dir = ArtifactDir("checkpoint");
  SearchCheckpoint ckpt;
  ckpt.options_hash = 0x5eed;
  ckpt.next_iteration = 3;
  ckpt.teacher_scores = {0.75, 0.5};
  ckpt.best_graph = GraphForBenchmark(1);
  IterationRecord rec;
  rec.iteration = 2;
  rec.accuracy_drop = 0.03125;
  ckpt.trace = {rec, rec};
  ckpt.fingerprints = {"a", "bb"};
  ckpt.elites.push_back({GraphForBenchmark(1), 12.0, 0.0625});
  CapacitySignature sig;
  sig.total = 10;
  sig.per_task_total = {4, 6};
  sig.per_task_specific = {2, 3};
  ckpt.non_promising = {sig};
  const std::string fresh = dir + "/fresh.ckpt";
  ASSERT_TRUE(SaveCheckpoint(fresh, ckpt));
  // A checkpoint with empty lists, its trace, fingerprint or non-promising
  // count overwritten far beyond the bytes after it.
  SearchCheckpoint lean;
  lean.best_graph = GraphForBenchmark(1);
  const std::string lean_path = dir + "/lean.ckpt";
  ASSERT_TRUE(SaveCheckpoint(lean_path, lean));
  std::vector<std::string> seeds = {ReadFile(fresh), ReadFile(Testdata("checkpoint_corrupt.ckpt"))};
  for (auto& [hostile, count] : testing::HostileCheckpointCounts(ReadFile(lean_path))) {
    seeds.push_back(std::move(hostile));
  }
  const std::string path = dir + "/mutant.ckpt";
  FuzzArtifact(seeds, path, 300, 29,
               [&] {
                 const CheckpointLoadResult loaded = TryLoadCheckpoint(path);
                 const DiagnosticList lint = VerifyCheckpointFile(path);
                 EXPECT_EQ(loaded.ok(), lint.ok()) << lint.ToString();
                 if (!loaded.ok()) {
                   EXPECT_FALSE(loaded.diagnostics.ok());
                 }
               });
}

// Config mutants stay at the Config layer: AnalyzeFile's config branch builds
// models from `benchmark` and `cnn_width`, which a mutant can make huge.
TEST(ArtifactFuzzTest, ConfigGettersReturnOrThrowCheckError) {
  const std::string dir = ArtifactDir("config");
  const std::string path = dir + "/mutant.cfg";
  const std::string small =
      "iterations = 4\nlearning_rate = 0.003\nverbose = true\nmetric = flops  # trailing\n";
  FuzzArtifact({ReadFile(Testdata("cli_trace_smoke.cfg")), small}, path, 500, 31, [&] {
    const auto returns_or_throws_check_error = [](const auto& call) {
      EXPECT_NO_THROW({
        try {
          call();
        } catch (const CheckError&) {
        }
      });
    };
    Config config;
    returns_or_throws_check_error([&] { config = Config::FromString(ReadFile(path)); });
    for (const auto& [key, value] : config.entries()) {
      returns_or_throws_check_error([&] { config.GetString(key, ""); });
      returns_or_throws_check_error([&] { config.GetInt(key, 0); });
      returns_or_throws_check_error([&] { config.GetDouble(key, 0.0); });
      returns_or_throws_check_error([&] { config.GetBool(key, false); });
    }
  });
}

}  // namespace
}  // namespace gmorph
