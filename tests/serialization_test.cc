#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "src/analysis/graph_verifier.h"
#include "src/core/graph_io.h"
#include "src/core/model_parser.h"
#include "src/core/multitask_model.h"
#include "src/core/mutation.h"
#include "src/data/benchmarks.h"
#include "src/models/zoo.h"
#include "src/tensor/serialization.h"
#include "tests/test_util.h"

namespace gmorph {
namespace {

class SerializationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "gmorph_ser_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(SerializationTest, WeightsRoundTrip) {
  Rng rng(1);
  VisionModelOptions opts;
  opts.base_width = 4;
  opts.classes = 3;
  TaskModel model(MakeVgg11(opts), rng);
  const std::string path = Path("weights.bin");
  ASSERT_TRUE(SaveWeights(path, model.ExportWeights()));

  std::vector<std::vector<Tensor>> loaded;
  ASSERT_TRUE(LoadWeights(path, loaded));
  TaskModel reloaded(MakeVgg11(opts), rng);
  reloaded.ImportWeights(loaded);
  Tensor x = Tensor::RandomGaussian(Shape{1, 3, 32, 32}, rng);
  EXPECT_LT(testing::MaxDiff(model.Forward(x, false), reloaded.Forward(x, false)), 1e-6f);
}

TEST_F(SerializationTest, LoadRejectsMissingAndCorrupt) {
  std::vector<std::vector<Tensor>> loaded;
  EXPECT_FALSE(LoadWeights(Path("does_not_exist.bin"), loaded));
  const std::string junk = Path("junk.bin");
  std::FILE* f = std::fopen(junk.c_str(), "wb");
  std::fputs("not a weight file", f);
  std::fclose(f);
  EXPECT_FALSE(LoadWeights(junk, loaded));
  EXPECT_TRUE(loaded.empty());

  // Hostile counts behind a valid header: 2^62 groups, and one group of 2^62
  // tensors. Neither fits in the file, so both loads fail before allocating.
  const std::string hostile = Path("hostile.bin");
  ASSERT_TRUE(SaveWeights(hostile, {{}}));  // magic, 1 group, 0 tensors
  std::string header;
  {
    std::ifstream in(hostile, std::ios::binary);
    header.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(header.size(), 3 * sizeof(uint64_t));
  const uint64_t huge = uint64_t{1} << 62;
  for (size_t offset : {sizeof(uint64_t), 2 * sizeof(uint64_t)}) {
    std::string bytes = header;
    std::memcpy(&bytes[offset], &huge, sizeof(huge));
    {
      std::ofstream out(hostile, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_FALSE(LoadWeights(hostile, loaded)) << "2^62 count at byte " << offset;
    EXPECT_TRUE(loaded.empty());
  }
}

TEST_F(SerializationTest, TruncatedWeightsRejected) {
  Rng rng(2);
  VisionModelOptions opts;
  opts.base_width = 4;
  TaskModel model(MakeVgg11(opts), rng);
  const std::string path = Path("weights.bin");
  ASSERT_TRUE(SaveWeights(path, model.ExportWeights()));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  std::vector<std::vector<Tensor>> loaded;
  EXPECT_FALSE(LoadWeights(path, loaded));
}

// Each weights.* rule of the linter that shares LoadWeights' scan, fired by
// one file, with the loader's verdict alongside.
TEST_F(SerializationTest, WeightsLinterFiresEachRule) {
  const auto write = [&](const std::string& name, const std::string& bytes) {
    std::ofstream out(Path(name), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return Path(name);
  };
  const auto word = [](int64_t value) {
    return std::string(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  const std::string magic = "1WHPROMG";  // "GMORPHW1" as a little-endian word
  ASSERT_TRUE(SaveWeights(Path("clean.bin"), {{Tensor::Zeros(Shape{2, 3})}, {}}));
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"weights.open", Path("does_not_exist.bin")},
      {"weights.magic", write("swapped.bin", "GMORPHW1" + word(0))},
      {"weights.truncated", write("short.bin", magic + word(1))},
      {"weights.bounds", write("rank.bin", magic + word(1) + word(1) + word(9))},
      {"weights.summary", Path("clean.bin")},
  };
  for (const auto& [rule, path] : cases) {
    const DiagnosticList diags = VerifyWeightsFile(path);
    ASSERT_EQ(diags.size(), 1u) << rule << ":\n" << diags.ToString();
    EXPECT_TRUE(diags.HasRule(rule)) << diags.ToString();
    std::vector<std::vector<Tensor>> loaded;
    EXPECT_EQ(LoadWeights(path, loaded), diags.ok()) << rule;
  }
  EXPECT_NE(VerifyWeightsFile(Path("clean.bin")).ToString().find("2 groups, 1 tensors, 6 floats"),
            std::string::npos);
}

TEST_F(SerializationTest, GraphRoundTripPreservesOutputs) {
  Rng rng(3);
  VisionModelOptions opts;
  opts.base_width = 4;
  opts.classes = 3;
  TaskModel a(MakeVgg13(opts), rng);
  opts.classes = 2;
  TaskModel b(MakeVgg11(opts), rng);
  AbsGraph g = ParseTaskModels({&a, &b});
  // Mutate so the saved graph includes a non-trivial tree (and possibly a
  // rescale node).
  std::optional<AbsGraph> mutated = SampleMutatePass(g, 2, ShapeSimilarity::kSimilar, rng);
  ASSERT_TRUE(mutated.has_value());

  const std::string path = Path("graph.bin");
  ASSERT_TRUE(SaveGraph(path, *mutated));
  AbsGraph loaded;
  ASSERT_TRUE(LoadGraph(path, loaded));
  loaded.Validate();
  EXPECT_EQ(loaded.Fingerprint(), mutated->Fingerprint());

  // Fresh-initialized nodes (inserted rescales) draw from the constructor's
  // RNG, so each model gets an identically seeded stream.
  Rng rng_a(99);
  Rng rng_b(99);
  MultiTaskModel original_model(*mutated, rng_a);
  MultiTaskModel loaded_model(loaded, rng_b);
  Tensor x = Tensor::RandomGaussian(Shape{2, 3, 32, 32}, rng);
  std::vector<Tensor> want = original_model.Forward(x, false);
  std::vector<Tensor> got = loaded_model.Forward(x, false);
  ASSERT_EQ(want.size(), got.size());
  for (size_t t = 0; t < want.size(); ++t) {
    EXPECT_LT(testing::MaxDiff(want[t], got[t]), 1e-6f);
  }
}

TEST_F(SerializationTest, BatchNormBuffersSurviveExport) {
  // Running statistics are buffers, not parameters; a trained-and-exported
  // graph must reproduce eval-mode outputs exactly after reload.
  Rng rng(4);
  VisionModelOptions opts;
  opts.base_width = 4;
  opts.classes = 2;
  TaskModel teacher(MakeResNet18(opts), rng);
  Tensor x = Tensor::RandomGaussian(Shape{4, 3, 32, 32}, rng);
  for (int i = 0; i < 5; ++i) {
    teacher.Forward(x, /*training=*/true);  // move running stats off defaults
  }
  AbsGraph g = ParseTaskModels({&teacher});
  Rng rng_a(5);
  Rng rng_b(5);
  MultiTaskModel model(g, rng_a);
  AbsGraph exported = model.ExportTrainedGraph();
  MultiTaskModel reloaded(exported, rng_b);
  Tensor probe = Tensor::RandomGaussian(Shape{2, 3, 32, 32}, rng);
  EXPECT_LT(testing::MaxDiff(model.Forward(probe, false)[0],
                             reloaded.Forward(probe, false)[0]),
            1e-6f);
  // Teacher and graph-built model agree in eval mode too (buffers traveled
  // through the parser).
  EXPECT_LT(testing::MaxDiff(teacher.Forward(probe, false), model.Forward(probe, false)[0]),
            1e-4f);
}

TEST_F(SerializationTest, GraphLoadRejectsCorrupt) {
  AbsGraph g;
  EXPECT_FALSE(LoadGraph(Path("missing.bin"), g));
  const std::string junk = Path("junk_graph.bin");
  std::FILE* f = std::fopen(junk.c_str(), "wb");
  std::fputs("garbage", f);
  std::fclose(f);
  EXPECT_FALSE(LoadGraph(junk, g));
}

// Regression coverage for the diagnostic-returning loader: every corruption
// class maps to a stable io.* rule id and never a partially-built graph.
class GraphIoTest : public SerializationTest {
 protected:
  AbsGraph SampleGraph() {
    Rng rng(11);
    VisionModelOptions opts;
    opts.base_width = 4;
    opts.classes = 2;
    TaskModel a(MakeVgg11(opts), rng);
    TaskModel b(MakeVgg11(opts), rng);
    return ParseTaskModels({&a, &b});
  }

  std::string SavedGraphBytes() {
    const std::string path = Path("sample.bin");
    if (!SaveGraph(path, SampleGraph())) {
      return "";
    }
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  GraphLoadResult LoadBytes(const std::string& bytes) {
    std::istringstream in(bytes);
    return TryLoadGraph(in);
  }
};

TEST_F(GraphIoTest, MissingFileReportsOpen) {
  GraphLoadResult result = TryLoadGraph(Path("nope.bin"));
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.graph.has_value());
  EXPECT_TRUE(result.diagnostics.HasRule("io.open"));
}

TEST_F(GraphIoTest, BadMagicReportsMagic) {
  GraphLoadResult result = LoadBytes("this is not a gmorph graph file at all....");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.diagnostics.HasRule("io.magic"));
}

TEST_F(GraphIoTest, TruncatedFileReportsTruncated) {
  const std::string bytes = SavedGraphBytes();
  ASSERT_FALSE(bytes.empty());
  GraphLoadResult result = LoadBytes(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.graph.has_value());
  EXPECT_TRUE(result.diagnostics.HasRule("io.truncated"));
}

TEST_F(GraphIoTest, InsaneNodeCountReportsHeader) {
  std::string bytes = SavedGraphBytes();
  ASSERT_GE(bytes.size(), 24u);
  // Bytes [16,24) hold the node count; blow it past the 2^20 cap.
  const int64_t huge = int64_t{1} << 40;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
  GraphLoadResult result = LoadBytes(bytes);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.diagnostics.HasRule("io.header"));
}

TEST_F(GraphIoTest, CleanFileRoundTripsThroughVerifier) {
  const std::string bytes = SavedGraphBytes();
  ASSERT_FALSE(bytes.empty());
  GraphLoadResult result = LoadBytes(bytes);
  ASSERT_TRUE(result.ok()) << result.diagnostics.ToString();
  EXPECT_EQ(result.graph->Fingerprint(), SampleGraph().Fingerprint());
  EXPECT_TRUE(result.diagnostics.ok());
}

// A 24-byte file declaring 2^20 nodes: the count passes the header's range
// check, but the bytes left cannot hold one node record, so the load stops
// before allocating the node list.
TEST_F(GraphIoTest, NodeCountBeyondTheFileReportsTruncated) {
  std::string bytes = SavedGraphBytes().substr(0, 24);
  ASSERT_EQ(bytes.size(), 24u);
  const int64_t header[2] = {0, int64_t{1} << 20};  // num_tasks, node count
  std::memcpy(bytes.data() + 8, header, sizeof(header));
  const GraphLoadResult result = LoadBytes(bytes);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.diagnostics.HasRule("io.truncated")) << result.diagnostics.ToString();
  EXPECT_NE(result.diagnostics.ToString().find("1048576"), std::string::npos)
      << result.diagnostics.ToString();
}

// A 272-byte file whose one node carries a weight of shape [2^14, 2^14]: the
// shape passes the record's bounds, but its 1 GiB of floats is refused before
// the tensor is allocated.
TEST_F(GraphIoTest, WeightShapeBeyondTheFileAllocatesNothing) {
  std::string bytes = SavedGraphBytes().substr(0, 8);  // the magic
  const std::vector<int64_t> words = {
      0, 1,                                                // num_tasks, node count
      0, 0, 0, -1, 0,                                      // id, task, op, parent, capacity
      0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,  // spec (strides at 1)
      0, 0,                                                // rescale_in, rescale_out ranks
      0, 0,                                                // input, output shape ranks
      0,                                                   // child count
      1, 2, int64_t{1} << 14, int64_t{1} << 14,            // one weight, rank 2
  };
  bytes.append(reinterpret_cast<const char*>(words.data()), words.size() * sizeof(int64_t));
  ASSERT_EQ(bytes.size(), 272u);
  const int64_t before = Tensor::TotalAllocatedBytes();
  const GraphLoadResult result = LoadBytes(bytes);
  EXPECT_LE(Tensor::TotalAllocatedBytes() - before, static_cast<int64_t>(bytes.size()));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.diagnostics.HasRule("io.truncated")) << result.diagnostics.ToString();
  EXPECT_NE(result.diagnostics.ToString().find("268435456"), std::string::npos)
      << result.diagnostics.ToString();
}

// ResNet blocks export their BatchNorm running statistics after their
// parameters (Module::ExportParameters), so a B4 graph's nodes carry more
// elements than their capacity. The graph must pass the verifier, survive
// SaveGraph/LoadGraph, and run the same eager outputs bit for bit.
TEST_F(GraphIoTest, BatchNormBuffersRoundTrip) {
  BenchmarkScale scale;
  scale.train_size = 1;
  scale.test_size = 1;
  scale.cnn_width = 4;
  const BenchmarkDef def = MakeBenchmark(4, scale, 5);
  Rng rng(21);
  const Tensor x = Tensor::RandomGaussian(def.tasks[0].model.input_shape.WithBatch(2), rng);
  std::vector<std::unique_ptr<TaskModel>> models;
  std::vector<const TaskModel*> ptrs;
  for (const BenchmarkTask& task : def.tasks) {
    models.push_back(std::make_unique<TaskModel>(task.model, rng));
    models.back()->Forward(x, /*training=*/true);  // moves the running statistics
    ptrs.push_back(models.back().get());
  }
  const AbsGraph graph = ParseTaskModels(ptrs);
  const DiagnosticList diags = VerifyGraph(graph);
  EXPECT_TRUE(diags.ok()) << diags.ToString();

  const std::string path = Path("b4.bin");
  ASSERT_TRUE(SaveGraph(path, graph));
  AbsGraph loaded;
  ASSERT_TRUE(LoadGraph(path, loaded));
  EXPECT_EQ(loaded.Fingerprint(), graph.Fingerprint());

  Rng rng_a(3);
  Rng rng_b(3);
  MultiTaskModel original(graph, rng_a);
  MultiTaskModel reloaded(loaded, rng_b);
  const std::vector<Tensor> want = original.Forward(x, false);
  const std::vector<Tensor> got = reloaded.Forward(x, false);
  ASSERT_EQ(got.size(), want.size());
  for (size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].shape(), want[t].shape());
    EXPECT_EQ(std::memcmp(got[t].data(), want[t].data(),
                          static_cast<size_t>(got[t].size()) * sizeof(float)),
              0)
        << "task " << t;
  }
}

}  // namespace
}  // namespace gmorph
