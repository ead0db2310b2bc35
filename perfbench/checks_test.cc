// Each output check of the benchmark must fire on a deliberately corrupted
// output and stay quiet on a correct one.
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/checks.h"
#include "src/core/model_parser.h"
#include "src/core/multitask_model.h"
#include "src/data/benchmarks.h"
#include "src/runtime/engine.h"
#include "src/runtime/fused_engine.h"

namespace perfbench {
namespace {

using namespace gmorph;

// B1's three VGG-13s with random weights, parsed into one graph.
AbsGraph SmallB1Graph() {
  BenchmarkScale scale;
  scale.train_size = 8;
  scale.test_size = 8;
  scale.cnn_width = 4;
  const BenchmarkDef def = MakeBenchmark(1, scale, 7);
  Rng rng(7);
  std::vector<std::unique_ptr<TaskModel>> tasks;
  std::vector<const TaskModel*> ptrs;
  for (const BenchmarkTask& task : def.tasks) {
    tasks.push_back(std::make_unique<TaskModel>(task.model, rng));
    ptrs.push_back(tasks.back().get());
  }
  return ParseTaskModels(ptrs);
}

std::vector<Tensor> CloneAll(const std::vector<Tensor>& outputs) {
  std::vector<Tensor> out;
  for (const Tensor& t : outputs) {
    out.push_back(t.Clone());
  }
  return out;
}

class EngineOutputs : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = SmallB1Graph();
    Rng rng(11);
    model_ = std::make_unique<MultiTaskModel>(graph_, rng);
    Rng inputs(13);
    input_ = Tensor::RandomGaussian(graph_.node(graph_.root()).output_shape.WithBatch(2), inputs);
    EagerEngine eager(model_.get());
    want_ = CloneAll(eager.Run(input_));
    FusedEngine fused(model_.get());
    got_ = CloneAll(fused.Run(input_));
  }

  AbsGraph graph_;
  std::unique_ptr<MultiTaskModel> model_;
  Tensor input_;
  std::vector<Tensor> want_;
  std::vector<Tensor> got_;
};

TEST_F(EngineOutputs, FusedMatchesEager) {
  double err = 1.0;
  EXPECT_TRUE(OutputsClose(got_, want_, 1e-3, &err));
  EXPECT_LT(err, 1e-3);
}

TEST_F(EngineOutputs, PerturbedLogitFails) {
  got_[1].at(0) += 0.05f * (std::fabs(got_[1].at(0)) + 1.0f);
  EXPECT_FALSE(OutputsClose(got_, want_, 1e-3));
}

TEST_F(EngineOutputs, NanFails) {
  got_[0].at(0) = std::numeric_limits<float>::quiet_NaN();
  double err = 0.0;
  EXPECT_FALSE(OutputsClose(got_, want_, 1e-3, &err));
  EXPECT_TRUE(std::isinf(err));
}

TEST_F(EngineOutputs, MissingTaskFails) {
  got_.pop_back();
  EXPECT_FALSE(OutputsClose(got_, want_, 1.0));
}

TEST_F(EngineOutputs, WrongShapeFails) {
  got_[2] = got_[2].Reshape(Shape{got_[2].size()});
  EXPECT_FALSE(OutputsClose(got_, want_, 1.0));
}

TEST_F(EngineOutputs, BitwiseCheckCatchesOneUlp) {
  std::vector<Tensor> copy = CloneAll(got_);
  EXPECT_TRUE(OutputsBitwiseEqual(copy, got_));
  copy[0].at(3) = std::nextafter(copy[0].at(3), std::numeric_limits<float>::infinity());
  EXPECT_FALSE(OutputsBitwiseEqual(copy, got_));
  // A one-ulp change is far inside the f32 tolerance: only the bitwise check
  // can see it.
  EXPECT_TRUE(OutputsClose(copy, got_, 1e-3));
}

TEST_F(EngineOutputs, RelativeL2ErrorSeesANoisyOrBrokenEngine) {
  EXPECT_EQ(RelativeL2Error(got_, got_), 0.0);
  std::vector<Tensor> noisy = CloneAll(got_);
  for (Tensor& t : noisy) {
    for (int64_t i = 0; i < t.size(); ++i) {
      t.at(i) = -t.at(i);
    }
  }
  EXPECT_NEAR(RelativeL2Error(noisy, got_), 2.0, 1e-6);
  noisy[0].at(0) = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isinf(RelativeL2Error(noisy, got_)));
}

TEST(SearchResultCheck, AcceptsTheOriginalGraph) {
  std::vector<std::string> problems;
  EXPECT_TRUE(SearchResultValid(SmallB1Graph(), {0.8, 0.6, 0.5}, {0.8, 0.59, 0.5}, 0.02,
                                &problems));
  EXPECT_TRUE(problems.empty());
}

TEST(SearchResultCheck, FlagsAnAccuracyDropOverTheThreshold) {
  std::vector<std::string> problems;
  EXPECT_FALSE(SearchResultValid(SmallB1Graph(), {0.8, 0.6, 0.5}, {0.8, 0.55, 0.5}, 0.02,
                                 &problems));
  ASSERT_EQ(problems.size(), 1u);
}

TEST(SearchResultCheck, FlagsANanScoreAndAMissingTask) {
  std::vector<std::string> problems;
  EXPECT_FALSE(SearchResultValid(SmallB1Graph(), {0.8, 0.6, 0.5},
                                 {std::numeric_limits<double>::quiet_NaN(), 0.6}, 0.02,
                                 &problems));
  EXPECT_EQ(problems.size(), 2u);
}

TEST(SearchResultCheck, FlagsAGraphTheVerifierRejects) {
  const AbsGraph good = SmallB1Graph();
  std::vector<AbsNode> nodes = good.nodes();
  nodes.back().parent = 9999;
  const AbsGraph bad = AbsGraph::FromNodesUnchecked(std::move(nodes), good.num_tasks());
  std::vector<std::string> problems;
  EXPECT_FALSE(SearchResultValid(bad, {0.8, 0.6, 0.5}, {0.8, 0.6, 0.5}, 0.02, &problems));
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("graph verifier"), std::string::npos);
}

TEST(ServingCheck, CountsLostRequests) {
  EXPECT_EQ(LostRequests(100, 100, 0), 0);
  EXPECT_EQ(LostRequests(100, 97, 1), 2);
}

}  // namespace
}  // namespace perfbench
