#include "src/baselines/mtl_baselines.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/model_parser.h"
#include "src/core/multitask_model.h"
#include "src/data/benchmarks.h"
#include "src/data/teacher.h"
#include "src/obs/timing.h"
#include "tests/test_util.h"

namespace gmorph {
namespace {

BenchmarkScale TinyScale() {
  BenchmarkScale s;
  s.train_size = 48;
  s.test_size = 32;
  s.cnn_width = 4;
  return s;
}

std::vector<std::unique_ptr<TaskModel>> UntrainedTeachers(const BenchmarkDef& def, Rng& rng) {
  std::vector<std::unique_ptr<TaskModel>> teachers;
  for (const BenchmarkTask& task : def.tasks) {
    teachers.push_back(std::make_unique<TaskModel>(task.model, rng));
  }
  return teachers;
}

std::vector<const TaskModel*> AsConstPtrs(
    const std::vector<std::unique_ptr<TaskModel>>& teachers) {
  std::vector<const TaskModel*> out;
  for (const auto& t : teachers) {
    out.push_back(t.get());
  }
  return out;
}

// Expected common-prefix sharing opportunities per benchmark, mirroring the
// paper's §6.3 discussion: identical VGGs share everything (B1/B2), B3 shares
// only the first conv, B4 shares the stem plus the first two residual blocks,
// B5-B7 share nothing.
TEST(CommonPrefixTest, MatchesPaperStructure) {
  Rng rng(1);
  const std::vector<std::pair<int, int>> expectations = {
      {3, 1}, {4, 3}, {5, 0}, {6, 0}, {7, 0}};
  for (const auto& [bench, expected] : expectations) {
    BenchmarkDef def = MakeBenchmark(bench, TinyScale(), 7);
    auto teachers = UntrainedTeachers(def, rng);
    EXPECT_EQ(CommonPrefixLength(AsConstPtrs(teachers)), expected) << def.id;
  }
  // B1: identical VGG-13s except the heads -> all blocks but the head shared.
  BenchmarkDef b1 = MakeBenchmark(1, TinyScale(), 7);
  auto teachers = UntrainedTeachers(b1, rng);
  EXPECT_EQ(CommonPrefixLength(AsConstPtrs(teachers)),
            static_cast<int>(b1.tasks[0].model.blocks.size()) - 1);
}

TEST(SharedPrefixGraphTest, StructureAndCapacity) {
  Rng rng(2);
  BenchmarkDef def = MakeBenchmark(1, TinyScale(), 9);
  auto teachers = UntrainedTeachers(def, rng);
  auto ptrs = AsConstPtrs(teachers);
  const int full = CommonPrefixLength(ptrs);

  AbsGraph none = BuildSharedPrefixGraph(ptrs, 0);
  AbsGraph half = BuildSharedPrefixGraph(ptrs, full / 2);
  AbsGraph all = BuildSharedPrefixGraph(ptrs, full);
  none.Validate();
  half.Validate();
  all.Validate();
  EXPECT_GT(none.TotalCapacity(), half.TotalCapacity());
  EXPECT_GT(half.TotalCapacity(), all.TotalCapacity());
  EXPECT_GT(none.TotalFlops(), all.TotalFlops());
  // Shared trunk serves all tasks.
  const int trunk_first = all.node(all.root()).children[0];
  EXPECT_EQ(all.TasksServed(trunk_first).size(), def.tasks.size());
}

TEST(AllSharedTest, InfeasibleWhenNoCommonLayers) {
  Rng rng(3);
  BenchmarkDef def = MakeBenchmark(5, TinyScale(), 11);
  std::vector<std::unique_ptr<TaskModel>> teachers = UntrainedTeachers(def, rng);
  std::vector<TaskModel*> ptrs;
  for (auto& t : teachers) {
    ptrs.push_back(t.get());
  }
  MtlBaselineOptions opts;
  MtlBaselineResult result = RunAllShared(ptrs, def.train, def.test, opts);
  EXPECT_FALSE(result.feasible);
}

TEST(AllSharedTest, SharesFullPrefixAndSpeedsUp) {
  Rng rng(4);
  BenchmarkDef def = MakeBenchmark(1, TinyScale(), 13);
  std::vector<std::unique_ptr<TaskModel>> teachers = UntrainedTeachers(def, rng);
  std::vector<TaskModel*> ptrs;
  for (auto& t : teachers) {
    ptrs.push_back(t.get());
    TeacherTrainOptions topts;
    topts.epochs = 1;
    TrainTeacher(*ptrs.back(), def.train, def.test, ptrs.size() - 1, topts);
  }
  MtlBaselineOptions opts;
  opts.finetune.max_epochs = 2;
  opts.finetune.eval_interval = 2;
  opts.latency.measured_runs = 3;
  MtlBaselineResult result = RunAllShared(ptrs, def.train, def.test, opts);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.shared_blocks,
            static_cast<int>(def.tasks[0].model.blocks.size()) - 1);
  EXPECT_GT(result.speedup, 1.5);  // three identical VGGs collapse to ~one
  result.graph.Validate();
}

TEST(TreeMtlTest, RecommendsSomeSharing) {
  Rng rng(5);
  BenchmarkDef def = MakeBenchmark(4, TinyScale(), 17);
  std::vector<std::unique_ptr<TaskModel>> teachers = UntrainedTeachers(def, rng);
  std::vector<TaskModel*> ptrs;
  for (auto& t : teachers) {
    ptrs.push_back(t.get());
    TeacherTrainOptions topts;
    topts.epochs = 1;
    TrainTeacher(*ptrs.back(), def.train, def.test, ptrs.size() - 1, topts);
  }
  MtlBaselineOptions opts;
  opts.finetune.max_epochs = 2;
  opts.finetune.eval_interval = 2;
  opts.probe_epochs = 1;
  opts.latency.measured_runs = 3;
  MtlBaselineResult result = RunTreeMtl(ptrs, def.train, def.test, opts);
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(result.shared_blocks, 1);
  EXPECT_LE(result.shared_blocks, 3);  // B4's common prefix is 3 blocks
  // Sharing a prefix strictly reduces compute; assert on the deterministic
  // FLOPs ratio.
  EXPECT_GE(result.flops_speedup, 1.0);
  // result.speedup divides two 3-run medians taken at different times, so a
  // burst of host load during either one flips it; only check it is a ratio.
  EXPECT_TRUE(std::isfinite(result.speedup));
  EXPECT_GT(result.speedup, 0.0);
  // The wall-clock check times both models interleaved, so host load hits
  // them alike.
  MultiTaskModel original(ParseTaskModels(AsConstPtrs(teachers)), rng);
  MultiTaskModel recommended(result.graph, rng);
  const Tensor x = Tensor::Zeros(result.graph.node(result.graph.root()).output_shape.WithBatch(1));
  const std::vector<double> ms =
      InterleavedMediansMs({[&] { original.Forward(x, /*training=*/false); },
                            [&] { recommended.Forward(x, /*training=*/false); }},
                           /*warmup=*/1, /*repeats=*/31);
  EXPECT_GE(ms[0] / ms[1], 0.9) << ms[0] << " ms / " << ms[1] << " ms";
}

}  // namespace
}  // namespace gmorph
