// Tests for the accuracy estimator (distillation fine-tuning) and the
// runtime engines.
#include <gtest/gtest.h>

#include "src/common/parallel_for.h"
#include "src/core/finetune.h"
#include "src/core/latency.h"
#include "src/core/model_parser.h"
#include "src/core/mutation.h"
#include "src/data/synthetic.h"
#include "src/data/teacher.h"
#include "src/models/zoo.h"
#include "src/obs/trace.h"
#include "src/runtime/engine.h"
#include "src/runtime/fused_engine.h"
#include "tests/test_util.h"

namespace gmorph {
namespace {

struct Fixture {
  VisionDatasetPair data;
  std::unique_ptr<TaskModel> teacher_a;
  std::unique_ptr<TaskModel> teacher_b;
  std::vector<Tensor> teacher_logits;
  std::vector<double> teacher_scores;
};

Fixture MakeFixture(Rng& rng, int64_t base_width = 4) {
  Fixture f;
  std::vector<VisionTaskSpec> tasks(2);
  tasks[0].num_classes = 3;
  tasks[1].num_classes = 2;
  VisionDataOptions data_opts;
  f.data = GenerateVisionData(64, 48, tasks, data_opts, rng);

  VisionModelOptions opts;
  opts.base_width = base_width;
  opts.classes = 3;
  f.teacher_a = std::make_unique<TaskModel>(MakeVgg11(opts), rng);
  opts.classes = 2;
  f.teacher_b = std::make_unique<TaskModel>(MakeVgg11(opts), rng);
  TeacherTrainOptions train_opts;
  train_opts.epochs = 3;
  TrainTeacher(*f.teacher_a, f.data.train, f.data.test, 0, train_opts);
  TrainTeacher(*f.teacher_b, f.data.train, f.data.test, 1, train_opts);
  f.teacher_logits = {PredictAll(*f.teacher_a, f.data.train),
                      PredictAll(*f.teacher_b, f.data.train)};
  f.teacher_scores = {EvaluateTeacher(*f.teacher_a, f.data.test, 0),
                      EvaluateTeacher(*f.teacher_b, f.data.test, 1)};
  return f;
}

TEST(FinetuneTest, UnmutatedModelAlreadyMeetsTarget) {
  Rng rng(1);
  Fixture f = MakeFixture(rng);
  AbsGraph g = ParseTaskModels({f.teacher_a.get(), f.teacher_b.get()});
  MultiTaskModel model(g, rng);
  FinetuneOptions opts;
  opts.max_epochs = 2;
  opts.eval_interval = 1;
  opts.target_drop = 0.02;
  FinetuneResult r =
      DistillFinetune(model, f.teacher_logits, f.data.train, f.data.test, f.teacher_scores, opts);
  // The original graph carries teacher weights: the first evaluation passes.
  EXPECT_TRUE(r.met_target);
  EXPECT_LE(r.epochs_run, 1);
}

TEST(FinetuneTest, RecoversAccuracyAfterMutation) {
  Rng rng(2);
  Fixture f = MakeFixture(rng);
  AbsGraph g = ParseTaskModels({f.teacher_a.get(), f.teacher_b.get()});
  // Share the first conv: task 1's second block reuses task 0's second-block
  // input (paper Fig. 5, panel 2).
  const int second0 = g.node(g.node(g.root()).children[0]).children[0];
  const int second1 = g.node(g.node(g.root()).children[1]).children[0];
  ASSERT_TRUE(ApplyMutation(g, {second0, second1}));
  MultiTaskModel model(g, rng);
  FinetuneOptions opts;
  opts.max_epochs = 24;
  opts.eval_interval = 2;
  opts.target_drop = 0.05;
  FinetuneResult r =
      DistillFinetune(model, f.teacher_logits, f.data.train, f.data.test, f.teacher_scores, opts);
  EXPECT_TRUE(r.met_target) << "final drop " << r.max_drop;
  EXPECT_EQ(r.task_scores.size(), 2u);
}

TEST(FinetuneTest, PredictiveTerminationStopsDoomedCandidate) {
  Rng rng(3);
  Fixture f = MakeFixture(rng);
  AbsGraph g = ParseTaskModels({f.teacher_a.get(), f.teacher_b.get()});
  MultiTaskModel model(g, rng);
  FinetuneOptions opts;
  opts.max_epochs = 40;
  opts.eval_interval = 1;
  opts.lr = 0.0f;           // model cannot improve
  opts.target_drop = -2.0;  // unreachable target (scores are <= 1)
  opts.predictive_termination = true;
  opts.early_stop_on_target = true;
  FinetuneResult r =
      DistillFinetune(model, f.teacher_logits, f.data.train, f.data.test, f.teacher_scores, opts);
  EXPECT_FALSE(r.met_target);
  EXPECT_TRUE(r.terminated_early);
  EXPECT_LT(r.epochs_run, opts.max_epochs);
}

TEST(FinetuneTest, PredictAllTasksConcatenatesBatches) {
  Rng rng(4);
  Fixture f = MakeFixture(rng);
  AbsGraph g = ParseTaskModels({f.teacher_a.get(), f.teacher_b.get()});
  MultiTaskModel model(g, rng);
  std::vector<Tensor> big = PredictAllTasks(model, f.data.test, /*batch_size=*/64);
  std::vector<Tensor> small = PredictAllTasks(model, f.data.test, /*batch_size=*/7);
  ASSERT_EQ(big.size(), small.size());
  for (size_t t = 0; t < big.size(); ++t) {
    EXPECT_LT(testing::MaxDiff(big[t], small[t]), 1e-5f);
  }
}

TEST(LatencyTest, PositiveAndScalesWithModel) {
  Rng rng(5);
  VisionModelOptions small;
  small.base_width = 4;
  VisionModelOptions large;
  large.base_width = 16;
  AbsGraph g_small = ParseModelSpecs({MakeVgg11(small)});
  AbsGraph g_large = ParseModelSpecs({MakeVgg16(large)});
  MultiTaskModel m_small(g_small, rng);
  MultiTaskModel m_large(g_large, rng);
  LatencyOptions opts;
  opts.measured_runs = 3;
  const double lat_small = MeasureLatencyMs(m_small, opts);
  const double lat_large = MeasureLatencyMs(m_large, opts);
  EXPECT_GT(lat_small, 0.0);
  EXPECT_GT(lat_large, lat_small);
}

TEST(EngineTest, FusedMatchesEagerAfterTraining) {
  Rng rng(6);
  Fixture f = MakeFixture(rng);
  // Use a ResNet so BN folding is exercised with non-trivial running stats.
  VisionModelOptions opts;
  opts.base_width = 4;
  opts.classes = 3;
  TaskModel resnet(MakeResNet18(opts), rng);
  TeacherTrainOptions topts;
  topts.epochs = 2;
  TrainTeacher(resnet, f.data.train, f.data.test, 0, topts);

  AbsGraph g = ParseTaskModels({&resnet, f.teacher_b.get()});
  MultiTaskModel model(g, rng);

  auto eager = MakeEngine(EngineKind::kEager, &model);
  auto fused = MakeEngine(EngineKind::kFused, &model);
  Tensor x = Tensor::RandomGaussian(Shape{2, 3, 32, 32}, rng);
  std::vector<Tensor> eager_out = eager->Run(x);
  std::vector<Tensor> fused_out = fused->Run(x);
  ASSERT_EQ(eager_out.size(), fused_out.size());
  for (size_t t = 0; t < eager_out.size(); ++t) {
    EXPECT_LT(testing::MaxDiff(eager_out[t], fused_out[t]), 1e-3f);
  }
}

TEST(EngineTest, FusedPlanCountsConvsAndIdentities) {
  Rng rng(7);
  VisionModelOptions opts;
  opts.base_width = 4;
  opts.classes = 2;
  AbsGraph g = ParseModelSpecs({MakeVgg11(opts)});
  MultiTaskModel model(g, rng);
  FusedEngine fused(&model);
  // All 8 VGG-11 conv layers are fusible.
  EXPECT_EQ(fused.num_fused_convs(), 8);
  EXPECT_EQ(fused.num_eliminated(), 0);
}

TEST(EngineTest, FusedNotSlowerThanEager) {
  Rng rng(8);
  VisionModelOptions opts;
  opts.base_width = 8;
  opts.classes = 4;
  AbsGraph g = ParseModelSpecs({MakeVgg13(opts)});
  MultiTaskModel model(g, rng);
  auto eager = MakeEngine(EngineKind::kEager, &model);
  auto fused = MakeEngine(EngineKind::kFused, &model);
  const Tensor x = Tensor::Zeros(g.node(g.root()).output_shape.WithBatch(4));
  const auto [lat_eager, lat_fused] = testing::InterleavedMediansMs(
      [&] { eager->Run(x); }, [&] { fused->Run(x); }, /*runs=*/31);
  EXPECT_LT(lat_fused, lat_eager * 1.15);  // allow timer noise
}

TEST(EngineTest, FusedSmallBatchRunWakesNoKernelWorker) {
  // FusedNotSlowerThanEager's model and batch. Every step is too small to
  // repay waking a parked kernel worker, so Run() keeps to the calling thread
  // like the eager engine, and a busy host delays both sides alike.
  const int restore = KernelThreads();
  SetKernelThreads(4);
  Rng rng(8);
  VisionModelOptions opts;
  opts.base_width = 8;
  opts.classes = 4;
  AbsGraph g = ParseModelSpecs({MakeVgg13(opts)});
  MultiTaskModel model(g, rng);
  FusedEngine fused(&model);
  const Tensor x = Tensor::Zeros(g.node(g.root()).output_shape.WithBatch(4));
  fused.Run(x);
  obs::StopTracing();
  obs::ClearTrace();
  obs::StartTracing();
  fused.Run(x);
  obs::StopTracing();
  SetKernelThreads(restore);  // joins the pool's workers before the export
  const std::string json = obs::TraceToJson();
  obs::ClearTrace();
  EXPECT_EQ(json.find("\"name\":\"pool/task\""), std::string::npos)
      << "a kernel pool task ran during Run()";
}

TEST(EngineTest, TransformerPlanMatchesEager) {
  Rng rng(9);
  TransformerModelOptions vit = ViTBaseOptions();
  vit.classes = 3;
  AbsGraph g = ParseModelSpecs({MakeViT("vit", vit)});
  MultiTaskModel model(g, rng);
  auto eager = MakeEngine(EngineKind::kEager, &model);
  auto fused = MakeEngine(EngineKind::kFused, &model);
  Tensor x = Tensor::RandomGaussian(Shape{1, 3, 32, 32}, rng);
  EXPECT_LT(testing::MaxDiff(eager->Run(x)[0], fused->Run(x)[0]), 1e-4f);
}

}  // namespace
}  // namespace gmorph
