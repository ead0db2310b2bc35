// Lifelogging (paper Table 1): object detection (multi-label, mAP) plus
// salient-object counting on one camera stream, using cross-family backbones
// (ResNet-34 + VGG-16, the paper's B5). After fusion, the example deploys the
// model on both runtime engines and compares latency — the Table 3 workflow
// as a library user would run it.
#include <cstdio>

#include "src/common/rng.h"
#include "src/core/gmorph.h"
#include "src/data/synthetic.h"
#include "src/data/teacher.h"
#include "src/models/zoo.h"
#include "src/runtime/engine.h"

int main() {
  using namespace gmorph;
  Rng rng(77);

  std::vector<VisionTaskSpec> tasks(2);
  tasks[0].num_classes = 8;  // object categories
  tasks[0].metric = MetricKind::kMeanAveragePrecision;
  tasks[1].num_classes = 5;  // salient-object count 0..4
  VisionDataOptions data_opts;
  data_opts.noise_stddev = 1.2f;
  VisionDatasetPair data = GenerateVisionData(192, 96, tasks, data_opts, rng);

  VisionModelOptions opts;
  opts.classes = 8;
  TaskModel object_net(MakeResNet34(opts), rng);
  opts.classes = 5;
  TaskModel salient_net(MakeVgg16(opts), rng);

  TeacherTrainOptions topts;
  topts.epochs = 5;
  std::printf("ObjectNet (ResNet-34s) mAP:       %.3f\n",
              TrainTeacher(object_net, data.train, data.test, 0, topts));
  std::printf("SalientNet (VGG-16s) accuracy:    %.3f\n",
              TrainTeacher(salient_net, data.train, data.test, 1, topts));

  GMorphOptions options;
  options.accuracy_drop_threshold = 0.02;
  options.iterations = 12;
  options.finetune.max_epochs = 6;
  options.finetune.eval_interval = 2;
  options.seed = 9;
  GMorph gmorph({&object_net, &salient_net}, &data.train, &data.test, options);
  GMorphResult result = gmorph.Run();

  std::printf("\ncross-family fusion: %.2f ms -> %.2f ms (%.2fx)\n", result.original_latency_ms,
              result.best_latency_ms, result.speedup);
  std::printf("ObjectNet  mAP      %.3f -> %.3f\n", result.teacher_scores[0],
              result.best_task_scores[0]);
  std::printf("SalientNet accuracy %.3f -> %.3f\n", result.teacher_scores[1],
              result.best_task_scores[1]);

  // Deploy the fused model on both engines.
  MultiTaskModel fused(result.best_graph, rng);
  const Tensor input = Tensor::Zeros(result.best_graph.node(0).output_shape.WithBatch(1));
  auto eager = MakeEngine(EngineKind::kEager, &fused);
  auto optimized = MakeEngine(EngineKind::kFused, &fused);
  std::printf("\ndeployment latency: eager %.2f ms, graph-optimized %.2f ms\n",
              MeasureEngineLatencyMs(*eager, input), MeasureEngineLatencyMs(*optimized, input));
  std::printf("\nfused model:\n%s", result.best_graph.ToString().c_str());
  return 0;
}
