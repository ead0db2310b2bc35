#include "src/runtime/quant_scoring.h"

#include <algorithm>
#include <cstring>

#include "src/data/eval.h"
#include "src/runtime/engine.h"
#include "src/runtime/fused_engine.h"

namespace gmorph {
namespace {

// Per-task logits of the quantized engine over a whole split (the engine
// sibling of PredictAllTasks, which drives Module::Forward instead).
std::vector<Tensor> EnginePredictAllTasks(FusedEngine& engine, const MultiTaskDataset& data,
                                          int64_t batch_size) {
  const int64_t n = data.size();
  std::vector<Tensor> all;
  std::vector<int64_t> written;
  for (int64_t start = 0; start < n; start += batch_size) {
    const int64_t count = std::min(batch_size, n - start);
    // Engine outputs alias internal buffers (valid until the next Run), so
    // rows are copied out before the next batch executes.
    std::vector<Tensor> outs = engine.Run(data.InputBatch(start, count));
    if (all.empty()) {
      all.resize(outs.size());
      written.assign(outs.size(), 0);
    }
    for (size_t t = 0; t < outs.size(); ++t) {
      const int64_t k = outs[t].shape()[1];
      if (all[t].empty()) {
        all[t] = Tensor(Shape{n, k});
      }
      std::memcpy(all[t].data() + written[t] * k, outs[t].data(),
                  static_cast<size_t>(outs[t].size()) * sizeof(float));
      written[t] += count;
    }
  }
  return all;
}

}  // namespace

std::vector<double> EngineEvaluateMultiTask(FusedEngine& engine, const MultiTaskDataset& test,
                                            int64_t batch_size) {
  std::vector<Tensor> logits = EnginePredictAllTasks(engine, test, batch_size);
  std::vector<double> scores(logits.size());
  for (size_t t = 0; t < logits.size(); ++t) {
    scores[t] = ComputeMetric(logits[t], test.tasks[t]);
  }
  return scores;
}

QuantOutcome ScoreQuantizedEngine(MultiTaskModel& model, const MultiTaskDataset& train,
                                  const MultiTaskDataset& test,
                                  const std::vector<double>& f32_scores,
                                  const EvalOptions& options) {
  QuantOutcome out;
  FusedEngine engine(&model);

  std::vector<Tensor> calib;
  const int64_t n = train.size();
  int64_t start = 0;
  for (int b = 0; b < options.quant.calib_batches && start < n; ++b) {
    const int64_t count = std::min<int64_t>(options.quant.calib_batch_size, n - start);
    calib.push_back(train.InputBatch(start, count));
    start += count;
  }
  const quant::QuantRecipe recipe = engine.Calibrate(calib);
  out.quantized_steps = engine.Quantize(recipe);
  if (out.quantized_steps == 0) {
    return out;  // nothing quantizable; not a mixed-precision candidate
  }

  out.task_scores = EngineEvaluateMultiTask(engine, test, options.finetune.batch_size);
  out.max_drop = 0.0;
  for (size_t t = 0; t < out.task_scores.size() && t < f32_scores.size(); ++t) {
    out.max_drop = std::max(out.max_drop, f32_scores[t] - out.task_scores[t]);
  }
  out.within_budget = out.max_drop <= options.quant.drop_budget + 1e-9;

  const Shape input_shape = model.graph()
                                .node(model.graph().root())
                                .output_shape.WithBatch(options.latency.batch_size);
  const Tensor input = Tensor::Zeros(input_shape);
  out.latency_ms = MeasureEngineLatencyMs(engine, input, options.latency.warmup_runs,
                                          options.latency.measured_runs);
  return out;
}

}  // namespace gmorph
