// Engine-level int8 scorer for the mutation search.
//
// CandidateEvaluator (core layer) cannot link against the runtime layer, so
// it takes this function through EvalOptions::quant_score; the driver that
// owns both layers (gmorph_cli, tests) injects it when quantized scoring is
// requested. The scorer lowers the fine-tuned candidate through the
// FusedEngine, calibrates on slices of the representative inputs, applies the
// recipe, then measures the int8 plan's latency and per-task test scores.
#ifndef GMORPH_SRC_RUNTIME_QUANT_SCORING_H_
#define GMORPH_SRC_RUNTIME_QUANT_SCORING_H_

#include <vector>

#include "src/core/candidate_eval.h"
#include "src/core/multitask_model.h"
#include "src/data/dataset.h"
#include "src/runtime/fused_engine.h"

namespace gmorph {

// Per-task scores of an engine (f32 or quantized) on `test` under each task's
// metric — the engine sibling of EvaluateMultiTask, which drives
// Module::Forward instead. Scoring the same engine before and after
// Quantize() isolates exactly the drop the int8 plan adds.
std::vector<double> EngineEvaluateMultiTask(FusedEngine& engine, const MultiTaskDataset& test,
                                            int64_t batch_size = 64);

// QuantScoreFn implementation (see candidate_eval.h for the contract).
// Returns within_budget=false with quantized_steps=0 when the plan has no
// quantizable conv/linear step.
QuantOutcome ScoreQuantizedEngine(MultiTaskModel& model, const MultiTaskDataset& train,
                                  const MultiTaskDataset& test,
                                  const std::vector<double>& f32_scores,
                                  const EvalOptions& options);

}  // namespace gmorph

#endif  // GMORPH_SRC_RUNTIME_QUANT_SCORING_H_
