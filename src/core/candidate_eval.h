// Per-candidate evaluation pipeline for the mutation search (Algorithm 1's
// inner loop, factored out of the driver).
//
// A candidate flows through fixed stages:
//   cache probe -> verify -> rule-filter -> latency-profile -> fine-tune -> score
// The stages are split across three calls so sequential and parallel search
// share one code path:
//   Screen()   (serial)       cache probe, GraphVerifier gate, rule-based
//                             filter, model generation + latency profile.
//                             Latency stays in the serial phase so concurrent
//                             fine-tuning cannot distort wall-clock numbers.
//   Finetune() (thread-safe)  distillation fine-tuning; touches only the one
//                             pending candidate plus read-only shared state.
//   Finish()   (serial)       score integration: trained-graph export and
//                             evaluation-cache store.
// Every stage records its wall time in StageSeconds so the driver can report
// a per-iteration and whole-search cost breakdown.
#ifndef GMORPH_SRC_CORE_CANDIDATE_EVAL_H_
#define GMORPH_SRC_CORE_CANDIDATE_EVAL_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/abs_graph.h"
#include "src/core/eval_cache.h"
#include "src/core/finetune.h"
#include "src/core/history.h"
#include "src/core/latency.h"
#include "src/core/multitask_model.h"
#include "src/data/dataset.h"

namespace gmorph {

// Wall-time breakdown of one candidate evaluation (or a whole search when
// accumulated). `finetune` is summed per candidate, so under parallel rounds
// it reads as worker-seconds rather than elapsed wall time.
struct StageSeconds {
  double sample = 0.0;    // policy sampling + mutation pass (driver side)
  double verify = 0.0;    // GraphVerifier gate
  double profile = 0.0;   // model generation + latency measurement
  double finetune = 0.0;  // distillation fine-tuning (incl. periodic scoring)
  double score = 0.0;     // trained-graph export + cache store
  void Accumulate(const StageSeconds& other);
  double Total() const { return sample + verify + profile + finetune + score; }
};

enum class EvalStatus {
  kRejectedByVerifier,  // ill-formed graph; never profiled or fine-tuned
  kFilteredByRule,      // skipped via capacity-signature rule (paper §5.1)
  kCacheHit,            // outcome reused from the evaluation cache
  kEvaluated,           // fine-tuned this run
};

// Knobs for scoring a candidate's int8 plan (post-training quantization via
// FusedEngine::Calibrate/Quantize). The scorer itself lives in the runtime
// layer and is injected through EvalOptions::quant_score — core cannot link
// against gmorph_runtime without a dependency cycle.
struct QuantEvalOptions {
  bool enabled = false;
  // Calibration stream: `calib_batches` slices of `calib_batch_size` rows
  // taken from the front of the representative (train) inputs.
  int calib_batches = 2;
  int64_t calib_batch_size = 16;
  // Allowed per-task score drop of the int8 plan relative to the candidate's
  // own f32 scores, as an absolute fraction (0.01 = 1 point of accuracy).
  double drop_budget = 0.01;
};

// Result of scoring one candidate's int8 plan.
struct QuantOutcome {
  bool within_budget = false;  // quantized AND every task within drop_budget
  int quantized_steps = 0;     // conv/linear steps switched to int8
  double latency_ms = 0.0;     // engine latency of the quantized plan
  double max_drop = 0.0;       // worst task drop vs the candidate's f32 scores
  std::vector<double> task_scores;
};

// Runtime-layer scorer signature (see runtime/quant_scoring.h for the
// implementation): calibrates + quantizes the candidate's engine, then
// re-scores it on the test split. `f32_scores` are the candidate's fine-tuned
// per-task scores (the drop baseline).
struct EvalOptions;
using QuantScoreFn = std::function<QuantOutcome(
    MultiTaskModel& model, const MultiTaskDataset& train, const MultiTaskDataset& test,
    const std::vector<double>& f32_scores, const EvalOptions& options)>;

// The structured result of one candidate evaluation.
struct EvalOutcome {
  EvalStatus status = EvalStatus::kEvaluated;
  double latency_ms = 0.0;
  int64_t flops = 0;
  double accuracy_drop = 0.0;
  bool met_target = false;
  bool terminated_early = false;
  int epochs_run = 0;
  double finetune_seconds = 0.0;  // 0 on cache hits: no training paid this run
  std::vector<double> task_scores;
  StageSeconds stages;
  // Trained weights; engaged exactly when met_target (the elite candidate).
  std::optional<AbsGraph> trained_graph;
  // Int8 plan score; engaged when quant scoring is enabled, the candidate met
  // the f32 target, and the scorer ran (mixed-precision winner candidate).
  std::optional<QuantOutcome> quant;
};

// The evaluation-relevant option subset. Its hash namespaces the evaluation
// cache: two searches share cached outcomes iff these options agree.
struct EvalOptions {
  FinetuneOptions finetune;  // target_drop / predictive_termination folded in
  LatencyOptions latency;
  bool rule_based_filtering = false;
  // Int8 scoring of met-target candidates. The quant fields join the options
  // hash only when `quant.enabled` is set, so enabling the feature does not
  // invalidate existing f32 evaluation caches.
  QuantEvalOptions quant;
  QuantScoreFn quant_score;  // injected by the runtime layer; may be empty
};

uint64_t HashEvalOptions(const EvalOptions& options);

// A candidate between Screen() and Finish(). When `done` is set the outcome
// was finalized by screening (reject / filter / cache hit) and Finetune() is
// a no-op.
struct PendingEval {
  AbsGraph graph;
  std::string fingerprint;
  bool done = false;
  EvalOutcome outcome;
  std::string verifier_report;  // non-empty iff rejected by the verifier
  std::unique_ptr<MultiTaskModel> model;
  FinetuneResult finetune;
};

class CandidateEvaluator {
 public:
  // All pointers must outlive the evaluator; `cache` may be null (disabled).
  CandidateEvaluator(const std::vector<Tensor>* teacher_train_logits,
                     const MultiTaskDataset* train, const MultiTaskDataset* test,
                     const std::vector<double>* teacher_scores, const EvalOptions& options,
                     EvaluationCache* cache);

  // Serial screening stage; `model_rng` initializes fresh modules (inserted
  // adapters) of the generated model.
  PendingEval Screen(AbsGraph candidate, const HistoryDatabase& history, Rng& model_rng);

  // Fine-tunes one pending candidate. Safe to call concurrently for distinct
  // candidates: shared state is read-only.
  void Finetune(PendingEval& pending) const;

  // Serializes the outcome (trained-graph export, cache store) and returns
  // it. `pending.graph` stays valid for the caller (signature bookkeeping).
  EvalOutcome Finish(PendingEval& pending);

  const EvalOptions& options() const { return options_; }

 private:
  const std::vector<Tensor>* teacher_train_logits_;
  const MultiTaskDataset* train_;
  const MultiTaskDataset* test_;
  const std::vector<double>* teacher_scores_;
  EvalOptions options_;
  EvaluationCache* cache_;  // not owned; null disables caching
};

}  // namespace gmorph

#endif  // GMORPH_SRC_CORE_CANDIDATE_EVAL_H_
