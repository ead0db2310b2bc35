#include "src/core/candidate_eval.h"

#include <algorithm>
#include <sstream>

#include "src/analysis/driver.h"
#include "src/common/check.h"
#include "src/common/text_artifact.h"
#include "src/obs/trace.h"

namespace gmorph {

void StageSeconds::Accumulate(const StageSeconds& other) {
  sample += other.sample;
  verify += other.verify;
  profile += other.profile;
  finetune += other.finetune;
  score += other.score;
}

uint64_t HashEvalOptions(const EvalOptions& o) {
  std::ostringstream os;
  os.precision(17);
  os << "evalopts v1|" << o.finetune.max_epochs << "|" << o.finetune.batch_size << "|"
     << o.finetune.lr << "|" << o.finetune.eval_interval << "|"
     << o.finetune.early_stop_on_target << "|" << o.finetune.predictive_termination << "|"
     << o.finetune.target_drop << "|";
  for (const float w : o.finetune.task_loss_weights) {
    os << w << ",";
  }
  os << "|" << o.latency.warmup_runs << "|" << o.latency.measured_runs << "|"
     << o.latency.batch_size << "|" << o.rule_based_filtering;
  // Quant fields join the hash only when enabled so the f32-only cache
  // namespace is byte-stable across this feature's introduction.
  if (o.quant.enabled) {
    os << "|quant|" << o.quant.calib_batches << "|" << o.quant.calib_batch_size << "|"
       << o.quant.drop_budget;
  }
  return Fnv1aHash(os.str());
}

CandidateEvaluator::CandidateEvaluator(const std::vector<Tensor>* teacher_train_logits,
                                       const MultiTaskDataset* train,
                                       const MultiTaskDataset* test,
                                       const std::vector<double>* teacher_scores,
                                       const EvalOptions& options, EvaluationCache* cache)
    : teacher_train_logits_(teacher_train_logits),
      train_(train),
      test_(test),
      teacher_scores_(teacher_scores),
      options_(options),
      cache_(cache) {
  GMORPH_CHECK(teacher_train_logits_ != nullptr && train_ != nullptr && test_ != nullptr &&
               teacher_scores_ != nullptr);
}

PendingEval CandidateEvaluator::Screen(AbsGraph candidate, const HistoryDatabase& history,
                                       Rng& model_rng) {
  PendingEval pending;
  pending.graph = std::move(candidate);
  pending.fingerprint = pending.graph.Fingerprint();
  EvalOutcome& out = pending.outcome;
  out.flops = pending.graph.TotalFlops();

  // Cache probe first: a hit skips verification (the entry was verified when
  // stored and the trained graph re-verifies on load) and, crucially, the
  // fine-tuning cost.
  if (cache_ != nullptr) {
    obs::TraceSpan probe_span("eval/cache_probe", obs::TraceCat::kEval);
    if (std::optional<EvaluationCache::CachedEval> hit = cache_->Lookup(pending.fingerprint)) {
      out.status = EvalStatus::kCacheHit;
      out.latency_ms = hit->entry.latency_ms;
      out.accuracy_drop = hit->entry.accuracy_drop;
      out.met_target = hit->entry.met_target;
      out.terminated_early = hit->entry.terminated_early;
      out.epochs_run = hit->entry.epochs_run;
      out.task_scores = hit->entry.task_scores;
      out.trained_graph = std::move(hit->trained_graph);
      // Quant outcomes are not cached (they depend on runtime solvers, not
      // just the graph); rebuild the model from the trained weights and
      // re-score the int8 plan so warm-cache searches still see it.
      if (options_.quant.enabled && options_.quant_score && out.met_target &&
          out.trained_graph.has_value()) {
        MultiTaskModel model(*out.trained_graph, model_rng);
        out.quant = options_.quant_score(model, *train_, *test_, out.task_scores, options_);
      }
      pending.done = true;
      return pending;
    }
  }

  // Static-analysis gate: an ill-formed candidate would crash lowering or
  // fine-tuning; reject it here (a mutation-engine bug, but the search
  // degrades gracefully instead of crashing mid-run).
  DiagnosticList verdict;
  {
    obs::TraceSpan verify_span("eval/verify", obs::TraceCat::kEval, &out.stages.verify);
    verdict = RunGraphPasses(pending.graph);
  }
  if (!verdict.ok()) {
    out.status = EvalStatus::kRejectedByVerifier;
    pending.verifier_report = verdict.ToString();
    pending.done = true;
    return pending;
  }

  // Rule-based filter: skip fine-tuning candidates more aggressive in sharing
  // than a known non-promising one.
  {
    obs::TraceSpan filter_span("eval/filter", obs::TraceCat::kEval);
    if (options_.rule_based_filtering && history.FilteredByRule(pending.graph.Signature())) {
      out.status = EvalStatus::kFilteredByRule;
      pending.done = true;
      return pending;
    }
  }

  // Model generation (weight inheritance happens through the node weights the
  // mutated graph carries) + latency profile.
  {
    obs::TraceSpan profile_span("eval/profile", obs::TraceCat::kEval, &out.stages.profile);
    pending.model = std::make_unique<MultiTaskModel>(pending.graph, model_rng);
    out.latency_ms = MeasureLatencyMs(*pending.model, options_.latency);
  }
  return pending;
}

void CandidateEvaluator::Finetune(PendingEval& pending) const {
  if (pending.done) {
    return;
  }
  GMORPH_CHECK(pending.model != nullptr);
  obs::TraceSpan finetune_span("eval/finetune", obs::TraceCat::kEval);
  pending.finetune = DistillFinetune(*pending.model, *teacher_train_logits_, *train_, *test_,
                                     *teacher_scores_, options_.finetune);
}

EvalOutcome CandidateEvaluator::Finish(PendingEval& pending) {
  EvalOutcome& out = pending.outcome;
  if (pending.done) {
    return std::move(out);
  }
  const FinetuneResult& ft = pending.finetune;
  out.status = EvalStatus::kEvaluated;
  out.accuracy_drop = ft.max_drop;
  out.met_target = ft.met_target;
  out.terminated_early = ft.terminated_early;
  out.epochs_run = ft.epochs_run;
  out.finetune_seconds = ft.seconds;
  out.stages.finetune = ft.seconds;
  out.task_scores = ft.task_scores;

  {
    obs::TraceSpan score_span("eval/score", obs::TraceCat::kEval, &out.stages.score);
    if (out.met_target) {
      out.trained_graph = pending.model->ExportTrainedGraph();
      // Int8 scoring only for candidates that already earned elite status at
      // f32: calibrate + quantize the fine-tuned model and measure the drop
      // the int8 plan adds on top. The search metric stays the f32 latency;
      // the outcome rides along so the driver can surface mixed-precision
      // winners (and their int8 latency) without perturbing the trajectory.
      if (options_.quant.enabled && options_.quant_score) {
        out.quant =
            options_.quant_score(*pending.model, *train_, *test_, out.task_scores, options_);
      }
    }
    if (cache_ != nullptr) {
      EvaluationCache::Entry entry;
      entry.met_target = out.met_target;
      entry.terminated_early = out.terminated_early;
      entry.epochs_run = out.epochs_run;
      entry.accuracy_drop = out.accuracy_drop;
      entry.latency_ms = out.latency_ms;
      entry.flops = out.flops;
      entry.finetune_seconds = out.finetune_seconds;
      entry.task_scores = out.task_scores;
      cache_->Store(pending.fingerprint, entry,
                    out.trained_graph.has_value() ? &*out.trained_graph : nullptr);
    }
  }
  return std::move(out);
}

}  // namespace gmorph
