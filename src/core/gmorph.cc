#include "src/core/gmorph.h"

#include <algorithm>
#include <sstream>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/parallel_for.h"
#include "src/common/text_artifact.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/timing.h"
#include "src/obs/trace.h"
#include "src/core/eval_cache.h"
#include "src/core/model_parser.h"
#include "src/core/mutation.h"
#include "src/core/search_checkpoint.h"
#include "src/data/teacher.h"

namespace gmorph {
namespace {

// The evaluation-relevant option subset (threshold/termination folded into the
// finetune block, matching what DistillFinetune actually sees).
EvalOptions MakeEvalOptions(const GMorphOptions& options) {
  EvalOptions eval;
  eval.finetune = options.finetune;
  eval.finetune.target_drop = options.accuracy_drop_threshold;
  eval.finetune.predictive_termination = options.predictive_termination;
  eval.latency = options.latency;
  eval.rule_based_filtering = options.rule_based_filtering;
  eval.quant = options.quant;
  eval.quant_score = options.quant_score;
  return eval;
}

}  // namespace

std::unique_ptr<SamplingPolicy> MakePolicy(PolicyKind kind, const AnnealingOptions& annealing) {
  switch (kind) {
    case PolicyKind::kSimulatedAnnealing:
      return std::make_unique<SimulatedAnnealingPolicy>(annealing);
    case PolicyKind::kRandom:
      return std::make_unique<RandomPolicy>();
  }
  GMORPH_CHECK(false, "unknown policy");
  return nullptr;
}

uint64_t SearchOptionsHash(const GMorphOptions& o) {
  // Everything that determines search *semantics*. Budget/execution knobs
  // (iterations, num_threads, verbose, cache + checkpoint settings) are
  // deliberately excluded: resuming a checkpoint under a larger iteration
  // budget or a different thread count is the point of having checkpoints.
  std::ostringstream os;
  os.precision(17);
  os << "searchopts v1|" << o.accuracy_drop_threshold << "|" << o.max_mutations_per_pass << "|"
     << static_cast<int>(o.policy) << "|" << o.annealing.alpha << "|" << o.annealing.initial_temp
     << "|" << o.annealing.max_elites << "|" << o.predictive_termination << "|"
     << o.rule_based_filtering << "|" << static_cast<int>(o.metric) << "|"
     << o.parallel_candidates << "|" << o.seed << "|" << HashEvalOptions(MakeEvalOptions(o));
  return Fnv1aHash(os.str());
}

GMorph::GMorph(std::vector<TaskModel*> teachers, const MultiTaskDataset* train,
               const MultiTaskDataset* test, const GMorphOptions& options)
    : teachers_(std::move(teachers)), train_(train), test_(test), options_(options) {
  GMORPH_CHECK(!teachers_.empty() && train_ != nullptr && test_ != nullptr);
  GMORPH_CHECK(train_->tasks.size() == teachers_.size());
  original_graph_ = ParseTaskModels(
      std::vector<const TaskModel*>(teachers_.begin(), teachers_.end()));
}

GMorphResult GMorph::Run() { return RunInternal(nullptr); }

GMorphResult GMorph::Resume(const SearchCheckpoint& checkpoint) {
  GMORPH_CHECK(checkpoint.options_hash == SearchOptionsHash(options_),
               "checkpoint was written under different search options");
  return RunInternal(&checkpoint);
}

GMorphResult GMorph::RunInternal(const SearchCheckpoint* resume) {
  obs::TraceSpan run_span("search/run", obs::TraceCat::kSearch);
  obs::Counter& m_finetuned = obs::GetCounter("search.candidates_finetuned");
  obs::Counter& m_filtered = obs::GetCounter("search.candidates_filtered");
  obs::Counter& m_rejected = obs::GetCounter("search.candidates_rejected");
  obs::Counter& m_duplicates = obs::GetCounter("search.candidates_duplicate");
  obs::Counter& m_cache_hits = obs::GetCounter("search.cache_hits");
  obs::Counter& m_elites = obs::GetCounter("search.elites_admitted");
  obs::Histogram& m_candidate_latency = obs::GetHistogram("search.candidate_latency_ms");
  obs::Gauge& m_best_latency = obs::GetGauge("search.best_latency_ms");
  Timer search_timer;
  GMorphResult result;

  // Distillation targets are recomputed (deterministic teacher forward passes;
  // the logits are too large to belong in a checkpoint).
  std::vector<Tensor> teacher_train_logits;
  teacher_train_logits.reserve(teachers_.size());
  for (TaskModel* teacher : teachers_) {
    teacher_train_logits.push_back(PredictAll(*teacher, *train_));
  }

  auto candidate_cost = [&](double latency_ms, int64_t flops) {
    return options_.metric == OptimizeMetric::kLatency ? latency_ms
                                                       : static_cast<double>(flops);
  };

  HistoryDatabase history(options_.annealing.max_elites);
  std::unique_ptr<SamplingPolicy> policy = MakePolicy(options_.policy, options_.annealing);
  double best_cost = 0.0;
  double elapsed_offset = 0.0;
  int iter = 0;

  if (resume == nullptr) {
    for (size_t t = 0; t < teachers_.size(); ++t) {
      result.teacher_scores.push_back(EvaluateTeacher(*teachers_[t], *test_, t));
    }
    // Baseline: the original multi-DNNs rewritten as one input-sharing graph.
    // The baseline model draws from its own derived stream so candidate
    // streams are untouched by it.
    Rng baseline_rng(Rng::MixSeed(options_.seed, 0, 0));
    MultiTaskModel original_model(original_graph_, baseline_rng);
    result.original_latency_ms = MeasureLatencyMs(original_model, options_.latency);
    result.original_flops = original_graph_.TotalFlops();
    result.best_graph = original_graph_;
    result.best_latency_ms = result.original_latency_ms;
    result.best_flops = result.original_flops;
    result.best_task_scores = result.teacher_scores;
    best_cost = candidate_cost(result.best_latency_ms, result.best_flops);
    history.MarkEvaluated(original_graph_);
  } else {
    // Restore: baseline measurements, best-so-far, trace, counters, the
    // history database, and the policy state come from the checkpoint; all
    // future randomness re-derives from (seed, iteration, slot).
    result.teacher_scores = resume->teacher_scores;
    result.original_latency_ms = resume->original_latency_ms;
    result.original_flops = resume->original_flops;
    result.found_improvement = resume->found_improvement;
    result.best_graph = resume->best_graph;
    result.best_latency_ms = resume->best_latency_ms;
    result.best_flops = resume->best_flops;
    result.best_task_scores = resume->best_task_scores;
    result.trace = resume->trace;
    result.candidates_finetuned = resume->candidates_finetuned;
    result.candidates_filtered = resume->candidates_filtered;
    result.candidates_rejected = resume->candidates_rejected;
    result.cache_hits = resume->cache_hits;
    result.stage_seconds = resume->stage_seconds;
    best_cost = resume->best_cost;
    elapsed_offset = resume->elapsed_seconds;
    iter = resume->next_iteration;
    for (const std::string& fp : resume->fingerprints) {
      history.MarkEvaluatedFingerprint(fp);
    }
    // Insertion in stored (sorted) order keeps the stable elite ranking.
    for (const SearchCheckpoint::EliteRecord& e : resume->elites) {
      history.AddElite(e.graph, e.cost, e.accuracy_drop);
    }
    for (const CapacitySignature& sig : resume->non_promising) {
      history.AddNonPromising(sig);
    }
    policy->RestoreState(resume->policy);
  }

  const EvalOptions eval_options = MakeEvalOptions(options_);
  std::unique_ptr<EvaluationCache> cache;
  if (options_.use_eval_cache) {
    cache = std::make_unique<EvaluationCache>(ResolveCacheDir(options_.cache_dir),
                                              HashEvalOptions(eval_options));
    if (options_.verbose && !cache->load_diagnostics().empty()) {
      GMORPH_LOG_INFO << "evaluation cache load reported:\n"
                      << cache->load_diagnostics().ToString();
    }
  }
  CandidateEvaluator evaluator(&teacher_train_logits, train_, test_, &result.teacher_scores,
                               eval_options, cache.get());

  auto build_checkpoint = [&]() {
    SearchCheckpoint ckpt;
    ckpt.options_hash = SearchOptionsHash(options_);
    ckpt.next_iteration = iter;
    ckpt.elapsed_seconds = elapsed_offset + search_timer.Seconds();
    ckpt.original_latency_ms = result.original_latency_ms;
    ckpt.original_flops = result.original_flops;
    ckpt.teacher_scores = result.teacher_scores;
    ckpt.found_improvement = result.found_improvement;
    ckpt.best_graph = result.best_graph;
    ckpt.best_latency_ms = result.best_latency_ms;
    ckpt.best_flops = result.best_flops;
    ckpt.best_cost = best_cost;
    ckpt.best_task_scores = result.best_task_scores;
    ckpt.trace = result.trace;
    ckpt.candidates_finetuned = result.candidates_finetuned;
    ckpt.candidates_filtered = result.candidates_filtered;
    ckpt.candidates_rejected = result.candidates_rejected;
    ckpt.cache_hits = result.cache_hits;
    ckpt.stage_seconds = result.stage_seconds;
    ckpt.fingerprints.assign(history.fingerprints().begin(), history.fingerprints().end());
    for (const EliteEntry& e : history.elites()) {
      ckpt.elites.push_back({e.graph, e.cost, e.accuracy_drop});
    }
    ckpt.non_promising = history.non_promising();
    ckpt.policy = policy->ExportState();
    return ckpt;
  };
  auto write_checkpoint = [&]() {
    if (SaveCheckpoint(options_.checkpoint_path, build_checkpoint())) {
      ++result.checkpoints_written;
    } else {
      GMORPH_LOG_INFO << "failed to write checkpoint to " << options_.checkpoint_path;
    }
  };

  // One slot per iteration of the current round.
  struct Slot {
    IterationRecord record;
    std::optional<PendingEval> pending;
  };
  const int round_width = std::max(1, options_.parallel_candidates);
  std::unique_ptr<ThreadPool> pool;
  if (options_.num_threads > 1 && round_width > 1) {
    pool = std::make_unique<ThreadPool>(options_.num_threads, "search");
  }
  int last_checkpoint_iter = iter;

  while (iter < options_.iterations) {
    const int round = std::min(round_width, options_.iterations - iter);
    std::vector<Slot> slots(static_cast<size_t>(round));

    // Phase 1 (serial): sample, mutate, dedup, screen. With round_width == 1
    // this degenerates to the paper's sequential Algorithm 1. Each candidate
    // owns the RNG stream (seed, iteration, slot): results are independent of
    // thread interleaving, and a resumed run re-derives identical streams
    // from the cursor alone.
    for (size_t slot_idx = 0; slot_idx < slots.size(); ++slot_idx) {
      Slot& s = slots[slot_idx];
      s.record.iteration = ++iter;
      obs::TraceSpan iter_span("search/iteration", obs::TraceCat::kSearch);
      Rng cand_rng(Rng::MixSeed(options_.seed, static_cast<uint64_t>(s.record.iteration),
                                static_cast<uint64_t>(slot_idx + 1)));
      std::optional<AbsGraph> mutated;
      {
        obs::TraceSpan sample_span("search/sample", obs::TraceCat::kSearch,
                                   &s.record.stages.sample);
        const AbsGraph& base = policy->SampleBase(original_graph_, history, cand_rng);
        const int num_mutations = cand_rng.NextIntRange(1, options_.max_mutations_per_pass);
        mutated = SampleMutatePass(base, num_mutations, ShapeSimilarity::kSimilar, cand_rng);
        policy->AdvanceIteration();
        if (!mutated.has_value() || history.AlreadyEvaluated(*mutated)) {
          s.record.duplicate = true;
          mutated.reset();
        } else {
          history.MarkEvaluated(*mutated);
        }
      }
      if (!mutated.has_value()) {
        m_duplicates.Increment();
        continue;
      }
      s.pending = evaluator.Screen(std::move(*mutated), history, cand_rng);
    }

    // Phase 2: fine-tune pending candidates (concurrently when a pool
    // exists). Each task touches only its own candidate plus read-only state.
    for (Slot& s : slots) {
      if (!s.pending.has_value() || s.pending->done) {
        continue;
      }
      if (pool != nullptr) {
        // The worker already owns one whole candidate: mark the task as a
        // parallel region so kernel-level ParallelFor calls inside
        // fine-tuning run serially instead of oversubscribing the machine.
        PendingEval* pending = &*s.pending;
        pool->Submit([&evaluator, pending] {
          ParallelRegionGuard guard;
          evaluator.Finetune(*pending);
        });
      } else {
        evaluator.Finetune(*s.pending);
      }
    }
    if (pool != nullptr) {
      pool->WaitAll();
    }

    // Phase 3 (serial): integrate outcomes in iteration order.
    for (Slot& s : slots) {
      IterationRecord& record = s.record;
      if (s.pending.has_value()) {
        EvalOutcome out = evaluator.Finish(*s.pending);
        record.candidate_latency_ms = out.latency_ms;
        record.candidate_flops = out.flops;
        record.stages.Accumulate(out.stages);
        switch (out.status) {
          case EvalStatus::kRejectedByVerifier:
            record.rejected_by_verifier = true;
            ++result.candidates_rejected;
            m_rejected.Increment();
            if (options_.verbose) {
              GMORPH_LOG_INFO << "iter " << record.iteration
                              << " candidate rejected by verifier:\n"
                              << s.pending->verifier_report;
            }
            break;
          case EvalStatus::kFilteredByRule:
            record.filtered_by_rule = true;
            ++result.candidates_filtered;
            m_filtered.Increment();
            break;
          case EvalStatus::kCacheHit:
          case EvalStatus::kEvaluated: {
            if (out.status == EvalStatus::kCacheHit) {
              record.cache_hit = true;
              ++result.cache_hits;
              m_cache_hits.Increment();
            } else {
              ++result.candidates_finetuned;
              m_finetuned.Increment();
            }
            m_candidate_latency.Observe(out.latency_ms);
            record.accuracy_drop = out.accuracy_drop;
            record.met_target = out.met_target;
            record.terminated_early = out.terminated_early;
            record.finetune_seconds = out.finetune_seconds;
            // Cache hits feed the policy exactly like fresh evaluations so a
            // warm-cache rerun follows the identical search trajectory.
            policy->Observe(std::max(0.0, out.accuracy_drop));
            if (out.met_target) {
              GMORPH_CHECK(out.trained_graph.has_value());
              const double cost = candidate_cost(out.latency_ms, out.flops);
              history.AddElite(*out.trained_graph, cost, out.accuracy_drop);
              m_elites.Increment();
              if (cost < best_cost) {
                best_cost = cost;
                result.best_graph = std::move(*out.trained_graph);
                result.best_latency_ms = out.latency_ms;
                result.best_flops = out.flops;
                result.best_task_scores = out.task_scores;
                result.best_quant = out.quant;
                result.found_improvement = true;
              }
            } else {
              history.AddNonPromising(s.pending->graph.Signature());
            }
            if (options_.verbose) {
              GMORPH_LOG_INFO << "iter " << record.iteration
                              << " lat=" << record.candidate_latency_ms
                              << "ms drop=" << record.accuracy_drop
                              << (out.met_target ? " [elite]" : "")
                              << (record.cache_hit ? " [cached]" : "")
                              << (out.quant.has_value() && out.quant->within_budget
                                      ? " [int8 ok]"
                                      : out.quant.has_value() ? " [int8 over budget]" : "")
                              << " best=" << result.best_latency_ms << "ms";
            }
            break;
          }
        }
      }
      record.best_latency_ms = result.best_latency_ms;
      m_best_latency.Set(result.best_latency_ms);
      record.best_flops = result.best_flops;
      record.elapsed_seconds = elapsed_offset + search_timer.Seconds();
      result.stage_seconds.Accumulate(record.stages);
      result.trace.push_back(record);
    }

    // Checkpoints are written only at round boundaries so a resumed run's
    // rounds line up with the uninterrupted run's.
    if (!options_.checkpoint_path.empty() && options_.checkpoint_every > 0 &&
        iter - last_checkpoint_iter >= options_.checkpoint_every && iter < options_.iterations) {
      write_checkpoint();
      last_checkpoint_iter = iter;
    }
  }

  if (!options_.checkpoint_path.empty()) {
    write_checkpoint();
  }
  result.search_seconds = elapsed_offset + search_timer.Seconds();
  result.speedup = result.best_latency_ms > 0.0
                       ? result.original_latency_ms / result.best_latency_ms
                       : 1.0;
  return result;
}

}  // namespace gmorph
