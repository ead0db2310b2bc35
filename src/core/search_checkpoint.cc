#include "src/core/search_checkpoint.h"

#include <cstdint>
#include <fstream>
#include <utility>

#include "src/common/binary_io.h"
#include "src/common/text_artifact.h"
#include "src/core/graph_io.h"

namespace gmorph {
namespace {

const std::string kHeader = ArtifactHeaderLine(kCheckpointArtifact);

// The fewest words a record takes: nineteen for a trace record, one for a
// fingerprint (its length), five for an elite (its graph's header, cost and
// drop) and four for a capacity signature (two totals, two list counts).
constexpr uint64_t kWord = sizeof(int64_t);

void WriteStages(BinaryWriter& out, const StageSeconds& s) {
  for (double v : {s.sample, s.verify, s.profile, s.finetune, s.score}) {
    out.Pod(v);
  }
}

bool ReadStages(BinaryReader& r, StageSeconds& s, const char* what) {
  return r.Pod(s.sample, what) && r.Pod(s.verify, what) && r.Pod(s.profile, what) &&
         r.Pod(s.finetune, what) && r.Pod(s.score, what);
}

// Score lists and a capacity signature's per-task lists hold up to 4096 values.
constexpr int64_t kMaxListValues = 4096;

// An embedded graph, decoded within the checkpoint's remaining bytes; its
// io.*/graph.* diagnostics are merged so a corrupt embedded graph is
// attributed precisely, not just "truncated".
bool ReadGraph(BinaryReader& r, DiagnosticList& diags, AbsGraph& graph, const char* what) {
  GraphLoadResult result = TryLoadGraph(r);
  if (!result.ok()) {
    diags.Merge(result.diagnostics);
    r.Fail("truncated", std::string("embedded graph unreadable in ") + what);
    return false;
  }
  graph = std::move(*result.graph);
  return true;
}

}  // namespace

bool SaveCheckpoint(const std::string& path, const SearchCheckpoint& ckpt) {
  // A failed graph write leaves `out` bad, which fails the whole save.
  return WriteFileAtomically(path, [&](std::ostream& out) {
    out << kHeader << "\n";
    BinaryWriter w(out);
    w.Pod(ckpt.options_hash);
    w.Int64(ckpt.next_iteration);
    w.Pod(ckpt.elapsed_seconds);

    w.Pod(ckpt.original_latency_ms);
    w.Int64(ckpt.original_flops);
    w.List(ckpt.teacher_scores);

    w.Flag(ckpt.found_improvement);
    SaveGraph(out, ckpt.best_graph);
    w.Pod(ckpt.best_latency_ms);
    w.Int64(ckpt.best_flops);
    w.Pod(ckpt.best_cost);
    w.List(ckpt.best_task_scores);

    w.Int64(static_cast<int64_t>(ckpt.trace.size()));
    for (const IterationRecord& rec : ckpt.trace) {
      w.Int64(rec.iteration);
      w.Pod(rec.candidate_latency_ms);
      w.Int64(rec.candidate_flops);
      w.Pod(rec.accuracy_drop);
      w.Flag(rec.met_target);
      w.Flag(rec.filtered_by_rule);
      w.Flag(rec.terminated_early);
      w.Flag(rec.duplicate);
      w.Flag(rec.rejected_by_verifier);
      w.Flag(rec.cache_hit);
      w.Pod(rec.finetune_seconds);
      w.Pod(rec.elapsed_seconds);
      w.Pod(rec.best_latency_ms);
      w.Int64(rec.best_flops);
      WriteStages(w, rec.stages);
    }

    w.Int64(ckpt.candidates_finetuned);
    w.Int64(ckpt.candidates_filtered);
    w.Int64(ckpt.candidates_rejected);
    w.Int64(ckpt.cache_hits);
    WriteStages(w, ckpt.stage_seconds);

    w.Int64(static_cast<int64_t>(ckpt.fingerprints.size()));
    for (const std::string& fp : ckpt.fingerprints) {
      w.List(fp);
    }

    w.Int64(static_cast<int64_t>(ckpt.elites.size()));
    for (const SearchCheckpoint::EliteRecord& e : ckpt.elites) {
      SaveGraph(out, e.graph);
      w.Pod(e.cost);
      w.Pod(e.accuracy_drop);
    }

    w.Int64(static_cast<int64_t>(ckpt.non_promising.size()));
    for (const CapacitySignature& sig : ckpt.non_promising) {
      w.Int64(sig.total);
      w.Int64(sig.shared_total);
      w.List(sig.per_task_total);
      w.List(sig.per_task_specific);
    }

    w.Int64(ckpt.policy.iteration);
    w.Pod(ckpt.policy.last_drop);
  });
}

CheckpointLoadResult TryLoadCheckpoint(const std::string& path) {
  CheckpointLoadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.diagnostics.Error("ckpt.open", path) << "cannot open checkpoint file";
    return result;
  }
  std::string header;
  if (!std::getline(in, header)) {
    result.diagnostics.Error("ckpt.magic", path) << "empty file (missing header line)";
    return result;
  }
  switch (CheckArtifactHeaderLine(header, kCheckpointArtifact)) {
    case HeaderCheck::kMissing:
      result.diagnostics.Error("ckpt.magic", path)
          << "not a GMorph checkpoint (header '" << header << "')";
      return result;
    case HeaderCheck::kWrongVersion:
      result.diagnostics.Error("ckpt.version", path)
          << "unsupported checkpoint version '" << header << "' (expected '" << kHeader << "')";
      return result;
    case HeaderCheck::kOk:
      break;
  }

  SearchCheckpoint ckpt;
  BinaryReader r(in, {"ckpt", path, "file"}, result.diagnostics);
  int64_t next_iteration = 0;
  if (!r.Pod(ckpt.options_hash, "options hash") || !r.Pod(next_iteration, "iteration cursor") ||
      !r.Pod(ckpt.elapsed_seconds, "elapsed seconds")) {
    return result;
  }
  if (next_iteration < 0 || next_iteration > (1 << 24)) {
    r.Fail("bounds", "iteration cursor " + std::to_string(next_iteration));
    return result;
  }
  ckpt.next_iteration = static_cast<int>(next_iteration);

  if (!r.Pod(ckpt.original_latency_ms, "baseline") || !r.Pod(ckpt.original_flops, "baseline") ||
      !r.List(ckpt.teacher_scores, kMaxListValues, "teacher scores")) {
    return result;
  }

  if (!r.Flag(ckpt.found_improvement, "best flag") ||
      !ReadGraph(r, result.diagnostics, ckpt.best_graph, "best graph") ||
      !r.Pod(ckpt.best_latency_ms, "best metrics") || !r.Pod(ckpt.best_flops, "best metrics") ||
      !r.Pod(ckpt.best_cost, "best metrics") ||
      !r.List(ckpt.best_task_scores, kMaxListValues, "best scores")) {
    return result;
  }

  int64_t trace_count = 0;
  if (!r.Count(trace_count, 1 << 20, "trace", 19 * kWord)) {
    return result;
  }
  ckpt.trace.resize(static_cast<size_t>(trace_count));
  for (IterationRecord& rec : ckpt.trace) {
    int64_t iteration = 0;
    if (!r.Pod(iteration, "trace record") || !r.Pod(rec.candidate_latency_ms, "trace record") ||
        !r.Pod(rec.candidate_flops, "trace record") || !r.Pod(rec.accuracy_drop, "trace record") ||
        !r.Flag(rec.met_target, "trace record") || !r.Flag(rec.filtered_by_rule, "trace record") ||
        !r.Flag(rec.terminated_early, "trace record") || !r.Flag(rec.duplicate, "trace record") ||
        !r.Flag(rec.rejected_by_verifier, "trace record") ||
        !r.Flag(rec.cache_hit, "trace record") || !r.Pod(rec.finetune_seconds, "trace record") ||
        !r.Pod(rec.elapsed_seconds, "trace record") || !r.Pod(rec.best_latency_ms, "trace record") ||
        !r.Pod(rec.best_flops, "trace record") || !ReadStages(r, rec.stages, "trace record")) {
      return result;
    }
    rec.iteration = static_cast<int>(iteration);
  }

  int64_t finetuned = 0;
  int64_t filtered = 0;
  int64_t rejected = 0;
  int64_t hits = 0;
  if (!r.Count(finetuned, 1 << 24, "counters") || !r.Count(filtered, 1 << 24, "counters") ||
      !r.Count(rejected, 1 << 24, "counters") || !r.Count(hits, 1 << 24, "counters") ||
      !ReadStages(r, ckpt.stage_seconds, "stage seconds")) {
    return result;
  }
  ckpt.candidates_finetuned = static_cast<int>(finetuned);
  ckpt.candidates_filtered = static_cast<int>(filtered);
  ckpt.candidates_rejected = static_cast<int>(rejected);
  ckpt.cache_hits = static_cast<int>(hits);

  int64_t fp_count = 0;
  if (!r.Count(fp_count, 1 << 22, "fingerprint list", kWord)) {
    return result;
  }
  ckpt.fingerprints.resize(static_cast<size_t>(fp_count));
  for (std::string& fp : ckpt.fingerprints) {
    if (!r.List(fp, 1 << 16, "fingerprint length")) {
      return result;
    }
  }

  int64_t elite_count = 0;
  if (!r.Count(elite_count, 4096, "elite list", 5 * kWord)) {
    return result;
  }
  ckpt.elites.resize(static_cast<size_t>(elite_count));
  for (SearchCheckpoint::EliteRecord& e : ckpt.elites) {
    if (!ReadGraph(r, result.diagnostics, e.graph, "elite graph") ||
        !r.Pod(e.cost, "elite record") || !r.Pod(e.accuracy_drop, "elite record")) {
      return result;
    }
  }

  int64_t sig_count = 0;
  if (!r.Count(sig_count, 1 << 20, "non-promising list", 4 * kWord)) {
    return result;
  }
  ckpt.non_promising.resize(static_cast<size_t>(sig_count));
  for (CapacitySignature& sig : ckpt.non_promising) {
    if (!r.Pod(sig.total, "capacity signature") || !r.Pod(sig.shared_total, "capacity signature") ||
        !r.List(sig.per_task_total, kMaxListValues, "capacity signature") ||
        !r.List(sig.per_task_specific, kMaxListValues, "capacity signature")) {
      return result;
    }
  }

  int64_t policy_iteration = 0;
  if (!r.Pod(policy_iteration, "policy state") || !r.Pod(ckpt.policy.last_drop, "policy state")) {
    return result;
  }
  if (policy_iteration < 0 || policy_iteration > (1 << 24)) {
    r.Fail("bounds", "policy iteration " + std::to_string(policy_iteration));
    return result;
  }
  ckpt.policy.iteration = static_cast<int>(policy_iteration);

  result.checkpoint = std::move(ckpt);
  return result;
}


DiagnosticList VerifyCheckpointFile(const std::string& path) {
  CheckpointLoadResult result = TryLoadCheckpoint(path);
  DiagnosticList diags = std::move(result.diagnostics);
  if (result.checkpoint.has_value()) {
    const SearchCheckpoint& ckpt = *result.checkpoint;
    diags.Note("ckpt.summary", path)
        << "checkpoint at iteration " << ckpt.next_iteration << ": " << ckpt.trace.size()
        << " trace records, " << ckpt.fingerprints.size() << " evaluated fingerprints, "
        << ckpt.elites.size() << " elites, " << ckpt.non_promising.size()
        << " non-promising signatures";
  }
  return diags;
}

}  // namespace gmorph
