#include "src/core/search_checkpoint.h"

#include <cstdint>
#include <fstream>
#include <utility>

#include "src/common/text_artifact.h"
#include "src/core/graph_io.h"

namespace gmorph {
namespace {

const std::string kHeader = ArtifactHeaderLine(kCheckpointArtifact);

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

void WriteBool(std::ostream& out, bool value) {
  WritePod(out, static_cast<int64_t>(value ? 1 : 0));
}

void WriteScores(std::ostream& out, const std::vector<double>& scores) {
  WritePod(out, static_cast<int64_t>(scores.size()));
  for (double s : scores) {
    WritePod(out, s);
  }
}

void WriteStages(std::ostream& out, const StageSeconds& s) {
  for (double v : {s.sample, s.verify, s.profile, s.finetune, s.score}) {
    WritePod(out, v);
  }
}

void WriteInt64Vec(std::ostream& out, const std::vector<int64_t>& v) {
  WritePod(out, static_cast<int64_t>(v.size()));
  for (int64_t x : v) {
    WritePod(out, x);
  }
}

// Mirrors graph_io's Reader: goes inert on the first failure, reporting a
// ckpt.* diagnostic, so the decode loop can bail without error plumbing.
class Reader {
 public:
  Reader(std::istream& in, DiagnosticList& diags, const std::string& path)
      : in_(in), diags_(diags), path_(path) {}

  bool failed() const { return failed_; }

  void Fail(const char* rule, const std::string& what) {
    if (!failed_) {
      failed_ = true;
      diags_.Error(rule, path_) << what;
    }
  }

  template <typename T>
  bool Pod(T& value, const char* what) {
    if (failed_) {
      return false;
    }
    in_.read(reinterpret_cast<char*>(&value), sizeof(T));
    if (!in_) {
      Fail("ckpt.truncated", std::string("file ended inside ") + what);
      return false;
    }
    return true;
  }

  bool Bool(bool& value, const char* what) {
    int64_t raw = 0;
    if (!Pod(raw, what)) {
      return false;
    }
    if (raw != 0 && raw != 1) {
      Fail("ckpt.bounds", std::string(what) + ": flag value " + std::to_string(raw));
      return false;
    }
    value = raw != 0;
    return true;
  }

  bool Count(int64_t& value, int64_t max, const char* what) {
    if (!Pod(value, what)) {
      return false;
    }
    if (value < 0 || value > max) {
      Fail("ckpt.bounds", std::string(what) + ": count " + std::to_string(value) +
                              " out of range [0, " + std::to_string(max) + "]");
      return false;
    }
    return true;
  }

  bool Scores(std::vector<double>& scores, const char* what) {
    int64_t count = 0;
    if (!Count(count, 4096, what)) {
      return false;
    }
    scores.resize(static_cast<size_t>(count));
    for (double& s : scores) {
      if (!Pod(s, what)) {
        return false;
      }
    }
    return true;
  }

  bool Stages(StageSeconds& s, const char* what) {
    return Pod(s.sample, what) && Pod(s.verify, what) && Pod(s.profile, what) &&
           Pod(s.finetune, what) && Pod(s.score, what);
  }

  bool Int64Vec(std::vector<int64_t>& v, const char* what) {
    int64_t count = 0;
    if (!Count(count, 4096, what)) {
      return false;
    }
    v.resize(static_cast<size_t>(count));
    for (int64_t& x : v) {
      if (!Pod(x, what)) {
        return false;
      }
    }
    return true;
  }

  // Embedded graph via graph_io; its io.*/graph.* diagnostics are merged so
  // a corrupt embedded graph is attributed precisely, not just "truncated".
  bool Graph(std::istream& in, AbsGraph& graph, const char* what) {
    if (failed_) {
      return false;
    }
    GraphLoadResult result = TryLoadGraph(in);
    if (!result.ok()) {
      diags_.Merge(result.diagnostics);
      Fail("ckpt.truncated", std::string("embedded graph unreadable in ") + what);
      return false;
    }
    graph = std::move(*result.graph);
    return true;
  }

 private:
  std::istream& in_;
  DiagnosticList& diags_;
  std::string path_;
  bool failed_ = false;
};

CheckpointLoadResult LoadFromStream(std::istream& in, const std::string& path) {
  CheckpointLoadResult result;
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
  Reader r(in, result.diagnostics, path);
  int64_t next_iteration = 0;
  if (!r.Pod(ckpt.options_hash, "options hash") || !r.Pod(next_iteration, "iteration cursor") ||
      !r.Pod(ckpt.elapsed_seconds, "elapsed seconds")) {
    return result;
  }
  if (next_iteration < 0 || next_iteration > (1 << 24)) {
    r.Fail("ckpt.bounds", "iteration cursor " + std::to_string(next_iteration));
    return result;
  }
  ckpt.next_iteration = static_cast<int>(next_iteration);

  if (!r.Pod(ckpt.original_latency_ms, "baseline") || !r.Pod(ckpt.original_flops, "baseline") ||
      !r.Scores(ckpt.teacher_scores, "teacher scores")) {
    return result;
  }

  if (!r.Bool(ckpt.found_improvement, "best flag") ||
      !r.Graph(in, ckpt.best_graph, "best graph") ||
      !r.Pod(ckpt.best_latency_ms, "best metrics") || !r.Pod(ckpt.best_flops, "best metrics") ||
      !r.Pod(ckpt.best_cost, "best metrics") || !r.Scores(ckpt.best_task_scores, "best scores")) {
    return result;
  }

  int64_t trace_count = 0;
  if (!r.Count(trace_count, 1 << 20, "trace")) {
    return result;
  }
  ckpt.trace.resize(static_cast<size_t>(trace_count));
  for (IterationRecord& rec : ckpt.trace) {
    int64_t iteration = 0;
    if (!r.Pod(iteration, "trace record") || !r.Pod(rec.candidate_latency_ms, "trace record") ||
        !r.Pod(rec.candidate_flops, "trace record") || !r.Pod(rec.accuracy_drop, "trace record") ||
        !r.Bool(rec.met_target, "trace record") || !r.Bool(rec.filtered_by_rule, "trace record") ||
        !r.Bool(rec.terminated_early, "trace record") || !r.Bool(rec.duplicate, "trace record") ||
        !r.Bool(rec.rejected_by_verifier, "trace record") ||
        !r.Bool(rec.cache_hit, "trace record") || !r.Pod(rec.finetune_seconds, "trace record") ||
        !r.Pod(rec.elapsed_seconds, "trace record") || !r.Pod(rec.best_latency_ms, "trace record") ||
        !r.Pod(rec.best_flops, "trace record") || !r.Stages(rec.stages, "trace record")) {
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
      !r.Stages(ckpt.stage_seconds, "stage seconds")) {
    return result;
  }
  ckpt.candidates_finetuned = static_cast<int>(finetuned);
  ckpt.candidates_filtered = static_cast<int>(filtered);
  ckpt.candidates_rejected = static_cast<int>(rejected);
  ckpt.cache_hits = static_cast<int>(hits);

  int64_t fp_count = 0;
  if (!r.Count(fp_count, 1 << 22, "fingerprint list")) {
    return result;
  }
  ckpt.fingerprints.resize(static_cast<size_t>(fp_count));
  for (std::string& fp : ckpt.fingerprints) {
    int64_t len = 0;
    if (!r.Count(len, 1 << 16, "fingerprint length")) {
      return result;
    }
    fp.resize(static_cast<size_t>(len));
    if (len > 0) {
      in.read(fp.data(), static_cast<std::streamsize>(len));
      if (!in) {
        r.Fail("ckpt.truncated", "file ended inside fingerprint");
        return result;
      }
    }
  }

  int64_t elite_count = 0;
  if (!r.Count(elite_count, 4096, "elite list")) {
    return result;
  }
  ckpt.elites.resize(static_cast<size_t>(elite_count));
  for (SearchCheckpoint::EliteRecord& e : ckpt.elites) {
    if (!r.Graph(in, e.graph, "elite graph") || !r.Pod(e.cost, "elite record") ||
        !r.Pod(e.accuracy_drop, "elite record")) {
      return result;
    }
  }

  int64_t sig_count = 0;
  if (!r.Count(sig_count, 1 << 20, "non-promising list")) {
    return result;
  }
  ckpt.non_promising.resize(static_cast<size_t>(sig_count));
  for (CapacitySignature& sig : ckpt.non_promising) {
    if (!r.Pod(sig.total, "capacity signature") || !r.Pod(sig.shared_total, "capacity signature") ||
        !r.Int64Vec(sig.per_task_total, "capacity signature") ||
        !r.Int64Vec(sig.per_task_specific, "capacity signature")) {
      return result;
    }
  }

  int64_t policy_iteration = 0;
  if (!r.Pod(policy_iteration, "policy state") || !r.Pod(ckpt.policy.last_drop, "policy state")) {
    return result;
  }
  if (policy_iteration < 0 || policy_iteration > (1 << 24)) {
    r.Fail("ckpt.bounds", "policy iteration " + std::to_string(policy_iteration));
    return result;
  }
  ckpt.policy.iteration = static_cast<int>(policy_iteration);

  result.checkpoint = std::move(ckpt);
  return result;
}

}  // namespace

bool SaveCheckpoint(const std::string& path, const SearchCheckpoint& ckpt) {
  // A failed graph write leaves `out` bad, which fails the whole save.
  return WriteFileAtomically(path, [&](std::ostream& out) {
    out << kHeader << "\n";
    WritePod(out, ckpt.options_hash);
    WritePod(out, static_cast<int64_t>(ckpt.next_iteration));
    WritePod(out, ckpt.elapsed_seconds);

    WritePod(out, ckpt.original_latency_ms);
    WritePod(out, ckpt.original_flops);
    WriteScores(out, ckpt.teacher_scores);

    WriteBool(out, ckpt.found_improvement);
    SaveGraph(out, ckpt.best_graph);
    WritePod(out, ckpt.best_latency_ms);
    WritePod(out, ckpt.best_flops);
    WritePod(out, ckpt.best_cost);
    WriteScores(out, ckpt.best_task_scores);

    WritePod(out, static_cast<int64_t>(ckpt.trace.size()));
    for (const IterationRecord& rec : ckpt.trace) {
      WritePod(out, static_cast<int64_t>(rec.iteration));
      WritePod(out, rec.candidate_latency_ms);
      WritePod(out, rec.candidate_flops);
      WritePod(out, rec.accuracy_drop);
      WriteBool(out, rec.met_target);
      WriteBool(out, rec.filtered_by_rule);
      WriteBool(out, rec.terminated_early);
      WriteBool(out, rec.duplicate);
      WriteBool(out, rec.rejected_by_verifier);
      WriteBool(out, rec.cache_hit);
      WritePod(out, rec.finetune_seconds);
      WritePod(out, rec.elapsed_seconds);
      WritePod(out, rec.best_latency_ms);
      WritePod(out, rec.best_flops);
      WriteStages(out, rec.stages);
    }

    WritePod(out, static_cast<int64_t>(ckpt.candidates_finetuned));
    WritePod(out, static_cast<int64_t>(ckpt.candidates_filtered));
    WritePod(out, static_cast<int64_t>(ckpt.candidates_rejected));
    WritePod(out, static_cast<int64_t>(ckpt.cache_hits));
    WriteStages(out, ckpt.stage_seconds);

    WritePod(out, static_cast<int64_t>(ckpt.fingerprints.size()));
    for (const std::string& fp : ckpt.fingerprints) {
      WritePod(out, static_cast<int64_t>(fp.size()));
      out.write(fp.data(), static_cast<std::streamsize>(fp.size()));
    }

    WritePod(out, static_cast<int64_t>(ckpt.elites.size()));
    for (const SearchCheckpoint::EliteRecord& e : ckpt.elites) {
      SaveGraph(out, e.graph);
      WritePod(out, e.cost);
      WritePod(out, e.accuracy_drop);
    }

    WritePod(out, static_cast<int64_t>(ckpt.non_promising.size()));
    for (const CapacitySignature& sig : ckpt.non_promising) {
      WritePod(out, sig.total);
      WritePod(out, sig.shared_total);
      WriteInt64Vec(out, sig.per_task_total);
      WriteInt64Vec(out, sig.per_task_specific);
    }

    WritePod(out, static_cast<int64_t>(ckpt.policy.iteration));
    WritePod(out, ckpt.policy.last_drop);
  });
}

CheckpointLoadResult TryLoadCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    CheckpointLoadResult result;
    result.diagnostics.Error("ckpt.open", path) << "cannot open checkpoint file";
    return result;
  }
  return LoadFromStream(in, path);
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
