// Search checkpoint/resume for the GMorph driver.
//
// A SearchCheckpoint freezes everything the staged search pipeline needs to
// continue as if it had never stopped: the iteration cursor, the accumulated
// trace and counters, the history database (evaluated fingerprints, elites
// with trained weights, non-promising capacity signatures), the sampling
// policy state, and the baseline measurements. RNG state is NOT serialized —
// every candidate draws from a stream derived from (seed, iteration, slot)
// (Rng::MixSeed), so the cursor alone fixes all future randomness and the
// resumed run reproduces the uninterrupted run's deterministic trace fields
// bit-for-bit.
//
// On-disk format: the text line "gmorph-checkpoint v1" followed by a binary
// payload. Embedded graphs reuse the graph_io format (each graph record reads
// back exactly its own bytes and re-runs the GraphVerifier on load). Saves go
// through a temp file + rename so an interrupted write never clobbers the
// previous good checkpoint. Loads go through the bounded BinaryReader
// (src/common/binary_io.h), which reports ckpt.* diagnostics (ckpt.open,
// ckpt.magic, ckpt.version, ckpt.truncated, ckpt.bounds) instead of crashing
// or returning a half-built state.
#ifndef GMORPH_SRC_CORE_SEARCH_CHECKPOINT_H_
#define GMORPH_SRC_CORE_SEARCH_CHECKPOINT_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/diagnostics.h"
#include "src/core/gmorph.h"

namespace gmorph {

struct SearchCheckpoint {
  // Guards against resuming under different search semantics; must equal
  // SearchOptionsHash(options) of the resuming run.
  uint64_t options_hash = 0;
  // First iteration the resumed run will execute (0-based).
  int next_iteration = 0;
  // Search wall time consumed before this checkpoint (resumed runs report
  // cumulative search_seconds on top of it).
  double elapsed_seconds = 0.0;

  // Baseline measurements (not re-measured on resume).
  double original_latency_ms = 0.0;
  int64_t original_flops = 0;
  std::vector<double> teacher_scores;

  // Best-so-far state. `best_graph` is the original graph until a candidate
  // meets the target.
  bool found_improvement = false;
  AbsGraph best_graph;
  double best_latency_ms = 0.0;
  int64_t best_flops = 0;
  double best_cost = 0.0;  // under the configured metric
  std::vector<double> best_task_scores;

  // Accumulated trace and counters.
  std::vector<IterationRecord> trace;
  int candidates_finetuned = 0;
  int candidates_filtered = 0;
  int candidates_rejected = 0;
  int cache_hits = 0;
  StageSeconds stage_seconds;

  // History database contents.
  std::vector<std::string> fingerprints;
  struct EliteRecord {
    AbsGraph graph;  // carries trained weights
    double cost = 0.0;
    double accuracy_drop = 0.0;
  };
  std::vector<EliteRecord> elites;
  std::vector<CapacitySignature> non_promising;

  PolicyState policy;
};

struct CheckpointLoadResult {
  std::optional<SearchCheckpoint> checkpoint;  // engaged only when clean
  DiagnosticList diagnostics;
  bool ok() const { return checkpoint.has_value(); }
};

// Atomic save (temp file + rename). Returns false on any I/O failure, leaving
// a previous checkpoint at `path` untouched.
bool SaveCheckpoint(const std::string& path, const SearchCheckpoint& checkpoint);

CheckpointLoadResult TryLoadCheckpoint(const std::string& path);

// Lints a checkpoint file for `gmorph_cli --verify`: decodes it fully
// (surfacing ckpt.* and embedded io.*/graph.* diagnostics) and appends a
// ckpt.summary note with the cursor and history sizes when clean.
DiagnosticList VerifyCheckpointFile(const std::string& path);

}  // namespace gmorph

#endif  // GMORPH_SRC_CORE_SEARCH_CHECKPOINT_H_
