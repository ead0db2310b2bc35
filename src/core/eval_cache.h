// Content-addressed evaluation cache for the mutation search.
//
// Fine-tuning dominates search cost, yet repeated bench runs and the
// search-ablation experiments re-evaluate the very same candidates: the
// mutation streams are derived deterministically from the seed, so a rerun
// with identical options samples identical graphs. The cache keys each
// evaluation outcome by the candidate's structural fingerprint
// (AbsGraph::Fingerprint(), the same string the GraphVerifier round-trip
// checks) under a namespace derived from the eval-relevant options hash, and
// persists it as a "gmorph-evalcache v1" text file in the cache directory
// (ResolveCacheDir()) so outcomes survive the process.
//
// Safety: a lookup only reuses an entry whose stored fingerprint matches the
// candidate's exactly (hash collisions cannot alias), and a stored trained
// graph is reloaded through graph_io — which re-runs the GraphVerifier — and
// must fingerprint-match the candidate, else the entry degrades to a miss.
// Corrupt cache files surface as cache.* diagnostics (see VerifyEvalCacheFile
// and `gmorph_cli --verify`), never as a crash or a poisoned search: the
// constructor and the linter run the same index scan.
#ifndef GMORPH_SRC_CORE_EVAL_CACHE_H_
#define GMORPH_SRC_CORE_EVAL_CACHE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/diagnostics.h"
#include "src/core/abs_graph.h"

namespace gmorph {

class EvaluationCache {
 public:
  struct Entry {
    bool met_target = false;
    bool terminated_early = false;
    int epochs_run = 0;
    double accuracy_drop = 0.0;
    double latency_ms = 0.0;
    int64_t flops = 0;
    double finetune_seconds = 0.0;
    std::vector<double> task_scores;
    std::string graph_file;  // relative to the cache dir; empty when none
  };

  struct CachedEval {
    Entry entry;
    std::optional<AbsGraph> trained_graph;  // engaged when entry.met_target
  };

  // Loads the index file for `options_hash` from `dir` (creating `dir` if
  // needed). Malformed lines are skipped and recorded in load_diagnostics().
  EvaluationCache(std::string dir, uint64_t options_hash);

  // Returns the cached outcome for a candidate with this fingerprint, or
  // nullopt. Entries whose trained graph is missing, fails verification, or
  // does not fingerprint-match the candidate are treated as misses.
  std::optional<CachedEval> Lookup(const std::string& fingerprint);

  // Appends the outcome to the index (and writes the trained graph beside it
  // when provided). Flushes immediately so interrupted runs keep entries.
  void Store(const std::string& fingerprint, const Entry& entry, const AbsGraph* trained_graph);

  size_t size() const { return entries_.size(); }
  const std::string& dir() const { return dir_; }
  const std::string& index_path() const { return index_path_; }
  const DiagnosticList& load_diagnostics() const { return load_diagnostics_; }

 private:
  std::string dir_;
  uint64_t options_hash_ = 0;
  std::string index_path_;
  bool header_written_ = false;
  std::map<std::string, Entry> entries_;  // fingerprint -> outcome
  DiagnosticList load_diagnostics_;
};

// Lints one "gmorph-evalcache v1" file with the constructor's scan:
// header/entry syntax (cache.header, cache.version, cache.options,
// cache.entry; an index named "evalcache_<hash>.txt" must carry that options
// hash), referenced trained-graph files (cache.graph), and the
// graph-fingerprint agreement (cache.fingerprint).
DiagnosticList VerifyEvalCacheFile(const std::string& path);

}  // namespace gmorph

#endif  // GMORPH_SRC_CORE_EVAL_CACHE_H_
