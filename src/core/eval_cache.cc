#include "src/core/eval_cache.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "src/common/text_artifact.h"
#include "src/core/graph_io.h"

namespace gmorph {
namespace {

constexpr LineArtifact kEvalCacheFile{kEvalCacheArtifact, "cache", "evaluation cache"};

std::string FormatDouble(double v) {
  char buf[64];
  // %.17g round-trips IEEE doubles exactly, keeping cached drops/latencies
  // bit-identical to the run that produced them.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatHex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string EntryLine(const std::string& fingerprint, const EvaluationCache::Entry& e) {
  std::ostringstream os;
  os << "entry met=" << (e.met_target ? 1 : 0) << " early=" << (e.terminated_early ? 1 : 0)
     << " epochs=" << e.epochs_run << " flops=" << e.flops
     << " drop=" << FormatDouble(e.accuracy_drop) << " lat=" << FormatDouble(e.latency_ms)
     << " ftsec=" << FormatDouble(e.finetune_seconds) << " scores=";
  for (size_t i = 0; i < e.task_scores.size(); ++i) {
    os << (i > 0 ? "," : "") << FormatDouble(e.task_scores[i]);
  }
  if (e.task_scores.empty()) {
    os << "-";
  }
  os << " graph=" << (e.graph_file.empty() ? "-" : e.graph_file) << " fp=" << fingerprint;
  return os.str();
}

// A whole-token hex number, as FormatHex writes it.
bool ParseHex(std::string_view token, uint64_t* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out, 16);
  return !token.empty() && ec == std::errc() && ptr == end;
}

bool ParseFlag(std::string_view v, bool* out) {
  if (v != "0" && v != "1") {
    return false;
  }
  *out = v == "1";
  return true;
}

bool ParseScores(std::string_view v, std::vector<double>* scores) {
  scores->clear();
  if (v == "-") {
    return true;
  }
  while (true) {
    const size_t comma = v.find(',');
    double score = 0.0;
    if (!ParseNumber(v.substr(0, comma), &score)) {
      return false;
    }
    scores->push_back(score);
    if (comma == std::string_view::npos) {
      return true;
    }
    v.remove_prefix(comma + 1);
  }
}

// Parses one "entry ..." line: the fields in writer order, then " fp=" and
// the candidate fingerprint (which contains spaces, so it is split off
// first). Returns false on any syntax problem.
bool ParseEntryLine(const std::string& line, std::string& fingerprint,
                    EvaluationCache::Entry& e) {
  const size_t fp_pos = line.find(" fp=");
  if (fp_pos == std::string::npos) {
    return false;
  }
  fingerprint = line.substr(fp_pos + 4);
  const std::vector<std::string_view> tokens =
      SplitTokens(std::string_view(line).substr(0, fp_pos));
  constexpr std::string_view kKeys[] = {"met", "early", "epochs", "flops", "drop",
                                        "lat", "ftsec",  "scores", "graph"};
  constexpr size_t kFields = std::size(kKeys);
  if (fingerprint.empty() || tokens.size() != kFields + 1 || tokens[0] != "entry") {
    return false;
  }
  std::string_view v[kFields];
  for (size_t i = 0; i < kFields; ++i) {
    const Field f = SplitField(tokens[i + 1]);
    if (f.key != kKeys[i] || f.value.empty()) {
      return false;
    }
    v[i] = f.value;
  }
  if (!ParseFlag(v[0], &e.met_target) || !ParseFlag(v[1], &e.terminated_early) ||
      !ParseNumber(v[2], &e.epochs_run) || !ParseNumber(v[3], &e.flops) ||
      !ParseNumber(v[4], &e.accuracy_drop) || !ParseNumber(v[5], &e.latency_ms) ||
      !ParseNumber(v[6], &e.finetune_seconds) || !ParseScores(v[7], &e.task_scores)) {
    return false;
  }
  e.graph_file = v[8] == "-" ? "" : std::string(v[8]);
  return true;
}

// The one scan over an index file, shared by the constructor and the linter.
// `expected_options` null = accept any options hash; entries land in `out`
// keyed by fingerprint.
void ScanIndexFile(const std::string& path, const uint64_t* expected_options,
                   std::map<std::string, EvaluationCache::Entry>* out, DiagnosticList& diags) {
  LineRecordReader reader(path, kEvalCacheFile, diags);
  if (!reader.ok()) {
    return;
  }
  bool saw_options = false;
  while (reader.Next()) {
    const std::string& line = reader.line();
    const std::string where = path + ":" + std::to_string(reader.lineno());
    if (line.rfind("options ", 0) == 0) {
      uint64_t hash = 0;
      if (!ParseHex(std::string_view(line).substr(8), &hash)) {
        diags.Error("cache.options", where) << "malformed options hash";
        continue;
      }
      saw_options = true;
      if (expected_options != nullptr && hash != *expected_options) {
        diags.Error("cache.options", where)
            << "options hash " << FormatHex(hash) << " does not match expected "
            << FormatHex(*expected_options);
      }
      continue;
    }
    if (line.rfind("entry", 0) == 0) {
      std::string fingerprint;
      EvaluationCache::Entry e;
      if (!ParseEntryLine(line, fingerprint, e)) {
        diags.Error("cache.entry", where) << "malformed cache entry";
        continue;
      }
      if (e.met_target && e.graph_file.empty()) {
        diags.Error("cache.entry", where) << "met-target entry without a trained graph file";
        continue;
      }
      if (out != nullptr) {
        (*out)[fingerprint] = std::move(e);
      }
      continue;
    }
    diags.Error("cache.entry", where) << "unrecognized line";
  }
  if (!saw_options) {
    diags.Error("cache.options", path) << "missing options line";
  }
}

}  // namespace

EvaluationCache::EvaluationCache(std::string dir, uint64_t options_hash)
    : dir_(std::move(dir)), options_hash_(options_hash) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  index_path_ = dir_ + "/evalcache_" + FormatHex(options_hash_) + ".txt";
  if (std::filesystem::exists(index_path_, ec)) {
    ScanIndexFile(index_path_, &options_hash_, &entries_, load_diagnostics_);
    header_written_ = load_diagnostics_.ok() || !entries_.empty();
  }
}

std::optional<EvaluationCache::CachedEval> EvaluationCache::Lookup(
    const std::string& fingerprint) {
  const auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  CachedEval hit;
  hit.entry = it->second;
  if (hit.entry.met_target) {
    // The trained weights are required to (re)build the elite. Reloading runs
    // the GraphVerifier; a stale, corrupt, or mismatching graph is a miss.
    GraphLoadResult loaded = TryLoadGraph(dir_ + "/" + hit.entry.graph_file);
    if (!loaded.ok() || loaded.graph->Fingerprint() != fingerprint) {
      return std::nullopt;
    }
    hit.trained_graph = std::move(loaded.graph);
  }
  return hit;
}

void EvaluationCache::Store(const std::string& fingerprint, const Entry& entry,
                            const AbsGraph* trained_graph) {
  Entry stored = entry;
  stored.graph_file.clear();
  if (trained_graph != nullptr) {
    stored.graph_file = "evalgraph_" + FormatHex(options_hash_) + "_" +
                        FormatHex(Fnv1aHash(fingerprint)) + ".gmorph";
    if (!SaveGraph(dir_ + "/" + stored.graph_file, *trained_graph)) {
      stored.graph_file.clear();
      if (stored.met_target) {
        return;  // an elite entry without weights would be unusable; skip
      }
    }
  }
  std::ofstream out(index_path_, std::ios::app);
  if (!out) {
    return;
  }
  if (!header_written_) {
    out << ArtifactHeaderLine(kEvalCacheArtifact) << "\n"
        << "options " << FormatHex(options_hash_) << "\n";
    header_written_ = true;
  }
  out << EntryLine(fingerprint, stored) << "\n";
  out.flush();
  entries_[fingerprint] = std::move(stored);
}

DiagnosticList VerifyEvalCacheFile(const std::string& path) {
  DiagnosticList diags;
  std::map<std::string, EvaluationCache::Entry> entries;
  // An index named the way the cache names it ("evalcache_<hash>.txt") must
  // carry that options hash, exactly as the cache itself expects.
  const std::string name = std::filesystem::path(path).filename().string();
  uint64_t named_options = 0;
  const bool named = name.size() == 30 && name.rfind("evalcache_", 0) == 0 &&
                     name.compare(26, 4, ".txt") == 0 &&
                     ParseHex(std::string_view(name).substr(10, 16), &named_options);
  ScanIndexFile(path, named ? &named_options : nullptr, &entries, diags);
  const std::string dir = std::filesystem::path(path).parent_path().string();
  for (const auto& [fingerprint, e] : entries) {
    if (e.graph_file.empty()) {
      continue;
    }
    const std::string graph_path = (dir.empty() ? "." : dir) + "/" + e.graph_file;
    GraphLoadResult loaded = TryLoadGraph(graph_path);
    if (!loaded.ok()) {
      diags.Error("cache.graph", graph_path) << "trained graph for cached entry fails to load";
      diags.Merge(loaded.diagnostics);
      continue;
    }
    if (loaded.graph->Fingerprint() != fingerprint) {
      diags.Error("cache.fingerprint", graph_path)
          << "trained graph fingerprint does not match its cache entry";
    }
  }
  if (diags.ok()) {
    diags.Note("cache.summary", path) << entries.size() << " cache entries verified";
  }
  return diags;
}

}  // namespace gmorph
