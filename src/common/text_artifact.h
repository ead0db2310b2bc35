// The shared reader and writer pieces behind the line-oriented
// "gmorph-<kind> vN" text artifacts: tuning DBs, quant recipes, machine
// ceilings and evaluation-cache indexes (plans and checkpoints use the
// helpers without the record reader).
//
// Each line-record format has exactly one scan: one pass over the file that
// reports every finding as a rule-id'd Diagnostic and hands its clean records
// to the caller. The tolerant loader applies its own policy to those records;
// the strict `gmorph_cli --verify` linter returns the diagnostics. Since both
// sides run the same scan, the linter flags whatever the loader drops.
#ifndef GMORPH_SRC_COMMON_TEXT_ARTIFACT_H_
#define GMORPH_SRC_COMMON_TEXT_ARTIFACT_H_

#include <climits>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/artifact_header.h"
#include "src/common/diagnostics.h"

namespace gmorph {

// A line-record format as its reader reports it: the header spec, the rule
// prefix of its file-level diagnostics ("tune" -> tune.open, tune.header,
// tune.version) and the noun its messages use ("tuning DB").
struct LineArtifact {
  ArtifactHeaderSpec spec;
  const char* rule_prefix;
  const char* noun;
};

// Opens a line-record artifact and checks its first line against the spec.
// A missing or empty file, a foreign header or an unsupported version is
// reported into `diags` and leaves ok() false. Next() then walks the record
// lines, skipping empty lines and lines that start with '#'.
class LineRecordReader {
 public:
  LineRecordReader(const std::string& path, const LineArtifact& artifact, DiagnosticList& diags);

  bool ok() const { return ok_; }

  // Advances to the next record line; false at end of file or when !ok().
  bool Next();
  const std::string& line() const { return line_; }
  int lineno() const { return lineno_; }  // 1-based; the header is line 1
  std::string where() const { return "line " + std::to_string(lineno_); }

 private:
  std::ifstream in_;
  std::string line_;
  int lineno_ = 0;
  bool ok_ = false;
};

// Whole-token number parsing: the token must be exactly one number in the
// std::from_chars grammar (no '+' sign, no surrounding space, no trailing
// junk). Integers must also lie in [lo, hi]; floating-point tokens may spell
// inf or nan, and values the type cannot hold are rejected.
bool ParseNumber(std::string_view token, int64_t* out, int64_t lo = INT64_MIN,
                 int64_t hi = INT64_MAX);
bool ParseNumber(std::string_view token, int* out, int lo = INT_MIN, int hi = INT_MAX);
bool ParseNumber(std::string_view token, double* out);
bool ParseNumber(std::string_view token, float* out);

// The whitespace-separated tokens of `text`, as views into it.
std::vector<std::string_view> SplitTokens(std::string_view text);

// One "key=value" token split at its first '='. A bare token comes back as a
// key with an empty value.
struct Field {
  std::string_view key;
  std::string_view value;
};
Field SplitField(std::string_view token);

// Classifies a "fingerprint <16 hex digits>" line against the fingerprint of
// the running build.
enum class FingerprintCheck { kMatch, kMismatch, kMalformed };
FingerprintCheck CheckFingerprintLine(std::string_view line, std::string_view expected);

// Writes `path` atomically: `write` fills "<path>.tmp", which is renamed over
// `path` only when every write succeeded. Missing parent directories are
// created. On failure the tmp file is removed, a previous file at `path` is
// left untouched, and `*error` (when given) says what went wrong.
bool WriteFileAtomically(const std::string& path,
                         const std::function<void(std::ostream&)>& write,
                         std::string* error = nullptr);

// The directory the persistent caches share (evaluation cache, tuning DB,
// machine ceilings, bench checkpoints): `override_dir` if non-empty, else
// $GMORPH_CACHE_DIR when set and non-empty, else "gmorph_bench_cache".
std::string ResolveCacheDir(const std::string& override_dir = "");

// 64-bit FNV-1a over bytes: cache keys, option-namespace hashes and the build
// fingerprint (which keeps its own historical offset basis).
inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ull;
uint64_t Fnv1aHash(std::string_view bytes, uint64_t basis = kFnv1aOffsetBasis);

}  // namespace gmorph

#endif  // GMORPH_SRC_COMMON_TEXT_ARTIFACT_H_
