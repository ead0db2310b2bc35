#include "src/common/text_artifact.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <filesystem>

namespace gmorph {
namespace {

template <typename T>
bool FromChars(std::string_view token, T* out) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

LineRecordReader::LineRecordReader(const std::string& path, const LineArtifact& artifact,
                                   DiagnosticList& diags)
    : in_(path) {
  const std::string prefix = artifact.rule_prefix;
  if (!in_) {
    diags.Error(prefix + ".open", path) << "cannot open " << artifact.noun << " file";
    return;
  }
  if (!std::getline(in_, line_)) {
    diags.Error(prefix + ".header", path) << "empty " << artifact.noun << " file";
    return;
  }
  lineno_ = 1;
  switch (CheckArtifactHeaderLine(line_, artifact.spec)) {
    case HeaderCheck::kMissing:
      diags.Error(prefix + ".header", path) << "missing " << artifact.spec.kind << " header";
      return;
    case HeaderCheck::kWrongVersion:
      diags.Error(prefix + ".version", path)
          << "unsupported " << artifact.noun << " version '" << line_ << "'";
      return;
    case HeaderCheck::kOk:
      ok_ = true;
  }
}

bool LineRecordReader::Next() {
  while (ok_ && std::getline(in_, line_)) {
    ++lineno_;
    if (!line_.empty() && line_[0] != '#') {
      return true;
    }
  }
  return false;
}

bool ParseNumber(std::string_view token, int64_t* out, int64_t lo, int64_t hi) {
  int64_t value = 0;
  if (!FromChars(token, &value) || value < lo || value > hi) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseNumber(std::string_view token, int* out, int lo, int hi) {
  int64_t value = 0;
  if (!ParseNumber(token, &value, lo, hi)) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseNumber(std::string_view token, double* out) { return FromChars(token, out); }

bool ParseNumber(std::string_view token, float* out) { return FromChars(token, out); }

std::vector<std::string_view> SplitTokens(std::string_view text) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  std::vector<std::string_view> tokens;
  size_t pos = text.find_first_not_of(kSpace);
  while (pos != std::string_view::npos) {
    const size_t end = text.find_first_of(kSpace, pos);
    tokens.push_back(text.substr(pos, end - pos));
    pos = text.find_first_not_of(kSpace, end);
  }
  return tokens;
}

Field SplitField(std::string_view token) {
  const size_t eq = token.find('=');
  if (eq == std::string_view::npos) {
    return {token, {}};
  }
  return {token.substr(0, eq), token.substr(eq + 1)};
}

FingerprintCheck CheckFingerprintLine(std::string_view line, std::string_view expected) {
  constexpr std::string_view kPrefix = "fingerprint ";
  if (line.substr(0, kPrefix.size()) != kPrefix || line.size() != kPrefix.size() + 16) {
    return FingerprintCheck::kMalformed;
  }
  const std::string_view hex = line.substr(kPrefix.size());
  for (const char c : hex) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) {
      return FingerprintCheck::kMalformed;
    }
  }
  return hex == expected ? FingerprintCheck::kMatch : FingerprintCheck::kMismatch;
}

bool WriteFileAtomically(const std::string& path,
                         const std::function<void(std::ostream&)>& write, std::string* error) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
  }
  const std::string tmp = path + ".tmp";
  std::string why;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      why = "cannot open '" + tmp + "' for writing";
    } else {
      write(out);
      out.flush();
      if (!out) {
        why = "write to '" + tmp + "' failed";
      }
    }
  }
  if (why.empty()) {
    fs::rename(tmp, target, ec);
    if (!ec) {
      return true;
    }
    why = "rename to '" + path + "' failed: " + ec.message();
  }
  fs::remove(tmp, ec);
  if (error != nullptr) {
    *error = why;
  }
  return false;
}

std::string ResolveCacheDir(const std::string& override_dir) {
  if (!override_dir.empty()) {
    return override_dir;
  }
  const char* env = std::getenv("GMORPH_CACHE_DIR");
  return env != nullptr && *env != '\0' ? env : "gmorph_bench_cache";
}

uint64_t Fnv1aHash(std::string_view bytes, uint64_t basis) {
  uint64_t h = basis;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace gmorph
