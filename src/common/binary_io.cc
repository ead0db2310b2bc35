#include "src/common/binary_io.h"

#include <utility>

namespace gmorph {

BinaryReader::BinaryReader(std::istream& in, BinaryArtifact artifact, DiagnosticList& diags)
    : in_(in), artifact_(std::move(artifact)), diags_(diags), left_(&own_left_) {
  // A stream that cannot be measured has no bytes left.
  const std::streamoff start = in_.tellg();
  const std::streamoff end = in_.seekg(0, std::ios::end).tellg();
  in_.seekg(start);
  own_left_ = start >= 0 && end > start ? static_cast<uint64_t>(end - start) : 0;
}

BinaryReader::BinaryReader(BinaryReader& outer, BinaryArtifact artifact, DiagnosticList& diags)
    : in_(outer.in_),
      artifact_(std::move(artifact)),
      diags_(diags),
      left_(outer.left_),
      failed_(outer.failed_) {}

void BinaryReader::Fail(const std::string& rule, const std::string& what) {
  if (!failed_) {
    failed_ = true;
    diags_.Error(artifact_.rule_prefix + "." + rule, artifact_.node_path) << what;
  }
}

bool BinaryReader::Count(int64_t& count, int64_t max, const char* what, uint64_t record_bytes) {
  if (!Pod(count, what)) {
    return false;
  }
  if (count < 0 || count > max) {
    Fail("bounds", std::string(what) + ": count " + std::to_string(count) + " out of range [0, " +
                       std::to_string(max) + "]");
    return false;
  }
  return record_bytes == 0 || Fits(static_cast<uint64_t>(count), record_bytes, what);
}

bool BinaryReader::Flag(bool& value, const char* what) {
  int64_t raw = 0;
  if (!Pod(raw, what)) {
    return false;
  }
  if (raw != 0 && raw != 1) {
    Fail("bounds", std::string(what) + ": flag value " + std::to_string(raw));
    return false;
  }
  value = raw != 0;
  return true;
}

bool BinaryReader::Fits(uint64_t count, uint64_t record_bytes, const char* what) {
  if (failed_) {
    return false;
  }
  if (count > *left_ / record_bytes) {
    Fail("truncated", std::string(what) + ": declared count " + std::to_string(count) +
                          " cannot fit in the " + std::to_string(*left_) + " bytes left");
    return false;
  }
  return true;
}

}  // namespace gmorph
