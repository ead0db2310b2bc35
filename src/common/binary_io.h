// The one reader and writer of the binary artifacts (weight files, graph
// files, the checkpoint body): plain-old-data values in native byte order, a
// count before each list. The reader refuses any count, string or payload the
// bytes left cannot hold before allocating it, reports rule-id'd diagnostics
// through a spec as LineRecordReader does, and goes inert on its first failure.
#ifndef GMORPH_SRC_COMMON_BINARY_IO_H_
#define GMORPH_SRC_COMMON_BINARY_IO_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>

#include "src/common/diagnostics.h"

namespace gmorph {

// The rule prefix of a format's diagnostics ("io" -> io.truncated), their
// node path ("stream", or the file's path) and the noun of its truncation
// messages ("stream" -> "stream ended inside weight data").
struct BinaryArtifact {
  std::string rule_prefix;
  std::string node_path;
  std::string noun;
};

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  void Write(const void* data, uint64_t size) {
    out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  }
  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write(&value, sizeof(T));
  }
  void Int64(int64_t value) { Pod(value); }
  void Flag(bool value) { Int64(value ? 1 : 0); }
  // A vector's or string's element count as an int64, then its elements.
  template <typename Container>
  void List(const Container& values) {
    static_assert(std::is_trivially_copyable_v<typename Container::value_type>);
    Int64(static_cast<int64_t>(values.size()));
    Write(values.data(), values.size() * sizeof(typename Container::value_type));
  }

 private:
  std::ostream& out_;
};

class BinaryReader {
 public:
  // Reads `in` from its current position to its end.
  BinaryReader(std::istream& in, BinaryArtifact artifact, DiagnosticList& diags);
  // Reads a record embedded in `outer`'s stream (a checkpoint's graphs) under
  // its own artifact and list, within and charged to the bytes `outer` has
  // left; inert from the start if `outer` has failed.
  BinaryReader(BinaryReader& outer, BinaryArtifact artifact, DiagnosticList& diags);
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  bool failed() const { return failed_; }
  // Reports "<prefix>.<rule>" unless a failure was reported already.
  void Fail(const std::string& rule, const std::string& what);

  // Every read returns false once the reader has failed. Read() reports
  // <prefix>.truncated ("<noun> ended inside <what>") when fewer than `size`
  // bytes are left.
  bool Read(void* data, uint64_t size, const char* what) {
    if (failed_) {
      return false;
    }
    if (size > *left_ || !in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size))) {
      Fail("truncated", artifact_.noun + " ended inside " + what);
      return false;
    }
    *left_ -= size;
    return true;
  }
  template <typename T>
  bool Pod(T& value, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Read(&value, sizeof(T), what);
  }
  // An int64 in [0, max]; <prefix>.bounds otherwise. With `record_bytes`, it
  // counts records of at least that many bytes each, which must pass Fits().
  bool Count(int64_t& count, int64_t max, const char* what, uint64_t record_bytes = 0);
  // An int64 0 or 1; <prefix>.bounds otherwise.
  bool Flag(bool& value, const char* what);

  // <prefix>.truncated when the bytes left cannot hold `count` records of at
  // least `record_bytes` (>= 1) each. Call it after the format's own range
  // checks and before allocating the records.
  bool Fits(uint64_t count, uint64_t record_bytes, const char* what);
  // A BinaryWriter::List() of at most `max` elements, read in one piece once
  // they fit.
  template <typename Container>
  bool List(Container& values, int64_t max, const char* what) {
    using T = typename Container::value_type;
    static_assert(std::is_trivially_copyable_v<T>);
    int64_t count = 0;
    if (!Count(count, max, what, sizeof(T))) {
      return false;
    }
    values.resize(static_cast<size_t>(count));
    return Read(values.data(), static_cast<uint64_t>(count) * sizeof(T), what);
  }

 private:
  std::istream& in_;
  BinaryArtifact artifact_;
  DiagnosticList& diags_;
  uint64_t own_left_ = 0;
  uint64_t* left_;  // &own_left_, or the outer reader's
  bool failed_ = false;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_COMMON_BINARY_IO_H_
