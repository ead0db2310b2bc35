// The one JSON writer. Every JSON document the project emits is written by
// JsonWriter: the trace export, the metrics snapshot, the roofline report,
// the flight-recorder dump, the analysis driver's JSON and SARIF renderers,
// and the bench result lines.
//
// The writer streams into its own string and places the separators: a comma
// before every element of a container but the first, a colon after each key.
// Two layouts exist, each a fixed constant of the emitters that use it:
//   kCompactJson  "," and ":"    trace, metrics, roofline and flight dumps;
//   kSpacedJson   ", " and ": "  analysis JSON and SARIF, bench lines.
// Integers print in decimal, Number() as %.6g and Fixed() at the given
// precision; Raw() inserts a value that is already rendered JSON. In keys and
// strings '"' and '\' are backslash-escaped, \n, \t and \r use their short
// forms, and every other control character below 0x20 becomes \u00XX.
//
// The same module writes the files: WriteJsonFile() is the one "open, write,
// check" path, and WriteJsonFileAtExit() the one at-exit dump hook behind
// --trace, --metrics, --flight-recorder, GMORPH_TRACE and GMORPH_METRICS.
#ifndef GMORPH_SRC_OBS_JSON_H_
#define GMORPH_SRC_OBS_JSON_H_

#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace gmorph::obs {

struct JsonLayout {
  const char* comma;
  const char* colon;
};
inline constexpr JsonLayout kCompactJson{",", ":"};
inline constexpr JsonLayout kSpacedJson{", ", ": "};

class JsonWriter {
 public:
  explicit JsonWriter(JsonLayout layout) : layout_(layout) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  // The member's key; the next value written is its value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  JsonWriter& Int(T value) {
    return Raw(std::to_string(value));
  }
  JsonWriter& Number(double value);                // %.6g
  JsonWriter& Fixed(double value, int precision);  // %.<precision>f
  JsonWriter& Bool(bool value);
  JsonWriter& Raw(std::string_view json);

  // Puts a newline before the next element of the current container, after
  // its comma, or before the container's close if no element follows.
  JsonWriter& LineBreak();

  // The document written so far; the writer is spent afterwards.
  std::string Take() { return std::move(out_); }

 private:
  void BeginElement();
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);

  JsonLayout layout_;
  std::string out_;
  std::vector<bool> open_;  // per open container: holds an element already
  bool after_key_ = false;
  bool line_break_ = false;
};

// Writes `text` to `path` verbatim. False when the file cannot be written.
bool WriteJsonFile(const std::string& path, std::string_view text);

// Writes `render()` to `path` when the process exits. All dumps share one
// atexit hook and run in reverse arming order; arming a renderer again only
// moves its dump to the new path.
void WriteJsonFileAtExit(const std::string& path, std::string (*render)());

// Calls `arm(path)` when environment variable `var` names a non-empty path.
// Returns whether it did.
bool ArmFromEnv(const char* var, void (*arm)(const std::string& path));

}  // namespace gmorph::obs

#endif  // GMORPH_SRC_OBS_JSON_H_
