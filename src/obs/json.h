// JSON string escaping for every JSON emitter in the project: the trace
// export, the metrics snapshot, the roofline report, the analysis driver's
// JSON and SARIF renderers, and the bench harness.
#ifndef GMORPH_SRC_OBS_JSON_H_
#define GMORPH_SRC_OBS_JSON_H_

#include <string>
#include <string_view>

namespace gmorph::obs {

// Appends `text` to `out` as a quoted JSON string. '"' and '\' are
// backslash-escaped, \n, \t and \r use their short forms, and every other
// control character below 0x20 becomes \u00XX.
void AppendJsonString(std::string& out, std::string_view text);

// The escaped body of that string, without the quotes.
std::string JsonEscape(std::string_view text);

}  // namespace gmorph::obs

#endif  // GMORPH_SRC_OBS_JSON_H_
