#include "src/obs/json.h"

#include <cstdio>

namespace gmorph::obs {
namespace {

void AppendEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

void AppendJsonString(std::string& out, std::string_view text) {
  out += '"';
  AppendEscaped(out, text);
  out += '"';
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  AppendEscaped(out, text);
  return out;
}

}  // namespace gmorph::obs
