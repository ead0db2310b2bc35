#include "src/obs/json.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

namespace gmorph::obs {
namespace {

void AppendByteEscape(std::string& out, unsigned char byte) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
  out += buf;
}

// Length of the well-formed UTF-8 sequence that starts at text[i], or 0 when
// none does. Overlong forms, surrogates (U+D800-U+DFFF) and code points past
// U+10FFFF are malformed, as in a strict decoder.
size_t Utf8SequenceLength(std::string_view text, size_t i) {
  const auto byte = [&](size_t k) { return static_cast<unsigned char>(text[k]); };
  const unsigned char lead = byte(i);
  size_t length = 0;
  unsigned char lo = 0x80;  // range of the first continuation byte
  unsigned char hi = 0xbf;
  if (lead < 0x80) {
    return 1;
  } else if (lead >= 0xc2 && lead <= 0xdf) {
    length = 2;
  } else if (lead >= 0xe0 && lead <= 0xef) {
    length = 3;
    lo = lead == 0xe0 ? 0xa0 : 0x80;
    hi = lead == 0xed ? 0x9f : 0xbf;
  } else if (lead >= 0xf0 && lead <= 0xf4) {
    length = 4;
    lo = lead == 0xf0 ? 0x90 : 0x80;
    hi = lead == 0xf4 ? 0x8f : 0xbf;
  } else {
    return 0;
  }
  if (text.size() - i < length || byte(i + 1) < lo || byte(i + 1) > hi) {
    return 0;
  }
  for (size_t k = 2; k < length; ++k) {
    if (byte(i + k) < 0x80 || byte(i + k) > 0xbf) {
      return 0;
    }
  }
  return length;
}

void AppendJsonString(std::string& out, std::string_view text) {
  out += '"';
  for (size_t i = 0, length = 1; i < text.size(); i += length) {
    const char c = text[i];
    length = 1;
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
        length = static_cast<unsigned char>(c) < 0x20 ? 0 : Utf8SequenceLength(text, i);
        if (length == 0) {
          AppendByteEscape(out, static_cast<unsigned char>(c));
          length = 1;
        } else {
          out.append(text.substr(i, length));
        }
    }
  }
  out += '"';
}

}  // namespace

void JsonWriter::BeginElement() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!open_.empty()) {
    if (open_.back()) {
      out_ += layout_.comma;
    }
    open_.back() = true;
  }
  if (line_break_) {
    out_ += '\n';
    line_break_ = false;
  }
}

JsonWriter& JsonWriter::Open(char bracket) {
  BeginElement();
  out_ += bracket;
  open_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  if (line_break_) {
    out_ += '\n';
    line_break_ = false;
  }
  open_.pop_back();
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::BeginObject() { return Open('{'); }
JsonWriter& JsonWriter::EndObject() { return Close('}'); }
JsonWriter& JsonWriter::BeginArray() { return Open('['); }
JsonWriter& JsonWriter::EndArray() { return Close(']'); }

JsonWriter& JsonWriter::Key(std::string_view key) {
  BeginElement();
  AppendJsonString(out_, key);
  out_ += layout_.colon;
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeginElement();
  AppendJsonString(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return Raw(buf);
}

JsonWriter& JsonWriter::Fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return Raw(buf);
}

JsonWriter& JsonWriter::Bool(bool value) { return Raw(value ? "true" : "false"); }

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeginElement();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::LineBreak() {
  line_break_ = true;
  return *this;
}

bool WriteJsonFile(const std::string& path, std::string_view text) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << text;
  return static_cast<bool>(out);
}

namespace {

struct ExitDump {
  std::string path;
  std::string (*render)();
};

struct ExitDumps {
  std::mutex mutex;
  std::vector<ExitDump> dumps;  // in arming order
};

// Leaked, like the trace and metrics registries, so the hook can run after
// static destructors.
ExitDumps& GetExitDumps() {
  static ExitDumps* exit_dumps = new ExitDumps();
  return *exit_dumps;
}

void RunExitDumps() {
  ExitDumps& exit_dumps = GetExitDumps();
  std::vector<ExitDump> dumps;
  {
    std::lock_guard<std::mutex> lock(exit_dumps.mutex);
    dumps = exit_dumps.dumps;
  }
  for (auto it = dumps.rbegin(); it != dumps.rend(); ++it) {
    WriteJsonFile(it->path, it->render());
  }
}

}  // namespace

void WriteJsonFileAtExit(const std::string& path, std::string (*render)()) {
  ExitDumps& exit_dumps = GetExitDumps();
  std::lock_guard<std::mutex> lock(exit_dumps.mutex);
  if (exit_dumps.dumps.empty()) {
    std::atexit(RunExitDumps);
  }
  for (ExitDump& dump : exit_dumps.dumps) {
    if (dump.render == render) {
      dump.path = path;
      return;
    }
  }
  exit_dumps.dumps.push_back({path, render});
}

bool ArmFromEnv(const char* var, void (*arm)(const std::string& path)) {
  const char* path = std::getenv(var);
  if (path == nullptr || path[0] == '\0') {
    return false;
  }
  arm(path);
  return true;
}

}  // namespace gmorph::obs
