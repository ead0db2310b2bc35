#include "src/obs/json.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

namespace gmorph::obs {
namespace {

void AppendJsonString(std::string& out, std::string_view text) {
  out += '"';
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
