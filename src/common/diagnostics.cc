#include "src/common/diagnostics.h"

#include <sstream>

namespace gmorph {

std::string SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::ostringstream os;
  os << SeverityName(severity) << "[" << rule_id << "]";
  if (!node_path.empty()) {
    os << " " << node_path << ":";
  }
  os << " " << message;
  return os.str();
}

Diagnostic Diagnostic::FromCheckError(const CheckError& error) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.rule_id = "check.failed";
  std::ostringstream path;
  path << error.file() << ":" << error.line();
  d.node_path = path.str();
  d.message = error.message().empty() ? error.expr() : error.expr() + " — " + error.message();
  return d;
}

DiagnosticBuilder::~DiagnosticBuilder() {
  if (list_ != nullptr) {
    diag_.message = os_.str();
    list_->Add(std::move(diag_));
  }
}

int DiagnosticList::error_count() const {
  int n = 0;
  for (const Diagnostic& d : items_) {
    if (d.severity == Severity::kError) {
      ++n;
    }
  }
  return n;
}

bool DiagnosticList::HasRule(const std::string& rule_id) const {
  for (const Diagnostic& d : items_) {
    if (d.rule_id == rule_id) {
      return true;
    }
  }
  return false;
}

std::string DiagnosticList::ToString() const {
  std::ostringstream os;
  for (const Diagnostic& d : items_) {
    os << d.ToString() << "\n";
  }
  return os.str();
}

}  // namespace gmorph
