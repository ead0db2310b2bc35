// Shared diagnostics engine for the static-analysis passes (GraphVerifier,
// PlanVerifier), the text-artifact scans (tuning DB, quant recipe, machine
// ceilings, evaluation cache), and the structured-error paths that feed them
// (graph deserialization, fatal GMORPH_CHECK failures).
//
// A Diagnostic is one attributable finding: severity, a stable dotted rule id
// (catalogued in DESIGN.md §5d), the graph/plan location it anchors to, and a
// human-readable message. Verifiers append to a DiagnosticList instead of
// asserting, so callers decide whether a violation is fatal (FusedEngine
// construction), a rejected candidate (search), or a lint finding (CLI).
#ifndef GMORPH_SRC_COMMON_DIAGNOSTICS_H_
#define GMORPH_SRC_COMMON_DIAGNOSTICS_H_

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace gmorph {

enum class Severity { kError, kWarning, kNote };

std::string SeverityName(Severity severity);

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string rule_id;    // stable dotted id, e.g. "plan.buffer.overlap"
  std::string node_path;  // location, e.g. "node 7 [t1.op3 ConvReLU]" / "step 4"
  std::string message;

  // One line: "error[plan.buffer.overlap] step 4: ...".
  std::string ToString() const;

  // Converts a fatal check into the verifiers' reporting format (rule id
  // "check.failed", node_path = file:line, message = expr — message).
  static Diagnostic FromCheckError(const CheckError& error);
};

class DiagnosticList;

// Streamed message builder; appends to the owning list when it goes out of
// scope (end of the full expression): list.Error(rule, path) << "got " << n;
class DiagnosticBuilder {
 public:
  DiagnosticBuilder(DiagnosticList* list, Severity severity, std::string rule_id,
                    std::string node_path)
      : list_(list) {
    diag_.severity = severity;
    diag_.rule_id = std::move(rule_id);
    diag_.node_path = std::move(node_path);
  }
  DiagnosticBuilder(DiagnosticBuilder&& other) noexcept
      : list_(other.list_), diag_(std::move(other.diag_)), os_(std::move(other.os_)) {
    other.list_ = nullptr;
  }
  DiagnosticBuilder(const DiagnosticBuilder&) = delete;
  DiagnosticBuilder& operator=(const DiagnosticBuilder&) = delete;
  DiagnosticBuilder& operator=(DiagnosticBuilder&&) = delete;
  ~DiagnosticBuilder();

  template <typename T>
  DiagnosticBuilder& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  DiagnosticList* list_;
  Diagnostic diag_;
  std::ostringstream os_;
};

// Ordered collector of diagnostics produced by one verification run.
class DiagnosticList {
 public:
  DiagnosticBuilder Error(std::string rule_id, std::string node_path) {
    return {this, Severity::kError, std::move(rule_id), std::move(node_path)};
  }
  DiagnosticBuilder Warning(std::string rule_id, std::string node_path) {
    return {this, Severity::kWarning, std::move(rule_id), std::move(node_path)};
  }
  DiagnosticBuilder Note(std::string rule_id, std::string node_path) {
    return {this, Severity::kNote, std::move(rule_id), std::move(node_path)};
  }

  void Add(Diagnostic diag) { items_.push_back(std::move(diag)); }
  void Merge(const DiagnosticList& other) {
    items_.insert(items_.end(), other.items_.begin(), other.items_.end());
  }

  // True when no *errors* were recorded (warnings/notes don't fail a pass).
  bool ok() const { return error_count() == 0; }
  int error_count() const;
  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }

  // True if any diagnostic carries exactly this rule id.
  bool HasRule(const std::string& rule_id) const;

  const std::vector<Diagnostic>& items() const { return items_; }

  // One diagnostic per line; empty string when clean.
  std::string ToString() const;

 private:
  std::vector<Diagnostic> items_;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_COMMON_DIAGNOSTICS_H_
