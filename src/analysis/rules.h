// Central registry of every diagnostic rule the analysis passes can emit.
//
// Each dotted rule id (plan.buffer.overlap, graph.root, tune.entry, ...) is
// registered exactly once with its default severity and a one-line
// description. The registry is the source of truth for:
//   - `gmorph_cli --verify --list-rules` (and the generated docs/RULES.md,
//     kept in sync by the rules_doc_sync ctest entry);
//   - severity-override pattern validation (--Werror=/--Wno= reject patterns
//     that select no registered rule);
//   - the SARIF tool.driver.rules table;
//   - the rule-coverage test, which asserts every registered plan.*/graph.*
//     rule can actually fire (no dead rules).
//
// A rule's *default* severity documents how the passes emit it in the common
// case; a few rules legitimately escalate (e.g. tune.fingerprint is a warning
// on a foreign-build mismatch but an error when the line is malformed). The
// driver's severity policy operates on the emitted severity.
#ifndef GMORPH_SRC_ANALYSIS_RULES_H_
#define GMORPH_SRC_ANALYSIS_RULES_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/diagnostics.h"

namespace gmorph {

struct RuleInfo {
  const char* id;
  Severity default_severity;
  const char* description;
};

// All registered rules, sorted by id.
const std::vector<RuleInfo>& AllRules();

// Registry lookup; nullptr for unknown ids.
const RuleInfo* FindRule(std::string_view id);

// True when `pattern` selects `rule_id`: an exact id, or a dotted prefix
// ("plan.mem" selects every plan.mem.* rule; a trailing "." or ".*" on the
// pattern is tolerated, so "plan.mem." and "plan.mem.*" mean the same).
bool RuleMatchesPattern(std::string_view rule_id, std::string_view pattern);

// True when at least one registered rule matches — how the driver validates
// --Werror=/--Wno= arguments.
bool PatternSelectsAnyRule(std::string_view pattern);

// The full catalog as stable text: one "severity  id  description" line per
// rule. This is both the --list-rules output and the body of docs/RULES.md.
std::string ListRulesText();

}  // namespace gmorph

#endif  // GMORPH_SRC_ANALYSIS_RULES_H_
