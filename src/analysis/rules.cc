#include "src/analysis/rules.h"

#include <algorithm>
#include <sstream>

namespace gmorph {
namespace {

constexpr Severity kErr = Severity::kError;
constexpr Severity kWarn = Severity::kWarning;
constexpr Severity kNote = Severity::kNote;

// Sorted by id (asserted below); one entry per rule the passes can emit.
const RuleInfo kRules[] = {
    {"cache.entry", kErr, "malformed evaluation-cache entry line or met-target entry without a trained graph"},
    {"cache.fingerprint", kErr, "cached trained graph's fingerprint disagrees with its index entry"},
    {"cache.graph", kErr, "entry references a trained-graph file that is missing or unloadable"},
    {"cache.header", kErr, "missing gmorph-evalcache header line"},
    {"cache.open", kErr, "evaluation-cache index file cannot be opened"},
    {"cache.options", kErr, "missing or malformed options-hash line, or hash differs from the active search options"},
    {"cache.summary", kNote, "informational totals for a linted evaluation-cache index"},
    {"cache.version", kErr, "unsupported evaluation-cache format version"},
    {"check.failed", kErr, "fatal GMORPH_CHECK assertion converted into a diagnostic"},
    {"ckpt.bounds", kErr, "checkpoint field value outside its sane range"},
    {"ckpt.magic", kErr, "file is not a gmorph-checkpoint (bad or missing header)"},
    {"ckpt.open", kErr, "checkpoint file cannot be opened"},
    {"ckpt.summary", kNote, "informational totals for a linted checkpoint"},
    {"ckpt.truncated", kErr, "checkpoint ends mid-record"},
    {"ckpt.version", kErr, "unsupported checkpoint format version"},
    {"graph.capacity.stale", kErr, "node's cached channel capacity disagrees with recomputation"},
    {"graph.head.count", kErr, "number of head nodes does not match the number of tasks"},
    {"graph.head.leaf", kErr, "task head is not a leaf node"},
    {"graph.head.task", kErr, "task maps to a head node that does not claim it"},
    {"graph.leaf.dangling", kErr, "leaf node is not any task's head"},
    {"graph.node.index", kErr, "node id or child/parent reference out of range"},
    {"graph.rescale.identity", kWarn, "rescale node is an identity (same shape in and out)"},
    {"graph.rescale.legal", kErr, "rescale between shapes the legality rules forbid"},
    {"graph.root", kErr, "missing root node or root with a parent"},
    {"graph.roundtrip", kErr, "serialize + reload does not reproduce the graph fingerprint"},
    {"graph.shape.edge", kErr, "child's input shape does not match its parent's output shape"},
    {"graph.shape.infer", kErr, "stored output shape disagrees with re-run shape inference"},
    {"graph.share.dissimilar", kWarn, "subtree shared between tasks with dissimilar output semantics"},
    {"graph.spec.type", kErr, "node carries an unknown or ill-formed op spec"},
    {"graph.tasks.range", kErr, "task id out of range for the graph's task count"},
    {"graph.tree.link", kErr, "parent/child links are not a consistent tree"},
    {"graph.tree.reach", kErr, "node unreachable from the root"},
    {"graph.weights.mismatch", kErr, "weight tensor shapes do not match the node's spec"},
    {"io.bounds", kErr, "serialized field value outside its sane range"},
    {"io.header", kErr, "malformed binary-graph header"},
    {"io.magic", kErr, "file does not start with the GMORPHG magic"},
    {"io.open", kErr, "graph file cannot be opened"},
    {"io.truncated", kErr, "binary graph ends mid-record"},
    {"machine.entry", kErr, "malformed, unknown, or repeated machine ceiling entry line"},
    {"machine.fingerprint", kWarn, "fingerprint missing, malformed (as an error), or from a foreign build"},
    {"machine.header", kErr, "missing gmorph-machine header line"},
    {"machine.missing", kErr, "required ceiling entry (threads/peak_gflops/triad_gbps) absent"},
    {"machine.open", kErr, "machine ceiling file cannot be opened"},
    {"machine.value", kErr, "threads not an int in [1, INT_MAX], or a ceiling not positive finite"},
    {"machine.version", kErr, "unsupported machine artifact version"},
    {"plan.alias.cycle", kErr, "alias chain never reaches a non-alias root value"},
    {"plan.alias.shape", kErr, "alias reshapes to a different element count than its root"},
    {"plan.alias.stale", kErr, "alias read after its root's buffer was overwritten"},
    {"plan.buffer.alias", kErr, "alias value owns a buffer (aliases share their root's)"},
    {"plan.buffer.head", kErr, "head output does not live alone in a dedicated buffer"},
    {"plan.buffer.index", kErr, "buffer reference out of range"},
    {"plan.buffer.overlap", kErr, "two simultaneously live values share an arena buffer"},
    {"plan.buffer.size", kErr, "value's element count does not fit its buffer"},
    {"plan.buffer.unassigned", kErr, "planned value without an arena buffer"},
    {"plan.dtype.alias", kErr, "alias declares a storage dtype different from its root value"},
    {"plan.dtype.buffer", kErr, "values of different storage dtypes share an arena buffer"},
    {"plan.dtype.head", kErr, "head output's storage dtype is not f32 (task scores are f32)"},
    {"plan.dtype.input", kErr, "step consumes a value whose storage dtype its kernel cannot read"},
    {"plan.dtype.mismatch", kErr, "value's declared storage dtype disagrees with its producer"},
    {"plan.dtype.step", kErr, "step kind cannot execute at its annotated kernel dtype"},
    {"plan.group.index", kErr, "group reference out of range"},
    {"plan.group.member", kErr, "step/group membership lists are inconsistent"},
    {"plan.group.order", kErr, "step sequence numbers violate group execution order"},
    {"plan.group.tree", kErr, "group parent links are not a tree rooted at group 0"},
    {"plan.head.flag", kErr, "value listed as a head but not marked is_head"},
    {"plan.io.header", kErr, "missing gmorph-plan header line"},
    {"plan.io.open", kErr, "plan file cannot be opened"},
    {"plan.io.parse", kErr, "malformed plan-text directive"},
    {"plan.mem.arena", kErr, "arena smaller than the certified peak of live bytes"},
    {"plan.mem.buffer", kWarn, "arena buffer no planned value ever occupies (dead slot)"},
    {"plan.mem.summary", kNote, "certified peak live bytes vs planned arena bytes"},
    {"plan.mem.waste", kWarn, "arena exceeds the waste bound over the certified peak"},
    {"plan.race.cross_branch", kErr, "value read and written by unordered parallel branches"},
    {"plan.race.use_before_def", kErr, "value read before the step that defines it"},
    {"plan.shape.attention", kErr, "attention shapes are not (T,3D) -> (T,D) with D divisible by the heads"},
    {"plan.shape.conv", kErr, "conv input/weight/output shape signature is inconsistent"},
    {"plan.shape.embed", kErr, "embedding gather shapes are not (T) -> (T,D) over a (V,D) table"},
    {"plan.shape.gap", kErr, "global-average-pool shapes are not (C,H,W) -> (C)"},
    {"plan.shape.layernorm", kErr, "layernorm output or gamma shape does not match its input"},
    {"plan.shape.linear", kErr, "linear input/weight/output shape signature is inconsistent"},
    {"plan.shape.meanpool", kErr, "token mean-pool shapes are not (T,D) -> (D)"},
    {"plan.shape.pool", kErr, "max-pool geometry does not produce the output shape"},
    {"plan.shape.resize", kErr, "bilinear resize shapes are not a spatial resize"},
    {"plan.shape.skip", kErr, "residual skip input shape does not match the step output"},
    {"plan.shape.tokens", kErr, "patch-token layout shapes are not (D,G,G') -> (G*G',D)"},
    {"plan.shape.tokresize", kErr, "token resize shapes are not a token-count resize"},
    {"plan.solver.applicable", kErr, "annotated solver rejects the step's problem shape"},
    {"plan.solver.dtype", kErr, "step dtype is not defined for this kernel family"},
    {"plan.solver.kind", kErr, "step kind has no tunable kernel but names a solver"},
    {"plan.solver.unknown", kErr, "annotated solver is not registered for the step's family"},
    {"plan.step.index", kErr, "step operand or group reference out of range"},
    {"plan.step.out.alias", kErr, "step writes into an alias value"},
    {"plan.value.index", kErr, "value reference out of range"},
    {"plan.value.multidef", kErr, "value defined by more than one step (or a step writes the input)"},
    {"plan.value.undef", kErr, "value read but never defined"},
    {"plan.value.unused", kWarn, "value neither defined nor read (dead plan entry)"},
    {"quant.duplicate", kErr, "two recipe lines quantize the same plan step"},
    {"quant.entry", kErr, "malformed recipe step line (or a recipe with no steps, as a warning)"},
    {"quant.header", kErr, "missing gmorph-quant header line"},
    {"quant.open", kErr, "quantization recipe file cannot be opened"},
    {"quant.scale", kErr, "activation or per-channel weight scale is not positive finite"},
    {"quant.version", kErr, "unsupported recipe format version"},
    {"quant.zp", kErr, "activation zero point outside the u8 range [0, 255]"},
    {"tune.applicable", kErr, "recorded solver rejects the entry's problem shape"},
    {"tune.duplicate", kErr, "two tuning entries describe the same problem descriptor"},
    {"tune.entry", kErr, "malformed tuning-DB entry line"},
    {"tune.fingerprint", kWarn, "fingerprint missing, malformed (as an error), or from a foreign build"},
    {"tune.header", kErr, "missing gmorph-tunedb header line"},
    {"tune.open", kErr, "tuning DB file cannot be opened"},
    {"tune.solver", kErr, "recorded solver is not registered for the entry's family"},
    {"tune.version", kErr, "unsupported tuning-DB format version"},
    {"weights.bounds", kErr, "weight-file shape rank, dimension or element count outside its sane range"},
    {"weights.magic", kErr, "file does not start with the GMORPHW1 magic"},
    {"weights.open", kErr, "weight file cannot be opened"},
    {"weights.summary", kNote, "informational totals for a linted weight file"},
    {"weights.truncated", kErr, "weight file ends mid-record, or declares more than its bytes can hold"},
};

}  // namespace

const std::vector<RuleInfo>& AllRules() {
  static const std::vector<RuleInfo> rules = [] {
    std::vector<RuleInfo> r(std::begin(kRules), std::end(kRules));
    GMORPH_CHECK(std::is_sorted(r.begin(), r.end(),
                                [](const RuleInfo& a, const RuleInfo& b) {
                                  return std::string_view(a.id) < std::string_view(b.id);
                                }),
                 "rule registry must stay sorted by id");
    return r;
  }();
  return rules;
}

const RuleInfo* FindRule(std::string_view id) {
  const std::vector<RuleInfo>& rules = AllRules();
  const auto it = std::lower_bound(rules.begin(), rules.end(), id,
                                   [](const RuleInfo& r, std::string_view key) {
                                     return std::string_view(r.id) < key;
                                   });
  if (it == rules.end() || std::string_view(it->id) != id) {
    return nullptr;
  }
  return &*it;
}

bool RuleMatchesPattern(std::string_view rule_id, std::string_view pattern) {
  // Normalize "plan.mem.*" and "plan.mem." to the bare prefix "plan.mem".
  if (pattern.size() >= 2 && pattern.substr(pattern.size() - 2) == ".*") {
    pattern.remove_suffix(2);
  } else if (!pattern.empty() && pattern.back() == '.') {
    pattern.remove_suffix(1);
  }
  if (pattern.empty()) {
    return false;
  }
  if (rule_id == pattern) {
    return true;
  }
  return rule_id.size() > pattern.size() && rule_id.substr(0, pattern.size()) == pattern &&
         rule_id[pattern.size()] == '.';
}

bool PatternSelectsAnyRule(std::string_view pattern) {
  for (const RuleInfo& rule : AllRules()) {
    if (RuleMatchesPattern(rule.id, pattern)) {
      return true;
    }
  }
  return false;
}

std::string ListRulesText() {
  std::ostringstream os;
  os << "# GMorph analysis rule catalog\n"
     << "# Generated by `gmorph_cli --verify --list-rules`; do not edit by hand.\n"
     << "# Severity is the default the passes emit; --Werror=/--Wno= and baseline\n"
     << "# files adjust reporting per run (see README).\n"
     << "# " << AllRules().size() << " rules.\n\n";
  for (const RuleInfo& rule : AllRules()) {
    std::string line = SeverityName(rule.default_severity);
    line.resize(9, ' ');
    line += rule.id;
    if (line.size() < 36) {
      line.resize(36, ' ');
    }
    os << line << " " << rule.description << "\n";
  }
  return os.str();
}

}  // namespace gmorph
