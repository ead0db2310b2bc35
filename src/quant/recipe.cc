#include "src/quant/recipe.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string_view>

#include "src/common/text_artifact.h"

namespace gmorph::quant {
namespace {

constexpr LineArtifact kRecipeFile{kQuantRecipeArtifact, "quant", "quantization recipe"};

// %.9g round-trips any float32 exactly through text.
std::string FormatFloat(float v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
  return buf;
}

std::string SanitizeLabel(const std::string& label) {
  std::string out = label.empty() ? std::string("-") : label;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '=') {
      c = '_';
    }
  }
  return out;
}

// One pass over a recipe file, shared by LoadQuantRecipe and
// VerifyQuantRecipeFile.
struct RecipeScan {
  DiagnosticList diags;
  QuantRecipe recipe;   // every step line that parses, in file order
  std::string refusal;  // why the loader refuses the file; empty when it loads
};

RecipeScan ScanRecipeFile(const std::string& path) {
  RecipeScan scan;
  DiagnosticList& diags = scan.diags;
  LineRecordReader reader(path, kRecipeFile, diags);
  if (!reader.ok()) {
    const Diagnostic& d = diags.items().front();
    scan.refusal = d.node_path + ": " + d.message;
    return scan;
  }
  std::map<int64_t, int> first_line;  // seq -> line that introduced it
  while (reader.Next()) {
    StepQuantSpec spec;
    std::string error;
    std::string rule;
    if (!ParseQuantStepLine(reader.line(), &spec, &error, &rule)) {
      diags.Error(rule, reader.where()) << error;
      if (scan.refusal.empty()) {
        scan.refusal = reader.where() + ": " + error;
      }
      continue;
    }
    if (!(spec.in_q.scale > 0.0f) || !std::isfinite(spec.in_q.scale)) {
      diags.Error("quant.scale", reader.where())
          << "activation scale " << spec.in_q.scale
          << " is not positive finite; dequant would produce zeros or NaN";
    }
    for (size_t c = 0; c < spec.w_scales.size(); ++c) {
      const float ws = spec.w_scales[c];
      if (!(ws > 0.0f) || !std::isfinite(ws)) {
        diags.Error("quant.scale", reader.where())
            << "weight scale for output channel " << c << " is " << ws
            << "; per-channel scales must be positive finite";
      }
    }
    const auto [it, inserted] = first_line.emplace(spec.seq, reader.lineno());
    if (!inserted) {
      diags.Error("quant.duplicate", reader.where())
          << "duplicate spec for plan step seq=" << spec.seq << " (first at line " << it->second
          << "; FindSeq resolves to the first)";
    }
    scan.recipe.steps.push_back(std::move(spec));
  }
  if (first_line.empty() && diags.empty()) {
    diags.Warning("quant.entry", path) << "recipe has a valid header but no step lines";
  }
  return scan;
}

}  // namespace

const StepQuantSpec* QuantRecipe::FindSeq(int64_t seq) const {
  for (const StepQuantSpec& s : steps) {
    if (s.seq == seq) {
      return &s;
    }
  }
  return nullptr;
}

bool ParseQuantStepLine(const std::string& line, StepQuantSpec* spec, std::string* error,
                        std::string* rule) {
  if (rule != nullptr) {
    *rule = "quant.entry";
  }
  const std::vector<std::string_view> tokens = SplitTokens(line);
  if (tokens.empty() || tokens[0] != "step") {
    *error = "expected 'step'";
    return false;
  }
  StepQuantSpec s;
  bool have_seq = false, have_kind = false, have_scale = false, have_zp = false,
       have_w = false;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const auto [key, val] = SplitField(tokens[i]);
    int64_t zp = 0;
    if (key == "seq" && ParseNumber(val, &s.seq, 0)) {
      have_seq = true;
    } else if (key == "kind" && !val.empty()) {
      s.kind = val;
      have_kind = true;
    } else if (key == "label" && !val.empty()) {
      s.label = val;
    } else if (key == "in_scale" && ParseNumber(val, &s.in_q.scale)) {
      have_scale = true;
    } else if (key == "in_zp" && ParseNumber(val, &zp)) {
      if (zp < 0 || zp > 255) {
        if (rule != nullptr) {
          *rule = "quant.zp";
        }
        *error = "activation zero point " + std::to_string(zp) + " outside u8 range [0, 255]";
        return false;
      }
      s.in_q.zero_point = static_cast<int32_t>(zp);
      have_zp = true;
    } else if (key == "w_scales" && !val.empty()) {
      std::string_view rest = val;
      while (true) {
        const size_t comma = rest.find(',');
        const std::string_view item = rest.substr(0, comma);
        float f = 0.0f;
        if (!ParseNumber(item, &f)) {
          *error = "bad w_scales item '" + std::string(item) + "'";
          return false;
        }
        s.w_scales.push_back(f);
        if (comma == std::string_view::npos) {
          break;
        }
        rest.remove_prefix(comma + 1);
      }
      have_w = true;
    } else {
      *error = "bad step field '" + std::string(tokens[i]) + "'";
      return false;
    }
  }
  if (!have_seq || !have_kind || !have_scale || !have_zp || !have_w) {
    *error = "missing required field (need seq, kind, in_scale, in_zp, w_scales)";
    return false;
  }
  *spec = std::move(s);
  return true;
}

std::string FormatQuantStepLine(const StepQuantSpec& spec) {
  std::ostringstream os;
  os << "step seq=" << spec.seq << " kind=" << spec.kind
     << " label=" << SanitizeLabel(spec.label) << " in_scale=" << FormatFloat(spec.in_q.scale)
     << " in_zp=" << spec.in_q.zero_point << " w_scales=";
  for (size_t i = 0; i < spec.w_scales.size(); ++i) {
    if (i != 0) {
      os << ',';
    }
    os << FormatFloat(spec.w_scales[i]);
  }
  return os.str();
}

bool SaveQuantRecipe(const QuantRecipe& recipe, const std::string& path, std::string* error) {
  return WriteFileAtomically(
      path,
      [&](std::ostream& os) {
        os << ArtifactHeaderLine(kQuantRecipeArtifact) << "\n";
        for (const StepQuantSpec& s : recipe.steps) {
          os << FormatQuantStepLine(s) << "\n";
        }
      },
      error);
}

bool LoadQuantRecipe(const std::string& path, QuantRecipe* recipe, std::string* error) {
  RecipeScan scan = ScanRecipeFile(path);
  if (!scan.refusal.empty()) {
    *error = scan.refusal;
    return false;
  }
  *recipe = std::move(scan.recipe);
  return true;
}

DiagnosticList VerifyQuantRecipeFile(const std::string& path) {
  return ScanRecipeFile(path).diags;
}

}  // namespace gmorph::quant
