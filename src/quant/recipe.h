// The quantization recipe: the on-disk artifact calibration produces and the
// engine consumes. Text, one step per line ("gmorph-quant v1"):
//
//   gmorph-quant v1
//   step seq=0 kind=conv label=conv1 in_scale=0.0123 in_zp=14 w_scales=0.1,0.2
//   step seq=3 kind=linear label=head0 in_scale=0.2 in_zp=0 w_scales=0.05
//
// `seq` is the step's index in the engine's lowered plan, `kind` names the op
// family, `in_scale`/`in_zp` are the u8 asymmetric activation parameters and
// `w_scales` the per-output-channel symmetric s8 weight scales. The format
// mirrors the tunedb's key=value line discipline; lines starting with '#' are
// comments. One scan reads the file for both the loader and the strict linter
// (`gmorph_cli --verify`):
//
//   quant.open / .header / .version   unreadable file or header
//   quant.entry      step line fails the grammar (as a warning: no steps)
//   quant.zp         activation zero point outside the u8 range [0, 255]
//   quant.scale      in_scale or a per-channel weight scale is nonpositive or
//                    nonfinite (would denormalize or NaN the dequant epilogue)
//   quant.duplicate  two step lines share one plan seq (FindSeq resolves to
//                    the first, so the later one is dead weight at best)
#ifndef GMORPH_SRC_QUANT_RECIPE_H_
#define GMORPH_SRC_QUANT_RECIPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/diagnostics.h"
#include "src/quant/qparams.h"

namespace gmorph::quant {

struct StepQuantSpec {
  int64_t seq = -1;
  std::string kind;   // "conv" | "linear"
  std::string label;  // step label, informational (spaces are sanitized)
  ActQuant in_q;
  std::vector<float> w_scales;  // one per output channel
};

struct QuantRecipe {
  std::vector<StepQuantSpec> steps;

  // Spec for a plan step, or nullptr when the step is not quantized.
  const StepQuantSpec* FindSeq(int64_t seq) const;
};

// One step line, both directions. Parse rejects a malformed line with a
// human-readable reason and the rule it breaks (`*rule`, when given:
// quant.zp for an out-of-range zero point, else quant.entry); cross-line
// and value rules (duplicates, scales) belong to the file scan.
bool ParseQuantStepLine(const std::string& line, StepQuantSpec* spec, std::string* error,
                        std::string* rule = nullptr);
std::string FormatQuantStepLine(const StepQuantSpec& spec);

// Whole-file IO. Save is atomic (the tunedb discipline). Load fails (returns
// false) on a missing file, bad header, or any step line that does not parse
// — a recipe drives numerics, so unlike the tunedb nothing is dropped
// silently.
bool SaveQuantRecipe(const QuantRecipe& recipe, const std::string& path, std::string* error);
bool LoadQuantRecipe(const std::string& path, QuantRecipe* recipe, std::string* error);

// The strict lint for `gmorph_cli --verify`: the loader's scan, returning
// every finding as a quant.* diagnostic.
DiagnosticList VerifyQuantRecipeFile(const std::string& path);

}  // namespace gmorph::quant

#endif  // GMORPH_SRC_QUANT_RECIPE_H_
