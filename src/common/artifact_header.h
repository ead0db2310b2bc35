// Shared "gmorph-<kind> vN" header discipline for every text artifact the
// project persists (plans, tuning DBs, quant recipes, eval-cache indexes,
// search checkpoints). Each subsystem used to hand-roll the same three-way
// check (missing header / wrong kind / wrong version) in both its loader and
// its linter; routing all of them through this helper means the two can never
// drift, and the CLI can sniff any artifact's kind from its first line.
#ifndef GMORPH_SRC_COMMON_ARTIFACT_HEADER_H_
#define GMORPH_SRC_COMMON_ARTIFACT_HEADER_H_

#include <string>
#include <string_view>

namespace gmorph {

// Identity of one artifact format. `kind` is the full header word including
// the "gmorph-" prefix (e.g. "gmorph-tunedb"); `version` is the supported
// on-disk revision.
struct ArtifactHeaderSpec {
  const char* kind;
  int version;
};

// The canonical artifacts; writers emit ArtifactHeaderLine(<spec>).
inline constexpr ArtifactHeaderSpec kPlanArtifact{"gmorph-plan", 1};
inline constexpr ArtifactHeaderSpec kTuneDbArtifact{"gmorph-tunedb", 1};
inline constexpr ArtifactHeaderSpec kQuantRecipeArtifact{"gmorph-quant", 1};
inline constexpr ArtifactHeaderSpec kEvalCacheArtifact{"gmorph-evalcache", 1};
inline constexpr ArtifactHeaderSpec kCheckpointArtifact{"gmorph-checkpoint", 1};
inline constexpr ArtifactHeaderSpec kMachineArtifact{"gmorph-machine", 1};

// "gmorph-tunedb v1" — what writers emit as the first line.
std::string ArtifactHeaderLine(const ArtifactHeaderSpec& spec);

enum class HeaderCheck {
  kOk,            // exact header line for this spec
  kMissing,       // does not start with the spec's kind word
  kWrongVersion,  // right kind, unsupported version (or malformed version)
};

// Classifies a first line against one spec. The kind word must be followed by
// end-of-line or whitespace, so "gmorph-plan2 v1" is kMissing, not a version
// error for "gmorph-plan".
HeaderCheck CheckArtifactHeaderLine(std::string_view line, const ArtifactHeaderSpec& spec);

// Generic sniffing: splits any "gmorph-<kind> v<N>" first line into its kind
// word and version. Returns false when the line is not a gmorph artifact
// header at all. Trailing content after the version token is tolerated (the
// per-spec check above is the strict one).
bool ParseArtifactHeaderLine(std::string_view line, std::string* kind, int* version);

}  // namespace gmorph

#endif  // GMORPH_SRC_COMMON_ARTIFACT_HEADER_H_
