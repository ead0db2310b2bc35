// Graph mutation (paper §4.3.2-4.3.3).
//
// All five paper mutation operations reduce to one primitive — "guest reuses
// host's input" — applied at different relative positions: re-parent the
// guest under the host's parent, inserting a rescale adapter when the shapes
// differ, then garbage-collect the guest's dead former ancestors. In-branch
// mutation (panel 1) is the case where the host is an ancestor of the guest;
// the four cross-branch panels are host/guest order combinations across
// branches.
#ifndef GMORPH_SRC_CORE_MUTATION_H_
#define GMORPH_SRC_CORE_MUTATION_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/abs_graph.h"
#include "src/core/shareable.h"

namespace gmorph {

enum class MutationKind { kInBranch, kCrossBranch };

// Classifies a (valid) pair before it is applied.
MutationKind ClassifyMutation(const AbsGraph& g, const SharePair& pair);

// Applies one mutation in place. Returns false (graph untouched) if the pair
// is invalid for this graph. The graph is validated after the mutation.
bool ApplyMutation(AbsGraph& g, const SharePair& pair);

// Applies a sequence of pairs to a copy of `base` (a graph mutation pass,
// Fig. 6). Pairs that became invalid after earlier mutations are skipped.
// Returns std::nullopt if no pair could be applied.
std::optional<AbsGraph> MutatePass(const AbsGraph& base, const std::vector<SharePair>& pairs);

// Samples and applies up to `num_mutations` random valid pairs under the
// given similarity mode, re-discovering pairs after each application (ids
// shift when garbage collection renumbers nodes). Needs common/rng.
std::optional<AbsGraph> SampleMutatePass(const AbsGraph& base, int num_mutations,
                                         ShapeSimilarity mode, Rng& rng);

}  // namespace gmorph

#endif  // GMORPH_SRC_CORE_MUTATION_H_
