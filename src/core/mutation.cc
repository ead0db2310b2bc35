#include "src/core/mutation.h"

#include "src/common/check.h"

namespace gmorph {

MutationKind ClassifyMutation(const AbsGraph& g, const SharePair& pair) {
  // In-branch: the pair lies on one root->leaf path (host above guest; the
  // opposite order is structurally invalid).
  return g.IsAncestor(pair.host, pair.guest) ? MutationKind::kInBranch
                                             : MutationKind::kCrossBranch;
}

bool ApplyMutation(AbsGraph& g, const SharePair& pair) {
  if (!PairValid(g, pair, ShapeSimilarity::kAny)) {
    return false;
  }
  const AbsNode& host = g.node(pair.host);
  const AbsNode& guest = g.node(pair.guest);
  const int p = host.parent;
  if (host.input_shape == guest.input_shape) {
    g.Reparent(pair.guest, p);
  } else {
    const int rescale = g.AddNode(p, guest.task_id, guest.op_id,
                                  RescaleSpec(host.input_shape, guest.input_shape));
    g.Reparent(pair.guest, rescale);
  }
  g.GarbageCollect();
  g.Validate();
  return true;
}

std::optional<AbsGraph> MutatePass(const AbsGraph& base, const std::vector<SharePair>& pairs) {
  AbsGraph g = base;
  bool any = false;
  for (const SharePair& pair : pairs) {
    any = ApplyMutation(g, pair) || any;
  }
  if (!any) {
    return std::nullopt;
  }
  return g;
}

std::optional<AbsGraph> SampleMutatePass(const AbsGraph& base, int num_mutations,
                                         ShapeSimilarity mode, Rng& rng) {
  AbsGraph g = base;
  bool any = false;
  for (int i = 0; i < num_mutations; ++i) {
    // Node ids shift after each mutation (garbage collection renumbers), so
    // pairs are re-discovered on the evolving graph.
    const std::vector<SharePair> pairs = FindShareablePairs(g, mode);
    if (pairs.empty()) {
      break;
    }
    const SharePair pick = pairs[static_cast<size_t>(rng.NextInt(static_cast<int>(pairs.size())))];
    any = ApplyMutation(g, pick) || any;
  }
  if (!any) {
    return std::nullopt;
  }
  return g;
}

}  // namespace gmorph
