// GraphVerifier: a static-analysis pass over the abstract-graph IR.
//
// Checks any AbsGraph — seed, deserialized, or mutated — against the
// invariants graph mutation and the execution planner rely on, and reports
// each violation as a structured Diagnostic instead of asserting:
//
//   graph.node.index      node/parent/child ids out of range or misnumbered
//   graph.tasks.range     num_tasks inconsistent with the node set
//   graph.root            node 0 is not the placeholder root / extra roots
//   graph.tree.link       parent/children links not mutually consistent
//   graph.tree.reach      node unreachable from the root (orphan or cycle)
//   graph.spec.type       block type outside the BlockType enum
//   graph.shape.edge      node input shape != parent output shape
//   graph.shape.infer     stored output shape disagrees with re-inference
//   graph.capacity.stale  stored capacity disagrees with BlockCapacity(spec)
//   graph.weights.mismatch  carried weights don't add up to the capacity
//   graph.head.count      a task with zero or multiple heads
//   graph.head.task       head task id out of range
//   graph.head.leaf       head with children
//   graph.leaf.dangling   childless non-head internal node
//   graph.rescale.legal   rescale adapter inconsistent or infeasible
//   graph.rescale.identity  identity adapter (warning: wasteful, not wrong)
//   graph.share.dissimilar  adapter between dissimilar shapes (warning: the
//                           search only shares similar shapes, paper §2.2.1)
//   graph.roundtrip       serializer/parser round trip changed the graph
//
// Index-level errors abort the remaining stages (deeper walks would read out
// of bounds); everything else accumulates so one run reports every finding.
#ifndef GMORPH_SRC_ANALYSIS_GRAPH_VERIFIER_H_
#define GMORPH_SRC_ANALYSIS_GRAPH_VERIFIER_H_

#include "src/common/diagnostics.h"
#include "src/core/abs_graph.h"

namespace gmorph {

struct GraphVerifyOptions {
  // Also serialize + reload the graph and compare fingerprints. Copies every
  // weight tensor, so it is off by default for the per-candidate search path;
  // the CLI, fuzzers and tests turn it on.
  bool roundtrip = false;
};

DiagnosticList VerifyGraph(const AbsGraph& graph, const GraphVerifyOptions& options = {});

}  // namespace gmorph

#endif  // GMORPH_SRC_ANALYSIS_GRAPH_VERIFIER_H_
