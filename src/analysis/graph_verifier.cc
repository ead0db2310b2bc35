#include "src/analysis/graph_verifier.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "src/core/graph_io.h"
#include "src/core/shareable.h"
#include "src/models/model_spec.h"

namespace gmorph {
namespace {

bool SpecTypeValid(const BlockSpec& spec) {
  const int t = static_cast<int>(spec.type);
  return t >= 0 && t <= static_cast<int>(BlockType::kRescale);
}

std::string NodePath(const AbsGraph& g, int id) {
  std::ostringstream os;
  os << "node " << id;
  if (id < 0 || id >= g.size()) {
    return os.str();
  }
  const AbsNode& n = g.node(id);
  if (n.IsRoot()) {
    os << " [root]";
  } else if (SpecTypeValid(n.spec)) {
    os << " [t" << n.task_id << ".op" << n.op_id << " " << BlockTypeName(n.spec.type) << "]";
  }
  return os.str();
}

// Stage 1: every id must index into the node array before any walk is safe.
bool CheckIndices(const AbsGraph& g, DiagnosticList& diags) {
  if (g.size() == 0) {
    diags.Error("graph.root", "graph") << "graph has no nodes";
    return false;
  }
  if (g.num_tasks() < 0 || g.num_tasks() > g.size()) {
    diags.Error("graph.tasks.range", "graph")
        << "num_tasks " << g.num_tasks() << " impossible for " << g.size() << " nodes";
    return false;
  }
  bool ok = true;
  for (int id = 0; id < g.size(); ++id) {
    const AbsNode& n = g.node(id);
    if (n.id != id) {
      diags.Error("graph.node.index", NodePath(g, id))
          << "node stores id " << n.id << " but sits at index " << id;
      ok = false;
    }
    if (n.parent < -1 || n.parent >= g.size() || n.parent == id) {
      diags.Error("graph.node.index", NodePath(g, id)) << "parent id " << n.parent
                                                       << " out of range";
      ok = false;
    }
    for (int c : n.children) {
      if (c < 0 || c >= g.size() || c == id) {
        diags.Error("graph.node.index", NodePath(g, id)) << "child id " << c << " out of range";
        ok = false;
      }
    }
  }
  return ok;
}

// Stage 2: tree structure — one root, consistent links, full reachability.
void CheckStructure(const AbsGraph& g, DiagnosticList& diags) {
  if (!g.node(0).IsRoot()) {
    diags.Error("graph.root", NodePath(g, 0))
        << "node 0 must be the input placeholder (parent -1, op -1)";
  }
  for (int id = 1; id < g.size(); ++id) {
    const AbsNode& n = g.node(id);
    if (n.parent == -1) {
      diags.Error("graph.root", NodePath(g, id)) << "secondary root: non-zero node without parent";
      continue;
    }
    const AbsNode& p = g.node(n.parent);
    const auto count = std::count(p.children.begin(), p.children.end(), id);
    if (count != 1) {
      diags.Error("graph.tree.link", NodePath(g, id))
          << "listed " << count << " times in children of parent " << n.parent;
    }
  }
  for (int id = 0; id < g.size(); ++id) {
    for (int c : g.node(id).children) {
      if (g.node(c).parent != id) {
        diags.Error("graph.tree.link", NodePath(g, id))
            << "lists child " << c << " whose parent field is " << g.node(c).parent;
      }
    }
  }
  // TopologicalOrder's visited guard terminates even on cyclic link structures;
  // anything it misses is orphaned or on a cycle.
  std::vector<bool> reached(static_cast<size_t>(g.size()), false);
  for (int id : g.TopologicalOrder()) {
    reached[static_cast<size_t>(id)] = true;
  }
  for (int id = 0; id < g.size(); ++id) {
    if (!reached[static_cast<size_t>(id)]) {
      diags.Error("graph.tree.reach", NodePath(g, id)) << "unreachable from the root";
    }
  }
}

// Stage 3: per-node semantics — shapes, capacities, heads, adapters.
void CheckNodes(const AbsGraph& g, DiagnosticList& diags) {
  std::vector<int> heads(static_cast<size_t>(g.num_tasks()), 0);
  for (int id = 0; id < g.size(); ++id) {
    const AbsNode& n = g.node(id);
    const std::string path = NodePath(g, id);
    if (n.IsRoot()) {
      if (n.input_shape != n.output_shape) {
        diags.Error("graph.shape.infer", path) << "root input/output shapes differ";
      }
      continue;
    }
    if (!SpecTypeValid(n.spec)) {
      diags.Error("graph.spec.type", path)
          << "block type " << static_cast<int>(n.spec.type) << " outside the BlockType enum";
      continue;  // nothing below is meaningful for an unknown block
    }
    if (n.parent >= 0 && g.node(n.parent).output_shape != n.input_shape) {
      diags.Error("graph.shape.edge", path)
          << "consumes " << n.input_shape.ToString() << " but parent " << n.parent
          << " produces " << g.node(n.parent).output_shape.ToString();
    }
    // Full shape re-inference: the stored output shape must match what the
    // spec produces from the stored input shape.
    try {
      const Shape inferred = BlockOutShape(n.spec, n.input_shape);
      if (inferred != n.output_shape) {
        diags.Error("graph.shape.infer", path)
            << "stored output " << n.output_shape.ToString() << " but " << n.spec.ToString()
            << " infers " << inferred.ToString() << " from " << n.input_shape.ToString();
      }
    } catch (const CheckError& e) {
      Diagnostic d = Diagnostic::FromCheckError(e);
      diags.Error("graph.shape.infer", path) << "shape inference failed: " << d.message;
    }
    try {
      const int64_t capacity = BlockCapacity(n.spec);
      if (capacity != n.capacity) {
        diags.Error("graph.capacity.stale", path)
            << "stored capacity " << n.capacity << " but spec has " << capacity;
      }
      if (!n.weights.empty()) {
        // Module::ImportParameters takes the parameters alone or followed
        // by the buffers (BatchNorm running statistics).
        int64_t total = 0;
        for (const Tensor& w : n.weights) {
          total += w.size();
        }
        const int64_t buffers = BlockBufferElements(n.spec);
        if (total != capacity && total != capacity + buffers) {
          DiagnosticBuilder d = diags.Error("graph.weights.mismatch", path);
          d << "carries " << total << " weight elements for capacity " << capacity;
          if (buffers > 0) {
            d << " (" << capacity + buffers << " with its buffers)";
          }
        }
      }
    } catch (const CheckError& e) {
      Diagnostic d = Diagnostic::FromCheckError(e);
      diags.Error("graph.capacity.stale", path) << "capacity computation failed: " << d.message;
    }
    if (n.IsHead()) {
      if (n.task_id < 0 || n.task_id >= g.num_tasks()) {
        diags.Error("graph.head.task", path) << "task id " << n.task_id << " out of range";
      } else {
        ++heads[static_cast<size_t>(n.task_id)];
      }
      if (!n.children.empty()) {
        diags.Error("graph.head.leaf", path) << "head has " << n.children.size() << " children";
      }
    } else if (n.children.empty()) {
      diags.Error("graph.leaf.dangling", path) << "childless non-head node (dead branch)";
    }
    if (n.spec.type == BlockType::kRescale) {
      // Rescale-adapter legality at sharing points: the adapter's declared
      // shapes must match its edges and be mappable (same rank 2 or 3).
      if (n.spec.rescale_in != n.input_shape || n.spec.rescale_out != n.output_shape) {
        diags.Error("graph.rescale.legal", path)
            << "adapter declares " << n.spec.rescale_in.ToString() << "->"
            << n.spec.rescale_out.ToString() << " but edges carry "
            << n.input_shape.ToString() << "->" << n.output_shape.ToString();
      } else if (!RescaleFeasible(n.spec.rescale_in, n.spec.rescale_out)) {
        diags.Error("graph.rescale.legal", path)
            << "no adapter can map " << n.spec.rescale_in.ToString() << " to "
            << n.spec.rescale_out.ToString();
      } else if (n.spec.rescale_in == n.spec.rescale_out) {
        diags.Warning("graph.rescale.identity", path)
            << "identity adapter (legal but wasteful; mutation should reparent directly)";
      } else if (!ShapesSimilar(n.spec.rescale_in, n.spec.rescale_out)) {
        diags.Warning("graph.share.dissimilar", path)
            << "adapter bridges dissimilar shapes " << n.spec.rescale_in.ToString() << " and "
            << n.spec.rescale_out.ToString() << "; the search only shares similar shapes";
      }
    }
  }
  for (int t = 0; t < g.num_tasks(); ++t) {
    if (heads[static_cast<size_t>(t)] != 1) {
      diags.Error("graph.head.count", "graph")
          << "task " << t << " has " << heads[static_cast<size_t>(t)] << " heads";
    }
  }
}

void CheckRoundTrip(const AbsGraph& g, DiagnosticList& diags) {
  std::stringstream buffer;
  if (!SaveGraph(buffer, g)) {
    diags.Error("graph.roundtrip", "graph") << "serializer rejected the graph";
    return;
  }
  GraphLoadResult reloaded = TryLoadGraph(buffer);
  if (!reloaded.ok()) {
    diags.Error("graph.roundtrip", "graph")
        << "reload of serialized graph failed: "
        << (reloaded.diagnostics.empty() ? std::string("no diagnostics")
                                         : reloaded.diagnostics.items().front().ToString());
    return;
  }
  if (reloaded.graph->num_tasks() != g.num_tasks() ||
      reloaded.graph->Fingerprint() != g.Fingerprint()) {
    diags.Error("graph.roundtrip", "graph")
        << "round trip changed the graph (fingerprint or task count mismatch)";
  }
}

}  // namespace

DiagnosticList VerifyGraph(const AbsGraph& graph, const GraphVerifyOptions& options) {
  DiagnosticList diags;
  if (!CheckIndices(graph, diags)) {
    return diags;  // deeper walks would index out of bounds
  }
  CheckStructure(graph, diags);
  CheckNodes(graph, diags);
  if (options.roundtrip && diags.ok()) {
    CheckRoundTrip(graph, diags);
  }
  return diags;
}

}  // namespace gmorph
