// AbsGraph persistence: saves/loads a fused multi-task model (structure +
// trained weights) so search results can be deployed or reloaded later —
// the counterpart of the paper's PyTorch checkpoint output.
//
// Deserialization never constructs a partially-initialized graph: TryLoadGraph
// decodes into a plain node list, then runs the GraphVerifier over the result
// and only returns a graph when it is clean. Failures come back as structured
// diagnostics (io.open / io.magic / io.header / io.truncated / io.bounds for
// decode errors, graph.* for semantic ones), never as a throw or a half-built
// object.
#ifndef GMORPH_SRC_CORE_GRAPH_IO_H_
#define GMORPH_SRC_CORE_GRAPH_IO_H_

#include <iosfwd>
#include <optional>
#include <string>

#include "src/common/binary_io.h"
#include "src/common/diagnostics.h"
#include "src/core/abs_graph.h"

namespace gmorph {

struct GraphLoadResult {
  std::optional<AbsGraph> graph;  // engaged only when diagnostics has no errors
  DiagnosticList diagnostics;
  bool ok() const { return graph.has_value(); }
};

GraphLoadResult TryLoadGraph(std::istream& in);
GraphLoadResult TryLoadGraph(const std::string& path);
// A graph record embedded in another binary format, within `outer`'s bytes.
GraphLoadResult TryLoadGraph(BinaryReader& outer);

bool SaveGraph(std::ostream& out, const AbsGraph& graph);
bool SaveGraph(const std::string& path, const AbsGraph& graph);

// Compatibility wrapper over TryLoadGraph; returns false on any diagnostic
// error and leaves `graph` untouched in that case.
bool LoadGraph(const std::string& path, AbsGraph& graph);

}  // namespace gmorph

#endif  // GMORPH_SRC_CORE_GRAPH_IO_H_
