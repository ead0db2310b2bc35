#include "src/core/graph_io.h"

#include <cstdint>
#include <fstream>
#include <utility>

#include "src/analysis/graph_verifier.h"
#include "src/tensor/serialization.h"

namespace gmorph {
namespace {

constexpr uint64_t kMagic = 0x474d4f5250484731ull;  // "GMORPHG1"

// Graph records report io.* at "stream", also when embedded in a checkpoint.
const BinaryArtifact kGraphStream{"io", "stream", "stream"};

// The fewest bytes a node record takes: five header words, a spec's seventeen
// words and two empty shapes, two empty shapes, and two empty lists.
constexpr uint64_t kMinNodeBytes = (5 + 17 + 2 + 2 + 2) * sizeof(int64_t);

void WriteSpec(BinaryWriter& out, const BlockSpec& spec) {
  out.Int64(static_cast<int64_t>(spec.type));
  for (int64_t v : {spec.in_channels, spec.out_channels, spec.kernel, spec.stride, spec.padding,
                    spec.pool_kernel, spec.pool_stride, spec.in_features, spec.out_features,
                    spec.dim, spec.heads, spec.mlp_ratio, spec.vocab, spec.seq_len,
                    spec.image_size, spec.patch}) {
    out.Int64(v);
  }
  WriteShape(out, spec.rescale_in);
  WriteShape(out, spec.rescale_out);
}

bool ReadSpecChecked(BinaryReader& r, BlockSpec& spec) {
  int64_t type = 0;
  if (!r.Pod(type, "block spec")) {
    return false;
  }
  spec.type = static_cast<BlockType>(type);
  // Bound spec fields so shape inference and capacity counting on a
  // corrupted file can neither overflow int64 nor divide by zero: sizes up
  // to 2^20, window fields up to 2^10, strides (divisors) at least 1.
  constexpr int64_t kSize = int64_t{1} << 20;
  constexpr int64_t kWindow = int64_t{1} << 10;
  const struct {
    int64_t* field;
    int64_t lo;
    int64_t hi;
  } fields[] = {
      {&spec.in_channels, 0, kSize},   {&spec.out_channels, 0, kSize},
      {&spec.kernel, 0, kWindow},      {&spec.stride, 1, kWindow},
      {&spec.padding, 0, kWindow},     {&spec.pool_kernel, 0, kWindow},
      {&spec.pool_stride, 1, kWindow}, {&spec.in_features, 0, kSize},
      {&spec.out_features, 0, kSize},  {&spec.dim, 0, kSize},
      {&spec.heads, 0, kSize},         {&spec.mlp_ratio, 0, kWindow},
      {&spec.vocab, 0, kSize},         {&spec.seq_len, 0, kSize},
      {&spec.image_size, 0, kSize},    {&spec.patch, 0, kWindow},
  };
  for (const auto& [field, lo, hi] : fields) {
    if (!r.Pod(*field, "block spec")) {
      return false;
    }
    if (*field < lo || *field > hi) {
      r.Fail("bounds", "block spec: field value " + std::to_string(*field) + " outside [" +
                           std::to_string(lo) + ", " + std::to_string(hi) + "]");
      return false;
    }
  }
  if (spec.type == BlockType::kPatchEmbed && spec.patch < 1) {
    r.Fail("bounds", "block spec: patch embedding with patch size 0");
    return false;
  }
  return ReadShape(r, spec.rescale_in, "rescale_in") &&
         ReadShape(r, spec.rescale_out, "rescale_out");
}

}  // namespace

GraphLoadResult TryLoadGraph(BinaryReader& outer) {
  GraphLoadResult result;
  BinaryReader r(outer, kGraphStream, result.diagnostics);
  uint64_t magic = 0;
  int64_t num_tasks = 0;
  int64_t count = 0;
  if (!r.Pod(magic, "header")) {
    return result;
  }
  if (magic != kMagic) {
    r.Fail("magic", "not a GMorph graph file (bad magic)");
    return result;
  }
  if (!r.Pod(num_tasks, "header") || !r.Pod(count, "header")) {
    return result;
  }
  if (count <= 0 || count > (1 << 20)) {
    r.Fail("header", "node count " + std::to_string(count) + " out of range");
    return result;
  }
  if (num_tasks < 0 || num_tasks > count) {
    r.Fail("header", "num_tasks " + std::to_string(num_tasks) + " impossible for " +
                         std::to_string(count) + " nodes");
    return result;
  }
  if (!r.Fits(static_cast<uint64_t>(count), kMinNodeBytes, "node list")) {
    return result;
  }
  std::vector<AbsNode> nodes(static_cast<size_t>(count));
  int64_t position = 0;
  for (AbsNode& n : nodes) {
    int64_t id = 0;
    int64_t task_id = 0;
    int64_t op_id = 0;
    int64_t parent = 0;
    if (!r.Pod(id, "node header") || !r.Pod(task_id, "node header") ||
        !r.Pod(op_id, "node header") || !r.Pod(parent, "node header") ||
        !r.Pod(n.capacity, "node header")) {
      return result;
    }
    // Ids/parents must index into the node array or validation below would
    // dereference out of bounds on corrupted input.
    if (id != position || parent < -1 || parent >= count) {
      r.Fail("bounds", "node " + std::to_string(position) + ": id " + std::to_string(id) +
                           " / parent " + std::to_string(parent) + " out of range");
      return result;
    }
    ++position;
    n.id = static_cast<int>(id);
    n.task_id = static_cast<int>(task_id);
    n.op_id = static_cast<int>(op_id);
    n.parent = static_cast<int>(parent);
    if (!ReadSpecChecked(r, n.spec) || !ReadShape(r, n.input_shape, "input shape") ||
        !ReadShape(r, n.output_shape, "output shape")) {
      return result;
    }
    int64_t num_children = 0;
    if (!r.Pod(num_children, "child list")) {
      return result;
    }
    if (num_children < 0 || num_children > count) {
      r.Fail("bounds", "node " + std::to_string(n.id) + ": child count " +
                           std::to_string(num_children));
      return result;
    }
    for (int64_t i = 0; i < num_children; ++i) {
      int64_t c = 0;
      if (!r.Pod(c, "child list")) {
        return result;
      }
      if (c < 0 || c >= count) {
        r.Fail("bounds", "node " + std::to_string(n.id) + ": child id " + std::to_string(c));
        return result;
      }
      n.children.push_back(static_cast<int>(c));
    }
    int64_t num_weights = 0;
    if (!r.Pod(num_weights, "weight list")) {
      return result;
    }
    if (num_weights < 0 || num_weights > 64) {
      r.Fail("bounds", "node " + std::to_string(n.id) + ": weight count " +
                           std::to_string(num_weights));
      return result;
    }
    for (int64_t i = 0; i < num_weights; ++i) {
      if (!ReadTensor(r, n.weights)) {
        return result;
      }
    }
  }
  // Semantic validation goes through the verifier — no partially-initialized
  // graph ever escapes, and the caller gets every finding, not just the first.
  AbsGraph graph = AbsGraph::FromNodesUnchecked(std::move(nodes), static_cast<int>(num_tasks));
  DiagnosticList verdict = VerifyGraph(graph);
  const bool clean = verdict.ok();
  result.diagnostics.Merge(std::move(verdict));
  if (clean) {
    result.graph = std::move(graph);
  }
  return result;
}

GraphLoadResult TryLoadGraph(std::istream& in) {
  DiagnosticList unused;  // the outer reader only measures the stream
  BinaryReader outer(in, kGraphStream, unused);
  return TryLoadGraph(outer);
}

GraphLoadResult TryLoadGraph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    GraphLoadResult result;
    result.diagnostics.Error("io.open", path) << "cannot open graph file";
    return result;
  }
  return TryLoadGraph(in);
}

bool SaveGraph(std::ostream& out, const AbsGraph& graph) {
  BinaryWriter w(out);
  w.Pod(kMagic);
  w.Int64(graph.num_tasks());
  w.Int64(graph.size());
  for (const AbsNode& n : graph.nodes()) {
    w.Int64(n.id);
    w.Int64(n.task_id);
    w.Int64(n.op_id);
    w.Int64(n.parent);
    w.Int64(n.capacity);
    WriteSpec(w, n.spec);
    WriteShape(w, n.input_shape);
    WriteShape(w, n.output_shape);
    w.Int64(static_cast<int64_t>(n.children.size()));
    for (int c : n.children) {
      w.Int64(c);
    }
    w.Int64(static_cast<int64_t>(n.weights.size()));
    for (const Tensor& t : n.weights) {
      WriteTensor(w, t);
    }
  }
  return static_cast<bool>(out);
}

bool SaveGraph(const std::string& path, const AbsGraph& graph) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  return out && SaveGraph(out, graph);
}

bool LoadGraph(const std::string& path, AbsGraph& graph) {
  GraphLoadResult result = TryLoadGraph(path);
  if (!result.ok()) {
    return false;
  }
  graph = std::move(*result.graph);
  return true;
}

}  // namespace gmorph
