#include "src/core/graph_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <utility>

#include "src/analysis/graph_verifier.h"

namespace gmorph {
namespace {

constexpr uint64_t kMagic = 0x474d4f5250484731ull;  // "GMORPHG1"

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

void WriteShape(std::ostream& out, const Shape& shape) {
  WritePod(out, static_cast<int64_t>(shape.Rank()));
  for (int64_t d : shape.dims()) {
    WritePod(out, d);
  }
}

void WriteSpec(std::ostream& out, const BlockSpec& spec) {
  WritePod(out, static_cast<int64_t>(spec.type));
  for (int64_t v : {spec.in_channels, spec.out_channels, spec.kernel, spec.stride, spec.padding,
                    spec.pool_kernel, spec.pool_stride, spec.in_features, spec.out_features,
                    spec.dim, spec.heads, spec.mlp_ratio, spec.vocab, spec.seq_len,
                    spec.image_size, spec.patch}) {
    WritePod(out, v);
  }
  WriteShape(out, spec.rescale_in);
  WriteShape(out, spec.rescale_out);
}

// Decoder that accumulates a diagnostic on the first failure and goes inert,
// so the read loop can bail without scattering error construction everywhere.
class Reader {
 public:
  Reader(std::istream& in, DiagnosticList& diags) : in_(in), diags_(diags) {}

  bool failed() const { return failed_; }

  void Fail(const char* rule, const std::string& what) {
    if (!failed_) {
      failed_ = true;
      diags_.Error(rule, "stream") << what;
    }
  }

  template <typename T>
  bool Pod(T& value, const char* what) {
    if (failed_) {
      return false;
    }
    if (!ReadPod(in_, value)) {
      Fail("io.truncated", std::string("stream ended inside ") + what);
      return false;
    }
    return true;
  }

  bool ReadShapeChecked(Shape& shape, const char* what) {
    int64_t rank = 0;
    if (!Pod(rank, what)) {
      return false;
    }
    if (rank < 0 || rank > 8) {
      Fail("io.bounds", std::string(what) + ": shape rank " + std::to_string(rank));
      return false;
    }
    std::vector<int64_t> dims(static_cast<size_t>(rank));
    int64_t elements = 1;
    for (auto& d : dims) {
      // Bound dimensions so corrupted files cannot trigger huge allocations.
      if (!Pod(d, what)) {
        return false;
      }
      if (d < 0 || d > (1 << 24)) {
        Fail("io.bounds", std::string(what) + ": dimension " + std::to_string(d));
        return false;
      }
      elements *= std::max<int64_t>(d, 1);
      if (elements > (int64_t{1} << 28)) {
        Fail("io.bounds", std::string(what) + ": shape exceeds element budget");
        return false;
      }
    }
    shape = Shape(std::move(dims));
    return true;
  }

  bool ReadSpecChecked(BlockSpec& spec) {
    int64_t type = 0;
    if (!Pod(type, "block spec")) {
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
      if (!Pod(*field, "block spec")) {
        return false;
      }
      if (*field < lo || *field > hi) {
        Fail("io.bounds", "block spec: field value " + std::to_string(*field) + " outside [" +
                              std::to_string(lo) + ", " + std::to_string(hi) + "]");
        return false;
      }
    }
    if (spec.type == BlockType::kPatchEmbed && spec.patch < 1) {
      Fail("io.bounds", "block spec: patch embedding with patch size 0");
      return false;
    }
    return ReadShapeChecked(spec.rescale_in, "rescale_in") &&
           ReadShapeChecked(spec.rescale_out, "rescale_out");
  }

 private:
  std::istream& in_;
  DiagnosticList& diags_;
  bool failed_ = false;
};

GraphLoadResult LoadFromStream(std::istream& in) {
  GraphLoadResult result;
  Reader r(in, result.diagnostics);
  uint64_t magic = 0;
  int64_t num_tasks = 0;
  int64_t count = 0;
  if (!r.Pod(magic, "header")) {
    return result;
  }
  if (magic != kMagic) {
    r.Fail("io.magic", "not a GMorph graph file (bad magic)");
    return result;
  }
  if (!r.Pod(num_tasks, "header") || !r.Pod(count, "header")) {
    return result;
  }
  if (count <= 0 || count > (1 << 20)) {
    r.Fail("io.header", "node count " + std::to_string(count) + " out of range");
    return result;
  }
  if (num_tasks < 0 || num_tasks > count) {
    r.Fail("io.header", "num_tasks " + std::to_string(num_tasks) + " impossible for " +
                            std::to_string(count) + " nodes");
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
      r.Fail("io.bounds", "node " + std::to_string(position) + ": id " + std::to_string(id) +
                              " / parent " + std::to_string(parent) + " out of range");
      return result;
    }
    ++position;
    n.id = static_cast<int>(id);
    n.task_id = static_cast<int>(task_id);
    n.op_id = static_cast<int>(op_id);
    n.parent = static_cast<int>(parent);
    if (!r.ReadSpecChecked(n.spec) || !r.ReadShapeChecked(n.input_shape, "input shape") ||
        !r.ReadShapeChecked(n.output_shape, "output shape")) {
      return result;
    }
    int64_t num_children = 0;
    if (!r.Pod(num_children, "child list")) {
      return result;
    }
    if (num_children < 0 || num_children > count) {
      r.Fail("io.bounds", "node " + std::to_string(n.id) + ": child count " +
                              std::to_string(num_children));
      return result;
    }
    for (int64_t i = 0; i < num_children; ++i) {
      int64_t c = 0;
      if (!r.Pod(c, "child list")) {
        return result;
      }
      if (c < 0 || c >= count) {
        r.Fail("io.bounds",
               "node " + std::to_string(n.id) + ": child id " + std::to_string(c));
        return result;
      }
      n.children.push_back(static_cast<int>(c));
    }
    int64_t num_weights = 0;
    if (!r.Pod(num_weights, "weight list")) {
      return result;
    }
    if (num_weights < 0 || num_weights > 64) {
      r.Fail("io.bounds", "node " + std::to_string(n.id) + ": weight count " +
                              std::to_string(num_weights));
      return result;
    }
    for (int64_t i = 0; i < num_weights; ++i) {
      Shape shape;
      if (!r.ReadShapeChecked(shape, "weight shape")) {
        return result;
      }
      Tensor t{shape};
      in.read(reinterpret_cast<char*>(t.data()),
              static_cast<std::streamsize>(t.size() * sizeof(float)));
      if (!in) {
        r.Fail("io.truncated", "stream ended inside weight data");
        return result;
      }
      n.weights.push_back(std::move(t));
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

}  // namespace

GraphLoadResult TryLoadGraph(std::istream& in) {
  return LoadFromStream(in);
}

GraphLoadResult TryLoadGraph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    GraphLoadResult result;
    result.diagnostics.Error("io.open", path) << "cannot open graph file";
    return result;
  }
  return LoadFromStream(in);
}

bool SaveGraph(std::ostream& out, const AbsGraph& graph) {
  if (!out) {
    return false;
  }
  WritePod(out, kMagic);
  WritePod(out, static_cast<int64_t>(graph.num_tasks()));
  WritePod(out, static_cast<int64_t>(graph.size()));
  for (const AbsNode& n : graph.nodes()) {
    WritePod(out, static_cast<int64_t>(n.id));
    WritePod(out, static_cast<int64_t>(n.task_id));
    WritePod(out, static_cast<int64_t>(n.op_id));
    WritePod(out, static_cast<int64_t>(n.parent));
    WritePod(out, n.capacity);
    WriteSpec(out, n.spec);
    WriteShape(out, n.input_shape);
    WriteShape(out, n.output_shape);
    WritePod(out, static_cast<int64_t>(n.children.size()));
    for (int c : n.children) {
      WritePod(out, static_cast<int64_t>(c));
    }
    WritePod(out, static_cast<int64_t>(n.weights.size()));
    for (const Tensor& t : n.weights) {
      WriteShape(out, t.shape());
      out.write(reinterpret_cast<const char*>(t.data()),
                static_cast<std::streamsize>(t.size() * sizeof(float)));
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
