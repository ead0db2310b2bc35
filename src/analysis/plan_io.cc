#include "src/analysis/plan_io.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/artifact_header.h"
#include "src/common/text_artifact.h"

namespace gmorph {
namespace {

std::optional<PlanOp> PlanOpFromName(std::string_view name) {
  for (PlanOp op : {PlanOp::kConv, PlanOp::kLinear, PlanOp::kMaxPool, PlanOp::kGlobalAvgPool,
                    PlanOp::kMeanPoolTokens, PlanOp::kBilinearResize, PlanOp::kTokenResize,
                    PlanOp::kLayerNorm, PlanOp::kAttention, PlanOp::kPatchTokens,
                    PlanOp::kEmbedding}) {
    if (PlanOpName(op) == name) {
      return op;
    }
  }
  return std::nullopt;
}

std::string ShapeToken(const Shape& shape) {
  if (shape.Rank() == 0) {
    return "scalar";
  }
  std::ostringstream os;
  for (int i = 0; i < shape.Rank(); ++i) {
    os << (i ? "x" : "") << shape[i];
  }
  return os.str();
}

bool ParseShapeToken(std::string_view token, Shape& shape) {
  if (token == "scalar") {
    shape = Shape{};
    return true;
  }
  std::vector<int64_t> dims;
  while (true) {
    const size_t x = token.find('x');
    int64_t dim = 0;
    if (dims.size() == 8 || !ParseNumber(token.substr(0, x), &dim)) {
      return false;
    }
    dims.push_back(dim);
    if (x == std::string_view::npos) {
      break;
    }
    token.remove_prefix(x + 1);
  }
  shape = Shape(std::move(dims));
  return true;
}

using Tokens = std::vector<std::string_view>;

class Parser {
 public:
  PlanParseResult Run(std::istream& in) {
    std::string line;
    int lineno = 0;
    bool saw_header = false;
    while (std::getline(in, line)) {
      ++lineno;
      const size_t hash = line.find('#');
      if (hash != std::string::npos) {
        line.resize(hash);
      }
      const Tokens tokens = SplitTokens(line);
      if (tokens.empty()) {
        continue;
      }
      const std::string_view kw = tokens[0];
      if (!saw_header) {
        std::string header(kw);
        if (tokens.size() > 1) {
          header.append(" ").append(tokens[1]);
        }
        if (CheckArtifactHeaderLine(header, kPlanArtifact) != HeaderCheck::kOk) {
          Err(lineno) << "expected header '" << ArtifactHeaderLine(kPlanArtifact) << "'";
          return std::move(result_);
        }
        saw_header = true;
        continue;
      }
      if (kw == "value") {
        ParseValue(tokens, lineno);
      } else if (kw == "step") {
        ParseStep(tokens, lineno);
      } else if (kw == "group") {
        ParseGroup(tokens, lineno);
      } else if (kw == "buffer") {
        ParseBuffer(tokens, lineno);
      } else if (kw == "head") {
        int v = -1;
        if (tokens.size() < 2 || !ParseNumber(tokens[1], &v)) {
          Err(lineno) << "head needs a value id";
        } else {
          result_.plan.head_values.push_back(v);
        }
      } else {
        Err(lineno) << "unknown directive '" << kw << "'";
      }
    }
    if (!saw_header) {
      result_.diagnostics.Error("plan.io.header", "plan") << "empty input (no header line)";
      return std::move(result_);
    }
    Finish();
    return std::move(result_);
  }

 private:
  DiagnosticBuilder Err(int lineno) {
    return result_.diagnostics.Error("plan.io.parse", "line " + std::to_string(lineno));
  }

  // Ids must arrive dense so a typo'd id is a parse error, not a silent gap.
  template <typename T>
  bool Place(std::vector<T>& vec, int64_t id, int lineno, const char* what, T&& item) {
    if (id != static_cast<int64_t>(vec.size())) {
      Err(lineno) << what << " id " << id << " out of order (expected " << vec.size() << ")";
      return false;
    }
    vec.push_back(std::move(item));
    return true;
  }

  // The id after a directive keyword; false when absent or not a number.
  static bool ParseId(const Tokens& tokens, int64_t* id) {
    return tokens.size() >= 2 && ParseNumber(tokens[1], id);
  }

  void ParseValue(const Tokens& tokens, int lineno) {
    int64_t id = -1;
    if (!ParseId(tokens, &id)) {
      Err(lineno) << "value needs an id";
      return;
    }
    PlanValue v;
    bool have_shape = false;
    for (size_t i = 2; i < tokens.size(); ++i) {
      const Field f = SplitField(tokens[i]);
      if (f.key == "shape" && ParseShapeToken(f.value, v.shape)) {
        have_shape = true;
      } else if (f.key == "alias" && ParseNumber(f.value, &v.alias_of)) {
      } else if (f.key == "buffer" && ParseNumber(f.value, &v.buffer)) {
      } else if (f.key == "head" && f.value.empty()) {
        v.is_head = true;
      } else if (f.key == "dtype") {
        // Optional storage dtype; absent means f32 (all pre-dtype plans).
        if (!kernels::DTypeFromName(f.value, &v.dtype)) {
          Err(lineno) << "unknown dtype '" << f.value << "'";
          return;
        }
      } else {
        Err(lineno) << "bad value field '" << f.key << (f.value.empty() ? "" : "=") << f.value
                    << "'";
        return;
      }
    }
    if (!have_shape) {
      Err(lineno) << "value " << id << " missing shape=";
      return;
    }
    Place(result_.plan.values, id, lineno, "value", std::move(v));
  }

  void ParseStep(const Tokens& tokens, int lineno) {
    int64_t seq = -1;
    if (!ParseId(tokens, &seq)) {
      Err(lineno) << "step needs a sequence number";
      return;
    }
    PlanStep s;
    bool have_kind = false;
    bool have_in = false;
    bool have_out = false;
    for (size_t i = 2; i < tokens.size(); ++i) {
      const Field f = SplitField(tokens[i]);
      if (f.key == "kind") {
        if (auto op = PlanOpFromName(f.value)) {
          s.kind = *op;
          have_kind = true;
        } else {
          Err(lineno) << "unknown step kind '" << f.value << "'";
          return;
        }
      } else if (f.key == "group" && ParseNumber(f.value, &s.group)) {
      } else if (f.key == "in" && ParseNumber(f.value, &s.in0)) {
        have_in = true;
      } else if (f.key == "out" && ParseNumber(f.value, &s.out)) {
        have_out = true;
      } else if (f.key == "skip" && ParseNumber(f.value, &s.skip)) {
      } else if (f.key == "node" && ParseNumber(f.value, &s.node)) {
      } else if (f.key == "w" && ParseShapeToken(f.value, s.weight_shape)) {
      } else if (f.key == "stride" && ParseNumber(f.value, &s.stride)) {
      } else if (f.key == "pad" && ParseNumber(f.value, &s.padding)) {
      } else if (f.key == "pool_k" && ParseNumber(f.value, &s.pool_kernel)) {
      } else if (f.key == "pool_s" && ParseNumber(f.value, &s.pool_stride)) {
      } else if (f.key == "heads" && ParseNumber(f.value, &s.heads)) {
      } else if (f.key == "label") {
        s.label = f.value;
      } else if (f.key == "solver" && !f.value.empty()) {
        s.solver = f.value;
      } else if (f.key == "dtype") {
        // Optional: plans written before quantization carry no token and
        // default to f32.
        if (!kernels::DTypeFromName(f.value, &s.dtype)) {
          Err(lineno) << "unknown dtype '" << f.value << "'";
          return;
        }
      } else if (f.key == "relu" && f.value.empty()) {
        s.act = Activation::kRelu;
      } else if (f.key == "gelu" && f.value.empty()) {
        s.act = Activation::kGelu;
      } else {
        Err(lineno) << "bad step field '" << f.key << (f.value.empty() ? "" : "=") << f.value
                    << "'";
        return;
      }
    }
    if (!have_kind || !have_in || !have_out) {
      Err(lineno) << "step " << seq << " needs kind=, in= and out=";
      return;
    }
    Place(result_.plan.steps, seq, lineno, "step", std::move(s));
  }

  void ParseGroup(const Tokens& tokens, int lineno) {
    int64_t id = -1;
    if (!ParseId(tokens, &id)) {
      Err(lineno) << "group needs an id";
      return;
    }
    PlanGroup g;
    for (size_t i = 2; i < tokens.size(); ++i) {
      const Field f = SplitField(tokens[i]);
      if (f.key == "parent" && ParseNumber(f.value, &g.parent)) {
      } else {
        Err(lineno) << "bad group field '" << f.key << "'";
        return;
      }
    }
    Place(result_.plan.groups, id, lineno, "group", std::move(g));
  }

  void ParseBuffer(const Tokens& tokens, int lineno) {
    int64_t id = -1;
    if (!ParseId(tokens, &id)) {
      Err(lineno) << "buffer needs an id";
      return;
    }
    PlanBuffer b;
    bool have_elems = false;
    for (size_t i = 2; i < tokens.size(); ++i) {
      const Field f = SplitField(tokens[i]);
      if (f.key == "elems" && ParseNumber(f.value, &b.elems_per_sample)) {
        have_elems = true;
      } else if (f.key == "dedicated" && f.value.empty()) {
        b.reusable = false;
      } else {
        Err(lineno) << "bad buffer field '" << f.key << "'";
        return;
      }
    }
    if (!have_elems) {
      Err(lineno) << "buffer " << id << " missing elems=";
      return;
    }
    Place(result_.plan.buffers, id, lineno, "buffer", std::move(b));
  }

  // Derive group step lists and child links from the steps' own fields, so a
  // hand-written file cannot declare lists that contradict them.
  void Finish() {
    PlanIR& plan = result_.plan;
    if (plan.groups.empty() && !plan.steps.empty()) {
      plan.groups.push_back(PlanGroup{});  // implicit root group
    }
    const int num_groups = static_cast<int>(plan.groups.size());
    for (int s = 0; s < static_cast<int>(plan.steps.size()); ++s) {
      const int g = plan.steps[static_cast<size_t>(s)].group;
      if (g >= 0 && g < num_groups) {
        plan.groups[static_cast<size_t>(g)].steps.push_back(s);
      }
      // Out-of-range groups are left for the verifier to report.
    }
    for (int g = 1; g < num_groups; ++g) {
      const int p = plan.groups[static_cast<size_t>(g)].parent;
      if (p >= 0 && p < num_groups && p != g) {
        plan.groups[static_cast<size_t>(p)].children.push_back(g);
      }
    }
  }

  PlanParseResult result_;
};

}  // namespace

PlanParseResult ParsePlanText(std::istream& in) {
  return Parser().Run(in);
}

PlanParseResult ParsePlanTextFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    PlanParseResult result;
    result.diagnostics.Error("plan.io.open", path) << "cannot open plan file";
    return result;
  }
  return ParsePlanText(in);
}

void PlanToText(const PlanIR& plan, std::ostream& out) {
  out << ArtifactHeaderLine(kPlanArtifact) << "\n";
  for (size_t v = 0; v < plan.values.size(); ++v) {
    const PlanValue& val = plan.values[v];
    out << "value " << v << " shape=" << ShapeToken(val.shape);
    if (val.alias_of >= 0) {
      out << " alias=" << val.alias_of;
    }
    if (val.is_head) {
      out << " head";
    }
    if (val.buffer >= 0) {
      out << " buffer=" << val.buffer;
    }
    if (val.dtype != kernels::DType::kF32) {
      out << " dtype=" << kernels::DTypeName(val.dtype);
    }
    out << "\n";
  }
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    out << "group " << g << " parent=" << plan.groups[g].parent << "\n";
  }
  for (size_t b = 0; b < plan.buffers.size(); ++b) {
    const PlanBuffer& buf = plan.buffers[b];
    out << "buffer " << b << " elems=" << buf.elems_per_sample;
    if (!buf.reusable) {
      out << " dedicated";
    }
    out << "\n";
  }
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const PlanStep& step = plan.steps[s];
    out << "step " << s << " group=" << step.group << " kind=" << PlanOpName(step.kind)
        << " in=" << step.in0 << " out=" << step.out;
    if (step.skip >= 0) {
      out << " skip=" << step.skip;
    }
    if (step.node >= 0) {
      out << " node=" << step.node;
    }
    if (!step.label.empty()) {
      std::string label = step.label;  // the format is whitespace-delimited
      std::replace(label.begin(), label.end(), ' ', '_');
      out << " label=" << label;
    }
    if (step.weight_shape.Rank() > 0) {
      out << " w=" << ShapeToken(step.weight_shape);
    }
    if (step.kind == PlanOp::kConv) {
      out << " stride=" << step.stride << " pad=" << step.padding;
    }
    if (step.kind == PlanOp::kMaxPool) {
      out << " pool_k=" << step.pool_kernel << " pool_s=" << step.pool_stride;
    }
    if (step.kind == PlanOp::kAttention) {
      out << " heads=" << step.heads;
    }
    if (!step.solver.empty()) {
      out << " solver=" << step.solver;  // registry names contain no spaces
    }
    if (step.dtype != kernels::DType::kF32) {
      out << " dtype=" << kernels::DTypeName(step.dtype);
    }
    if (step.act == Activation::kRelu) {
      out << " relu";
    } else if (step.act == Activation::kGelu) {
      out << " gelu";
    }
    out << "\n";
  }
  for (int hv : plan.head_values) {
    out << "head " << hv << "\n";
  }
}

}  // namespace gmorph
