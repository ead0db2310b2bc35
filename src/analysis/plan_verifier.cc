#include "src/analysis/plan_verifier.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/kernels/registry.h"

namespace gmorph {
namespace {

// An event in the symbolic execution: step sequence number + group.
struct Event {
  int seq = -1;
  int group = 0;
};

class PlanChecker {
 public:
  explicit PlanChecker(const PlanIR& plan) : plan_(plan) {}

  DiagnosticList Run() {
    if (!CheckIndices()) {
      return std::move(diags_);
    }
    ResolveAliases();
    CheckGroups();
    CollectDefsAndUses();
    CheckRaces();
    CheckShapes();
    CheckSolvers();
    CheckBuffers();
    return std::move(diags_);
  }

 private:
  int V() const { return static_cast<int>(plan_.values.size()); }
  int S() const { return static_cast<int>(plan_.steps.size()); }
  int G() const { return static_cast<int>(plan_.groups.size()); }
  int B() const { return static_cast<int>(plan_.buffers.size()); }

  // ---- Stage 1: id ranges --------------------------------------------------
  bool CheckIndices() {
    bool ok = true;
    if (plan_.values.empty()) {
      diags_.Error("plan.value.index", "plan") << "plan has no values (missing input value 0)";
      return false;
    }
    if (plan_.groups.empty()) {
      diags_.Error("plan.group.index", "plan") << "plan has no groups (missing root group 0)";
      return false;
    }
    for (int v = 0; v < V(); ++v) {
      const PlanValue& val = plan_.values[static_cast<size_t>(v)];
      if (val.alias_of < -1 || val.alias_of >= V() || val.alias_of == v) {
        diags_.Error("plan.value.index", ValuePath(v)) << "alias target " << val.alias_of
                                                       << " out of range";
        ok = false;
      }
      if (val.buffer < -1 || val.buffer >= B()) {
        diags_.Error("plan.buffer.index", ValuePath(v)) << "buffer " << val.buffer
                                                        << " out of range";
        ok = false;
      }
    }
    for (int s = 0; s < S(); ++s) {
      const PlanStep& step = plan_.steps[static_cast<size_t>(s)];
      if (step.in0 < 0 || step.in0 >= V() || step.out < 0 || step.out >= V() ||
          step.skip < -1 || step.skip >= V()) {
        diags_.Error("plan.step.index", StepPath(plan_, s)) << "value operand out of range";
        ok = false;
      }
      if (step.group < 0 || step.group >= G()) {
        diags_.Error("plan.group.index", StepPath(plan_, s)) << "group " << step.group
                                                             << " out of range";
        ok = false;
      }
    }
    for (int g = 0; g < G(); ++g) {
      const PlanGroup& grp = plan_.groups[static_cast<size_t>(g)];
      if (grp.parent < -1 || grp.parent >= G() || grp.parent == g) {
        diags_.Error("plan.group.index", "group " + std::to_string(g))
            << "parent " << grp.parent << " out of range";
        ok = false;
      }
      for (int s : grp.steps) {
        if (s < 0 || s >= S()) {
          diags_.Error("plan.step.index", "group " + std::to_string(g))
              << "step id " << s << " out of range";
          ok = false;
        }
      }
      for (int c : grp.children) {
        if (c <= 0 || c >= G()) {
          diags_.Error("plan.group.index", "group " + std::to_string(g))
              << "child group " << c << " out of range";
          ok = false;
        }
      }
    }
    for (int hv : plan_.head_values) {
      if (hv < 0 || hv >= V()) {
        diags_.Error("plan.value.index", "plan") << "head value " << hv << " out of range";
        ok = false;
      }
    }
    return ok;
  }

  // ---- Stage 2: alias resolution -------------------------------------------
  void ResolveAliases() {
    root_.assign(static_cast<size_t>(V()), -1);
    for (int v = 0; v < V(); ++v) {
      int cur = v;
      int hops = 0;
      while (plan_.values[static_cast<size_t>(cur)].alias_of >= 0 && hops <= V()) {
        cur = plan_.values[static_cast<size_t>(cur)].alias_of;
        ++hops;
      }
      if (hops > V()) {
        diags_.Error("plan.alias.cycle", ValuePath(v)) << "alias chain never terminates";
        continue;
      }
      root_[static_cast<size_t>(v)] = cur;
      const PlanValue& val = plan_.values[static_cast<size_t>(v)];
      if (val.alias_of >= 0) {
        const PlanValue& rv = plan_.values[static_cast<size_t>(cur)];
        if (val.shape.NumElements() != rv.shape.NumElements()) {
          diags_.Error("plan.alias.shape", ValuePath(v))
              << "reshapes " << rv.shape.ToString() << " (" << rv.shape.NumElements()
              << " elems) to " << val.shape.ToString() << " (" << val.shape.NumElements()
              << " elems)";
        }
        if (val.buffer >= 0) {
          diags_.Error("plan.buffer.alias", ValuePath(v))
              << "alias must not own a buffer (shares its root's)";
        }
      }
    }
  }

  // ---- Stage 3: group tree + execution-order consistency -------------------
  void CheckGroups() {
    if (plan_.groups[0].parent != -1) {
      diags_.Error("plan.group.tree", "group 0") << "root group must have no parent";
    }
    group_depth_ok_.assign(static_cast<size_t>(G()), true);
    for (int g = 1; g < G(); ++g) {
      if (plan_.groups[static_cast<size_t>(g)].parent < 0) {
        diags_.Error("plan.group.tree", "group " + std::to_string(g))
            << "non-root group without parent";
        group_depth_ok_[static_cast<size_t>(g)] = false;
        continue;
      }
      // Cycle detection: the parent chain must reach group 0 within G hops.
      int cur = g;
      int hops = 0;
      while (cur > 0 && hops <= G()) {
        cur = plan_.groups[static_cast<size_t>(cur)].parent;
        if (cur < 0) {
          break;
        }
        ++hops;
      }
      if (hops > G()) {
        diags_.Error("plan.group.tree", "group " + std::to_string(g))
            << "parent chain never reaches group 0";
        group_depth_ok_[static_cast<size_t>(g)] = false;
      }
    }
    // parent/children link consistency.
    for (int g = 1; g < G(); ++g) {
      const int p = plan_.groups[static_cast<size_t>(g)].parent;
      if (p < 0 || p >= G()) {
        continue;
      }
      const auto& kids = plan_.groups[static_cast<size_t>(p)].children;
      if (std::count(kids.begin(), kids.end(), g) != 1) {
        diags_.Error("plan.group.tree", "group " + std::to_string(g))
            << "not listed exactly once in children of parent " << p;
      }
    }
    // Step membership: each step in exactly the group it names.
    std::vector<int> owner(static_cast<size_t>(S()), -1);
    for (int g = 0; g < G(); ++g) {
      int prev = -1;
      for (int s : plan_.groups[static_cast<size_t>(g)].steps) {
        if (s < 0 || s >= S()) {
          continue;  // reported in stage 1
        }
        if (owner[static_cast<size_t>(s)] != -1) {
          diags_.Error("plan.group.member", StepPath(plan_, s)) << "listed in multiple groups";
        }
        owner[static_cast<size_t>(s)] = g;
        if (plan_.steps[static_cast<size_t>(s)].group != g) {
          diags_.Error("plan.group.member", StepPath(plan_, s))
              << "names group " << plan_.steps[static_cast<size_t>(s)].group
              << " but is listed in group " << g;
        }
        if (s <= prev) {
          diags_.Error("plan.group.order", StepPath(plan_, s))
              << "sequence not increasing within group " << g;
        }
        prev = s;
      }
    }
    for (int s = 0; s < S(); ++s) {
      if (owner[static_cast<size_t>(s)] == -1) {
        diags_.Error("plan.group.member", StepPath(plan_, s)) << "not listed in any group";
      }
    }
    // Children execute strictly after their parent's own steps, so every step
    // of a child group must be sequenced after every step of the parent —
    // otherwise seq-based happens-before disagrees with actual execution.
    for (int g = 1; g < G(); ++g) {
      const PlanGroup& grp = plan_.groups[static_cast<size_t>(g)];
      if (grp.parent < 0 || grp.steps.empty()) {
        continue;
      }
      const PlanGroup& par = plan_.groups[static_cast<size_t>(grp.parent)];
      if (par.steps.empty()) {
        continue;
      }
      const int child_min = *std::min_element(grp.steps.begin(), grp.steps.end());
      const int parent_max = *std::max_element(par.steps.begin(), par.steps.end());
      if (child_min <= parent_max) {
        diags_.Error("plan.group.order", "group " + std::to_string(g))
            << "step " << child_min << " sequenced before parent group's step " << parent_max;
      }
    }
  }

  // True if `anc` is on the parent chain of `g` (or equal). Bounded walk so
  // malformed parent links (already diagnosed) cannot hang the verifier.
  bool GroupOrdersBefore(int anc, int g) const {
    int hops = 0;
    while (g >= 0 && hops <= G()) {
      if (g == anc) {
        return true;
      }
      g = plan_.groups[static_cast<size_t>(g)].parent;
      ++hops;
    }
    return false;
  }

  // The fork/join happens-before relation of the schedule: `e` is ordered
  // before `seq` in group `group` iff it is earlier in sequence AND its group
  // is an ancestor of (or equal to) the target's group. Sibling branches are
  // unordered under branch-parallel execution.
  bool HappensBefore(const Event& e, int seq, int group) const {
    return e.seq < seq && GroupOrdersBefore(e.group, group);
  }

  // ---- Stage 4: defs and uses, recomputed from the steps alone -------------
  void CollectDefsAndUses() {
    def_.assign(static_cast<size_t>(V()), Event{});
    has_def_.assign(static_cast<size_t>(V()), false);
    uses_.assign(static_cast<size_t>(V()), {});
    for (int s = 0; s < S(); ++s) {
      const PlanStep& step = plan_.steps[static_cast<size_t>(s)];
      if (plan_.values[static_cast<size_t>(step.out)].alias_of >= 0) {
        diags_.Error("plan.step.out.alias", StepPath(plan_, s))
            << "writes into alias " << ValuePath(step.out);
      }
      const int out_root = root_[static_cast<size_t>(step.out)];
      if (out_root == 0) {
        diags_.Error("plan.value.multidef", StepPath(plan_, s)) << "writes the plan input";
      } else if (out_root >= 0) {
        if (has_def_[static_cast<size_t>(out_root)]) {
          diags_.Error("plan.value.multidef", ValuePath(out_root))
              << "defined by step " << def_[static_cast<size_t>(out_root)].seq << " and step "
              << s;
        }
        has_def_[static_cast<size_t>(out_root)] = true;
        def_[static_cast<size_t>(out_root)] = Event{s, step.group};
      }
      for (int operand : {step.in0, step.skip}) {
        if (operand < 0) {
          continue;
        }
        const int r = root_[static_cast<size_t>(operand)];
        if (r >= 0) {
          uses_[static_cast<size_t>(r)].push_back(Use{s, step.group, operand});
        }
      }
    }
    for (int v = 0; v < V(); ++v) {
      const PlanValue& val = plan_.values[static_cast<size_t>(v)];
      if (v == 0 || val.alias_of >= 0) {
        continue;
      }
      if (!has_def_[static_cast<size_t>(v)]) {
        if (!uses_[static_cast<size_t>(v)].empty()) {
          diags_.Error("plan.value.undef", ValuePath(v))
              << "read by step " << uses_[static_cast<size_t>(v)].front().seq
              << " but never defined";
        } else {
          diags_.Warning("plan.value.unused", ValuePath(v)) << "never defined and never read";
        }
      } else if (uses_[static_cast<size_t>(v)].empty() && !val.is_head) {
        diags_.Warning("plan.value.unused", ValuePath(v)) << "defined but never read";
      }
    }
  }

  // ---- Stage 5: static race detection over the schedule --------------------
  void CheckRaces() {
    for (int v = 0; v < V(); ++v) {
      if (!has_def_[static_cast<size_t>(v)] && v != 0) {
        continue;  // undef already reported
      }
      for (const Use& use : uses_[static_cast<size_t>(v)]) {
        if (v == 0) {
          continue;  // the plan input is defined before all steps
        }
        const Event& def = def_[static_cast<size_t>(v)];
        if (HappensBefore(def, use.seq, use.group)) {
          continue;
        }
        if (def.seq >= use.seq) {
          diags_.Error("plan.race.use_before_def", StepPath(plan_, use.seq))
              << "reads " << ValuePath(use.via) << " before its definition at step " << def.seq;
        } else {
          diags_.Error("plan.race.cross_branch", StepPath(plan_, use.seq))
              << "reads " << ValuePath(use.via) << " (root v" << v << ") written by step "
              << def.seq << " in concurrent group " << def.group
              << "; groups " << def.group << " and " << use.group
              << " are unordered under branch-parallel execution";
        }
      }
    }
  }

  // ---- Stage 6: kernel shape signatures ------------------------------------
  void CheckShapes() {
    for (int s = 0; s < S(); ++s) {
      const PlanStep& step = plan_.steps[static_cast<size_t>(s)];
      const Shape& in = plan_.values[static_cast<size_t>(step.in0)].shape;
      const Shape& out = plan_.values[static_cast<size_t>(step.out)].shape;
      const std::string path = StepPath(plan_, s);
      switch (step.kind) {
        case PlanOp::kConv: {
          const Shape& w = step.weight_shape;
          if (in.Rank() != 3 || w.Rank() != 4 || w[1] != in[0] || step.stride <= 0) {
            diags_.Error("plan.shape.conv", path)
                << "input " << in.ToString() << " incompatible with weight " << w.ToString()
                << " (stride " << step.stride << ")";
            break;
          }
          const int64_t oh = (in[1] + 2 * step.padding - w[2]) / step.stride + 1;
          const int64_t ow = (in[2] + 2 * step.padding - w[3]) / step.stride + 1;
          if (oh <= 0 || ow <= 0 || out != Shape({w[0], oh, ow})) {
            diags_.Error("plan.shape.conv", path)
                << "produces " << Shape({w[0], oh, ow}).ToString() << " but output value is "
                << out.ToString();
          }
          break;
        }
        case PlanOp::kLinear: {
          const Shape& w = step.weight_shape;
          if (w.Rank() != 2 || in.Rank() < 1 || in[-1] != w[0]) {
            diags_.Error("plan.shape.linear", path)
                << "input " << in.ToString() << " incompatible with weight " << w.ToString();
            break;
          }
          bool match = out.Rank() == in.Rank() && out[-1] == w[1];
          for (int d = 0; match && d + 1 < in.Rank(); ++d) {
            match = in[d] == out[d];
          }
          if (!match) {
            diags_.Error("plan.shape.linear", path)
                << "input " << in.ToString() << " x weight " << w.ToString()
                << " cannot produce " << out.ToString();
          }
          break;
        }
        case PlanOp::kMaxPool: {
          if (in.Rank() != 3 || step.pool_kernel <= 0 || step.pool_stride <= 0) {
            diags_.Error("plan.shape.pool", path)
                << "input " << in.ToString() << " with kernel " << step.pool_kernel
                << " stride " << step.pool_stride;
            break;
          }
          const int64_t oh = (in[1] - step.pool_kernel) / step.pool_stride + 1;
          const int64_t ow = (in[2] - step.pool_kernel) / step.pool_stride + 1;
          if (oh <= 0 || ow <= 0 || out != Shape({in[0], oh, ow})) {
            diags_.Error("plan.shape.pool", path)
                << "produces " << Shape({in[0], oh, ow}).ToString() << " but output value is "
                << out.ToString();
          }
          break;
        }
        case PlanOp::kGlobalAvgPool:
          if (in.Rank() != 3 || out != Shape({in[0]})) {
            diags_.Error("plan.shape.gap", path)
                << in.ToString() << " -> " << out.ToString() << " is not (C,H,W) -> (C)";
          }
          break;
        case PlanOp::kMeanPoolTokens:
          if (in.Rank() != 2 || out != Shape({in[1]})) {
            diags_.Error("plan.shape.meanpool", path)
                << in.ToString() << " -> " << out.ToString() << " is not (T,D) -> (D)";
          }
          break;
        case PlanOp::kBilinearResize:
          if (in.Rank() != 3 || out.Rank() != 3 || out[0] != in[0] || out[1] <= 0 ||
              out[2] <= 0) {
            diags_.Error("plan.shape.resize", path)
                << in.ToString() << " -> " << out.ToString() << " is not a spatial resize";
          }
          break;
        case PlanOp::kTokenResize:
          if (in.Rank() != 2 || out.Rank() != 2 || out[1] != in[1] || out[0] <= 0) {
            diags_.Error("plan.shape.tokresize", path)
                << in.ToString() << " -> " << out.ToString() << " is not a token resize";
          }
          break;
        case PlanOp::kLayerNorm: {
          const Shape& w = step.weight_shape;
          if (w.Rank() != 1 || in.Rank() < 1 || in[-1] != w[0] || out != in) {
            diags_.Error("plan.shape.layernorm", path)
                << in.ToString() << " -> " << out.ToString() << " with gamma " << w.ToString()
                << " is not a last-dim normalization";
          }
          break;
        }
        case PlanOp::kAttention: {
          // Fused QKV (T, 3D) -> (T, D), with D split evenly over the heads.
          const int64_t dim = in.Rank() == 2 ? in[1] / 3 : 0;
          if (in.Rank() != 2 || dim <= 0 || in[1] != 3 * dim || step.heads <= 0 ||
              dim % step.heads != 0 || out != Shape({in[0], dim})) {
            diags_.Error("plan.shape.attention", path)
                << in.ToString() << " -> " << out.ToString() << " over " << step.heads
                << " heads is not (T,3D) -> (T,D) with D divisible by the heads";
          }
          break;
        }
        case PlanOp::kPatchTokens: {
          // T = G*G' is checked by division: parsed dims can be large enough
          // for the product to overflow.
          const Shape& w = step.weight_shape;
          if (in.Rank() != 3 || in[1] <= 0 || in[2] <= 0 || out.Rank() != 2 ||
              out[1] != in[0] || out[0] % in[2] != 0 || out[0] / in[2] != in[1] || w != out) {
            diags_.Error("plan.shape.tokens", path)
                << in.ToString() << " -> " << out.ToString() << " with positions "
                << w.ToString() << " is not (D,G,G') -> (G*G',D)";
          }
          break;
        }
        case PlanOp::kEmbedding: {
          const Shape& w = step.weight_shape;
          if (in.Rank() != 1 || w.Rank() != 2 || w[0] <= 0 || out != Shape({in[0], w[1]})) {
            diags_.Error("plan.shape.embed", path)
                << in.ToString() << " -> " << out.ToString() << " with table " << w.ToString()
                << " is not (T) -> (T,D)";
          }
          break;
        }
      }
      if (step.skip >= 0 && plan_.values[static_cast<size_t>(step.skip)].shape != out) {
        diags_.Error("plan.shape.skip", path)
            << "skip input " << plan_.values[static_cast<size_t>(step.skip)].shape.ToString()
            << " does not match output " << out.ToString();
      }
    }
  }

  // ---- Stage 6b: plan-time solver annotations ------------------------------
  // Steps may carry the kernel solver resolved at plan time (tuning DB or
  // heuristic). The annotation must name a registered solver of the step's
  // kernel family that accepts the step's problem shape. Applicability is
  // checked on the batch-1 descriptor with threads=1 (StepProblem, as the
  // engine annotates it): no registered solver's IsApplicable depends on the
  // thread count, and the plan text does not record the execution-time
  // parallelism.
  void CheckSolvers() {
    const kernels::SolverRegistry& registry = kernels::SolverRegistry::Global();
    for (int s = 0; s < S(); ++s) {
      const PlanStep& step = plan_.steps[static_cast<size_t>(s)];
      if (step.solver.empty()) {
        continue;  // untuned / legacy plan
      }
      const std::string path = StepPath(plan_, s);
      kernels::ProblemDesc desc;
      const StepKernel kernel = StepProblem(plan_, step, /*batch=*/1, /*threads=*/1, &desc);
      if (kernel == StepKernel::kNone) {
        diags_.Error("plan.solver.kind", path)
            << "step kind " << PlanOpName(step.kind) << " has no tunable kernel but names "
            << "solver '" << step.solver << "'";
        continue;
      }
      if (kernel == StepKernel::kMalformed) {
        continue;  // malformed signature already reported by plan.shape.*
      }
      if (desc.dtype == kernels::DType::kInt8 && desc.op == kernels::OpFamily::kMaxPool) {
        diags_.Error("plan.solver.dtype", path)
            << "dtype int8 is only defined for conv/linear GEMM steps, not "
            << PlanOpName(step.kind);
        continue;
      }
      const kernels::Solver* solver = registry.FindForDesc(desc, step.solver);
      if (solver == nullptr) {
        diags_.Error("plan.solver.unknown", path)
            << "solver '" << step.solver << "' is not registered for "
            << kernels::OpFamilyName(desc.op) << " " << kernels::DTypeName(desc.dtype);
        continue;
      }
      if (!solver->IsApplicable(desc)) {
        diags_.Error("plan.solver.applicable", path)
            << "solver '" << step.solver << "' rejects " << kernels::ProblemKey(desc);
      }
    }
  }

  // ---- Stage 7: buffer assignment — overlap, races, stale aliases ----------
  void CheckBuffers() {
    std::vector<std::vector<int>> by_buffer(static_cast<size_t>(B()));
    for (int v = 1; v < V(); ++v) {
      const PlanValue& val = plan_.values[static_cast<size_t>(v)];
      if (val.alias_of >= 0) {
        continue;  // alias buffer ownership diagnosed in stage 2
      }
      if (val.buffer < 0) {
        diags_.Error("plan.buffer.unassigned", ValuePath(v))
            << "planned value without an arena buffer";
        continue;
      }
      const PlanBuffer& buf = plan_.buffers[static_cast<size_t>(val.buffer)];
      if (val.shape.NumElements() != buf.elems_per_sample) {
        diags_.Error("plan.buffer.size", ValuePath(v))
            << "holds " << val.shape.NumElements() << " elems but buffer " << val.buffer
            << " provides " << buf.elems_per_sample;
      }
      by_buffer[static_cast<size_t>(val.buffer)].push_back(v);
    }
    for (int hv : plan_.head_values) {
      if (!plan_.values[static_cast<size_t>(hv)].is_head) {
        diags_.Error("plan.head.flag", ValuePath(hv)) << "listed as a head but not marked is_head";
      }
    }
    for (int b = 0; b < B(); ++b) {
      const std::vector<int>& residents = by_buffer[static_cast<size_t>(b)];
      const bool has_head = std::any_of(residents.begin(), residents.end(), [&](int v) {
        return plan_.values[static_cast<size_t>(v)].is_head;
      });
      if (has_head && (plan_.buffers[static_cast<size_t>(b)].reusable || residents.size() > 1)) {
        diags_.Error("plan.buffer.head", "buffer " + std::to_string(b))
            << "head output must live alone in a dedicated buffer (returned tensors must "
               "survive the rest of the run)";
        continue;  // overlap against an always-live head is implied
      }
      // Overlap detector: two residents may share the buffer only if every
      // event (def + all uses) of one is ordered before the other's def under
      // the recomputed happens-before relation.
      for (size_t i = 0; i < residents.size(); ++i) {
        for (size_t j = i + 1; j < residents.size(); ++j) {
          CheckPairDisjoint(residents[i], residents[j], b);
        }
      }
    }
    CheckStaleAliases(by_buffer);
  }

  bool AllEventsBefore(int v, const Event& target) const {
    if (!has_def_[static_cast<size_t>(v)] ||
        !HappensBefore(def_[static_cast<size_t>(v)], target.seq, target.group)) {
      return false;
    }
    for (const Use& use : uses_[static_cast<size_t>(v)]) {
      if (!HappensBefore(Event{use.seq, use.group}, target.seq, target.group)) {
        return false;
      }
    }
    return true;
  }

  void CheckPairDisjoint(int v, int w, int buffer) {
    if (!has_def_[static_cast<size_t>(v)] || !has_def_[static_cast<size_t>(w)]) {
      return;  // undef already reported; no live range to reason about
    }
    if (AllEventsBefore(v, def_[static_cast<size_t>(w)]) ||
        AllEventsBefore(w, def_[static_cast<size_t>(v)])) {
      return;
    }
    diags_.Error("plan.buffer.overlap", "buffer " + std::to_string(buffer))
        << ValuePath(v) << " (def step " << def_[static_cast<size_t>(v)].seq << ") and "
        << ValuePath(w) << " (def step " << def_[static_cast<size_t>(w)].seq
        << ") are simultaneously live but share the buffer";
  }

  // Alias steps must never read a buffer that was overwritten (by a later
  // resident) while the alias is live.
  void CheckStaleAliases(const std::vector<std::vector<int>>& by_buffer) {
    for (int v = 0; v < V(); ++v) {
      const int r = root_[static_cast<size_t>(v)];
      if (plan_.values[static_cast<size_t>(v)].alias_of < 0 || r < 0 || r == 0) {
        continue;
      }
      const int b = plan_.values[static_cast<size_t>(r)].buffer;
      if (b < 0 || !has_def_[static_cast<size_t>(r)]) {
        continue;  // already-diagnosed plan
      }
      for (const Use& use : uses_[static_cast<size_t>(r)]) {
        if (use.via != v) {
          continue;  // only reads routed through this alias
        }
        for (int w : by_buffer[static_cast<size_t>(b)]) {
          if (w == r || !has_def_[static_cast<size_t>(w)]) {
            continue;
          }
          const Event& wd = def_[static_cast<size_t>(w)];
          if (HappensBefore(def_[static_cast<size_t>(r)], wd.seq, wd.group) &&
              HappensBefore(wd, use.seq, use.group)) {
            diags_.Error("plan.alias.stale", StepPath(plan_, use.seq))
                << "reads alias v" << v << " of v" << r << " after buffer " << b
                << " was overwritten by v" << w << " (step " << wd.seq << ")";
          }
        }
      }
    }
  }

  struct Use {
    int seq = -1;
    int group = 0;
    int via = -1;  // the (possibly alias) value id the step actually names
  };

  const PlanIR& plan_;
  DiagnosticList diags_;
  std::vector<int> root_;
  std::vector<bool> group_depth_ok_;
  std::vector<Event> def_;
  std::vector<bool> has_def_;
  std::vector<std::vector<Use>> uses_;
};

}  // namespace

DiagnosticList VerifyPlan(const PlanIR& plan) {
  return PlanChecker(plan).Run();
}

}  // namespace gmorph
