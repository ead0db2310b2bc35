#include "src/analysis/mem_analysis.h"

#include <algorithm>
#include <string>
#include <vector>

namespace gmorph {
namespace {

constexpr int64_t kBytesPerElem = static_cast<int64_t>(sizeof(float));

// Per-root-value sequential live interval [first, last] in step-sequence
// coordinates; heads extend to the end of the run.
struct Interval {
  int64_t bytes = 0;
  int first = -1;
  int last = -1;
};

}  // namespace

MemCertificate CertifyPlanMemory(const PlanIR& plan) {
  MemCertificate cert;
  const int V = static_cast<int>(plan.values.size());
  const int S = static_cast<int>(plan.steps.size());
  const int B = static_cast<int>(plan.buffers.size());
  const auto valid_value = [&](int v) { return v >= 0 && v < V; };

  for (int b = 0; b < B; ++b) {
    cert.arena_bytes += plan.buffers[static_cast<size_t>(b)].elems_per_sample * kBytesPerElem;
  }

  // Alias roots, bounded against cycles (a verifier error; we just skip).
  std::vector<int> root(static_cast<size_t>(V), -1);
  for (int v = 0; v < V; ++v) {
    int cur = v;
    int hops = 0;
    while (valid_value(cur) && plan.values[static_cast<size_t>(cur)].alias_of >= 0 &&
           hops <= V) {
      cur = plan.values[static_cast<size_t>(cur)].alias_of;
      ++hops;
    }
    root[static_cast<size_t>(v)] = (hops > V || !valid_value(cur)) ? -1 : cur;
  }

  // Def/use events recomputed from the steps alone (the planner's own
  // bookkeeping is exactly what this pass must not trust).
  std::vector<Interval> live(static_cast<size_t>(V));
  const auto touch = [&](int r, int seq) {
    if (!valid_value(r)) {
      return;
    }
    Interval& iv = live[static_cast<size_t>(r)];
    if (iv.first < 0 || seq < iv.first) {
      iv.first = seq;
    }
    iv.last = std::max(iv.last, seq);
  };
  for (int s = 0; s < S; ++s) {
    const PlanStep& step = plan.steps[static_cast<size_t>(s)];
    if (valid_value(step.out)) {
      touch(root[static_cast<size_t>(step.out)], s);
    }
    for (int operand : {step.in0, step.skip}) {
      if (valid_value(operand)) {
        touch(root[static_cast<size_t>(operand)], s);
      }
    }
  }

  // Only arena-resident roots occupy planned memory: the plan input is
  // external, aliases borrow their root's bytes.
  std::vector<int64_t> delta(static_cast<size_t>(S) + 1, 0);
  for (int v = 1; v < V; ++v) {
    const PlanValue& val = plan.values[static_cast<size_t>(v)];
    if (val.alias_of >= 0 || val.buffer < 0 || val.buffer >= B) {
      continue;
    }
    Interval& iv = live[static_cast<size_t>(v)];
    if (iv.first < 0) {
      continue;  // never defined nor used: no live range (verifier warns)
    }
    if (val.is_head) {
      iv.last = S - 1;  // returned tensors survive the rest of the run
    }
    iv.bytes = val.shape.NumElements() * kBytesPerElem;
    delta[static_cast<size_t>(iv.first)] += iv.bytes;
    delta[static_cast<size_t>(iv.last) + 1] -= iv.bytes;
  }
  int64_t running = 0;
  for (int s = 0; s < S; ++s) {
    running += delta[static_cast<size_t>(s)];
    if (running > cert.peak_bytes) {
      cert.peak_bytes = running;
      cert.peak_step = s;
    }
  }
  return cert;
}

DiagnosticList AnalyzePlanMemory(const PlanIR& plan, const MemAnalysisOptions& options) {
  DiagnosticList diags;
  const MemCertificate cert = CertifyPlanMemory(plan);
  const int V = static_cast<int>(plan.values.size());
  const int B = static_cast<int>(plan.buffers.size());

  if (cert.arena_bytes < cert.peak_bytes) {
    diags.Error("plan.mem.arena", "plan")
        << "arena provides " << cert.arena_bytes << " bytes/sample but " << cert.peak_bytes
        << " bytes of values are simultaneously live at step " << cert.peak_step
        << "; no buffer assignment can fit this plan";
  }

  // Dead slots: allocated arena no planned value ever lands in.
  std::vector<bool> occupied(static_cast<size_t>(B), false);
  for (int v = 1; v < V; ++v) {
    const PlanValue& val = plan.values[static_cast<size_t>(v)];
    if (val.alias_of < 0 && val.buffer >= 0 && val.buffer < B) {
      occupied[static_cast<size_t>(val.buffer)] = true;
    }
  }
  for (int b = 0; b < B; ++b) {
    if (!occupied[static_cast<size_t>(b)]) {
      diags.Warning("plan.mem.buffer", "buffer " + std::to_string(b))
          << "allocates " << plan.buffers[static_cast<size_t>(b)].elems_per_sample * 4
          << " bytes/sample but no planned value occupies it";
    }
  }

  const int64_t waste_bound = static_cast<int64_t>(
      options.waste_factor * static_cast<double>(cert.peak_bytes)) + options.slack_bytes;
  if (cert.peak_bytes > 0 && cert.arena_bytes > waste_bound) {
    diags.Warning("plan.mem.waste", "plan")
        << "arena " << cert.arena_bytes << " bytes/sample exceeds " << options.waste_factor
        << "x the certified peak (" << cert.peak_bytes << " bytes + " << options.slack_bytes
        << " slack); the planner is fragmenting";
  }

  if (options.summary) {
    diags.Note("plan.mem.summary", "plan")
        << "certified peak " << cert.peak_bytes << " bytes/sample (step " << cert.peak_step
        << "), arena " << cert.arena_bytes << " bytes/sample";
  }
  return diags;
}

}  // namespace gmorph
