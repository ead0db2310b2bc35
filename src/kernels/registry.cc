#include "src/kernels/registry.h"

#include "src/kernels/builtin_solvers.h"
#include "src/kernels/tune_db.h"
#include "src/obs/metrics.h"

namespace gmorph::kernels {
namespace {

// Dispatch thresholds of the untuned heuristic (kWideMinN is in registry.h).
constexpr int64_t kTinyFlops = 8192;  // below: the reference loops win
constexpr int64_t kDotMinK = 24;      // dot path needs k >= ~16 lanes to win
// NN: the direct tiles stream B (k x n) unpacked once per row tile, and beat
// packing while it stays cache-resident. Measured on one and three threads,
// direct won at every k·n up to 147K floats (e.g. 8x72x1024: 6 vs 13 us) and
// packed first won at 262K single-threaded, so the cut sits below both.
constexpr int64_t kDirectMaxStreamFloats = 128 * 1024;
// NT / TN: the whole working set m·k + k·n + m·n of the no-pack path.
constexpr int64_t kDirectMaxFloats = 48 * 1024;

}  // namespace

SolverRegistry::SolverRegistry() {
  gemm_ = {GemmRefSolver(), GemmDirectSolver(), GemmPackedSolver(), GemmDotSolver()};
  pool_ = {PoolGenericSolver(), Pool2x2Solver()};
  qgemm_ = {QGemmRefSolver(),           QGemmPackedSolver(),          QGemmVnniSolver(),
            QConvPixelsSolver(false),   QConvPixelsSolver(true),      QConvChannelsSolver(false),
            QConvChannelsSolver(true)};
}

const SolverRegistry& SolverRegistry::Global() {
  static const SolverRegistry registry;
  return registry;
}

const GemmSolver* SolverRegistry::FindGemm(std::string_view name) const {
  for (const GemmSolver* s : gemm_) {
    if (name == s->name()) {
      return s;
    }
  }
  return nullptr;
}

const PoolSolver* SolverRegistry::FindPool(std::string_view name) const {
  for (const PoolSolver* s : pool_) {
    if (name == s->name()) {
      return s;
    }
  }
  return nullptr;
}

const QGemmSolver* SolverRegistry::FindQGemm(std::string_view name) const {
  for (const QGemmSolver* s : qgemm_) {
    if (name == s->name()) {
      return s;
    }
  }
  return nullptr;
}

const Solver* SolverRegistry::FindForDesc(const ProblemDesc& desc, std::string_view name) const {
  if (desc.op == OpFamily::kMaxPool) {
    return FindPool(name);
  }
  if (desc.dtype == DType::kInt8) {
    return FindQGemm(name);
  }
  return FindGemm(name);
}

std::vector<const Solver*> SolverRegistry::Applicable(const ProblemDesc& desc) const {
  std::vector<const Solver*> out;
  if (desc.op == OpFamily::kMaxPool) {
    for (const PoolSolver* s : pool_) {
      if (s->IsApplicable(desc)) {
        out.push_back(s);
      }
    }
  } else if (desc.dtype == DType::kInt8) {
    for (const QGemmSolver* s : qgemm_) {
      if (s->IsApplicable(desc)) {
        out.push_back(s);
      }
    }
  } else {
    for (const GemmSolver* s : gemm_) {
      if (s->IsApplicable(desc)) {
        out.push_back(s);
      }
    }
  }
  return out;
}

const GemmSolver* SolverRegistry::HeuristicGemm(const ProblemDesc& desc) const {
  if (2 * desc.m * desc.k * desc.n <= kTinyFlops ||
      (desc.n < kWideMinN && desc.k < kDotMinK)) {
    return GemmRefSolver();
  }
  if (desc.n >= kWideMinN) {
    const bool direct =
        desc.op == OpFamily::kGemmNN
            ? desc.k * desc.n <= kDirectMaxStreamFloats
            : desc.m * desc.k + desc.k * desc.n + desc.m * desc.n <= kDirectMaxFloats;
    return direct ? GemmDirectSolver() : GemmPackedSolver();
  }
  return GemmDotSolver();
}

const PoolSolver* SolverRegistry::HeuristicPool(const ProblemDesc& desc) const {
  // Bitwise identical to the generic loop where it applies, and several
  // times faster (the B1 plan's pools: 0.21 -> 0.03 ms per batch-8 run).
  return Pool2x2Solver()->IsApplicable(desc) ? Pool2x2Solver() : PoolGenericSolver();
}

const QGemmSolver* SolverRegistry::HeuristicQGemm(const ProblemDesc& desc) const {
  // A conv runs its family's VNNI kernel when the build has one, else the
  // portable emulation of the same tiles.
  if (desc.op == OpFamily::kQConvPixels || desc.op == OpFamily::kQConvChannels) {
    const bool pixels = desc.op == OpFamily::kQConvPixels;
    const QGemmSolver* vnni = pixels ? QConvPixelsSolver(true) : QConvChannelsSolver(true);
    if (vnni->IsApplicable(desc)) {
      return vnni;
    }
    return pixels ? QConvPixelsSolver(false) : QConvChannelsSolver(false);
  }
  // The packed paths' panel setup only loses on problems too small to matter;
  // mirror the f32 tiny-problem cutoff. VNNI beats the portable emulation
  // whenever the build carries it.
  if (2 * desc.m * desc.k * desc.n <= kTinyFlops) {
    return QGemmRefSolver();
  }
  if (QGemmVnniSolver()->IsApplicable(desc)) {
    return QGemmVnniSolver();
  }
  return QGemmPackedSolver();
}

const GemmSolver* SolverRegistry::ResolveGemm(const ProblemDesc& desc) const {
  if (const TuneDb* db = GlobalTuneDb(); db != nullptr) {
    static obs::Counter& hits = obs::GetCounter("kernels.resolve_db_hits");
    static obs::Counter& misses = obs::GetCounter("kernels.resolve_heuristic");
    if (const TuneDb::Entry* e = db->Lookup(desc);
        e != nullptr && e->resolved != nullptr && e->resolved->IsApplicable(desc)) {
      hits.Increment();
      return static_cast<const GemmSolver*>(e->resolved);
    }
    misses.Increment();
  }
  return HeuristicGemm(desc);
}

const QGemmSolver* SolverRegistry::ResolveQGemm(const ProblemDesc& desc) const {
  if (const TuneDb* db = GlobalTuneDb(); db != nullptr) {
    static obs::Counter& hits = obs::GetCounter("kernels.resolve_db_hits");
    static obs::Counter& misses = obs::GetCounter("kernels.resolve_heuristic");
    if (const TuneDb::Entry* e = db->Lookup(desc);
        e != nullptr && e->resolved != nullptr && e->resolved->IsApplicable(desc)) {
      hits.Increment();
      return static_cast<const QGemmSolver*>(e->resolved);
    }
    misses.Increment();
  }
  return HeuristicQGemm(desc);
}

const PoolSolver* SolverRegistry::ResolvePool(const ProblemDesc& desc) const {
  if (const TuneDb* db = GlobalTuneDb(); db != nullptr) {
    static obs::Counter& hits = obs::GetCounter("kernels.resolve_db_hits");
    static obs::Counter& misses = obs::GetCounter("kernels.resolve_heuristic");
    if (const TuneDb::Entry* e = db->Lookup(desc);
        e != nullptr && e->resolved != nullptr && e->resolved->IsApplicable(desc)) {
      hits.Increment();
      return static_cast<const PoolSolver*>(e->resolved);
    }
    misses.Increment();
  }
  return HeuristicPool(desc);
}

}  // namespace gmorph::kernels
