// The solver registry: enumerates the solvers that can run a ProblemDesc,
// resolves names from plans and tuning-DB entries, and picks the solver a
// kernel call actually uses — the tuned winner when the global tuning DB has
// an applicable entry, otherwise the shape heuristic (the measured winners on
// this repo's shapes; DESIGN.md §5b lists its rules).
#ifndef GMORPH_SRC_KERNELS_REGISTRY_H_
#define GMORPH_SRC_KERNELS_REGISTRY_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/kernels/solver.h"

namespace gmorph::kernels {

// Narrowest N the wide micro-kernels (gemm.direct, gemm.packed) are picked
// for: each register tile spans a 32-column strip. Narrower products run the
// dot path. An f32 conv whose OH*OW is below this therefore puts its output
// channels on the columns instead (kernels::ConvProblem: n = O), and the
// fused engine runs it as one GEMM over the batch's pixels.
inline constexpr int64_t kWideMinN = 24;

class SolverRegistry {
 public:
  // The process-wide registry, pre-populated with the built-in solvers.
  static const SolverRegistry& Global();

  const std::vector<const GemmSolver*>& gemm_solvers() const { return gemm_; }
  const std::vector<const PoolSolver*>& pool_solvers() const { return pool_; }
  const std::vector<const QGemmSolver*>& qgemm_solvers() const { return qgemm_; }

  // Name lookup across the family's solver list; nullptr when unknown.
  const GemmSolver* FindGemm(std::string_view name) const;
  const PoolSolver* FindPool(std::string_view name) const;
  const QGemmSolver* FindQGemm(std::string_view name) const;

  // Dispatches on (desc.op, desc.dtype): the registered Solver* with that
  // name that could serve desc's family, or nullptr. The tuning DB and the
  // offline linters resolve names through this so an int8 entry can never
  // alias an f32 solver.
  const Solver* FindForDesc(const ProblemDesc& desc, std::string_view name) const;

  // Every registered solver (of desc's family) with IsApplicable(desc).
  std::vector<const Solver*> Applicable(const ProblemDesc& desc) const;

  // The solver a kernel call uses: the tuning-DB winner when one is loaded,
  // applicable, and resolvable, else the heuristic default. Never null; does
  // no allocation, so it is safe on the steady-state hot path.
  const GemmSolver* ResolveGemm(const ProblemDesc& desc) const;
  const PoolSolver* ResolvePool(const ProblemDesc& desc) const;
  const QGemmSolver* ResolveQGemm(const ProblemDesc& desc) const;

  // The untuned default: tiny/narrow -> reference, narrow-N -> dot, wide ->
  // direct while its operands stay cache-resident (NN: k·n <= 128K floats;
  // NT/TN: whole footprint <= 48K floats), else packed; 2x2/stride-2
  // max-pool -> pool.2x2s2, any other window -> pool.generic; int8 convs ->
  // their family's VNNI kernel when the build has it, else its portable one;
  // int8 GEMMs -> qgemm.ref when tiny, else qgemm.vnni, else qgemm.packed.
  const GemmSolver* HeuristicGemm(const ProblemDesc& desc) const;
  const PoolSolver* HeuristicPool(const ProblemDesc& desc) const;
  const QGemmSolver* HeuristicQGemm(const ProblemDesc& desc) const;

 private:
  SolverRegistry();

  std::vector<const GemmSolver*> gemm_;
  std::vector<const PoolSolver*> pool_;
  std::vector<const QGemmSolver*> qgemm_;
};

}  // namespace gmorph::kernels

#endif  // GMORPH_SRC_KERNELS_REGISTRY_H_
