// Accessors for the built-in solver singletons. Internal to src/kernels —
// everything above the registry resolves solvers by name or descriptor.
#ifndef GMORPH_SRC_KERNELS_BUILTIN_SOLVERS_H_
#define GMORPH_SRC_KERNELS_BUILTIN_SOLVERS_H_

#include "src/kernels/solver.h"

namespace gmorph::kernels {

const GemmSolver* GemmRefSolver();     // "gemm.ref"
const GemmSolver* GemmDirectSolver();  // "gemm.direct"
const GemmSolver* GemmPackedSolver();  // "gemm.packed"
const GemmSolver* GemmDotSolver();     // "gemm.dot"

const PoolSolver* PoolGenericSolver();  // "pool.generic"
const PoolSolver* Pool2x2Solver();      // "pool.2x2s2"

const QGemmSolver* QGemmRefSolver();     // "qgemm.ref"
const QGemmSolver* QGemmPackedSolver();  // "qgemm.packed"
const QGemmSolver* QGemmVnniSolver();    // "qgemm.vnni" (AVX512-VNNI builds)
// "qconv.pixels" / "qconv.pixels_vnni" and "qconv.channels" /
// "qconv.channels_vnni": the portable and the AVX512-VNNI conv kernels.
const QGemmSolver* QConvPixelsSolver(bool vnni);
const QGemmSolver* QConvChannelsSolver(bool vnni);

}  // namespace gmorph::kernels

#endif  // GMORPH_SRC_KERNELS_BUILTIN_SOLVERS_H_
