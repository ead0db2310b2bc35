// Dense kernels: elementwise arithmetic, GEMM variants, softmax, reductions.
//
// The three GEMM variants (NN / NT / TN) cover forward passes and both
// backward products without ever materializing a transposed matrix:
//   forward:   Y = X * W            -> MatmulNN
//   grad in:   dX = dY * W^T        -> MatmulNT
//   grad w:    dW = X^T * dY        -> MatmulTN
//
// Each variant resolves its implementation through the kernel solver
// registry (src/kernels/registry.h): the tuned winner when a tuning DB is
// loaded (GMORPH_TUNE_DB / gmorph_cli --autotune), otherwise a shape
// heuristic choosing among the registered solvers — the register-tiled
// direct path for wide cache-resident products, the cache-blocked packed
// path for large wide products, the lane-vectorized dot path for narrow N,
// and the reference loops for tiny problems. All solvers produce results
// that are bitwise independent of the thread count.
#ifndef GMORPH_SRC_TENSOR_TENSOR_OPS_H_
#define GMORPH_SRC_TENSOR_TENSOR_OPS_H_

#include <cstdint>

#include "src/kernels/solver.h"
#include "src/tensor/fast_exp.h"
#include "src/tensor/tensor.h"

namespace gmorph {

// ---- Elementwise (shapes must match exactly) ----
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
void AddInPlace(Tensor& a, const Tensor& b);    // a += b
void ScaleInPlace(Tensor& a, float s);          // a *= s

// ---- Raw GEMM cores (contiguous row-major) ----
// C[m,n] = A[m,k] * B[k,n]          (+= if accumulate)
void MatmulNN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
              bool accumulate = false);
// C[m,k] = A[m,n] * B[k,n]^T
void MatmulNT(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
              bool accumulate = false);
// C[k,n] = A[m,k]^T * B[m,n]
void MatmulTN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
              bool accumulate = false);

// Naive reference GEMMs (the pre-blocking kernels), now living in the solver
// registry as "gemm.ref". Re-exported here because tests and benches use them
// as the oracle for randomized cross-checks and as the speedup baseline.
using kernels::RefMatmulNN;
using kernels::RefMatmulNT;
using kernels::RefMatmulTN;

// ---- Tensor-level matmul: a is (m,k), b is (k,n) ----
Tensor Matmul(const Tensor& a, const Tensor& b);

// Pointwise activation a kernel applies in its epilogue.
enum class Activation : uint8_t {
  kNone,
  kRelu,
  kGelu,  // tanh approximation, see Gelu() below
};

// GELU (tanh approximation) in its exact sigmoid form:
//   0.5 v (1 + tanh(u)) = v sigma(2u) = v / (1 + exp(-2u)),
//   u = sqrt(2/pi) (v + 0.044715 v^3).
inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;
inline float Gelu(float v) {
  const float u = kGeluC * (v + kGeluA * v * v * v);
  return v / (1.0f + FastExp(-2.0f * u));
}

// out = Gelu(x) elementwise; shapes must match.
void GeluForwardInto(const Tensor& x, Tensor& out);

// The fused fully-connected epilogue on one output row of width n, in place:
// row += bias (if non-null), row += skip (if non-null), then `act`. Shared by
// the f32 and the int8 (after dequantization) linear paths.
void LinearEpilogueRow(float* row, int64_t n, const float* bias, const float* skip,
                       Activation act);

// Fused fully-connected forward: out = act(x * w + b + skip), written into
// the preallocated `out`. x is (rows..., in) with leading dims flattened into
// rows; w is (in, out) row-major; b is (out) or empty; `skip` (same size as
// out, e.g. a transformer residual) is optional. The epilogue runs
// row-blocked while rows are cache-hot. `solver` pins the GEMM solver (the
// fused engine caches the plan-time resolution per binding); nullptr
// resolves through the registry per call. Linear::Forward runs this too.
void LinearForwardInto(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& out,
                       Activation act = Activation::kNone, const Tensor* skip = nullptr,
                       const kernels::GemmSolver* solver = nullptr);

// ---- Softmax over the last dimension ----
Tensor SoftmaxLastDim(const Tensor& x);

// ---- Reductions / misc ----
float SumAll(const Tensor& a);
float MaxAbs(const Tensor& a);
// Row-wise argmax for a (rows, cols) tensor.
std::vector<int> ArgmaxRows(const Tensor& a);

}  // namespace gmorph

#endif  // GMORPH_SRC_TENSOR_TENSOR_OPS_H_
