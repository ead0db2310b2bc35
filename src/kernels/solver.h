// Solver interface for the kernel registry (DESIGN.md "Solver registry &
// autotuning").
//
// Every tunable kernel family — the three GEMM variants (which also carry the
// im2col convolution product and the attention matmuls) and max-pooling —
// exposes one or more Solver implementations behind a common interface. A
// solver advertises which problems it can handle (IsApplicable), how much
// scratch it packs into the thread-local arena (WorkspaceBytes), and runs the
// problem (Run). The registry (registry.h) enumerates applicable solvers per
// ProblemDesc; the autotuner (autotune.h) benchmarks them and persists the
// winner in the tuning DB (tune_db.h).
//
// The interface is deliberately backend-agnostic: a future SIMD, BLAS, or JIT
// backend plugs in by registering more Solver instances — nothing above this
// layer changes.
#ifndef GMORPH_SRC_KERNELS_SOLVER_H_
#define GMORPH_SRC_KERNELS_SOLVER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace gmorph::kernels {

// The kernel families the registry distinguishes. The GEMM families are named
// after the caller-facing operand layouts; internally every f32 variant is the
// same logical product C[M,N] (+)= A·B over strided views (see MatView). The
// two int8 conv families name the packed operand layouts of a quantized
// conv's per-sample GEMM (QGemmCall lists them); both read the u8 "tap word"
// im2col, in which one 32-bit word holds four consecutive taps of one output
// pixel — the operand vpdpbusd multiplies.
enum class OpFamily : uint8_t {
  kGemmNN,
  kGemmNT,
  kGemmTN,
  kMaxPool,
  // Output pixels on the lanes: C_s32[O, S] = W_s8[O, K] · X_u8[K, S], i.e.
  // m = output channels, n = output pixels; C is the NCHW plane.
  kQConvPixels,
  // Output channels on the lanes: C_s32[S, O] = X_u8[S, K] · W_s8[K, O], i.e.
  // m = output pixels, n = output channels.
  kQConvChannels,
};

// Stable text names ("gemm_nn", ..., "maxpool", "qconv_pixels",
// "qconv_channels") used by the tuning DB and the plan annotations.
const char* OpFamilyName(OpFamily op);
bool OpFamilyFromName(std::string_view name, OpFamily* out);

// Element type of a problem. f32 is the historical default; int8 denotes the
// quantized u8·s8 -> s32 product (A unsigned activations, B signed weights,
// C int32 accumulators — the oneDNN-style asymmetric/symmetric split). The
// tuning DB keys on it so int8 shapes tune independently of their f32 twins.
enum class DType : uint8_t {
  kF32,
  kInt8,
};

// Stable text names ("f32", "int8") for the tuning DB, recipes, and plans.
const char* DTypeName(DType dtype);
bool DTypeFromName(std::string_view name, DType* out);

// The canonical problem descriptor: the key solvers, the autotuner, and the
// tuning DB all agree on. For the GEMM families m/k/n are the *logical*
// product dimensions (C is m x n, the contraction runs over k) — NOT the
// caller-facing argument order of MatmulNT/MatmulTN. For kMaxPool: m = number
// of (sample, channel) planes, k = input height, n = input width,
// aux0 = pool kernel, aux1 = pool stride.
//
// `threads` is the parallelism the call runs under: 1 when the kernel is
// invoked inside an enclosing parallel region (conv's per-sample im2col GEMMs,
// branch-parallel engine groups), otherwise the kernel pool width. The tuning
// DB keys on it because the best solver differs between the serial and the
// parallel regime.
struct ProblemDesc {
  OpFamily op = OpFamily::kGemmNN;
  DType dtype = DType::kF32;
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
  int64_t aux0 = 0;
  int64_t aux1 = 0;
  int threads = 1;

  friend bool operator==(const ProblemDesc& a, const ProblemDesc& b) {
    return a.op == b.op && a.dtype == b.dtype && a.m == b.m && a.k == b.k && a.n == b.n &&
           a.aux0 == b.aux0 && a.aux1 == b.aux1 && a.threads == b.threads;
  }
  friend bool operator<(const ProblemDesc& a, const ProblemDesc& b) {
    if (a.op != b.op) return a.op < b.op;
    if (a.dtype != b.dtype) return a.dtype < b.dtype;
    if (a.m != b.m) return a.m < b.m;
    if (a.k != b.k) return a.k < b.k;
    if (a.n != b.n) return a.n < b.n;
    if (a.aux0 != b.aux0) return a.aux0 < b.aux0;
    if (a.aux1 != b.aux1) return a.aux1 < b.aux1;
    return a.threads < b.threads;
  }
};

// "gemm_nn m=17 k=32 n=96 aux0=0 aux1=0 threads=4" — the human-readable key
// the tuning DB and diagnostics print.
std::string ProblemKey(const ProblemDesc& desc);

// Builds a GEMM descriptor from the logical dims, with `threads` resolved from
// the current execution context (1 inside a parallel region).
ProblemDesc GemmProblem(OpFamily op, int64_t m, int64_t k, int64_t n);
// Quantized GEMM descriptor: always the NN layout (row-major u8 A, row-major
// s8 B), dtype = kInt8.
ProblemDesc QGemmProblem(int64_t m, int64_t k, int64_t n);
// Fewest output pixels (OH*OW) for which an int8 conv puts pixels on the
// lanes: one full 4 x 16-pixel register tile. Narrower outputs (the 4x4 and
// 2x2 convs, a stride-8 patch conv over a 32x32 image) keep output channels
// on the lanes, where O = 64 fills every lane; the same patch conv over a
// 64x64 image has an 8x8 output and takes pixel lanes. Measured on one
// AVX-512 VNNI core, 64->64 GEMMs with K = 576: at 2x2 pixel lanes fill 4 of
// 16 lanes and take 2.4 us against 0.6 us; at 4x4 the whole conv steps are
// within 10% either way; from 8x8 up pixel lanes win (7.0 against 9.5 us).
inline constexpr int64_t kQConvPixelsMinSpatial = 64;
// The GEMM of one sample of a conv with `out_channels` filters over `ckk` =
// C*KH*KW taps and an oh x ow output, at threads = 1. The one place that maps
// a conv to a descriptor; the fused engine, the tuner and the plan linter all
// call it.
//   - f32, OH*OW >= kWideMinN: W[O, ckk] · col[ckk, OH*OW] (kGemmNN, m = O,
//     n = OH*OW), one GEMM per sample inside the loop over the batch.
//   - f32, narrower outputs: output pixels are the rows and output channels
//     the columns, im2row[OH*OW, ckk] · Wᵀ[ckk, O] (kGemmNN, m = OH*OW,
//     n = O), so n does not shrink with the image. The fused engine runs one
//     such GEMM over the whole batch (m = batch*OH*OW, NarrowConv2dForwardInto).
//   - int8: kQConvPixels when OH*OW >= kQConvPixelsMinSpatial, else
//     kQConvChannels, per sample.
ProblemDesc ConvProblem(DType dtype, int64_t out_channels, int64_t ckk, int64_t oh, int64_t ow);
// Byte sizes of an int8 problem's operands in its family's layout: the u8
// activation operand and the s8 weight operand, padded as QGemmCall says.
int64_t QActBytes(const ProblemDesc& desc);
int64_t QWeightBytes(const ProblemDesc& desc);
// Max-pool descriptor; planes = batch * channels.
ProblemDesc PoolProblem(int64_t planes, int64_t h, int64_t w, int64_t kernel, int64_t stride);
// Arithmetic work for throughput reporting: 2*m*k*n for GEMMs, one op per
// pooled window element for kMaxPool.
int64_t ProblemFlops(const ProblemDesc& desc);

// Element (i,j) of a strided matrix view lives at data[i * rs + j * cs].
struct MatView {
  const float* data;
  int64_t rs;
  int64_t cs;
  const float* at(int64_t i, int64_t j) const { return data + i * rs + j * cs; }
};

// A bound GEMM invocation. Views are canonical per family (MakeGemmCall):
//   kGemmNN: a = {a, k, 1}, b = {b, n, 1}    (both row-major)
//   kGemmNT: a = {a, k, 1}, b = {b, 1, k}    (b stored N x K row-major)
//   kGemmTN: a = {a, 1, m}, b = {b, n, 1}    (a stored K x M row-major)
// Solvers may rely on these strides (the reference solver replays the
// original row-major loops straight off the data pointers).
struct GemmCall {
  MatView a;
  MatView b;
  float* c;
  bool accumulate = false;
};

// Builds the canonical views for desc.op over the caller's row-major arrays.
GemmCall MakeGemmCall(const ProblemDesc& desc, const float* a, const float* b, float* c,
                      bool accumulate);

// dst[c * ldd + r] = src[r * lds + c] for r < rows, c < cols: the transposes
// behind the NT and TN layouts (the solvers' packing copies, and callers
// that transpose an operand once for many products). Destination rows are
// written in contiguous runs, 8 x 8 tiles at a time (in registers on AVX
// builds). Pure data movement. Every f32 solver sums a TN product exactly as
// its NN product over the explicitly transposed A, and gemm.direct,
// gemm.packed and gemm.dot sum an NT product exactly as their NN product
// over the explicitly transposed B (gemm.ref's NT loop sums each dot product
// apart, so it is the exception).
void Transpose(int64_t rows, int64_t cols, const float* src, int64_t lds, float* dst,
               int64_t ldd);

// A bound max-pool invocation: x is m contiguous h x w planes, out is m
// contiguous oh x ow planes (valid pooling, no padding).
struct PoolCall {
  const float* x;
  float* out;
};

// A bound quantized GEMM: C_s32[M,N], row-major and contiguous, from a u8
// activation operand `act` and an s8 weight operand `weight` whose layouts
// the descriptor's family fixes. With G = ceil(K/4) tap groups:
//   kGemmNN:        act    = A[M, K] row-major;
//                   weight = B[K, N] row-major.
//   kQConvPixels:   act    = tap words [G][N][4]: byte (g, s, j) is tap 4g+j
//                            of pixel s (0 past K);
//                   weight = W[M, 4G] row-major, zero past K.
//   kQConvChannels: act    = tap words [G][M][4], pixels being the rows;
//                   weight = 64-column panels [ceil(N/64)][G][64][4]: byte
//                            (p, g, c, j) is W[channel 64p+c, tap 4g+j], zero
//                            past K and past N.
// Integer accumulation is exact, so results are bitwise independent of the
// thread count and the solver choice by construction — every int8 solver
// must produce identical bits. Dequantization is the caller's epilogue, not
// the solver's job.
struct QGemmCall {
  const uint8_t* act;
  const int8_t* weight;
  int32_t* c;
};

// Output spatial extent of a valid pooled dimension.
int64_t PooledDim(int64_t in, int64_t kernel, int64_t stride);

class Solver {
 public:
  virtual ~Solver() = default;

  // Stable identifier ("gemm.packed", "pool.2x2s2"); recorded in the tuning
  // DB and in exported plans, so renaming one invalidates tuned entries.
  virtual const char* name() const = 0;

  // Whether this solver can run `desc` at all (correctness, not preference).
  // A GEMM solver serves all three GEMM families; a pool solver only
  // kMaxPool. Must be decidable from the descriptor alone so the verifier
  // can lint plans and tuning DBs offline.
  virtual bool IsApplicable(const ProblemDesc& desc) const = 0;

  // Upper bound on thread-local scratch the solver packs for `desc`, in
  // bytes. Purely informational (the arena grows on demand); the autotuner
  // reports it and tests sanity-check it.
  virtual int64_t WorkspaceBytes(const ProblemDesc& /*desc*/) const { return 0; }
};

class GemmSolver : public Solver {
 public:
  // Requires IsApplicable(desc). Results are bitwise independent of the
  // thread count; determinism tests pin solvers via a frozen tuning DB and
  // compare outputs exactly.
  virtual void Run(const ProblemDesc& desc, const GemmCall& call) const = 0;
};

class PoolSolver : public Solver {
 public:
  virtual void Run(const ProblemDesc& desc, const PoolCall& call) const = 0;
};

class QGemmSolver : public Solver {
 public:
  // Requires IsApplicable(desc) and desc.dtype == kInt8. Always overwrites C
  // (quantized epilogues fold accumulation downstream).
  virtual void Run(const ProblemDesc& desc, const QGemmCall& call) const = 0;
};

// Reference GEMM loops in the caller-facing argument orders (see
// tensor_ops.h for the layout contract). They are the oracle for the
// randomized solver cross-check tests, the tiny-problem fast path, and the
// baseline the micro_ops bench reports speedups against.
void RefMatmulNN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
                 bool accumulate = false);
void RefMatmulNT(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
                 bool accumulate = false);
void RefMatmulTN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
                 bool accumulate = false);

// Reference u8·s8 -> s32 loop, the oracle for the int8 solver cross-checks.
void RefQMatmulNN(const uint8_t* a, const int8_t* b, int32_t* c, int64_t m, int64_t k,
                  int64_t n);

// The u8 im2col of an int8 conv: gathers one quantized sample `image`
// (C, hp, wp), already padded — its border holds the zero point — into the
// tap words [ceil(K/4)][OH*OW][4] both conv families read (QGemmCall), K =
// C*kernel*kernel taps in (C, KH, KW) order, taps past K zero. At stride 1 a
// group's four taps interleave four contiguous row spans; other strides
// gather per pixel.
void BuildTapWords(const uint8_t* image, int64_t c, int64_t hp, int64_t wp, int64_t kernel,
                   int64_t stride, int64_t oh, int64_t ow, uint8_t* words);

// Packs a conv's row-major s8 weights W[O, K] (O, K from the kQConvPixels or
// kQConvChannels desc) into that family's weight operand, QWeightBytes(desc)
// bytes at dst.
void PackQConvWeights(const ProblemDesc& desc, const int8_t* w, int8_t* dst);

}  // namespace gmorph::kernels

#endif  // GMORPH_SRC_KERNELS_SOLVER_H_
