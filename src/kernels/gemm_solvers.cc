// The built-in GEMM solvers: the register-tiled direct path, the
// cache-blocked packed path, the narrow-N dot path, and the reference loops.
// All four compute the same logical product C[M,N] (+)= A·B over the strided
// views in GemmCall and produce results that are bitwise independent of the
// thread count (work is chunked on fixed grains, never on the worker count).
#include <algorithm>
#include <cstring>

#include "src/common/parallel_for.h"
#include "src/kernels/builtin_solvers.h"
#include "src/kernels/scratch.h"
#include "src/kernels/solver.h"

#if defined(__AVX__)
#include <immintrin.h>
#endif

namespace gmorph::kernels {
namespace {

#define GMORPH_RESTRICT __restrict__

// Transpose tile: 8 x 8 floats, one ymm register per row on AVX builds.
constexpr int64_t kTB = 8;

#if defined(__AVX__)
// dst[c * ldd + r] = src[r * lds + c] for one full 8 x 8 tile: eight row
// loads, three shuffle stages, eight row stores.
void Transpose8x8(const float* src, int64_t lds, float* dst, int64_t ldd) {
  __m256 r[kTB];
  for (int64_t i = 0; i < kTB; ++i) {
    r[i] = _mm256_loadu_ps(src + i * lds);
  }
  __m256 t[kTB];
  for (int64_t i = 0; i < kTB; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  // s[4g + q] holds column q (low half) and column q + 4 (high half) of rows
  // 4g..4g+3.
  __m256 s[kTB];
  for (int64_t g = 0; g < 2; ++g) {
    __m256* sg = s + 4 * g;
    const __m256* tg = t + 4 * g;
    sg[0] = _mm256_shuffle_ps(tg[0], tg[2], _MM_SHUFFLE(1, 0, 1, 0));
    sg[1] = _mm256_shuffle_ps(tg[0], tg[2], _MM_SHUFFLE(3, 2, 3, 2));
    sg[2] = _mm256_shuffle_ps(tg[1], tg[3], _MM_SHUFFLE(1, 0, 1, 0));
    sg[3] = _mm256_shuffle_ps(tg[1], tg[3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int64_t q = 0; q < 4; ++q) {
    _mm256_storeu_ps(dst + q * ldd, _mm256_permute2f128_ps(s[q], s[q + 4], 0x20));
    _mm256_storeu_ps(dst + (q + 4) * ldd, _mm256_permute2f128_ps(s[q], s[q + 4], 0x31));
  }
}
#endif

// Register tile of the wide-N micro-kernels: MR x 32 accumulators held in
// registers.
constexpr int64_t kNR = 32;
constexpr int64_t kPackMR = 6;  // packed path: panels are zero-padded to kPackMR
// Direct path: 8-row tiles (16 zmm accumulators on AVX-512 builds), then
// 4-row, then single-row for the tail.
constexpr int64_t kDirectMR = 8;
// Cache blocking for the packed path.
constexpr int64_t kMC = 96;
constexpr int64_t kKC = 256;
constexpr int64_t kNC = 1024;
// Dot-product tile: kLanes partial sums vectorize over K; kJB output columns
// share one pass over the A row.
constexpr int64_t kLanes = 16;
constexpr int64_t kJB = 4;
constexpr int64_t kRowGrain = 16;  // ParallelFor grain over output rows
// The direct path widens its row chunks until each carries this many flops,
// about 45 us on one Sapphire Rapids core. On a shared 4-vCPU KVM guest a
// 4-chunk ParallelFor cost the caller 70-115 us when its workers were parked,
// and far longer while the host was busy, so smaller chunks lose to one
// thread.
constexpr int64_t kDirectMinChunkFlops = int64_t{1} << 22;
// The direct solver materializes a row-major B for the NT layout; past this
// many scratch floats the packed path is strictly better, so the solver
// declares itself inapplicable rather than thrash the arena.
constexpr int64_t kDirectMaxPackFloats = int64_t{1} << 22;

// The f32 solvers serve any GEMM family, but only f32 problems — int8 descs
// belong to the qgemm solvers (int8_solvers.cc).
bool IsGemmFamily(const ProblemDesc& desc) {
  return (desc.op == OpFamily::kGemmNN || desc.op == OpFamily::kGemmNT ||
          desc.op == OpFamily::kGemmTN) &&
         desc.dtype == DType::kF32;
}

// ---- Direct (unpacked) wide path -----------------------------------------

// MR rows x nr <= kNR cols of C; A is read through scalar broadcasts so any
// strides work, B rows must be contiguous (cs == 1). Each element sums its k
// products in order from zero (one FMA each under -ffp-contract=fast), then
// is stored or added to C, whatever the tile height and the column count.
#if defined(__AVX512F__)
// Two zmm accumulators per row, 16 at MR = 8, with intrinsics: on recent
// Intel cores GCC prefers 256-bit vectors, and the portable loop below then
// keeps 32 ymm accumulators and spills 5 of them on every k step. Here the k
// loop touches no stack memory. A column tail (nr < kNR) masks its lanes.
static_assert(kNR == 32, "the zmm tile holds two 16-float vectors per row");
template <int MR>
void DirectTile(int64_t k, const float* GMORPH_RESTRICT a, int64_t ars, int64_t acs,
                const float* GMORPH_RESTRICT b, int64_t ldb, float* GMORPH_RESTRICT c,
                int64_t ldc, int64_t nr, bool accumulate) {
  const __mmask16 lo = _cvtu32_mask16(nr >= 16 ? 0xFFFFu : (1u << nr) - 1u);
  const __mmask16 hi = _cvtu32_mask16(nr >= kNR ? 0xFFFFu : nr > 16 ? (1u << (nr - 16)) - 1u : 0u);
  __m512 acc[MR][2];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    acc[r][0] = _mm512_setzero_ps();
    acc[r][1] = _mm512_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    const __m512 b0 = _mm512_maskz_loadu_ps(lo, b + p * ldb);
    const __m512 b1 = _mm512_maskz_loadu_ps(hi, b + p * ldb + 16);
  #pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * ars + p * acs]);
      acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  if (accumulate) {
  #pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
      acc[r][0] = _mm512_add_ps(_mm512_maskz_loadu_ps(lo, c + r * ldc), acc[r][0]);
      acc[r][1] = _mm512_add_ps(_mm512_maskz_loadu_ps(hi, c + r * ldc + 16), acc[r][1]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    _mm512_mask_storeu_ps(c + r * ldc, lo, acc[r][0]);
    _mm512_mask_storeu_ps(c + r * ldc + 16, hi, acc[r][1]);
  }
}
#else
// One row of a column tail (nr < kNR), with a runtime-bound j loop.
void DirectRowStrip(int64_t k, const float* a, int64_t acs, const float* b, int64_t ldb,
                    int64_t nr, float* c, bool accumulate) {
  float acc[kNR];
  std::memset(acc, 0, sizeof(acc));
  for (int64_t p = 0; p < k; ++p) {
    const float av = a[p * acs];
    const float* bp = b + p * ldb;
    for (int64_t j = 0; j < nr; ++j) {
      acc[j] += av * bp[j];
    }
  }
  if (accumulate) {
    for (int64_t j = 0; j < nr; ++j) {
      c[j] += acc[j];
    }
  } else {
    for (int64_t j = 0; j < nr; ++j) {
      c[j] = acc[j];
    }
  }
}

// Full strips: the j loop over kNR auto-vectorizes (no branches, restrict
// pointers, fixed trip count). A column tail runs row by row.
template <int MR>
void DirectTile(int64_t k, const float* GMORPH_RESTRICT a, int64_t ars, int64_t acs,
                const float* GMORPH_RESTRICT b, int64_t ldb, float* GMORPH_RESTRICT c,
                int64_t ldc, int64_t nr, bool accumulate) {
  if (nr < kNR) {
    for (int r = 0; r < MR; ++r) {
      DirectRowStrip(k, a + r * ars, acs, b, ldb, nr, c + r * ldc, accumulate);
    }
    return;
  }
  float acc[MR * kNR];
  std::memset(acc, 0, sizeof(acc));
  for (int64_t p = 0; p < k; ++p) {
    const float* GMORPH_RESTRICT bp = b + p * ldb;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * ars + p * acs];
      float* GMORPH_RESTRICT accr = acc + r * kNR;
      for (int j = 0; j < kNR; ++j) {
        accr[j] += av * bp[j];
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* GMORPH_RESTRICT cr = c + r * ldc;
    const float* GMORPH_RESTRICT ar = acc + r * kNR;
    if (accumulate) {
      for (int j = 0; j < kNR; ++j) {
        cr[j] += ar[j];
      }
    } else {
      for (int j = 0; j < kNR; ++j) {
        cr[j] = ar[j];
      }
    }
  }
}
#endif

// C[M,N] over a B whose rows are contiguous; no packing, so only worthwhile
// when the working set is cache-resident.
void GemmWideDirect(int64_t m, int64_t k, int64_t n, const MatView& a, const float* b,
                    int64_t ldb, float* c, bool accumulate) {
  // Whole 8-row tiles per chunk; the tile height never changes an element's
  // sum, so neither does the grain.
  const int64_t row_flops = std::max<int64_t>(1, 2 * k * n);
  const int64_t min_rows = (kDirectMinChunkFlops + row_flops - 1) / row_flops;
  const int64_t grain = std::max(kRowGrain, (min_rows + kDirectMR - 1) / kDirectMR * kDirectMR);
  ParallelFor(0, m, grain, [&](int64_t row_lo, int64_t row_hi) {
    for (int64_t jr = 0; jr < n; jr += kNR) {
      const int64_t nr = std::min(kNR, n - jr);
      int64_t ir = row_lo;
      for (; ir + kDirectMR <= row_hi; ir += kDirectMR) {
        DirectTile<kDirectMR>(k, a.at(ir, 0), a.rs, a.cs, b + jr, ldb, c + ir * n + jr, n, nr,
                              accumulate);
      }
      for (; ir + 4 <= row_hi; ir += 4) {
        DirectTile<4>(k, a.at(ir, 0), a.rs, a.cs, b + jr, ldb, c + ir * n + jr, n, nr,
                      accumulate);
      }
      for (; ir < row_hi; ++ir) {
        DirectTile<1>(k, a.at(ir, 0), a.rs, a.cs, b + jr, ldb, c + ir * n + jr, n, nr,
                      accumulate);
      }
    }
  });
}

// ---- Packed (cache-blocked) wide path ------------------------------------

// Packs A block [i0, i0+mc) x [p0, p0+kc) into kPackMR-row panels, zero-padded
// so the micro-kernel never sees a partial panel.
void PackA(const MatView& a, int64_t i0, int64_t mc, int64_t p0, int64_t kc, float* dst) {
  for (int64_t ir = 0; ir < mc; ir += kPackMR) {
    const int64_t mr = std::min(kPackMR, mc - ir);
    for (int64_t p = 0; p < kc; ++p) {
      float* out = dst + p * kPackMR;
      const float* src = a.at(i0 + ir, p0 + p);
      for (int64_t r = 0; r < mr; ++r) {
        out[r] = src[r * a.rs];
      }
      for (int64_t r = mr; r < kPackMR; ++r) {
        out[r] = 0.0f;
      }
    }
    dst += kc * kPackMR;
  }
}

// Packs B block [p0, p0+kc) x [j0, j0+nc) into kNR-column panels, zero-padded.
void PackB(const MatView& b, int64_t p0, int64_t kc, int64_t j0, int64_t nc, float* dst) {
  for (int64_t jr = 0; jr < nc; jr += kNR) {
    const int64_t nr = std::min(kNR, nc - jr);
    if (b.cs == 1) {
      for (int64_t p = 0; p < kc; ++p) {
        float* out = dst + p * kNR;
        const float* src = b.at(p0 + p, j0 + jr);
        for (int64_t j = 0; j < nr; ++j) {
          out[j] = src[j];
        }
        for (int64_t j = nr; j < kNR; ++j) {
          out[j] = 0.0f;
        }
      }
    } else {
      // Transposed source (the NT variant, rs == 1): the panel is the
      // transpose of nr contiguous source rows.
      Transpose(nr, kc, b.at(p0, j0 + jr), b.cs, dst, kNR);
      if (nr < kNR) {
        for (int64_t p = 0; p < kc; ++p) {
          std::fill(dst + p * kNR + nr, dst + (p + 1) * kNR, 0.0f);
        }
      }
    }
    dst += kc * kNR;
  }
}

// kPackMR x kNR micro-kernel over packed panels.
void PackedMicroKernel(int64_t kc, const float* GMORPH_RESTRICT pa,
                       const float* GMORPH_RESTRICT pb, float* GMORPH_RESTRICT acc) {
  for (int64_t p = 0; p < kc; ++p) {
    const float* GMORPH_RESTRICT ap = pa + p * kPackMR;
    const float* GMORPH_RESTRICT bp = pb + p * kNR;
    for (int r = 0; r < kPackMR; ++r) {
      const float av = ap[r];
      float* GMORPH_RESTRICT accr = acc + r * kNR;
      for (int j = 0; j < kNR; ++j) {
        accr[j] += av * bp[j];
      }
    }
  }
}

// C[M,N] with A/B packed into scratch. Row blocks run in parallel; B panels
// are packed once up front and shared read-only across workers.
void GemmWidePacked(int64_t m, int64_t k, int64_t n, const MatView& a, const MatView& b,
                    float* c, bool accumulate) {
  ScratchScope scope;
  for (int64_t jc = 0; jc < n; jc += kNC) {
    const int64_t nc = std::min(kNC, n - jc);
    const int64_t col_panels = (nc + kNR - 1) / kNR;
    // Panel layout: all KC-blocks of packed B, back to back.
    float* pb_all = scope.AllocFloats(static_cast<size_t>(col_panels * kNR * k));
    {
      float* dst = pb_all;
      for (int64_t pc = 0; pc < k; pc += kKC) {
        const int64_t kc = std::min(kKC, k - pc);
        PackB(b, pc, kc, jc, nc, dst);
        dst += col_panels * kNR * kc;
      }
    }
    const int64_t row_blocks = (m + kMC - 1) / kMC;
    ParallelFor(0, row_blocks, 1, [&](int64_t blk_lo, int64_t blk_hi) {
      ScratchScope worker_scope;  // workers run on other threads: own arena
      float* pa = worker_scope.AllocFloats(static_cast<size_t>(kMC * kKC));
      float acc[kPackMR * kNR];
      for (int64_t blk = blk_lo; blk < blk_hi; ++blk) {
        const int64_t ic = blk * kMC;
        const int64_t mc = std::min(kMC, m - ic);
        const float* pb_block = pb_all;
        for (int64_t pc = 0; pc < k; pc += kKC) {
          const int64_t kc = std::min(kKC, k - pc);
          PackA(a, ic, mc, pc, kc, pa);
          const bool first = pc == 0 && !accumulate;
          for (int64_t jr = 0; jr < nc; jr += kNR) {
            const int64_t nr = std::min(kNR, nc - jr);
            const float* pb_panel = pb_block + (jr / kNR) * kc * kNR;
            for (int64_t ir = 0; ir < mc; ir += kPackMR) {
              const int64_t mr = std::min(kPackMR, mc - ir);
              std::memset(acc, 0, sizeof(acc));
              PackedMicroKernel(kc, pa + ir * kc, pb_panel, acc);
              float* ctile = c + (ic + ir) * n + jc + jr;
              for (int64_t r = 0; r < mr; ++r) {
                float* cr = ctile + r * n;
                const float* ar = acc + r * kNR;
                if (first) {
                  for (int64_t j = 0; j < nr; ++j) {
                    cr[j] = ar[j];
                  }
                } else {
                  for (int64_t j = 0; j < nr; ++j) {
                    cr[j] += ar[j];
                  }
                }
              }
            }
          }
          pb_block += col_panels * kNR * kc;
        }
      }
    });
  }
}

// ---- Narrow-N dot-product path -------------------------------------------

// C[i, j..j+JB) = dot(A row i, B^T rows j..j+JB). The lane accumulators
// vectorize over K; the scalar tail covers K % kLanes.
template <int JB>
void DotTile(int64_t k, const float* GMORPH_RESTRICT a, const float* GMORPH_RESTRICT bt,
             int64_t ldbt, float* GMORPH_RESTRICT c, bool accumulate) {
  float acc[JB][kLanes];
  std::memset(acc, 0, sizeof(acc));
  int64_t p = 0;
  for (; p + kLanes <= k; p += kLanes) {
    const float* GMORPH_RESTRICT ap = a + p;
    for (int jj = 0; jj < JB; ++jj) {
      const float* GMORPH_RESTRICT bp = bt + jj * ldbt + p;
      float* GMORPH_RESTRICT lane = acc[jj];
      for (int l = 0; l < kLanes; ++l) {
        lane[l] += ap[l] * bp[l];
      }
    }
  }
  for (int jj = 0; jj < JB; ++jj) {
    float s = 0.0f;
    for (int l = 0; l < kLanes; ++l) {
      s += acc[jj][l];
    }
    for (int64_t pt = p; pt < k; ++pt) {
      s += a[pt] * bt[jj * ldbt + pt];
    }
    c[jj] = accumulate ? c[jj] + s : s;
  }
}

// C[M,N] for narrow N: needs contiguous A rows and contiguous B^T rows, so
// either operand with the wrong layout is transposed into scratch first.
void GemmDot(int64_t m, int64_t k, int64_t n, const MatView& a, const MatView& b, float* c,
             bool accumulate) {
  ScratchScope scope;
  const float* arows = a.data;
  int64_t lda = a.rs;
  if (a.cs != 1) {
    // Source columns are contiguous (rs == 1 for the TN view).
    float* packed = scope.AllocFloats(static_cast<size_t>(m * k));
    Transpose(k, m, a.data, a.cs, packed, k);
    arows = packed;
    lda = k;
  }
  const float* btrows = b.data;
  int64_t ldbt = b.cs;
  if (b.rs != 1) {
    // Source rows are contiguous (cs == 1 for the NN and TN views).
    float* packed = scope.AllocFloats(static_cast<size_t>(n * k));
    Transpose(k, n, b.data, b.rs, packed, k);
    btrows = packed;
    ldbt = k;
  }
  ParallelFor(0, m, kRowGrain, [&](int64_t row_lo, int64_t row_hi) {
    for (int64_t i = row_lo; i < row_hi; ++i) {
      const float* ai = arows + i * lda;
      float* ci = c + i * n;
      int64_t j = 0;
      for (; j + kJB <= n; j += kJB) {
        DotTile<kJB>(k, ai, btrows + j * ldbt, ldbt, ci + j, accumulate);
      }
      for (; j < n; ++j) {
        DotTile<1>(k, ai, btrows + j * ldbt, ldbt, ci + j, accumulate);
      }
    }
  });
}

// ---- Solver wrappers ------------------------------------------------------

class GemmRef final : public GemmSolver {
 public:
  const char* name() const override { return "gemm.ref"; }
  bool IsApplicable(const ProblemDesc& desc) const override { return IsGemmFamily(desc); }
  void Run(const ProblemDesc& desc, const GemmCall& call) const override {
    // The views are canonical (MakeGemmCall), so the data pointers are the
    // original row-major arrays and the reference loops replay exactly.
    switch (desc.op) {
      case OpFamily::kGemmNN:
        RefMatmulNN(call.a.data, call.b.data, call.c, desc.m, desc.k, desc.n, call.accumulate);
        break;
      case OpFamily::kGemmNT:
        RefMatmulNT(call.a.data, call.b.data, call.c, desc.m, desc.k, desc.n, call.accumulate);
        break;
      case OpFamily::kGemmTN:
        RefMatmulTN(call.a.data, call.b.data, call.c, desc.k, desc.m, desc.n, call.accumulate);
        break;
      default:
        break;
    }
  }
};

class GemmDirect final : public GemmSolver {
 public:
  const char* name() const override { return "gemm.direct"; }
  bool IsApplicable(const ProblemDesc& desc) const override {
    if (!IsGemmFamily(desc)) {
      return false;
    }
    // The NT layout has strided B rows; the solver materializes a row-major
    // copy, which stops paying off past the arena-friendly bound.
    if (desc.op == OpFamily::kGemmNT) {
      return desc.k * desc.n <= kDirectMaxPackFloats;
    }
    return true;
  }
  int64_t WorkspaceBytes(const ProblemDesc& desc) const override {
    return desc.op == OpFamily::kGemmNT
               ? desc.k * desc.n * static_cast<int64_t>(sizeof(float))
               : 0;
  }
  void Run(const ProblemDesc& desc, const GemmCall& call) const override {
    if (call.b.cs == 1) {
      GemmWideDirect(desc.m, desc.k, desc.n, call.a, call.b.data, call.b.rs, call.c,
                     call.accumulate);
      return;
    }
    // NT: materialize row-major B once, then run the direct kernel over it.
    ScratchScope scope;
    float* bmat = scope.AllocFloats(static_cast<size_t>(desc.k * desc.n));
    Transpose(desc.n, desc.k, call.b.data, call.b.cs, bmat, desc.n);
    GemmWideDirect(desc.m, desc.k, desc.n, call.a, bmat, desc.n, call.c, call.accumulate);
  }
};

class GemmPacked final : public GemmSolver {
 public:
  const char* name() const override { return "gemm.packed"; }
  bool IsApplicable(const ProblemDesc& desc) const override { return IsGemmFamily(desc); }
  int64_t WorkspaceBytes(const ProblemDesc& desc) const override {
    const int64_t nc = std::min<int64_t>(desc.n, kNC);
    const int64_t col_panels = (nc + kNR - 1) / kNR;
    return (col_panels * kNR * desc.k + kMC * kKC) * static_cast<int64_t>(sizeof(float));
  }
  void Run(const ProblemDesc& desc, const GemmCall& call) const override {
    GemmWidePacked(desc.m, desc.k, desc.n, call.a, call.b, call.c, call.accumulate);
  }
};

class GemmDotSolverImpl final : public GemmSolver {
 public:
  const char* name() const override { return "gemm.dot"; }
  bool IsApplicable(const ProblemDesc& desc) const override { return IsGemmFamily(desc); }
  int64_t WorkspaceBytes(const ProblemDesc& desc) const override {
    int64_t floats = 0;
    if (desc.op == OpFamily::kGemmTN && desc.m > 1) {
      floats += desc.m * desc.k;  // packs A rows contiguous
    }
    if (desc.op != OpFamily::kGemmNT && desc.n > 1) {
      floats += desc.n * desc.k;  // packs B^T rows contiguous
    }
    return floats * static_cast<int64_t>(sizeof(float));
  }
  void Run(const ProblemDesc& desc, const GemmCall& call) const override {
    GemmDot(desc.m, desc.k, desc.n, call.a, call.b, call.c, call.accumulate);
  }
};

}  // namespace

void Transpose(int64_t rows, int64_t cols, const float* src, int64_t lds, float* dst,
               int64_t ldd) {
  // Destination rows outermost, so each block of kTB destination rows fills
  // front to back while the source rows it reads stay in L1.
  for (int64_t c0 = 0; c0 < cols; c0 += kTB) {
    const int64_t cb = std::min(kTB, cols - c0);
    for (int64_t r0 = 0; r0 < rows; r0 += kTB) {
      const int64_t rb = std::min(kTB, rows - r0);
      const float* s = src + r0 * lds + c0;
      float* d = dst + c0 * ldd + r0;
#if defined(__AVX__)
      if (rb == kTB && cb == kTB) {
        Transpose8x8(s, lds, d, ldd);
        continue;
      }
#endif
      for (int64_t c = 0; c < cb; ++c) {
        for (int64_t r = 0; r < rb; ++r) {
          d[c * ldd + r] = s[r * lds + c];
        }
      }
    }
  }
}

const GemmSolver* GemmRefSolver() {
  static const GemmRef solver;
  return &solver;
}

const GemmSolver* GemmDirectSolver() {
  static const GemmDirect solver;
  return &solver;
}

const GemmSolver* GemmPackedSolver() {
  static const GemmPacked solver;
  return &solver;
}

const GemmSolver* GemmDotSolver() {
  static const GemmDotSolverImpl solver;
  return &solver;
}

// ---- Reference loops ------------------------------------------------------

void RefMatmulNN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
                 bool accumulate) {
  if (!accumulate) {
    std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
  }
  // i-k-j order: the inner loop streams over contiguous rows of B and C.
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = ai[p];
      if (av == 0.0f) {
        continue;
      }
      const float* bp = b + p * n;
      for (int64_t j = 0; j < n; ++j) {
        ci[j] += av * bp[j];
      }
    }
  }
}

void RefMatmulNT(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
                 bool accumulate) {
  // C[i,p] = sum_j A[i,j] * B[p,j]; the dot product runs over contiguous rows.
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * n;
    float* ci = c + i * k;
    for (int64_t p = 0; p < k; ++p) {
      const float* bp = b + p * n;
      float acc = 0.0f;
      for (int64_t j = 0; j < n; ++j) {
        acc += ai[j] * bp[j];
      }
      ci[p] = accumulate ? ci[p] + acc : acc;
    }
  }
}

void RefMatmulTN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
                 bool accumulate) {
  if (!accumulate) {
    std::memset(c, 0, static_cast<size_t>(k * n) * sizeof(float));
  }
  // C[p,j] += A[i,p] * B[i,j]; rank-1 updates keep the inner loop contiguous.
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * k;
    const float* bi = b + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = ai[p];
      if (av == 0.0f) {
        continue;
      }
      float* cp = c + p * n;
      for (int64_t j = 0; j < n; ++j) {
        cp[j] += av * bi[j];
      }
    }
  }
}

}  // namespace gmorph::kernels
