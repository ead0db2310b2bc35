// The built-in GEMM solvers: the register-tiled direct path, the
// cache-blocked packed path, the narrow-N dot path, and the reference loops.
// All four compute the same logical product C[M,N] (+)= A·B over the strided
// views in GemmCall and produce results that are bitwise independent of the
// thread count (work is chunked on fixed grains, never on the worker count).
#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/kernels/builtin_solvers.h"
#include "src/kernels/inplace_conv.h"
#include "src/kernels/scratch.h"
#include "src/kernels/solver.h"

#if defined(__AVX__)
#include <immintrin.h>
#endif

namespace gmorph::kernels {
namespace {

#define GMORPH_RESTRICT __restrict__
// The tile's policy hooks: inlined, so its accumulators stay in registers.
#define GMORPH_INLINE __attribute__((always_inline)) inline

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

// The direct tile computes MR rows x nr <= kNR cols of C. Each element sums
// its k products in order from zero (one FMA each under -ffp-contract=fast),
// then its epilogue runs and it is stored, whatever the tile height and the
// column count. Operands and epilogue are policies, so the plain GEMM and
// the in-place conv operands (inplace_conv.h) run one register tile:
//   A rows   DenseA: a strided view, read through scalar broadcasts, so any
//            strides work. PixelTapA: A[s, p] = image[pixel[s] + tap[p]].
//   B cols   DenseB: rows ldb apart, contiguous (cs == 1). ShiftedRowsB:
//            row p = (ch, kh, kw) of a "same" conv's im2col, read from the
//            padded sample with per-kw lane masks.
//   epilogue StoreC: store, or add to C. ConvEpi: bias, then skip, then the
//            ReLU clamp, as ConvEpilogue (conv_ops.cc) applies them.
// The in-place forms exist on AVX-512 builds only; the portable tile runs
// the dense policies.

struct DenseA {
  const float* a;
  int64_t rs;
  int64_t cs;
  template <int MR>
  DenseA Rows(int64_t i) const {
    return {a + i * rs, rs, cs};
  }
  float at(int r, int64_t p) const { return a[r * rs + p * cs]; }
};

struct DenseBCols {
  const float* b;
  int64_t ldb;
  int64_t nr;
  // The tile's k loop walks rows(k) rows of taps() consecutive B rows each;
  // B row q * taps() + t starts at row(q) + t.
  int64_t rows(int64_t k) const { return k; }
  static constexpr int64_t taps() { return 1; }
  const float* row(int64_t q) const { return b + q * ldb; }
};

struct DenseB {
  const float* b;
  int64_t ldb;
  DenseBCols Cols(int64_t j, int64_t nr) const { return {b + j, ldb, nr}; }
};

struct StoreC {
  bool accumulate;
  StoreC Rows(int64_t /*i*/, int64_t /*j*/) const { return *this; }
};

#if defined(__AVX512F__)
// Two zmm accumulators per row, 16 at MR = 8, with intrinsics: on recent
// Intel cores GCC prefers 256-bit vectors, and the portable loop below then
// keeps 32 ymm accumulators and spills 5 of them on every k step. Here the k
// loop touches no stack memory. A column tail (nr < kNR) masks its lanes.
static_assert(kNR == 32, "the zmm tile holds two 16-float vectors per row");

// The lanes of a column tile nr <= kNR wide.
struct LaneMasks {
  __mmask16 lo;
  __mmask16 hi;
};
GMORPH_INLINE LaneMasks SplitMask(uint32_t lanes) {
  return {_cvtu32_mask16(lanes & 0xFFFFu), _cvtu32_mask16(lanes >> 16)};
}
GMORPH_INLINE uint32_t TailLanes(int64_t nr) { return nr >= kNR ? ~0u : (1u << nr) - 1u; }

// The lanes B row q * taps() + t loads: the column tail for dense B.
GMORPH_INLINE LaneMasks TapMask(const DenseBCols& b, int64_t /*t*/) {
  return SplitMask(TailLanes(b.nr));
}

// MR pixel rows of an in-place im2row: each row's pointer is formed once per
// tile, each tap offset once per k step.
template <int MR>
struct PixelTapRows {
  const float* px[MR];
  const int32_t* tap;
  float at(int r, int64_t p) const { return px[r][tap[p]]; }
};

struct PixelTapA {
  PixelTapOperand op;
  template <int MR>
  PixelTapRows<MR> Rows(int64_t i) const {
    PixelTapRows<MR> rows{};
    for (int r = 0; r < MR; ++r) {
      rows.px[r] = op.image + op.pixel[i + r];
    }
    rows.tap = op.tap;
    return rows;
  }
};

// One column tile of a "same" conv's im2col. Its k loop walks the (ch, kh)
// input rows, and each row's kernel taps: B row (ch, kh, kw) at the tile's
// first pixel starts at base + row_off[ch * kernel + kh] + kw, and its lanes
// are masked per kw (tail lanes included).
struct ShiftedRowsCols {
  const float* base;
  const int32_t* row_off;
  int64_t kernel;
  int64_t nr;
  LaneMasks lanes[SameConvOperand::kMaxKernel];  // per kw
  int64_t rows(int64_t k) const { return k / kernel; }
  int64_t taps() const { return kernel; }
  const float* row(int64_t q) const { return base + row_off[q]; }
};
GMORPH_INLINE LaneMasks TapMask(const ShiftedRowsCols& b, int64_t t) { return b.lanes[t]; }

struct ShiftedRowsB {
  const float* image;  // channel 0's plane, P zero rows first
  const int32_t* row_off;
  int64_t kernel;
  int64_t pad;
  int64_t period;
  const uint32_t* masks;
  ShiftedRowsCols Cols(int64_t j, int64_t nr) const {
    ShiftedRowsCols cols{image + j - pad, row_off, kernel, nr, {}};
    const uint32_t* pattern = masks + (j / kNR) % period * kernel;
    const uint32_t tail = TailLanes(nr);
    for (int64_t kw = 0; kw < kernel; ++kw) {
      cols.lanes[kw] = SplitMask(pattern[kw] & tail);
    }
    return cols;
  }
};

struct ConvEpi {
  const float* bias;
  const float* skip;
  int64_t ldskip;
  bool relu;
  ConvEpi Rows(int64_t i, int64_t j) const {
    return {bias == nullptr ? nullptr : bias + i,
            skip == nullptr ? nullptr : skip + i * ldskip + j, ldskip, relu};
  }
};

// The epilogues, on row r's accumulators before the store.
GMORPH_INLINE void Finish(const StoreC& epi, int /*r*/, const float* cr, LaneMasks m,
                          __m512& a0, __m512& a1) {
  if (epi.accumulate) {
    a0 = _mm512_add_ps(_mm512_maskz_loadu_ps(m.lo, cr), a0);
    a1 = _mm512_add_ps(_mm512_maskz_loadu_ps(m.hi, cr + 16), a1);
  }
}
GMORPH_INLINE void Finish(const ConvEpi& epi, int r, const float* /*cr*/, LaneMasks m,
                          __m512& a0, __m512& a1) {
  if (epi.bias != nullptr) {
    const __m512 bv = _mm512_set1_ps(epi.bias[r]);
    a0 = _mm512_add_ps(a0, bv);
    a1 = _mm512_add_ps(a1, bv);
  }
  if (epi.skip != nullptr) {
    const float* sr = epi.skip + r * epi.ldskip;
    a0 = _mm512_add_ps(a0, _mm512_maskz_loadu_ps(m.lo, sr));
    a1 = _mm512_add_ps(a1, _mm512_maskz_loadu_ps(m.hi, sr + 16));
  }
  if (epi.relu) {
    // x > 0.0f ? x : 0.0f, lane by lane: NaN and -0.0f clamp to +0.0f.
    const __m512 zero = _mm512_setzero_ps();
    a0 = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(a0, zero, _CMP_GT_OQ), a0);
    a1 = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(a1, zero, _CMP_GT_OQ), a1);
  }
}

template <int MR, class ARows, class BCols, class Epi>
void DirectTile(int64_t k, const ARows& a, const BCols& b, float* c, int64_t ldc,
                const Epi& epi) {
  __m512 acc[MR][2];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    acc[r][0] = _mm512_setzero_ps();
    acc[r][1] = _mm512_setzero_ps();
  }
  const int64_t rows = b.rows(k);
  for (int64_t q = 0, p = 0; q < rows; ++q) {
    const float* row = b.row(q);
    for (int64_t t = 0; t < b.taps(); ++t, ++p) {
      const LaneMasks m = TapMask(b, t);
      const __m512 b0 = _mm512_maskz_loadu_ps(m.lo, row + t);
      const __m512 b1 = _mm512_maskz_loadu_ps(m.hi, row + t + 16);
#pragma GCC unroll 8
      for (int r = 0; r < MR; ++r) {
        const __m512 av = _mm512_set1_ps(a.at(r, p));
        acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
        acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
      }
    }
  }
  const LaneMasks m = SplitMask(TailLanes(b.nr));
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    Finish(epi, r, c + r * ldc, m, acc[r][0], acc[r][1]);
    _mm512_mask_storeu_ps(c + r * ldc, m.lo, acc[r][0]);
    _mm512_mask_storeu_ps(c + r * ldc + 16, m.hi, acc[r][1]);
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
void DirectTile(int64_t k, const DenseA& av, const DenseBCols& bv, float* GMORPH_RESTRICT c,
                int64_t ldc, const StoreC& epi) {
  const float* GMORPH_RESTRICT a = av.a;
  const int64_t ars = av.rs;
  const int64_t acs = av.cs;
  const float* GMORPH_RESTRICT b = bv.b;
  const int64_t ldb = bv.ldb;
  if (bv.nr < kNR) {
    for (int r = 0; r < MR; ++r) {
      DirectRowStrip(k, a + r * ars, acs, b, ldb, bv.nr, c + r * ldc, epi.accumulate);
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
    if (epi.accumulate) {
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

// C[M,N] (row-major, ldc = N) over the policies; no packing, so only
// worthwhile when the working set is cache-resident.
template <class A, class B, class Epi>
void DirectGemm(int64_t m, int64_t k, int64_t n, const A& a, const B& b, const Epi& epi,
                float* c) {
  // Whole 8-row tiles per chunk; the tile height never changes an element's
  // sum, so neither does the grain.
  const int64_t row_flops = std::max<int64_t>(1, 2 * k * n);
  const int64_t min_rows = (kDirectMinChunkFlops + row_flops - 1) / row_flops;
  const int64_t grain = std::max(kRowGrain, (min_rows + kDirectMR - 1) / kDirectMR * kDirectMR);
  ParallelFor(0, m, grain, [&](int64_t row_lo, int64_t row_hi) {
    for (int64_t jr = 0; jr < n; jr += kNR) {
      const auto cols = b.Cols(jr, std::min(kNR, n - jr));
      int64_t ir = row_lo;
      for (; ir + kDirectMR <= row_hi; ir += kDirectMR) {
        DirectTile<kDirectMR>(k, a.template Rows<kDirectMR>(ir), cols, c + ir * n + jr, n,
                              epi.Rows(ir, jr));
      }
      for (; ir + 4 <= row_hi; ir += 4) {
        DirectTile<4>(k, a.template Rows<4>(ir), cols, c + ir * n + jr, n, epi.Rows(ir, jr));
      }
      for (; ir < row_hi; ++ir) {
        DirectTile<1>(k, a.template Rows<1>(ir), cols, c + ir * n + jr, n, epi.Rows(ir, jr));
      }
    }
  });
}

void GemmWideDirect(int64_t m, int64_t k, int64_t n, const MatView& a, const float* b,
                    int64_t ldb, float* c, bool accumulate) {
  DirectGemm(m, k, n, DenseA{a.data, a.rs, a.cs}, DenseB{b, ldb}, StoreC{accumulate}, c);
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

// ---- In-place conv operands ------------------------------------------------

bool InPlaceConvSolver(const GemmSolver* solver) {
#if defined(__AVX512F__)
  return solver == GemmDirectSolver();
#else
  (void)solver;
  return false;
#endif
}

bool SameConvOperand::Prepare(int64_t c, int64_t h, int64_t w, int64_t kernel, int64_t padding,
                              ScratchScope& scope) {
  const int64_t plane = (h + 2 * padding) * w;
  if (kernel != 2 * padding + 1 || kernel > kMaxKernel ||
      c * plane + 2 * kNR > std::numeric_limits<int32_t>::max()) {
    return false;
  }
  c_ = c;
  h_ = h;
  w_ = w;
  kernel_ = kernel;
  pad_ = padding;
  // Reads run from tap (0, 0, 0) at pixel 0, P floats before the first
  // plane, to a full tile past tap (C-1, K-1, K-1) at the last tile's first
  // pixel.
  const int64_t spatial = h * w;
  const int64_t last_tile = (spatial - 1) / kNR * kNR;
  front_ = padding;
  back_ = padding + last_tile + kNR - spatial;
  // Tile t starts at column (t * kNR) % W, which repeats every
  // W / gcd(W, kNR) tiles; only the distinct ones get masks.
  period_ = std::min(w / std::gcd(w, kNR), last_tile / kNR + 1);
  uint32_t* masks = scope.Alloc<uint32_t>(static_cast<size_t>(period_ * kernel));
  for (int64_t t = 0; t < period_; ++t) {
    for (int64_t kw = 0; kw < kernel; ++kw) {
      uint32_t lanes = 0;
      int64_t ox = t * kNR % w;
      for (int64_t l = 0; l < kNR; ++l) {
        const int64_t ix = ox + kw - padding;
        lanes |= static_cast<uint32_t>(ix >= 0 && ix < w) << l;
        ox = ox + 1 == w ? 0 : ox + 1;
      }
      masks[t * kernel + kw] = lanes;
    }
  }
  masks_ = masks;
  int32_t* row_off = scope.Alloc<int32_t>(static_cast<size_t>(c * kernel));
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t kh = 0; kh < kernel; ++kh) {
      row_off[ch * kernel + kh] = static_cast<int32_t>(ch * plane + kh * w);
    }
  }
  row_off_ = row_off;
  return true;
}

void SameConvOperand::Copy(const float* x, float* copy) const {
  const int64_t border = pad_ * w_;
  const int64_t interior = h_ * w_;
  float* dst = std::fill_n(copy, front_, 0.0f);
  for (int64_t ch = 0; ch < c_; ++ch) {
    dst = std::fill_n(dst, border, 0.0f);
    dst = std::copy_n(x + ch * interior, interior, dst);
    dst = std::fill_n(dst, border, 0.0f);
  }
  std::fill_n(dst, back_, 0.0f);
}

void SameConvOperand::Run(const float* w, int64_t o, const float* copy, const float* bias,
                          const float* skip, bool relu, float* y) const {
#if defined(__AVX512F__)
  const int64_t ckk = c_ * kernel_ * kernel_;
  const int64_t spatial = h_ * w_;
  const ShiftedRowsB b{copy + front_, row_off_, kernel_, pad_, period_, masks_};
  DirectGemm(o, ckk, spatial, DenseA{w, ckk, 1}, b, ConvEpi{bias, skip, spatial, relu}, y);
#else
  (void)w, (void)o, (void)copy, (void)bias, (void)skip, (void)relu, (void)y;
  GMORPH_CHECK(false, "in-place conv operands need an AVX-512 build");
#endif
}

void RunPixelTapGemm(const ProblemDesc& desc, const PixelTapOperand& a, const float* b,
                     float* c) {
#if defined(__AVX512F__)
  DirectGemm(desc.m, desc.k, desc.n, PixelTapA{a}, DenseB{b, desc.n}, StoreC{false}, c);
#else
  (void)desc, (void)a, (void)b, (void)c;
  GMORPH_CHECK(false, "in-place conv operands need an AVX-512 build");
#endif
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
