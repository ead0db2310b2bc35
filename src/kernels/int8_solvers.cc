// The built-in quantized GEMM solvers: C_s32[M,N] = A_u8[M,K] · B_s8[K,N].
//
// Integer accumulation is exact, so — unlike the f32 family — every solver
// here is bitwise identical by construction; the autotuner ranks them on
// speed alone. The packed path widens B into sign-extended s16 panels in the
// thread-local scratch arena so the micro-kernel's inner loop is a pure
// broadcast-multiply-accumulate over contiguous lanes (u8·s8 products fit in
// s16, pairs accumulate exactly in s32 — the vpmaddwd-shaped recurrence).
#include <algorithm>
#include <cstring>

#include "src/common/parallel_for.h"
#include "src/kernels/builtin_solvers.h"
#include "src/kernels/scratch.h"
#include "src/kernels/solver.h"

#if defined(__AVX512VNNI__) && defined(__AVX512BW__)
#define GMORPH_HAVE_VNNI 1
#include <immintrin.h>
#else
#define GMORPH_HAVE_VNNI 0
#endif

namespace gmorph::kernels {
namespace {

#define GMORPH_RESTRICT __restrict__

// Register tile of the packed micro-kernel: kQMR x kQNR s32 accumulators.
// kQNR matches the f32 family's 32-column strip (one cache line of s8 B).
constexpr int64_t kQNR = 32;
constexpr int64_t kQMR = 4;
constexpr int64_t kQRowGrain = 16;  // ParallelFor grain over output rows

bool IsQGemm(const ProblemDesc& desc) {
  return desc.op == OpFamily::kGemmNN && desc.dtype == DType::kInt8;
}

// ---- Packed path ----------------------------------------------------------

// Packs B[k x n] (row-major s8) into kQNR-column s16 panels, zero-padded, so
// the micro-kernel loads widened lanes straight off contiguous memory.
void QPackB(const int8_t* b, int64_t k, int64_t n, int16_t* dst) {
  for (int64_t jr = 0; jr < n; jr += kQNR) {
    const int64_t nr = std::min(kQNR, n - jr);
    for (int64_t p = 0; p < k; ++p) {
      const int8_t* src = b + p * n + jr;
      int16_t* out = dst + p * kQNR;
      for (int64_t j = 0; j < nr; ++j) {
        out[j] = src[j];
      }
      for (int64_t j = nr; j < kQNR; ++j) {
        out[j] = 0;
      }
    }
    dst += k * kQNR;
  }
}

// MR rows x kQNR cols over a packed s16 B panel; A rows are the caller's
// contiguous u8 rows, read through scalar broadcasts. The p-loop is unrolled
// by 2 so the compiler can fuse each lane's pair of s16 products into a
// single s32 multiply-add (both products fit in s16 range individually and
// their sum in s32 — exact).
template <int MR>
void QPackedTile(int64_t k, const uint8_t* GMORPH_RESTRICT a, int64_t lda,
                 const int16_t* GMORPH_RESTRICT pb, int32_t* GMORPH_RESTRICT acc) {
  int64_t p = 0;
  for (; p + 2 <= k; p += 2) {
    const int16_t* GMORPH_RESTRICT b0 = pb + p * kQNR;
    const int16_t* GMORPH_RESTRICT b1 = b0 + kQNR;
    for (int r = 0; r < MR; ++r) {
      const int32_t a0 = a[r * lda + p];
      const int32_t a1 = a[r * lda + p + 1];
      int32_t* GMORPH_RESTRICT accr = acc + r * kQNR;
      for (int j = 0; j < kQNR; ++j) {
        accr[j] += a0 * b0[j] + a1 * b1[j];
      }
    }
  }
  if (p < k) {
    const int16_t* GMORPH_RESTRICT b0 = pb + p * kQNR;
    for (int r = 0; r < MR; ++r) {
      const int32_t a0 = a[r * lda + p];
      int32_t* GMORPH_RESTRICT accr = acc + r * kQNR;
      for (int j = 0; j < kQNR; ++j) {
        accr[j] += a0 * b0[j];
      }
    }
  }
}

void QGemmPackedImpl(int64_t m, int64_t k, int64_t n, const uint8_t* a, const int8_t* b,
                     int32_t* c) {
  ScratchScope scope;
  const int64_t col_panels = (n + kQNR - 1) / kQNR;
  int16_t* pb_all = scope.Alloc<int16_t>(static_cast<size_t>(col_panels * kQNR * k));
  QPackB(b, k, n, pb_all);
  ParallelFor(0, m, kQRowGrain, [&](int64_t row_lo, int64_t row_hi) {
    int32_t acc[kQMR * kQNR];
    for (int64_t jr = 0; jr < n; jr += kQNR) {
      const int64_t nr = std::min(kQNR, n - jr);
      const int16_t* pb_panel = pb_all + (jr / kQNR) * k * kQNR;
      int64_t ir = row_lo;
      for (; ir + kQMR <= row_hi; ir += kQMR) {
        std::memset(acc, 0, sizeof(acc));
        QPackedTile<kQMR>(k, a + ir * k, k, pb_panel, acc);
        for (int64_t r = 0; r < kQMR; ++r) {
          int32_t* cr = c + (ir + r) * n + jr;
          const int32_t* ar = acc + r * kQNR;
          for (int64_t j = 0; j < nr; ++j) {
            cr[j] = ar[j];
          }
        }
      }
      for (; ir < row_hi; ++ir) {
        std::fill_n(acc, kQNR, 0);
        QPackedTile<1>(k, a + ir * k, k, pb_panel, acc);
        int32_t* cr = c + ir * n + jr;
        for (int64_t j = 0; j < nr; ++j) {
          cr[j] = acc[j];
        }
      }
    }
  });
}

// ---- VNNI path ------------------------------------------------------------
//
// AVX512-VNNI's vpdpbusd is this product in hardware: each s32 lane
// accumulates four u8·s8 byte products, so one instruction retires 64 MACs.
// B is packed into 64-column panels where every s32 lane holds four
// consecutive K bytes of one column (zero-padded in both K and N); each A row
// contributes a broadcast dword of four consecutive u8 activations. The
// 4-product lane sums are exact and the s32 accumulation wraps identically to
// the scalar loops, so the path is bit-equal to qgemm.ref for any K < 2^16.

#if GMORPH_HAVE_VNNI

constexpr int64_t kVnniNR = 64;  // columns per packed panel: 4 zmm accumulators
constexpr int64_t kVnniMR = 4;   // rows per micro-tile

// Interleaves four 16-byte row fragments into 16 column dwords
// (out dword c = [r0[c], r1[c], r2[c], r3[c]]) — a 4x16 byte transpose in
// eight unpacks instead of 64 scalar stores.
inline void Interleave4x16(__m128i r0, __m128i r1, __m128i r2, __m128i r3, int8_t* out) {
  const __m128i t0 = _mm_unpacklo_epi8(r0, r1);
  const __m128i t1 = _mm_unpackhi_epi8(r0, r1);
  const __m128i t2 = _mm_unpacklo_epi8(r2, r3);
  const __m128i t3 = _mm_unpackhi_epi8(r2, r3);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), _mm_unpacklo_epi16(t0, t2));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16), _mm_unpackhi_epi16(t0, t2));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 32), _mm_unpacklo_epi16(t1, t3));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 48), _mm_unpackhi_epi16(t1, t3));
}

// Packs B[k x n] (row-major s8) into VNNI panels: panel-major over kVnniNR
// columns, then K groups of 4, then 16-column blocks, i.e. byte
// dst[(((g * 4 + blk) * 16) + lane) * 4 + j] = B[4g + j][jr + blk * 16 + lane].
void QPackBVnni(const int8_t* b, int64_t k, int64_t n, int8_t* dst) {
  const int64_t groups = (k + 3) / 4;
  for (int64_t jr = 0; jr < n; jr += kVnniNR) {
    const int64_t nr = std::min(kVnniNR, n - jr);
    for (int64_t g = 0; g < groups; ++g) {
      int8_t* out = dst + g * kVnniNR * 4;
      const int64_t kj = std::min<int64_t>(4, k - g * 4);
      const int8_t* row = b + g * 4 * n + jr;
      if (kj == 4 && nr == kVnniNR) {
        // Hot interior: full 4-row group, full 64-column panel.
        for (int64_t blk = 0; blk < 4; ++blk) {
          const int8_t* src = row + blk * 16;
          Interleave4x16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src)),
                         _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + n)),
                         _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 2 * n)),
                         _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 3 * n)),
                         out + blk * 64);
        }
        continue;
      }
      if (kj == 4 && nr >= 16) {
        int64_t blk = 0;
        for (; (blk + 1) * 16 <= nr; ++blk) {
          const int8_t* src = row + blk * 16;
          Interleave4x16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src)),
                         _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + n)),
                         _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 2 * n)),
                         _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 3 * n)),
                         out + blk * 64);
        }
        for (int64_t c = blk * 16; c < kVnniNR; ++c) {
          for (int64_t j = 0; j < 4; ++j) {
            out[c * 4 + j] = c < nr ? row[j * n + c] : 0;
          }
        }
        continue;
      }
      // Edge groups (K tail or narrow panel): scalar with zero padding.
      std::memset(out, 0, static_cast<size_t>(kVnniNR) * 4);
      for (int64_t j = 0; j < kj; ++j) {
        const int8_t* src = row + j * n;
        for (int64_t c = 0; c < nr; ++c) {
          out[c * 4 + j] = src[c];
        }
      }
    }
    dst += groups * kVnniNR * 4;
  }
}

// One A row's broadcast dword for K group g: four consecutive u8, zero-padded
// past the end of the row.
inline uint32_t ARowGroupDword(const uint8_t* row, int64_t k, int64_t g) {
  const int64_t p = g * 4;
  if (p + 4 <= k) {
    uint32_t w;
    std::memcpy(&w, row + p, 4);
    return w;
  }
  uint32_t w = 0;
  for (int64_t j = 0; p + j < k; ++j) {
    w |= static_cast<uint32_t>(row[p + j]) << (8 * j);
  }
  return w;
}

// MR rows x kVnniNR cols over one packed panel; writes only nr valid columns.
template <int MR>
void QVnniTile(int64_t k, const uint8_t* GMORPH_RESTRICT a, int64_t lda,
               const int8_t* GMORPH_RESTRICT panel, int32_t* GMORPH_RESTRICT c, int64_t ldc,
               int64_t nr) {
  const int64_t groups = (k + 3) / 4;
  __m512i acc[MR][4];
  for (int r = 0; r < MR; ++r) {
    for (int blk = 0; blk < 4; ++blk) {
      acc[r][blk] = _mm512_setzero_si512();
    }
  }
  for (int64_t g = 0; g < groups; ++g) {
    const int8_t* pg = panel + g * kVnniNR * 4;
    const __m512i b0 = _mm512_loadu_si512(pg);
    const __m512i b1 = _mm512_loadu_si512(pg + 64);
    const __m512i b2 = _mm512_loadu_si512(pg + 128);
    const __m512i b3 = _mm512_loadu_si512(pg + 192);
    for (int r = 0; r < MR; ++r) {
      const __m512i av = _mm512_set1_epi32(
          static_cast<int32_t>(ARowGroupDword(a + r * lda, k, g)));
      acc[r][0] = _mm512_dpbusd_epi32(acc[r][0], av, b0);
      acc[r][1] = _mm512_dpbusd_epi32(acc[r][1], av, b1);
      acc[r][2] = _mm512_dpbusd_epi32(acc[r][2], av, b2);
      acc[r][3] = _mm512_dpbusd_epi32(acc[r][3], av, b3);
    }
  }
  for (int r = 0; r < MR; ++r) {
    int32_t* cr = c + r * ldc;
    if (nr == kVnniNR) {
      _mm512_storeu_si512(cr, acc[r][0]);
      _mm512_storeu_si512(cr + 16, acc[r][1]);
      _mm512_storeu_si512(cr + 32, acc[r][2]);
      _mm512_storeu_si512(cr + 48, acc[r][3]);
    } else {
      alignas(64) int32_t tmp[kVnniNR];
      _mm512_store_si512(tmp, acc[r][0]);
      _mm512_store_si512(tmp + 16, acc[r][1]);
      _mm512_store_si512(tmp + 32, acc[r][2]);
      _mm512_store_si512(tmp + 48, acc[r][3]);
      for (int64_t j = 0; j < nr; ++j) {
        cr[j] = tmp[j];
      }
    }
  }
}

void QGemmVnniImpl(int64_t m, int64_t k, int64_t n, const uint8_t* a, const int8_t* b,
                   int32_t* c) {
  ScratchScope scope;
  const int64_t groups = (k + 3) / 4;
  const int64_t col_panels = (n + kVnniNR - 1) / kVnniNR;
  int8_t* pb_all = scope.Alloc<int8_t>(static_cast<size_t>(col_panels * groups * kVnniNR * 4));
  QPackBVnni(b, k, n, pb_all);
  ParallelFor(0, m, kQRowGrain, [&](int64_t row_lo, int64_t row_hi) {
    for (int64_t jr = 0; jr < n; jr += kVnniNR) {
      const int64_t nr = std::min(kVnniNR, n - jr);
      const int8_t* panel = pb_all + (jr / kVnniNR) * groups * kVnniNR * 4;
      int64_t ir = row_lo;
      for (; ir + kVnniMR <= row_hi; ir += kVnniMR) {
        QVnniTile<kVnniMR>(k, a + ir * k, k, panel, c + ir * n + jr, n, nr);
      }
      for (; ir < row_hi; ++ir) {
        QVnniTile<1>(k, a + ir * k, k, panel, c + ir * n + jr, n, nr);
      }
    }
  });
}

#endif  // GMORPH_HAVE_VNNI

// ---- Solver wrappers ------------------------------------------------------

class QGemmRef final : public QGemmSolver {
 public:
  const char* name() const override { return "qgemm.ref"; }
  bool IsApplicable(const ProblemDesc& desc) const override { return IsQGemm(desc); }
  void Run(const ProblemDesc& desc, const QGemmCall& call) const override {
    RefQMatmulNN(call.a, call.b, call.c, desc.m, desc.k, desc.n);
  }
};

class QGemmPacked final : public QGemmSolver {
 public:
  const char* name() const override { return "qgemm.packed"; }
  bool IsApplicable(const ProblemDesc& desc) const override { return IsQGemm(desc); }
  int64_t WorkspaceBytes(const ProblemDesc& desc) const override {
    const int64_t col_panels = (desc.n + kQNR - 1) / kQNR;
    return col_panels * kQNR * desc.k * static_cast<int64_t>(sizeof(int16_t));
  }
  void Run(const ProblemDesc& desc, const QGemmCall& call) const override {
    QGemmPackedImpl(desc.m, desc.k, desc.n, call.a, call.b, call.c);
  }
};

// Registered unconditionally so solver lists (and name lookups) are
// build-independent; on non-VNNI builds IsApplicable is always false and the
// build fingerprint keeps foreign tuned entries from resolving to it anyway.
class QGemmVnni final : public QGemmSolver {
 public:
  const char* name() const override { return "qgemm.vnni"; }
  bool IsApplicable(const ProblemDesc& desc) const override {
    return GMORPH_HAVE_VNNI && IsQGemm(desc);
  }
  int64_t WorkspaceBytes(const ProblemDesc& desc) const override {
    const int64_t col_panels = (desc.n + 63) / 64;
    return col_panels * 64 * ((desc.k + 3) / 4) * 4;
  }
  void Run(const ProblemDesc& desc, const QGemmCall& call) const override {
#if GMORPH_HAVE_VNNI
    QGemmVnniImpl(desc.m, desc.k, desc.n, call.a, call.b, call.c);
#else
    (void)desc;
    (void)call;
#endif
  }
};

}  // namespace

const QGemmSolver* QGemmRefSolver() {
  static const QGemmRef solver;
  return &solver;
}

const QGemmSolver* QGemmPackedSolver() {
  static const QGemmPacked solver;
  return &solver;
}

const QGemmSolver* QGemmVnniSolver() {
  static const QGemmVnni solver;
  return &solver;
}

// ---- Reference loop -------------------------------------------------------

void RefQMatmulNN(const uint8_t* a, const int8_t* b, int32_t* c, int64_t m, int64_t k,
                  int64_t n) {
  std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(int32_t));
  for (int64_t i = 0; i < m; ++i) {
    const uint8_t* ai = a + i * k;
    int32_t* ci = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const int32_t av = ai[p];
      if (av == 0) {
        continue;
      }
      const int8_t* bp = b + p * n;
      for (int64_t j = 0; j < n; ++j) {
        ci[j] += av * bp[j];
      }
    }
  }
}

}  // namespace gmorph::kernels
