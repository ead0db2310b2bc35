// The built-in quantized GEMM solvers: C_s32[M,N] from a u8 activation
// operand and an s8 weight operand, in the layouts QGemmCall lists per
// family.
//
//   gemm_nn (linears):       qgemm.ref, qgemm.packed, qgemm.vnni
//   qconv_pixels (wide):     qgemm.ref, qconv.pixels, qconv.pixels_vnni
//   qconv_channels (narrow): qgemm.ref, qconv.channels, qconv.channels_vnni
//
// Integer accumulation is exact, so — unlike the f32 family — every solver
// here is bitwise identical by construction; the autotuner ranks them on
// speed alone.
//
// Besides the reference loops there are two register tiles, written once
// over a "dot policy": the 4-way u8·s8 dot of one 32-bit word per lane.
// The pixel-lane tile serves qconv_pixels; the channel-lane tile serves
// qconv_channels and, over weight panels packed per call, gemm_nn. The
// *vnni solvers run the dot as one vpdpbusd; qgemm.packed, qconv.pixels and
// qconv.channels emulate it exactly: with two vpmaddwd on the widest vectors
// the build has (AVX-512BW, AVX2, SSE2), else with byte planes in GCC vector
// extensions. Builds without AVX512-VNNI run the same layouts and tiles.
#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/parallel_for.h"
#include "src/kernels/builtin_solvers.h"
#include "src/kernels/scratch.h"
#include "src/kernels/solver.h"

#if defined(__SSE2__) || defined(__AVX2__) || defined(__AVX512BW__)
#include <immintrin.h>
#endif

#if defined(__AVX512VNNI__) && defined(__AVX512BW__)
#define GMORPH_HAVE_VNNI 1
#else
#define GMORPH_HAVE_VNNI 0
#endif

namespace gmorph::kernels {
namespace {

#define GMORPH_RESTRICT __restrict__

constexpr int64_t kQRowGrain = 16;  // ParallelFor grain over output rows

// Columns per kQConvChannels weight panel (QGemmCall): four 16-lane zmm.
constexpr int64_t kPanel = 64;

bool IsInt8(const ProblemDesc& desc, OpFamily op) {
  return desc.op == op && desc.dtype == DType::kInt8;
}

// Bytes of the kPanel-column panels of a K x N weight (QGemmCall).
int64_t PanelBytes(int64_t k, int64_t n) {
  return (n + kPanel - 1) / kPanel * kPanel * ((k + 3) / 4 * 4);
}

uint32_t LoadWord(const void* p) {
  uint32_t w;
  std::memcpy(&w, p, 4);
  return w;
}

// ---- Dot policies ---------------------------------------------------------
//
// A policy's T holds kLanes s32 lanes. Dot(acc, a, b) adds to each lane the
// four products of the lane's u8 bytes in `a` with its s8 bytes in `b`,
// wrapping like vpdpbusd. PrepU8/PrepS8 turn a raw operand into Dot's input
// once, so a loaded vector or a broadcast word feeds many Dots. Tile shapes
// (pixel tile rows x vectors, channel tile rows x vectors per pass) keep the
// accumulators and prepped operands in registers: 16 zmm of 32, 8 ymm or
// 8 xmm of 16.

// Fallback for builds without x86 SIMD (NEON and other ISAs), in GCC vector
// extensions: each byte of a word widens to its own s32 plane, so Dot is
// four lane multiply-adds. Unsigned lanes wrap like vpdpbusd; a
// sign-extended s8 times a u8 is the signed product mod 2^32.
struct VecDot {
  using T = uint32_t __attribute__((vector_size(16)));
  using S32 = int32_t __attribute__((vector_size(16)));
  struct Planes {
    T p[4];
  };
  using U8 = Planes;
  using S8 = Planes;
  static constexpr int kLanes = 4;
  static constexpr int kPixelRows = 4;
  static constexpr int kPixelVecs = 1;
  static constexpr int kChannelRows = 1;
  static constexpr int kChannelVecs = 2;
  static T Zero() { return T{}; }
  static T Load(const void* p) {
    T v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static T LoadPartial(const void* p, int n) {
    T v{};
    std::memcpy(&v, p, static_cast<size_t>(4 * n));
    return v;
  }
  static T Broadcast(uint32_t w) { return T{} + w; }
  static U8 PrepU8(T v) { return {{v & 0xFF, (v >> 8) & 0xFF, (v >> 16) & 0xFF, v >> 24}}; }
  static S8 PrepS8(T v) {
    return {{T(S32(v << 24) >> 24), T(S32(v << 16) >> 24), T(S32(v << 8) >> 24),
             T(S32(v) >> 24)}};
  }
  static T Dot(T acc, const U8& a, const S8& b) {
    return acc + a.p[0] * b.p[0] + a.p[1] * b.p[1] + a.p[2] * b.p[2] + a.p[3] * b.p[3];
  }
  static void Store(int32_t* p, T v) { std::memcpy(p, &v, sizeof(v)); }
  static void StorePartial(int32_t* p, T v, int n) {
    std::memcpy(p, &v, static_cast<size_t>(4 * n));
  }
};

// The vpmaddwd emulation of vpdpbusd over the integer vectors `Io` wraps,
// exact for every byte pair: even and odd bytes widen to s16 (u8 by masking
// and shifting, s8 by arithmetic shifts), each vpmaddwd sums two s16
// products (|sum| <= 2*255*128) into s32, and the lane sum wraps on the
// final add exactly as vpdpbusd does.
template <class Io>
struct MaddDot : Io {
  using T = typename Io::T;
  struct Pair {
    T even, odd;
  };
  using U8 = Pair;
  using S8 = Pair;
  static U8 PrepU8(T v) { return {Io::And(v, Io::Set16(0x00FF)), Io::Srli16By8(v)}; }
  static S8 PrepS8(T v) { return {Io::Srai16By8(Io::Slli16By8(v)), Io::Srai16By8(v)}; }
  static T Dot(T acc, const U8& a, const S8& b) {
    return Io::Add32(acc, Io::Add32(Io::Madd16(a.even, b.even), Io::Madd16(a.odd, b.odd)));
  }
};

#if defined(__AVX512BW__)
struct Avx512Io {
  using T = __m512i;
  static constexpr int kLanes = 16;
  static constexpr int kPixelRows = 4;
  static constexpr int kPixelVecs = 4;
  static constexpr int kChannelRows = 4;
  static constexpr int kChannelVecs = 4;
  static __mmask16 LaneMask(int n) { return static_cast<__mmask16>((1u << n) - 1); }
  static T Zero() { return _mm512_setzero_si512(); }
  static T Load(const void* p) { return _mm512_loadu_si512(p); }
  static T LoadPartial(const void* p, int n) { return _mm512_maskz_loadu_epi32(LaneMask(n), p); }
  static T Broadcast(uint32_t w) { return _mm512_set1_epi32(static_cast<int32_t>(w)); }
  static void Store(int32_t* p, T v) { _mm512_storeu_si512(p, v); }
  static void StorePartial(int32_t* p, T v, int n) { _mm512_mask_storeu_epi32(p, LaneMask(n), v); }
  static T And(T a, T b) { return _mm512_and_si512(a, b); }
  static T Set16(int16_t v) { return _mm512_set1_epi16(v); }
  static T Srli16By8(T v) { return _mm512_srli_epi16(v, 8); }
  static T Slli16By8(T v) { return _mm512_slli_epi16(v, 8); }
  static T Srai16By8(T v) { return _mm512_srai_epi16(v, 8); }
  static T Madd16(T a, T b) { return _mm512_madd_epi16(a, b); }
  static T Add32(T a, T b) { return _mm512_add_epi32(a, b); }
};
using PortableDot = MaddDot<Avx512Io>;
#elif defined(__AVX2__)
struct Avx2Io {
  using T = __m256i;
  static constexpr int kLanes = 8;
  static constexpr int kPixelRows = 4;
  static constexpr int kPixelVecs = 2;
  static constexpr int kChannelRows = 1;
  static constexpr int kChannelVecs = 4;
  static __m256i LaneMask(int n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static T Zero() { return _mm256_setzero_si256(); }
  static T Load(const void* p) { return _mm256_loadu_si256(static_cast<const __m256i*>(p)); }
  static T LoadPartial(const void* p, int n) {
    return _mm256_maskload_epi32(static_cast<const int*>(p), LaneMask(n));
  }
  static T Broadcast(uint32_t w) { return _mm256_set1_epi32(static_cast<int32_t>(w)); }
  static void Store(int32_t* p, T v) { _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v); }
  static void StorePartial(int32_t* p, T v, int n) { _mm256_maskstore_epi32(p, LaneMask(n), v); }
  static T And(T a, T b) { return _mm256_and_si256(a, b); }
  static T Set16(int16_t v) { return _mm256_set1_epi16(v); }
  static T Srli16By8(T v) { return _mm256_srli_epi16(v, 8); }
  static T Slli16By8(T v) { return _mm256_slli_epi16(v, 8); }
  static T Srai16By8(T v) { return _mm256_srai_epi16(v, 8); }
  static T Madd16(T a, T b) { return _mm256_madd_epi16(a, b); }
  static T Add32(T a, T b) { return _mm256_add_epi32(a, b); }
};
using PortableDot = MaddDot<Avx2Io>;
#elif defined(__SSE2__)
struct Sse2Io {
  using T = __m128i;
  static constexpr int kLanes = 4;
  static constexpr int kPixelRows = 4;
  static constexpr int kPixelVecs = 2;
  static constexpr int kChannelRows = 1;
  static constexpr int kChannelVecs = 4;
  static T Zero() { return _mm_setzero_si128(); }
  static T Load(const void* p) { return _mm_loadu_si128(static_cast<const __m128i*>(p)); }
  static T LoadPartial(const void* p, int n) {
    T v = Zero();
    std::memcpy(&v, p, static_cast<size_t>(4 * n));
    return v;
  }
  static T Broadcast(uint32_t w) { return _mm_set1_epi32(static_cast<int32_t>(w)); }
  static void Store(int32_t* p, T v) { _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v); }
  static void StorePartial(int32_t* p, T v, int n) {
    std::memcpy(p, &v, static_cast<size_t>(4 * n));
  }
  static T And(T a, T b) { return _mm_and_si128(a, b); }
  static T Set16(int16_t v) { return _mm_set1_epi16(v); }
  static T Srli16By8(T v) { return _mm_srli_epi16(v, 8); }
  static T Slli16By8(T v) { return _mm_slli_epi16(v, 8); }
  static T Srai16By8(T v) { return _mm_srai_epi16(v, 8); }
  static T Madd16(T a, T b) { return _mm_madd_epi16(a, b); }
  static T Add32(T a, T b) { return _mm_add_epi32(a, b); }
};
using PortableDot = MaddDot<Sse2Io>;
#else
using PortableDot = VecDot;
#endif

#if GMORPH_HAVE_VNNI
// AVX512-VNNI's vpdpbusd is the 4-way dot in hardware: 64 MACs per
// instruction.
struct VnniDot : Avx512Io {
  using U8 = __m512i;
  using S8 = __m512i;
  static U8 PrepU8(T v) { return v; }
  static S8 PrepS8(T v) { return v; }
  static T Dot(T acc, U8 a, S8 b) { return _mm512_dpbusd_epi32(acc, a, b); }
};
#endif

// ---- Pixel-lane tile (kQConvPixels) ---------------------------------------
//
// An MR-channel x NV-vector tile of C[O, S] with output pixels on the lanes.
// Per tap group it loads NV vectors of pixel words once and broadcasts each
// channel's weight word against them. kTail: the last vector holds only
// `tail` pixels (masked load and store).
template <class D, int MR, int NV, bool kTail>
void PixelTile(int64_t groups, const int8_t* GMORPH_RESTRICT w, int64_t ldw,
               const uint8_t* GMORPH_RESTRICT x, int64_t ldx, int tail,
               int32_t* GMORPH_RESTRICT c, int64_t ldc) {
  typename D::T acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = D::Zero();
    }
  }
  for (int64_t g = 0; g < groups; ++g) {
    const uint8_t* xg = x + g * ldx;
    typename D::U8 xv[NV];
    for (int v = 0; v < NV; ++v) {
      const uint8_t* p = xg + v * D::kLanes * 4;
      xv[v] = D::PrepU8(kTail && v == NV - 1 ? D::LoadPartial(p, tail) : D::Load(p));
    }
    for (int r = 0; r < MR; ++r) {
      const typename D::S8 wb = D::PrepS8(D::Broadcast(LoadWord(w + r * ldw + 4 * g)));
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = D::Dot(acc[r][v], xv[v], wb);
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      int32_t* p = c + r * ldc + v * D::kLanes;
      if (kTail && v == NV - 1) {
        D::StorePartial(p, acc[r][v], tail);
      } else {
        D::Store(p, acc[r][v]);
      }
    }
  }
}

// All pixel tiles of MR output channels starting at w / c.
template <class D, int MR>
void PixelRows(int64_t groups, int64_t n, const int8_t* w, const uint8_t* x, int32_t* c) {
  constexpr int kNV = D::kPixelVecs;
  constexpr int64_t kL = D::kLanes;
  const int64_t ldw = 4 * groups;
  const int64_t ldx = 4 * n;
  int64_t s = 0;
  for (; s + kNV * kL <= n; s += kNV * kL) {
    PixelTile<D, MR, kNV, false>(groups, w, ldw, x + 4 * s, ldx, 0, c + s, n);
  }
  for (; s + kL <= n; s += kL) {
    PixelTile<D, MR, 1, false>(groups, w, ldw, x + 4 * s, ldx, 0, c + s, n);
  }
  if (s < n) {
    PixelTile<D, MR, 1, true>(groups, w, ldw, x + 4 * s, ldx, static_cast<int>(n - s), c + s,
                              n);
  }
}

// C[m=O, n=S] over the kQConvPixels operands. Serial: the conv calls it
// once per sample inside its loop over the batch.
template <class D>
void PixelLaneGemm(int64_t m, int64_t k, int64_t n, const int8_t* w, const uint8_t* x,
                   int32_t* c) {
  constexpr int kMR = D::kPixelRows;
  const int64_t groups = (k + 3) / 4;
  int64_t o = 0;
  for (; o + kMR <= m; o += kMR) {
    PixelRows<D, kMR>(groups, n, w + o * 4 * groups, x, c + o * n);
  }
  for (; o < m; ++o) {
    PixelRows<D, 1>(groups, n, w + o * 4 * groups, x, c + o * n);
  }
}

// ---- Channel-lane tile (kQConvChannels, and kGemmNN's panel solvers) ----
//
// An MR-row x kPanel-column tile of C over one weight panel, with output
// channels on the lanes, in passes of D::kChannelVecs vectors so the
// prepped weights fit in registers beside the accumulators. Per tap group a
// pass loads its channel words once and broadcasts each row's activation
// word against them. Passes past the nr valid columns are skipped, and only
// valid columns are written. `Words` reads row r's word of tap group g.

// Row-major A[M, K] (kGemmNN): four consecutive u8 of row r, zero-padded
// past the end of the row.
struct RowMajorWords {
  const uint8_t* a;
  int64_t k;
  uint32_t operator()(int64_t r, int64_t g) const {
    const uint8_t* row = a + r * k;
    const int64_t p = g * 4;
    if (p + 4 <= k) {
      return LoadWord(row + p);
    }
    uint32_t w = 0;
    for (int64_t j = 0; p + j < k; ++j) {
      w |= static_cast<uint32_t>(row[p + j]) << (8 * j);
    }
    return w;
  }
};

// Tap words [G][rows][4] (kQConvChannels).
struct TapWords {
  const uint8_t* a;
  int64_t rows;
  uint32_t operator()(int64_t r, int64_t g) const { return LoadWord(a + (g * rows + r) * 4); }
};

template <class D, int MR, class Words>
void ChannelTile(int64_t groups, const Words& a, int64_t r0, const int8_t* GMORPH_RESTRICT panel,
                 int32_t* GMORPH_RESTRICT c, int64_t ldc, int64_t nr) {
  constexpr int kNV = D::kChannelVecs;
  constexpr int64_t kPassCols = kNV * D::kLanes;
  for (int64_t col0 = 0; col0 < nr; col0 += kPassCols) {
    typename D::T acc[MR][kNV];
    for (int r = 0; r < MR; ++r) {
      for (int v = 0; v < kNV; ++v) {
        acc[r][v] = D::Zero();
      }
    }
    for (int64_t g = 0; g < groups; ++g) {
      const int8_t* pg = panel + (g * kPanel + col0) * 4;
      typename D::S8 wv[kNV];
      for (int v = 0; v < kNV; ++v) {
        wv[v] = D::PrepS8(D::Load(pg + v * D::kLanes * 4));
      }
      for (int r = 0; r < MR; ++r) {
        const typename D::U8 ab = D::PrepU8(D::Broadcast(a(r0 + r, g)));
        for (int v = 0; v < kNV; ++v) {
          acc[r][v] = D::Dot(acc[r][v], ab, wv[v]);
        }
      }
    }
    const int64_t valid = std::min(kPassCols, nr - col0);
    for (int r = 0; r < MR; ++r) {
      int32_t* cr = c + r * ldc + col0;
      if (valid == kPassCols) {
        for (int v = 0; v < kNV; ++v) {
          D::Store(cr + v * D::kLanes, acc[r][v]);
        }
      } else {
        int32_t tmp[kPassCols];
        for (int v = 0; v < kNV; ++v) {
          D::Store(tmp + v * D::kLanes, acc[r][v]);
        }
        std::copy(tmp, tmp + valid, cr);
      }
    }
  }
}

// C[m, n] over kPanel-column weight panels, parallel over row blocks.
template <class D, class Words>
void ChannelLaneGemm(int64_t m, int64_t k, int64_t n, const Words& a, const int8_t* panels,
                     int32_t* c) {
  constexpr int kMR = D::kChannelRows;
  const int64_t groups = (k + 3) / 4;
  ParallelFor(0, m, kQRowGrain, [&](int64_t row_lo, int64_t row_hi) {
    for (int64_t jr = 0; jr < n; jr += kPanel) {
      const int64_t nr = std::min(kPanel, n - jr);
      const int8_t* panel = panels + (jr / kPanel) * groups * kPanel * 4;
      int64_t ir = row_lo;
      for (; ir + kMR <= row_hi; ir += kMR) {
        ChannelTile<D, kMR>(groups, a, ir, panel, c + ir * n + jr, n, nr);
      }
      for (; ir < row_hi; ++ir) {
        ChannelTile<D, 1>(groups, a, ir, panel, c + ir * n + jr, n, nr);
      }
    }
  });
}

// ---- Weight panels ----------------------------------------------------------

// Interleaves four byte rows into n 32-bit words: word i holds bytes
// [rows[0][i], rows[1][i], rows[2][i], rows[3][i]]; a null row reads as
// zeros. Inlined into its two callers: per output row it runs once per tap
// group, so a call costs as much as a narrow row.
inline void InterleaveWords(const uint8_t* const rows[4], int64_t n, uint8_t* out) {
  // Null rows read a zero block without advancing.
  static const uint8_t kZeros[16] = {};
  const uint8_t* p[4];
  int64_t step[4];
  for (int j = 0; j < 4; ++j) {
    p[j] = rows[j] != nullptr ? rows[j] : kZeros;
    step[j] = rows[j] != nullptr ? 1 : 0;
  }
  int64_t i = 0;
#if defined(__SSE2__)
  // A 4 x 16 byte transpose in eight unpacks, then the same on 8 and 4
  // columns, instead of one scalar store per byte.
  const auto load16 = [&](int j) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p[j] + i * step[j]));
  };
  for (; i + 16 <= n; i += 16) {
    const __m128i r0 = load16(0), r1 = load16(1), r2 = load16(2), r3 = load16(3);
    const __m128i t0 = _mm_unpacklo_epi8(r0, r1);
    const __m128i t1 = _mm_unpackhi_epi8(r0, r1);
    const __m128i t2 = _mm_unpacklo_epi8(r2, r3);
    const __m128i t3 = _mm_unpackhi_epi8(r2, r3);
    __m128i* o = reinterpret_cast<__m128i*>(out + 4 * i);
    _mm_storeu_si128(o, _mm_unpacklo_epi16(t0, t2));
    _mm_storeu_si128(o + 1, _mm_unpackhi_epi16(t0, t2));
    _mm_storeu_si128(o + 2, _mm_unpacklo_epi16(t1, t3));
    _mm_storeu_si128(o + 3, _mm_unpackhi_epi16(t1, t3));
  }
  const auto load8 = [&](int j) {
    return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p[j] + i * step[j]));
  };
  for (; i + 8 <= n; i += 8) {
    const __m128i t0 = _mm_unpacklo_epi8(load8(0), load8(1));
    const __m128i t2 = _mm_unpacklo_epi8(load8(2), load8(3));
    __m128i* o = reinterpret_cast<__m128i*>(out + 4 * i);
    _mm_storeu_si128(o, _mm_unpacklo_epi16(t0, t2));
    _mm_storeu_si128(o + 1, _mm_unpackhi_epi16(t0, t2));
  }
  const auto load4 = [&](int j) {
    return _mm_cvtsi32_si128(static_cast<int>(LoadWord(p[j] + i * step[j])));
  };
  for (; i + 4 <= n; i += 4) {
    const __m128i t0 = _mm_unpacklo_epi8(load4(0), load4(1));
    const __m128i t2 = _mm_unpacklo_epi8(load4(2), load4(3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * i), _mm_unpacklo_epi16(t0, t2));
  }
#endif
  for (; i < n; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[4 * i + j] = p[j][i * step[j]];
    }
  }
}

// Packs B[k x n] (row-major s8) into kPanel-column panels: panel-major, then
// K groups of 4, then columns, i.e. byte
// dst[((p * G + g) * kPanel + col) * 4 + j] = B[4g + j][p * kPanel + col],
// zero-padded in both K and N.
void PackPanels(const int8_t* b, int64_t k, int64_t n, int8_t* dst) {
  const int64_t groups = (k + 3) / 4;
  for (int64_t jr = 0; jr < n; jr += kPanel) {
    const int64_t nr = std::min(kPanel, n - jr);
    for (int64_t g = 0; g < groups; ++g) {
      const uint8_t* rows[4];
      for (int64_t j = 0; j < 4; ++j) {
        rows[j] = 4 * g + j < k ? reinterpret_cast<const uint8_t*>(b + (4 * g + j) * n + jr)
                                : nullptr;
      }
      uint8_t* out = reinterpret_cast<uint8_t*>(dst + g * kPanel * 4);
      InterleaveWords(rows, nr, out);
      std::memset(out + nr * 4, 0, static_cast<size_t>((kPanel - nr) * 4));
    }
    dst += groups * kPanel * 4;
  }
}

// kGemmNN (qgemm.packed, qgemm.vnni): B packs into panels in the scratch
// arena on every call, then the channel-lane tile runs over row-major A.
template <class D>
void QGemmPanels(int64_t m, int64_t k, int64_t n, const uint8_t* a, const int8_t* b,
                 int32_t* c) {
  ScratchScope scope;
  int8_t* panels = scope.Alloc<int8_t>(static_cast<size_t>(PanelBytes(k, n)));
  PackPanels(b, k, n, panels);
  ChannelLaneGemm<D>(m, k, n, RowMajorWords{a, k}, panels, c);
}

// ---- Reference loops over the conv layouts ----------------------------------

void RefQConvPixels(const uint8_t* x, const int8_t* w, int32_t* c, int64_t m, int64_t k,
                    int64_t n) {
  const int64_t ldw = (k + 3) / 4 * 4;
  for (int64_t o = 0; o < m; ++o) {
    for (int64_t s = 0; s < n; ++s) {
      int32_t acc = 0;
      for (int64_t t = 0; t < k; ++t) {
        acc += static_cast<int32_t>(x[((t / 4) * n + s) * 4 + t % 4]) * w[o * ldw + t];
      }
      c[o * n + s] = acc;
    }
  }
}

void RefQConvChannels(const uint8_t* x, const int8_t* panels, int32_t* c, int64_t m, int64_t k,
                      int64_t n) {
  const int64_t groups = (k + 3) / 4;
  for (int64_t s = 0; s < m; ++s) {
    for (int64_t o = 0; o < n; ++o) {
      const int8_t* wp = panels + (o / kPanel) * groups * kPanel * 4 + (o % kPanel) * 4;
      int32_t acc = 0;
      for (int64_t t = 0; t < k; ++t) {
        acc += static_cast<int32_t>(x[((t / 4) * m + s) * 4 + t % 4]) *
               wp[(t / 4) * kPanel * 4 + t % 4];
      }
      c[s * n + o] = acc;
    }
  }
}

// ---- Solver wrappers ------------------------------------------------------

class QGemmRef final : public QGemmSolver {
 public:
  const char* name() const override { return "qgemm.ref"; }
  bool IsApplicable(const ProblemDesc& desc) const override {
    return IsInt8(desc, OpFamily::kGemmNN) || IsInt8(desc, OpFamily::kQConvPixels) ||
           IsInt8(desc, OpFamily::kQConvChannels);
  }
  void Run(const ProblemDesc& desc, const QGemmCall& call) const override {
    switch (desc.op) {
      case OpFamily::kQConvPixels:
        RefQConvPixels(call.act, call.weight, call.c, desc.m, desc.k, desc.n);
        break;
      case OpFamily::kQConvChannels:
        RefQConvChannels(call.act, call.weight, call.c, desc.m, desc.k, desc.n);
        break;
      default:
        RefQMatmulNN(call.act, call.weight, call.c, desc.m, desc.k, desc.n);
        break;
    }
  }
};

class QGemmPacked final : public QGemmSolver {
 public:
  const char* name() const override { return "qgemm.packed"; }
  bool IsApplicable(const ProblemDesc& desc) const override {
    return IsInt8(desc, OpFamily::kGemmNN);
  }
  int64_t WorkspaceBytes(const ProblemDesc& desc) const override {
    return PanelBytes(desc.k, desc.n);
  }
  void Run(const ProblemDesc& desc, const QGemmCall& call) const override {
    QGemmPanels<PortableDot>(desc.m, desc.k, desc.n, call.act, call.weight, call.c);
  }
};

// The VNNI solvers are registered unconditionally so solver lists (and name
// lookups) are build-independent; on non-VNNI builds IsApplicable is always
// false and the build fingerprint keeps foreign tuned entries from resolving
// to them anyway.
class QGemmVnni final : public QGemmSolver {
 public:
  const char* name() const override { return "qgemm.vnni"; }
  bool IsApplicable(const ProblemDesc& desc) const override {
    return GMORPH_HAVE_VNNI && IsInt8(desc, OpFamily::kGemmNN);
  }
  int64_t WorkspaceBytes(const ProblemDesc& desc) const override {
    return PanelBytes(desc.k, desc.n);
  }
  void Run(const ProblemDesc& desc, const QGemmCall& call) const override {
#if GMORPH_HAVE_VNNI
    QGemmPanels<VnniDot>(desc.m, desc.k, desc.n, call.act, call.weight, call.c);
#else
    (void)desc;
    (void)call;
#endif
  }
};

// The conv solvers read pre-packed weights (PackQConvWeights) and need no
// scratch. kVnni picks vpdpbusd over the portable emulation.
template <bool kVnni>
class QConvPixels final : public QGemmSolver {
 public:
  const char* name() const override { return kVnni ? "qconv.pixels_vnni" : "qconv.pixels"; }
  bool IsApplicable(const ProblemDesc& desc) const override {
    return (!kVnni || GMORPH_HAVE_VNNI) && IsInt8(desc, OpFamily::kQConvPixels);
  }
  void Run(const ProblemDesc& desc, const QGemmCall& call) const override {
#if GMORPH_HAVE_VNNI
    if (kVnni) {
      PixelLaneGemm<VnniDot>(desc.m, desc.k, desc.n, call.weight, call.act, call.c);
      return;
    }
#endif
    PixelLaneGemm<PortableDot>(desc.m, desc.k, desc.n, call.weight, call.act, call.c);
  }
};

template <bool kVnni>
class QConvChannels final : public QGemmSolver {
 public:
  const char* name() const override {
    return kVnni ? "qconv.channels_vnni" : "qconv.channels";
  }
  bool IsApplicable(const ProblemDesc& desc) const override {
    return (!kVnni || GMORPH_HAVE_VNNI) && IsInt8(desc, OpFamily::kQConvChannels);
  }
  void Run(const ProblemDesc& desc, const QGemmCall& call) const override {
    const TapWords words{call.act, desc.m};
#if GMORPH_HAVE_VNNI
    if (kVnni) {
      ChannelLaneGemm<VnniDot>(desc.m, desc.k, desc.n, words, call.weight, call.c);
      return;
    }
#endif
    ChannelLaneGemm<PortableDot>(desc.m, desc.k, desc.n, words, call.weight, call.c);
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

const QGemmSolver* QConvPixelsSolver(bool vnni) {
  static const QConvPixels<false> portable;
  static const QConvPixels<true> native;
  return vnni ? static_cast<const QGemmSolver*>(&native) : &portable;
}

const QGemmSolver* QConvChannelsSolver(bool vnni) {
  static const QConvChannels<false> portable;
  static const QConvChannels<true> native;
  return vnni ? static_cast<const QGemmSolver*>(&native) : &portable;
}

// ---- Reference loop and packing -----------------------------------------

int64_t QActBytes(const ProblemDesc& desc) {
  const int64_t padded_k = (desc.k + 3) / 4 * 4;
  switch (desc.op) {
    case OpFamily::kQConvPixels:
      return padded_k * desc.n;
    case OpFamily::kQConvChannels:
      return padded_k * desc.m;
    default:
      return desc.m * desc.k;
  }
}

int64_t QWeightBytes(const ProblemDesc& desc) {
  switch (desc.op) {
    case OpFamily::kQConvPixels:
      return desc.m * ((desc.k + 3) / 4 * 4);
    case OpFamily::kQConvChannels:
      return PanelBytes(desc.k, desc.n);
    default:
      return desc.k * desc.n;
  }
}

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

void BuildTapWords(const uint8_t* image, int64_t c, int64_t hp, int64_t wp, int64_t kernel,
                   int64_t stride, int64_t oh, int64_t ow, uint8_t* words) {
  const int64_t taps = c * kernel * kernel;
  const int64_t spatial = oh * ow;
  // Tap t = (ch, kh, kw) reads the image at ch*hp*wp + kh*wp + kw; walk it
  // incrementally instead of dividing per tap.
  int64_t ch = 0, kh = 0, kw = 0;
  for (int64_t g = 0; g * 4 < taps; ++g) {
    int64_t off[4];
    for (int64_t j = 0; j < 4; ++j) {
      if (4 * g + j >= taps) {
        off[j] = -1;
        continue;
      }
      off[j] = (ch * hp + kh) * wp + kw;
      if (++kw == kernel) {
        kw = 0;
        if (++kh == kernel) {
          kh = 0;
          ++ch;
        }
      }
    }
    uint8_t* dst = words + g * spatial * 4;
    if (stride == 1 && ow >= 4) {
      // Each output row of a tap is one contiguous span of its source row.
      for (int64_t oy = 0; oy < oh; ++oy) {
        const uint8_t* rows[4];
        for (int64_t j = 0; j < 4; ++j) {
          rows[j] = off[j] >= 0 ? image + off[j] + oy * wp : nullptr;
        }
        InterleaveWords(rows, ow, dst + oy * ow * 4);
      }
      continue;
    }
    // Strided or rows narrower than one 4-word chunk: gather per pixel.
    for (int64_t oy = 0; oy < oh; ++oy) {
      const uint8_t* src = image + oy * stride * wp;
      for (int64_t ox = 0; ox < ow; ++ox, src += stride, dst += 4) {
        for (int64_t j = 0; j < 4; ++j) {
          dst[j] = off[j] >= 0 ? src[off[j]] : 0;
        }
      }
    }
  }
}

void PackQConvWeights(const ProblemDesc& desc, const int8_t* w, int8_t* dst) {
  const int64_t k = desc.k;
  if (desc.op == OpFamily::kQConvPixels) {
    const int64_t ldw = (k + 3) / 4 * 4;
    for (int64_t o = 0; o < desc.m; ++o) {
      std::copy(w + o * k, w + (o + 1) * k, dst + o * ldw);
      std::fill(dst + o * ldw + k, dst + (o + 1) * ldw, int8_t{0});
    }
    return;
  }
  // kQConvChannels: the panels are packed from W transposed to [K, O].
  const int64_t o = desc.n;
  std::vector<int8_t> wt(static_cast<size_t>(k * o));
  for (int64_t oc = 0; oc < o; ++oc) {
    for (int64_t t = 0; t < k; ++t) {
      wt[static_cast<size_t>(t * o + oc)] = w[oc * k + t];
    }
  }
  PackPanels(wt.data(), k, o, dst);
}

}  // namespace gmorph::kernels
