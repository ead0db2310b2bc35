// Micro-benchmarks for the kernel layer: GEMM variants, conv forward/backward,
// and attention at scaled-down VGG / ResNet / ViT shapes.
//
// For each op it prints one JSON line:
//   {"op": ..., "shape": ..., "gflops": ..., "ref_gflops": ..., "speedup": ...,
//    "bytes_per_op": ...}
// gflops is the blocked/parallel kernel, ref_gflops the retained naive
// reference at the same shape (GEMM; for the conv_narrow_* lines, the
// per-sample conv path), bytes_per_op the heap bytes newly
// allocated per iteration in steady state (tensor storage + scratch-arena
// growth) — ops whose workspace comes from the reused arena report only their
// output tensor.
//
// GMORPH_NUM_THREADS controls the kernel thread count; run with 1 and N to
// compare threading scale.
//
// --dtype f32|int8 filters which precision's benches run. The int8 lines
// (qgemm_nn_*) benchmark the registry-resolved u8·s8 solver against the f32
// packed path at the same shape and report the effective memory traffic of
// both (`traffic_bytes` / `f32_traffic_bytes` / `traffic_ratio`), so the JSON
// shows the bandwidth win as well as GFLOP/s. The qconv_* lines time a whole
// batch-1 int8 conv (quantize, tap-word im2col, the resolved conv solver,
// dequant epilogue) against the f32 path the fused engine runs at the same B1
// shape, naming the solver that ran.
//
// --sweep-solvers switches to the solver-registry sweep: every registered
// GEMM solver is benchmarked (autotuner timing path) on each model shape for
// all three variants, one JSON line per (shape, solver) plus a
// "sweep_selected" line comparing the autotuned winner against the heuristic
// default that the hard-coded dispatch would have picked.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "bench/bench_common.h"
#include "src/common/parallel_for.h"
#include "src/common/rng.h"
#include "src/kernels/autotune.h"
#include "src/kernels/registry.h"
#include "src/kernels/scratch.h"
#include "src/kernels/tune_db.h"
#include "src/nn/attention.h"
#include "src/quant/quant_ops.h"
#include "src/tensor/conv_ops.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"

namespace gmorph {
namespace {

int64_t HeapBytesNow() { return Tensor::TotalAllocatedBytes() + ScratchArena::TotalHeapBytes(); }

struct BenchResult {
  double seconds_per_iter = 0.0;
  int64_t bytes_per_iter = 0;
};

// Times fn in steady state: warmup passes grow the arenas, then enough
// iterations to cover ~80ms of wall clock.
BenchResult Run(const std::function<void()>& fn) {
  fn();
  fn();
  const int64_t bytes_before = HeapBytesNow();
  const auto probe_start = std::chrono::steady_clock::now();
  fn();
  const double once =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - probe_start).count();
  const int64_t bytes_one = HeapBytesNow() - bytes_before;
  const int iters = std::clamp(static_cast<int>(0.08 / std::max(once, 1e-7)), 3, 20000);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    fn();
  }
  const double total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  BenchResult r;
  r.seconds_per_iter = total / iters;
  r.bytes_per_iter = bytes_one;
  return r;
}

void PrintLine(const std::string& op, const std::string& shape, double flops,
               const BenchResult& main, const BenchResult* ref) {
  const double gf = flops / main.seconds_per_iter / 1e9;
  obs::JsonWriter line = bench::JsonLine();
  line.Key("op").String(op).Key("shape").String(shape).Key("gflops").Fixed(gf, 2);
  if (ref != nullptr) {
    const double ref_gf = flops / ref->seconds_per_iter / 1e9;
    line.Key("ref_gflops").Fixed(ref_gf, 2).Key("speedup").Fixed(gf / ref_gf, 2);
  }
  line.Key("bytes_per_op").Int(main.bytes_per_iter);
  bench::EmitJsonLine(line);
}

void BenchGemm(Rng& rng, const char* name, int64_t m, int64_t k, int64_t n) {
  Tensor a = Tensor::RandomGaussian(Shape{m, k}, rng);
  Tensor b = Tensor::RandomGaussian(Shape{k, n}, rng);
  Tensor c(Shape{m, n});
  const double flops = 2.0 * m * k * n;
  char shape[96];
  std::snprintf(shape, sizeof(shape), "%lldx%lldx%lld", static_cast<long long>(m),
                static_cast<long long>(k), static_cast<long long>(n));

  BenchResult blocked = Run([&] { MatmulNN(a.data(), b.data(), c.data(), m, k, n); });
  BenchResult naive = Run([&] { RefMatmulNN(a.data(), b.data(), c.data(), m, k, n); });
  PrintLine(std::string("gemm_nn_") + name, shape, flops, blocked, &naive);

  // The two backward products at the same logical shape.
  Tensor dc = Tensor::RandomGaussian(Shape{m, n}, rng);
  BenchResult nt = Run([&] { MatmulNT(dc.data(), b.data(), a.data(), m, n, k); });
  BenchResult nt_ref = Run([&] { RefMatmulNT(dc.data(), b.data(), a.data(), m, n, k); });
  PrintLine(std::string("gemm_nt_") + name, shape, flops, nt, &nt_ref);
  BenchResult tn = Run([&] { MatmulTN(a.data(), dc.data(), b.data(), m, k, n); });
  BenchResult tn_ref = Run([&] { RefMatmulTN(a.data(), dc.data(), b.data(), m, k, n); });
  PrintLine(std::string("gemm_tn_") + name, shape, flops, tn, &tn_ref);
}

void BenchConv(Rng& rng, const char* name, int64_t batch, int64_t c, int64_t hw, int64_t o,
               int64_t kernel, int64_t stride, int64_t padding) {
  Conv2dArgs args;
  args.stride = stride;
  args.padding = padding;
  Tensor x = Tensor::RandomGaussian(Shape{batch, c, hw, hw}, rng);
  Tensor w = Tensor::RandomGaussian(Shape{o, c, kernel, kernel}, rng, 0.1f);
  Tensor b = Tensor::Zeros(Shape{o});
  const int64_t oh = ConvOutDim(hw, kernel, stride, padding);
  const double fwd_flops = 2.0 * batch * o * c * kernel * kernel * oh * oh;
  char shape[96];
  std::snprintf(shape, sizeof(shape), "n%lld c%lld %lldx%lld o%lld k%lld",
                static_cast<long long>(batch), static_cast<long long>(c),
                static_cast<long long>(hw), static_cast<long long>(hw),
                static_cast<long long>(o), static_cast<long long>(kernel));

  BenchResult fwd = Run([&] { Conv2dForward(x, w, b, args); });
  PrintLine(std::string("conv_fwd_") + name, shape, fwd_flops, fwd, nullptr);

  Tensor y = Conv2dForward(x, w, b, args);
  Tensor grad_w(w.shape());
  Tensor grad_b(b.shape());
  // Backward runs two GEMMs of the forward's size (weight and input
  // gradient) and no forward.
  BenchResult bwd = Run([&] { Conv2dBackward(x, w, y, args, grad_w, grad_b); });
  PrintLine(std::string("conv_bwd_") + name, shape, 2.0 * fwd_flops, bwd, nullptr);
}

// The fused engine's narrow-conv path (one pixels x channels GEMM over the
// batch, NarrowConv2dForwardInto) at a B1 shape with a 3x3/pad-1 kernel,
// against the per-sample W·col conv (Conv2dForwardInto, which training runs)
// as the reference.
void BenchNarrowConv(Rng& rng, const char* name, int64_t batch, int64_t c, int64_t hw,
                     int64_t o) {
  Conv2dArgs args;
  args.padding = 1;
  Tensor x = Tensor::RandomGaussian(Shape{batch, c, hw, hw}, rng);
  Tensor w = Tensor::RandomGaussian(Shape{o, c, 3, 3}, rng, 0.1f);
  Tensor wt(Shape{c * 9, o});
  kernels::Transpose(o, c * 9, w.data(), c * 9, wt.data(), o);
  Tensor b = Tensor::Zeros(Shape{o});
  Tensor out(Shape{batch, o, hw, hw});
  BenchResult narrow =
      Run([&] { NarrowConv2dForwardInto(x, wt, 3, b, args, out, nullptr, true); });
  BenchResult per_sample = Run([&] { Conv2dForwardInto(x, w, b, args, out, nullptr, true); });
  char shape[96];
  std::snprintf(shape, sizeof(shape), "n%lld c%lld %lldx%lld o%lld k3",
                static_cast<long long>(batch), static_cast<long long>(c),
                static_cast<long long>(hw), static_cast<long long>(hw),
                static_cast<long long>(o));
  PrintLine(std::string("conv_narrow_") + name, shape, 2.0 * batch * o * c * 9 * hw * hw, narrow,
            &per_sample);
}

// One of infer-b1's wide convs (3x3, stride 1, pad 1, ReLU epilogue), as the
// fused engine runs it: Conv2dForwardInto on the resolved solver, which on
// gemm.direct reads im2col in place. At batch 1 the line also shows the
// per-call set-up.
void BenchWideConv(Rng& rng, const char* name, int64_t batch, int64_t c, int64_t hw, int64_t o) {
  Conv2dArgs args;
  args.padding = 1;
  Tensor x = Tensor::RandomGaussian(Shape{batch, c, hw, hw}, rng);
  Tensor w = Tensor::RandomGaussian(Shape{o, c, 3, 3}, rng, 0.1f);
  Tensor b = Tensor::Zeros(Shape{o});
  Tensor out(Shape{batch, o, hw, hw});
  BenchResult fwd = Run([&] { Conv2dForwardInto(x, w, b, args, out, nullptr, true); });
  char shape[96];
  std::snprintf(shape, sizeof(shape), "n%lld c%lld %lldx%lld o%lld k3",
                static_cast<long long>(batch), static_cast<long long>(c),
                static_cast<long long>(hw), static_cast<long long>(hw),
                static_cast<long long>(o));
  PrintLine(std::string("conv_wide_") + name, shape, 2.0 * batch * o * c * 9 * hw * hw, fwd,
            nullptr);
}

void BenchAttention(Rng& rng, int64_t batch, int64_t t, int64_t dim, int64_t heads) {
  MultiHeadSelfAttention attn(dim, heads, rng);
  Tensor x = Tensor::RandomGaussian(Shape{batch, t, dim}, rng);
  // qkv + proj GEMMs plus the per-head score/context products.
  const double flops = 2.0 * batch * t * dim * 4 * dim + 4.0 * batch * t * t * dim;
  char shape[96];
  std::snprintf(shape, sizeof(shape), "n%lld t%lld d%lld h%lld", static_cast<long long>(batch),
                static_cast<long long>(t), static_cast<long long>(dim),
                static_cast<long long>(heads));
  BenchResult fwd = Run([&] { attn.Forward(x, /*training=*/false); });
  PrintLine("attention_fwd", shape, flops, fwd, nullptr);
}

// The model shapes the standard GEMM benches cover (logical m x k x n).
struct GemmShape {
  const char* name;
  int64_t m, k, n;
};
constexpr GemmShape kGemmShapes[] = {
    {"sq256", 256, 256, 256},  {"vit_qkv", 17, 32, 96},  {"vit_mlp", 17, 32, 64},
    {"vgg_c1", 8, 27, 1024},   {"vgg_c3", 16, 72, 256},  {"vgg_c8", 64, 288, 16},
    // B1's 64->64 conv at 4x4 as the fused engine runs it at batch 1:
    // pixels x (C*KH*KW) x channels.
    {"vgg_c8t", 16, 576, 64},
};

// Int8 u8·s8 -> s32 GEMM against the f32 packed solver at the same shape
// (solver vs solver — not MatmulNN, whose dispatch may pick a different f32
// winner per shape). The f32-packed comparison is the acceptance bar for the
// quantized engine path, so the line reports it as `speedup` directly;
// `traffic_bytes` is the effective memory traffic of one product (u8 A + s8 B
// + s32 C vs all-f32), which is where int8 actually wins on bandwidth-bound
// shapes.
void BenchQGemm(Rng& rng, const char* name, int64_t m, int64_t k, int64_t n) {
  std::vector<uint8_t> a(static_cast<size_t>(m * k));
  std::vector<int8_t> b(static_cast<size_t>(k * n));
  std::vector<int32_t> c(static_cast<size_t>(m * n));
  for (uint8_t& v : a) {
    v = static_cast<uint8_t>(rng.NextInt(256));
  }
  for (int8_t& v : b) {
    v = static_cast<int8_t>(rng.NextIntRange(-127, 127));
  }
  Tensor a32 = Tensor::RandomGaussian(Shape{m, k}, rng);
  Tensor b32 = Tensor::RandomGaussian(Shape{k, n}, rng);
  Tensor c32(Shape{m, n});

  const kernels::SolverRegistry& registry = kernels::SolverRegistry::Global();
  const kernels::ProblemDesc desc = kernels::QGemmProblem(m, k, n);
  const kernels::ProblemDesc f32_desc =
      kernels::GemmProblem(kernels::OpFamily::kGemmNN, m, k, n);
  const kernels::QGemmSolver* solver = registry.ResolveQGemm(desc);
  const kernels::GemmSolver* f32_solver = registry.FindGemm("gemm.packed");
  const kernels::QGemmCall call{a.data(), b.data(), c.data()};
  const kernels::GemmCall f32_call =
      kernels::MakeGemmCall(f32_desc, a32.data(), b32.data(), c32.data(), false);
  BenchResult q = Run([&] { solver->Run(desc, call); });
  BenchResult f32 = Run([&] { f32_solver->Run(f32_desc, f32_call); });

  const double flops = 2.0 * m * k * n;
  const double gf = flops / q.seconds_per_iter / 1e9;
  const double f32_gf = flops / f32.seconds_per_iter / 1e9;
  const int64_t traffic = m * k + k * n + m * n * 4;        // u8 + s8 + s32
  const int64_t f32_traffic = (m * k + k * n + m * n) * 4;  // all f32
  char shape[96];
  std::snprintf(shape, sizeof(shape), "%lldx%lldx%lld", static_cast<long long>(m),
                static_cast<long long>(k), static_cast<long long>(n));
  bench::EmitJsonLine(
      bench::JsonLine()
          .Key("op").String(std::string("qgemm_nn_") + name)
          .Key("shape").String(shape)
          .Key("dtype").String("int8")
          .Key("solver").String(solver->name())
          .Key("gflops").Fixed(gf, 2)
          .Key("f32_gflops").Fixed(f32_gf, 2)
          .Key("speedup").Fixed(f32_gf > 0.0 ? gf / f32_gf : 0.0, 2)
          .Key("traffic_bytes").Int(traffic)
          .Key("f32_traffic_bytes").Int(f32_traffic)
          .Key("traffic_ratio")
          .Fixed(static_cast<double>(f32_traffic) / static_cast<double>(traffic), 2)
          .Key("bytes_per_op").Int(q.bytes_per_iter));
}

// One batch-1 3x3/stride-1/pad-1 conv of B1, int8 against the f32 path the
// fused engine runs for it (NarrowConv2dForwardInto below kWideMinN pixels).
void BenchQConv(Rng& rng, const char* name, int64_t c, int64_t hw, int64_t o) {
  Conv2dArgs args;
  args.padding = 1;
  Tensor x = Tensor::RandomGaussian(Shape{1, c, hw, hw}, rng);
  Tensor w = Tensor::RandomGaussian(Shape{o, c, 3, 3}, rng, 0.1f);
  Tensor b = Tensor::Zeros(Shape{o});
  Tensor out(Shape{1, o, hw, hw});
  quant::TensorRange range;
  range.Observe(x.data(), x.size());
  const quant::QConvWeights qw =
      quant::PackConvWeights(w, b, quant::ActQuantFromRange(range),
                             quant::RowAbsMaxScales(w.data(), o, c * 9), hw, hw);
  const kernels::QGemmSolver* solver = kernels::SolverRegistry::Global().ResolveQGemm(qw.gemm);
  BenchResult q = Run([&] { quant::QConv2dForwardInto(x, qw, args, out, nullptr, true, solver); });
  Tensor wt(Shape{c * 9, o});
  kernels::Transpose(o, c * 9, w.data(), c * 9, wt.data(), o);
  const bool narrow = hw * hw < kernels::kWideMinN;
  BenchResult f32 = Run([&] {
    if (narrow) {
      NarrowConv2dForwardInto(x, wt, 3, b, args, out, nullptr, true);
    } else {
      Conv2dForwardInto(x, w, b, args, out, nullptr, true);
    }
  });
  const double flops = 2.0 * o * c * 9 * hw * hw;
  const double gf = flops / q.seconds_per_iter / 1e9;
  const double f32_gf = flops / f32.seconds_per_iter / 1e9;
  char shape[96];
  std::snprintf(shape, sizeof(shape), "c%lld %lldx%lld o%lld", static_cast<long long>(c),
                static_cast<long long>(hw), static_cast<long long>(hw),
                static_cast<long long>(o));
  bench::EmitJsonLine(bench::JsonLine()
                          .Key("op").String(std::string("qconv_") + name)
                          .Key("shape").String(shape)
                          .Key("dtype").String("int8")
                          .Key("solver").String(solver->name())
                          .Key("gflops").Fixed(gf, 2)
                          .Key("f32_gflops").Fixed(f32_gf, 2)
                          .Key("speedup").Fixed(f32_gf > 0.0 ? gf / f32_gf : 0.0, 2)
                          .Key("bytes_per_op").Int(q.bytes_per_iter));
}

// Benchmarks every applicable solver per (shape, GEMM variant) through the
// autotuner's timing path and reports each candidate plus the selection.
void SweepSolvers() {
  using kernels::OpFamily;
  bench::EmitJsonLine(
      bench::JsonLine().Key("config").String("kernel_threads").Key("value").Int(KernelThreads()));
  const kernels::SolverRegistry& registry = kernels::SolverRegistry::Global();
  kernels::TuneDb db;  // in-memory scratch; the sweep always re-measures
  kernels::AutotuneOptions opts;
  opts.force = true;
  for (const GemmShape& shape : kGemmShapes) {
    for (OpFamily op : {OpFamily::kGemmNN, OpFamily::kGemmNT, OpFamily::kGemmTN}) {
      const kernels::ProblemDesc desc = kernels::GemmProblem(op, shape.m, shape.k, shape.n);
      const std::string heuristic = registry.HeuristicGemm(desc)->name();
      const kernels::TuneResult result = kernels::TuneProblem(desc, db, opts);
      double heuristic_gflops = 0.0;
      for (const kernels::SolverSample& sample : result.samples) {
        if (sample.solver == heuristic) {
          heuristic_gflops = sample.gflops;
        }
        bench::EmitJsonLine(bench::JsonLine()
                                .Key("op").String("sweep")
                                .Key("family").String(kernels::OpFamilyName(op))
                                .Key("shape").String(shape.name)
                                .Key("solver").String(sample.solver)
                                .Key("gflops").Fixed(sample.gflops, 2)
                                .Key("winner").Int(sample.solver == result.winner ? 1 : 0));
      }
      bench::EmitJsonLine(bench::JsonLine()
                              .Key("op").String("sweep_selected")
                              .Key("family").String(kernels::OpFamilyName(op))
                              .Key("shape").String(shape.name)
                              .Key("solver").String(result.winner)
                              .Key("gflops").Fixed(result.winner_gflops, 2)
                              .Key("heuristic").String(heuristic)
                              .Key("heuristic_gflops").Fixed(heuristic_gflops, 2)
                              .Key("improvement")
                              .Fixed(heuristic_gflops > 0.0
                                         ? result.winner_gflops / heuristic_gflops
                                         : 1.0,
                                     3));
    }
  }
}

void Main(const std::string& dtype_filter) {
  Rng rng(42);
  bench::EmitJsonLine(
      bench::JsonLine().Key("config").String("kernel_threads").Key("value").Int(KernelThreads()));
  const bool run_f32 = dtype_filter.empty() || dtype_filter == "f32";
  const bool run_int8 = dtype_filter.empty() || dtype_filter == "int8";

  // Square GEMM plus the scaled model shapes from the zoo:
  //   ViT (dim 32, 4 heads, 17 tokens): qkv (17,32,96), mlp (17,32,64)
  //   VGG (base width 8, 32x32 input): im2col GEMMs o x ckk x oh*ow
  if (run_f32) {
    for (const GemmShape& shape : kGemmShapes) {
      BenchGemm(rng, shape.name, shape.m, shape.k, shape.n);
    }

    BenchConv(rng, "vgg_first", 8, 3, 32, 8, 3, 1, 1);
    BenchConv(rng, "vgg_mid", 8, 16, 16, 32, 3, 1, 1);
    BenchConv(rng, "resnet_stride", 8, 16, 16, 32, 3, 2, 1);
    // The two shapes that dominate search-b1's fine-tuning backward (VGG-13
    // at base width 4, batch 16): 4->4 at 32x32 and 32->32 at 4x4.
    BenchConv(rng, "vgg13_c2", 16, 4, 32, 4, 3, 1, 1);
    BenchConv(rng, "vgg13_c8", 16, 32, 4, 32, 3, 1, 1);
    // infer-b1's wide and narrow convs, at batch 1 and 8.
    for (const int64_t batch : {1, 8}) {
      const std::string n = "_n" + std::to_string(batch);
      BenchWideConv(rng, ("c3_32x32_o8" + n).c_str(), batch, 3, 32, 8);
      BenchWideConv(rng, ("c8_32x32_o8" + n).c_str(), batch, 8, 32, 8);
      BenchWideConv(rng, ("c8_16x16_o16" + n).c_str(), batch, 8, 16, 16);
      BenchWideConv(rng, ("c16_16x16_o16" + n).c_str(), batch, 16, 16, 16);
      BenchWideConv(rng, ("c16_8x8_o32" + n).c_str(), batch, 16, 8, 32);
      BenchWideConv(rng, ("c32_8x8_o32" + n).c_str(), batch, 32, 8, 32);
      BenchNarrowConv(rng, ("c32_4x4" + n).c_str(), batch, 32, 4, 64);
      BenchNarrowConv(rng, ("c64_4x4" + n).c_str(), batch, 64, 4, 64);
      BenchNarrowConv(rng, ("c64_2x2" + n).c_str(), batch, 64, 2, 64);
    }

    BenchAttention(rng, 8, 17, 32, 4);
  }

  if (run_int8) {
    for (const GemmShape& shape : kGemmShapes) {
      BenchQGemm(rng, shape.name, shape.m, shape.k, shape.n);
    }
    BenchQConv(rng, "vgg_first", 3, 32, 8);
    BenchQConv(rng, "vgg_c2", 8, 32, 8);
    BenchQConv(rng, "vgg_c6", 32, 8, 32);
    BenchQConv(rng, "vgg_c8", 64, 4, 64);
    BenchQConv(rng, "vgg_c10", 64, 2, 64);
  }
}

}  // namespace
}  // namespace gmorph

int main(int argc, char** argv) {
  std::string dtype_filter;
  bool sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep-solvers") == 0) {
      sweep = true;
    } else if (std::strcmp(argv[i], "--dtype") == 0 && i + 1 < argc) {
      dtype_filter = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--sweep-solvers] [--dtype f32|int8]\n", argv[0]);
      return 2;
    }
  }
  if (!dtype_filter.empty() && dtype_filter != "f32" && dtype_filter != "int8") {
    std::fprintf(stderr, "unknown --dtype '%s' (want f32 or int8)\n", dtype_filter.c_str());
    return 2;
  }
  if (sweep) {
    gmorph::SweepSolvers();
    return 0;
  }
  gmorph::Main(dtype_filter);
  return 0;
}
