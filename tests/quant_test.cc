// Tests for the int8 quantization path (src/quant + the kernel/runtime
// layers it drives): bitwise qgemm solver cross-checks against the reference
// loop, recipe line/file round-trips, the strict recipe linter's rule ids
// over the seeded-defect fixture (the recipe grammar has no comments, so the
// fixture is documented here: line 3 drops in_zp -> quant.entry, line 4 has a
// negative in_scale -> quant.scale, line 5 an out-of-range in_zp -> quant.zp,
// line 6 a zero per-channel weight scale -> quant.scale, line 7 reuses seq=0
// -> quant.duplicate), calibrate->quantize accuracy bounds on every zoo
// benchmark, the zero-allocation steady state of a quantized engine, and the
// engine-level scorer the search injects through EvalOptions::quant_score.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/candidate_eval.h"
#include "src/core/model_parser.h"
#include "src/core/multitask_model.h"
#include "src/data/benchmarks.h"
#include "src/kernels/registry.h"
#include "src/kernels/scratch.h"
#include "src/kernels/solver.h"
#include "src/quant/qparams.h"
#include "src/quant/quant_ops.h"
#include "src/quant/recipe.h"
#include "src/runtime/fused_engine.h"
#include "src/runtime/quant_scoring.h"
#include "tests/test_util.h"

#ifndef GMORPH_TESTDATA_DIR
#define GMORPH_TESTDATA_DIR "tests/testdata"
#endif

namespace gmorph {
namespace {

using kernels::ProblemDesc;
using kernels::ProblemKey;
using kernels::QGemmCall;
using kernels::QGemmSolver;
using kernels::SolverRegistry;
using quant::VerifyQuantRecipeFile;

struct QGemmCase {
  int64_t m, k, n;
};

// Edge shapes for the int8 tile loops: single rows/columns, K below one
// dword group (VNNI packs K in groups of 4), N straddling the 64-column
// panel, plus the conv shapes the engine actually runs. Each case also runs
// as both conv layouts, with m output pixels and n output channels.
const QGemmCase kQGemmEdgeCases[] = {
    {1, 1, 1},   {1, 3, 1},    {5, 1, 9},     {1, 4, 64},   {2, 5, 65},
    {3, 27, 64}, {7, 130, 17}, {64, 48, 64},  {31, 33, 35}, {8, 27, 1024},
    {197, 64, 192}, {1024, 27, 8}, {72, 19, 5}, {16, 576, 64}, {4, 576, 64},
};

// Every applicable solver must reproduce `want` bit for bit.
void ExpectSolversMatch(const ProblemDesc& desc, const uint8_t* act, const int8_t* weight,
                        const std::vector<int32_t>& want) {
  const SolverRegistry& registry = SolverRegistry::Global();
  int ran = 0;
  for (const QGemmSolver* solver : registry.qgemm_solvers()) {
    if (!solver->IsApplicable(desc)) {
      continue;
    }
    ++ran;
    // Poisoned so a solver that skips tail tiles is caught, not masked by
    // zero-initialized output happening to equal a zero product.
    std::vector<int32_t> got(want.size(), INT32_MIN);
    solver->Run(desc, QGemmCall{act, weight, got.data()});
    for (size_t idx = 0; idx < want.size(); ++idx) {
      // Integer accumulation is exact: every solver must match bitwise.
      ASSERT_EQ(got[idx], want[idx])
          << solver->name() << " " << ProblemKey(desc) << " element " << idx;
    }
  }
  EXPECT_GE(ran, 2) << "no solver besides qgemm.ref serves " << ProblemKey(desc);
  const QGemmSolver* resolved = registry.ResolveQGemm(desc);
  ASSERT_NE(resolved, nullptr) << ProblemKey(desc);
  EXPECT_TRUE(resolved->IsApplicable(desc)) << resolved->name();
  const QGemmSolver* heuristic = registry.HeuristicQGemm(desc);
  ASSERT_NE(heuristic, nullptr) << ProblemKey(desc);
  EXPECT_TRUE(heuristic->IsApplicable(desc)) << heuristic->name();
}

TEST(QGemmSolverPropertyTest, AllSolversBitwiseMatchReference) {
  Rng rng(4321);
  ASSERT_FALSE(SolverRegistry::Global().qgemm_solvers().empty());
  std::vector<QGemmCase> cases(std::begin(kQGemmEdgeCases), std::end(kQGemmEdgeCases));
  for (int i = 0; i < 6; ++i) {
    cases.push_back({1 + static_cast<int64_t>(rng.NextU64() % 70),
                     1 + static_cast<int64_t>(rng.NextU64() % 70),
                     1 + static_cast<int64_t>(rng.NextU64() % 70)});
  }
  for (const QGemmCase& c : cases) {
    // Row-major A[m, k] and B[k, n], the kGemmNN operands.
    std::vector<uint8_t> a(static_cast<size_t>(c.m * c.k));
    std::vector<int8_t> b(static_cast<size_t>(c.k * c.n));
    for (uint8_t& v : a) {
      v = static_cast<uint8_t>(rng.NextU64() % 256);
    }
    for (int8_t& v : b) {
      v = static_cast<int8_t>(static_cast<int64_t>(rng.NextU64() % 255) - 127);
    }
    std::vector<int32_t> want(static_cast<size_t>(c.m * c.n));
    kernels::RefQMatmulNN(a.data(), b.data(), want.data(), c.m, c.k, c.n);
    ExpectSolversMatch(kernels::QGemmProblem(c.m, c.k, c.n), a.data(), b.data(), want);

    // The same product as a conv with m output pixels, k taps and n output
    // channels, in both conv layouts (solver.h QGemmCall): tap words written
    // out from the layout's definition, weights packed from W[n, k] rows.
    const int64_t groups = (c.k + 3) / 4;
    std::vector<uint8_t> words(static_cast<size_t>(groups * c.m * 4), 0);
    for (int64_t s = 0; s < c.m; ++s) {
      for (int64_t t = 0; t < c.k; ++t) {
        words[static_cast<size_t>(((t / 4) * c.m + s) * 4 + t % 4)] =
            a[static_cast<size_t>(s * c.k + t)];
      }
    }
    std::vector<int8_t> w_rows(static_cast<size_t>(c.n * c.k));
    for (int64_t o = 0; o < c.n; ++o) {
      for (int64_t t = 0; t < c.k; ++t) {
        w_rows[static_cast<size_t>(o * c.k + t)] = b[static_cast<size_t>(t * c.n + o)];
      }
    }
    ProblemDesc channels = kernels::QGemmProblem(c.m, c.k, c.n);
    channels.op = kernels::OpFamily::kQConvChannels;
    ProblemDesc pixels = kernels::QGemmProblem(c.n, c.k, c.m);
    pixels.op = kernels::OpFamily::kQConvPixels;
    std::vector<int32_t> want_t(want.size());  // C[O, S] = want transposed
    for (int64_t s = 0; s < c.m; ++s) {
      for (int64_t o = 0; o < c.n; ++o) {
        want_t[static_cast<size_t>(o * c.m + s)] = want[static_cast<size_t>(s * c.n + o)];
      }
    }
    for (const auto& [desc, expected] :
         {std::pair{channels, &want}, std::pair{pixels, &want_t}}) {
      ASSERT_EQ(kernels::QActBytes(desc), static_cast<int64_t>(words.size()));
      std::vector<int8_t> packed(static_cast<size_t>(kernels::QWeightBytes(desc)));
      kernels::PackQConvWeights(desc, w_rows.data(), packed.data());
      ExpectSolversMatch(desc, words.data(), packed.data(), *expected);
    }
  }
}

// lround's code, computed wide enough that nothing wraps: the rule the
// quantizers follow for every |v| < 2^31.
int64_t WideCode(double v, int64_t zp, int64_t lo, int64_t hi) {
  return std::clamp<int64_t>(static_cast<int64_t>(std::llround(v)) + zp, lo, hi);
}

TEST(QParamsTest, QuantizersSaturateFarOutOfRange) {
  quant::ActQuant q;
  q.scale = 1e-3f;
  q.zero_point = 10;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Far past the u8 range the code saturates; it never wraps through a
  // narrowing integer conversion.
  const std::vector<std::pair<float, uint8_t>> far = {
      {3e6f, 255}, {-3e6f, 0}, {1e20f, 255}, {-1e20f, 0}, {inf, 255}, {-inf, 0}, {nan, 10}};
  // 17 copies each, so the bulk path's 16-lane body and its scalar tail both
  // see every value.
  std::vector<float> xs;
  for (const auto& [x, want] : far) {
    EXPECT_EQ(quant::QuantizeValue(x, q), want) << x;
    xs.insert(xs.end(), 17, x);
  }
  std::vector<uint8_t> bulk(xs.size());
  quant::QuantizeActivations(xs.data(), static_cast<int64_t>(xs.size()), q, bulk.data());
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(bulk[i], far[i / 17].second) << xs[i];
  }
  EXPECT_EQ(quant::QuantizeWeight(3.0f, 1e-9f), 127);
  EXPECT_EQ(quant::QuantizeWeight(-3.0f, 1e-9f), -127);
  EXPECT_EQ(quant::QuantizeWeight(inf, 1.0f), 127);
  EXPECT_EQ(quant::QuantizeWeight(nan, 1.0f), 0);

  // In range, every code is lround's, exact .5 ties (rounded away from zero)
  // included: a power-of-two scale keeps x / scale and x * (1 / scale) exact.
  q.scale = 0.0625f;
  xs.clear();
  for (int half = -700; half <= 700; ++half) {
    xs.push_back(static_cast<float>(half) * 0.5f * q.scale);
  }
  Rng rng(97);
  for (int i = 0; i < 4000; ++i) {
    xs.push_back((rng.NextFloat() - 0.5f) * 80.0f);
  }
  bulk.resize(xs.size());
  quant::QuantizeActivations(xs.data(), static_cast<int64_t>(xs.size()), q, bulk.data());
  for (size_t i = 0; i < xs.size(); ++i) {
    const double v = static_cast<double>(xs[i]) / q.scale;
    EXPECT_EQ(bulk[i], WideCode(v, q.zero_point, 0, 255)) << xs[i];
    EXPECT_EQ(quant::QuantizeValue(xs[i], q), bulk[i]) << xs[i];
    EXPECT_EQ(quant::QuantizeWeight(xs[i], q.scale), WideCode(v, 0, -127, 127)) << xs[i];
  }
}

// The int8 conv as written out by hand: QuantizeValue per input element,
// zero-point taps for padding, the pixel-major product RefQMatmulNN(col[S,
// K], Wt[K, O]), and the dequant epilogue through the kernels' own helper.
void RefQConv(const Tensor& x, const Tensor& w, const Tensor& b, const quant::ActQuant& q,
              const std::vector<float>& w_scales, const Conv2dArgs& args, const Tensor* skip,
              bool relu, Tensor& out) {
  const int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], wd = x.shape()[3];
  const int64_t o = w.shape()[0], kernel = w.shape()[2], ckk = c * kernel * kernel;
  const int64_t oh = out.shape()[2], ow = out.shape()[3], spatial = oh * ow;
  std::vector<int8_t> wt(static_cast<size_t>(ckk * o));
  std::vector<int32_t> colsum(static_cast<size_t>(o), 0);
  for (int64_t oc = 0; oc < o; ++oc) {
    for (int64_t t = 0; t < ckk; ++t) {
      const int8_t qv = quant::QuantizeWeight(w.data()[oc * ckk + t], w_scales[oc]);
      wt[static_cast<size_t>(t * o + oc)] = qv;
      colsum[static_cast<size_t>(oc)] += qv;
    }
  }
  std::vector<uint8_t> col(static_cast<size_t>(spatial * ckk));
  std::vector<int32_t> acc(static_cast<size_t>(spatial * o));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        for (int64_t t = 0; t < ckk; ++t) {
          const int64_t ch = t / (kernel * kernel);
          const int64_t iy = oy * args.stride + (t / kernel) % kernel - args.padding;
          const int64_t ix = ox * args.stride + t % kernel - args.padding;
          const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < wd;
          col[static_cast<size_t>((oy * ow + ox) * ckk + t)] =
              inside ? quant::QuantizeValue(x.data()[((i * c + ch) * h + iy) * wd + ix], q)
                     : static_cast<uint8_t>(q.zero_point);
        }
      }
    }
    kernels::RefQMatmulNN(col.data(), wt.data(), acc.data(), spatial, ckk, o);
    for (int64_t oc = 0; oc < o; ++oc) {
      const float scale = q.scale * w_scales[static_cast<size_t>(oc)];
      const float bias = b.empty() ? 0.0f : b.data()[oc];
      for (int64_t s = 0; s < spatial; ++s) {
        const int64_t idx = (i * o + oc) * spatial + s;
        float v = quant::Dequant(acc[static_cast<size_t>(s * o + oc)],
                                 q.zero_point * colsum[static_cast<size_t>(oc)], scale) +
                  bias;
        if (skip != nullptr) {
          v += skip->data()[idx];
        }
        out.data()[idx] = relu && v < 0.0f ? 0.0f : v;
      }
    }
  }
}

// Inputs on a power-of-two scale, a quarter of them exact .5 ties of x/scale.
Tensor QuantTestInput(const Shape& shape, float scale, Rng& rng) {
  Tensor x = Tensor::RandomGaussian(shape, rng, 3.0f);
  for (int64_t i = 0; i < x.size(); i += 4) {
    x.data()[i] = (std::round(x.data()[i] / scale) + 0.5f) * scale;
  }
  return x;
}

TEST(QuantOpsReferenceTest, ConvBitwiseMatchesReferenceOnEverySolver) {
  const SolverRegistry& registry = SolverRegistry::Global();
  const float scale = 0.0625f;
  Rng rng(2024);
  int64_t idx = 0, checked = 0;
  for (int64_t c : {1, 3, 8, 16, 64}) {
    for (int64_t o : {1, 8, 16, 65}) {
      for (const auto& [h, w] : {std::pair<int64_t, int64_t>{1, 1}, {2, 2}, {4, 4}, {5, 7},
                                 {8, 8}, {32, 32}}) {
        for (int64_t kernel : {1, 3}) {
          for (int64_t stride : {1, 2}) {
            for (int64_t pad : {0, 1}) {
              if (h + 2 * pad < kernel || w + 2 * pad < kernel) {
                continue;
              }
              // Batch, zero point, skip and ReLU cycle through all 24
              // combinations across the shape grid.
              const int64_t combo = (idx++ * 7) % 24;
              const int64_t batch = combo % 2 == 0 ? 1 : 3;
              quant::ActQuant q;
              q.scale = scale;
              q.zero_point = std::array<int32_t, 3>{0, 37, 255}[(combo / 2) % 3];
              const bool use_skip = (combo / 6) % 2 == 1;
              const bool relu = combo / 12 == 1;
              Conv2dArgs args;
              args.stride = stride;
              args.padding = pad;
              const int64_t oh = ConvOutDim(h, kernel, stride, pad);
              const int64_t ow = ConvOutDim(w, kernel, stride, pad);
              const Tensor x = QuantTestInput(Shape{batch, c, h, w}, scale, rng);
              const Tensor wt = Tensor::RandomGaussian(Shape{o, c, kernel, kernel}, rng, 0.2f);
              const Tensor b = Tensor::RandomGaussian(Shape{o}, rng);
              const Tensor skip = Tensor::RandomGaussian(Shape{batch, o, oh, ow}, rng);
              const std::vector<float> w_scales =
                  quant::RowAbsMaxScales(wt.data(), o, c * kernel * kernel);
              Tensor want(Shape{batch, o, oh, ow});
              RefQConv(x, wt, b, q, w_scales, args, use_skip ? &skip : nullptr, relu, want);
              const quant::QConvWeights qw = quant::PackConvWeights(wt, b, q, w_scales, oh, ow);
              for (const kernels::Solver* solver : registry.Applicable(qw.gemm)) {
                Tensor got(want.shape());
                quant::QConv2dForwardInto(x, qw, args, got, use_skip ? &skip : nullptr, relu,
                                          static_cast<const QGemmSolver*>(solver));
                ASSERT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * want.size()), 0)
                    << solver->name() << " " << ProblemKey(qw.gemm) << " c" << c << " o" << o
                    << " " << h << "x" << w << " k" << kernel << " s" << stride << " p" << pad
                    << " batch " << batch << " zp " << q.zero_point << " skip " << use_skip
                    << " relu " << relu << " max diff " << testing::MaxDiff(got, want);
                ++checked;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

TEST(QuantOpsReferenceTest, LinearBitwiseMatchesReferenceOnEverySolver) {
  const SolverRegistry& registry = SolverRegistry::Global();
  const float scale = 0.0625f;
  Rng rng(2025);
  int64_t idx = 0;
  for (int64_t rows : {1, 3, 17}) {
    for (int64_t in : {1, 3, 8, 16, 64}) {
      for (int64_t out_f : {1, 8, 16, 65}) {
        const int64_t combo = idx++ % 6;
        quant::ActQuant q;
        q.scale = scale;
        q.zero_point = std::array<int32_t, 3>{0, 37, 255}[combo % 3];
        const Activation act = combo < 3 ? Activation::kNone : Activation::kRelu;
        const Tensor x = QuantTestInput(Shape{rows, in}, scale, rng);
        const Tensor w = Tensor::RandomGaussian(Shape{in, out_f}, rng, 0.2f);
        const Tensor b = Tensor::RandomGaussian(Shape{out_f}, rng);
        const std::vector<float> w_scales = quant::ColAbsMaxScales(w.data(), in, out_f);
        const quant::QLinearWeights qw = quant::PackLinearWeights(w, b, q, w_scales);

        Tensor want(Shape{rows, out_f});
        std::vector<uint8_t> qx(static_cast<size_t>(rows * in));
        for (int64_t i = 0; i < rows * in; ++i) {
          qx[static_cast<size_t>(i)] = quant::QuantizeValue(x.data()[i], q);
        }
        std::vector<int32_t> acc(static_cast<size_t>(rows * out_f));
        kernels::RefQMatmulNN(qx.data(), qw.w.data(), acc.data(), rows, in, out_f);
        for (int64_t r = 0; r < rows; ++r) {
          float* row = want.data() + r * out_f;
          for (int64_t j = 0; j < out_f; ++j) {
            row[j] = quant::Dequant(acc[static_cast<size_t>(r * out_f + j)],
                                    q.zero_point * qw.colsum[static_cast<size_t>(j)],
                                    qw.deq_scale[static_cast<size_t>(j)]);
          }
          LinearEpilogueRow(row, out_f, b.data(), /*skip=*/nullptr, act);
        }
        for (const kernels::Solver* solver :
             registry.Applicable(kernels::QGemmProblem(rows, in, out_f))) {
          Tensor got(want.shape());
          quant::QLinearForwardInto(x, qw, got, act, static_cast<const QGemmSolver*>(solver));
          ASSERT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * want.size()), 0)
              << solver->name() << " rows " << rows << " in " << in << " out " << out_f
              << " zp " << q.zero_point;
        }
      }
    }
  }
}

TEST(QuantRecipeTest, StepLineRoundTripsExactly) {
  quant::StepQuantSpec spec;
  spec.seq = 12;
  spec.kind = "conv";
  spec.label = "block 3 / conv=1";  // spaces and '=' must be sanitized
  spec.in_q.scale = 0.0123456789f;
  spec.in_q.zero_point = 131;
  spec.w_scales = {1.17549435e-38f, 0.25f, 3.0f};

  const std::string line = quant::FormatQuantStepLine(spec);
  quant::StepQuantSpec parsed;
  std::string error;
  ASSERT_TRUE(quant::ParseQuantStepLine(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.seq, spec.seq);
  EXPECT_EQ(parsed.kind, spec.kind);
  EXPECT_EQ(parsed.label, "block_3_/_conv_1");
  // %.9g round-trips float32 exactly, so equality is bitwise, not approximate.
  EXPECT_EQ(parsed.in_q.scale, spec.in_q.scale);
  EXPECT_EQ(parsed.in_q.zero_point, spec.in_q.zero_point);
  ASSERT_EQ(parsed.w_scales.size(), spec.w_scales.size());
  for (size_t i = 0; i < spec.w_scales.size(); ++i) {
    EXPECT_EQ(parsed.w_scales[i], spec.w_scales[i]) << "channel " << i;
  }
}

TEST(QuantRecipeTest, ParseRejectsMalformedLines) {
  quant::StepQuantSpec spec;
  std::string error;
  const char* bad[] = {
      "stop seq=0 kind=conv in_scale=1 in_zp=0 w_scales=1",
      "step seq=0 kind=conv in_scale=1 w_scales=1",           // missing in_zp
      "step seq=0 kind=conv in_scale=1 in_zp=256 w_scales=1", // zp > 255
      "step seq=-1 kind=conv in_scale=1 in_zp=0 w_scales=1",  // negative seq
      "step seq=0 kind=conv in_scale=1 in_zp=0 w_scales=1,nope",
      "step seq=0 kind=conv in_scale=1 in_zp=0 w_scales=1 bogus",
  };
  for (const char* line : bad) {
    error.clear();
    EXPECT_FALSE(quant::ParseQuantStepLine(line, &spec, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(QuantRecipeTest, SaveLoadRoundTripAndStrictLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gmorph_quant_roundtrip.quantrecipe").string();
  quant::QuantRecipe recipe;
  for (int i = 0; i < 3; ++i) {
    quant::StepQuantSpec s;
    s.seq = i * 2;
    s.kind = i == 2 ? "linear" : "conv";
    s.label = "step" + std::to_string(i);
    s.in_q.scale = 0.5f / static_cast<float>(i + 1);
    s.in_q.zero_point = 10 * i;
    s.w_scales.assign(static_cast<size_t>(i + 1), 0.125f);
    recipe.steps.push_back(s);
  }
  std::string error;
  ASSERT_TRUE(quant::SaveQuantRecipe(recipe, path, &error)) << error;

  quant::QuantRecipe loaded;
  ASSERT_TRUE(quant::LoadQuantRecipe(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.steps.size(), recipe.steps.size());
  for (size_t i = 0; i < recipe.steps.size(); ++i) {
    EXPECT_EQ(loaded.steps[i].seq, recipe.steps[i].seq);
    EXPECT_EQ(loaded.steps[i].kind, recipe.steps[i].kind);
    EXPECT_EQ(loaded.steps[i].in_q.scale, recipe.steps[i].in_q.scale);
    EXPECT_EQ(loaded.steps[i].in_q.zero_point, recipe.steps[i].in_q.zero_point);
    EXPECT_EQ(loaded.steps[i].w_scales, recipe.steps[i].w_scales);
  }
  EXPECT_EQ(loaded.FindSeq(4)->kind, "linear");
  EXPECT_EQ(loaded.FindSeq(1), nullptr);

  // A saved recipe must satisfy its own strict linter.
  EXPECT_TRUE(VerifyQuantRecipeFile(path).ok());

  // Load refuses corruption outright instead of dropping lines (a recipe
  // drives numerics); the linter reports the same file finding-by-finding.
  const std::string corrupt = std::string(GMORPH_TESTDATA_DIR) + "/quantrecipe_corrupt.txt";
  quant::QuantRecipe rejected;
  EXPECT_FALSE(quant::LoadQuantRecipe(corrupt, &rejected, &error));
  EXPECT_FALSE(quant::LoadQuantRecipe(path + ".does_not_exist", &rejected, &error));
  std::filesystem::remove(path);
}

TEST(QuantVerifierTest, CorruptFixtureReportsEveryAdvertisedRule) {
  const std::string path = std::string(GMORPH_TESTDATA_DIR) + "/quantrecipe_corrupt.txt";
  const DiagnosticList diags = VerifyQuantRecipeFile(path);
  EXPECT_FALSE(diags.ok());
  EXPECT_TRUE(diags.HasRule("quant.entry"));      // line 3: missing in_zp
  EXPECT_TRUE(diags.HasRule("quant.scale"));      // lines 4 and 6
  EXPECT_TRUE(diags.HasRule("quant.zp"));         // line 5: in_zp=999
  EXPECT_TRUE(diags.HasRule("quant.duplicate"));  // line 7: seq=0 again
  // Both scale defects (negative in_scale, zero w_scale) are found, plus one
  // error for each of the other three seeded lines.
  EXPECT_EQ(diags.error_count(), 5);
}

TEST(QuantVerifierTest, MissingHeaderAndVersionAndEmpty) {
  namespace fs = std::filesystem;
  const std::string dir = (fs::temp_directory_path() / "gmorph_quant_verifier").string();
  fs::create_directories(dir);
  auto write = [&](const std::string& name, const std::string& body) {
    const std::string p = dir + "/" + name;
    std::ofstream(p) << body;
    return p;
  };
  EXPECT_TRUE(VerifyQuantRecipeFile(dir + "/nope.quantrecipe").HasRule("quant.open"));
  EXPECT_TRUE(VerifyQuantRecipeFile(write("noheader", "step seq=0\n")).HasRule("quant.header"));
  EXPECT_TRUE(VerifyQuantRecipeFile(write("v2", "gmorph-quant v2\n")).HasRule("quant.version"));
  const DiagnosticList empty = VerifyQuantRecipeFile(write("empty", "gmorph-quant v1\n"));
  EXPECT_TRUE(empty.ok());  // header-only recipe is suspicious, not fatal
  EXPECT_TRUE(empty.HasRule("quant.entry"));
  fs::remove_all(dir);
}

// ---- End-to-end engine quantization over the zoo benchmarks ----

BenchmarkScale QuantScale() {
  BenchmarkScale s;
  s.train_size = 48;
  s.test_size = 32;
  s.cnn_width = 4;
  return s;
}

class QuantZooAccuracy : public ::testing::TestWithParam<int> {};

// Calibrate -> quantize every benchmark bundle and bound the accuracy drop:
// int8 must stay within 1% absolute of the f32 engine on the same test split
// (the paper-level acceptance bar for the low-precision path).
TEST_P(QuantZooAccuracy, Int8WithinOnePercentOfF32) {
  const int bench = GetParam();
  Rng rng(29 + bench);
  BenchmarkDef def = MakeBenchmark(bench, QuantScale(), 71);
  std::vector<ModelSpec> specs;
  for (const BenchmarkTask& task : def.tasks) {
    specs.push_back(task.model);
  }
  AbsGraph g = ParseModelSpecs(specs);
  MultiTaskModel model(g, rng);
  FusedEngine engine(&model);

  const std::vector<double> f32_scores = EngineEvaluateMultiTask(engine, def.test, 16);

  std::vector<Tensor> calib = {def.train.InputBatch(0, 16), def.train.InputBatch(16, 16)};
  const quant::QuantRecipe recipe = engine.Calibrate(calib);
  EXPECT_FALSE(recipe.steps.empty());
  const int applied = engine.Quantize(recipe);
  EXPECT_GT(applied, 0) << def.id;
  EXPECT_EQ(applied, engine.num_quantized_steps());

  const std::vector<double> int8_scores = EngineEvaluateMultiTask(engine, def.test, 16);
  ASSERT_EQ(int8_scores.size(), f32_scores.size());
  for (size_t t = 0; t < f32_scores.size(); ++t) {
    EXPECT_LE(f32_scores[t] - int8_scores[t], 0.01 + 1e-9)
        << def.id << " task " << def.tasks[t].name << ": f32 " << f32_scores[t] << " -> int8 "
        << int8_scores[t];
  }
}

INSTANTIATE_TEST_SUITE_P(AllZoo, QuantZooAccuracy, ::testing::Range(1, kNumBenchmarks + 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "B" + std::to_string(info.param);
                         });

TEST(QuantEngineTest, QuantizedRunsAreDeterministic) {
  Rng rng(31);
  BenchmarkDef def = MakeBenchmark(1, QuantScale(), 73);
  std::vector<ModelSpec> specs;
  for (const BenchmarkTask& task : def.tasks) {
    specs.push_back(task.model);
  }
  AbsGraph g = ParseModelSpecs(specs);
  MultiTaskModel model(g, rng);
  FusedEngine engine(&model);
  engine.Quantize(engine.Calibrate({def.train.InputBatch(0, 16)}));
  ASSERT_GT(engine.num_quantized_steps(), 0);

  const Tensor x = def.test.InputBatch(0, 4);
  std::vector<Tensor> first;
  for (const Tensor& out : engine.Run(x)) {
    first.push_back(out.Clone());  // engine outputs alias internal buffers
  }
  std::vector<Tensor> second = engine.Run(x);
  ASSERT_EQ(first.size(), second.size());
  for (size_t t = 0; t < first.size(); ++t) {
    // Integer accumulation is exact, so repeat runs are bitwise identical.
    EXPECT_EQ(testing::MaxDiff(first[t], second[t]), 0.0f);
  }
}

TEST(QuantEngineTest, QuantizedSteadyStateRunAllocatesNothing) {
  Rng rng(37);
  BenchmarkDef def = MakeBenchmark(1, QuantScale(), 79);
  std::vector<ModelSpec> specs;
  for (const BenchmarkTask& task : def.tasks) {
    specs.push_back(task.model);
  }
  AbsGraph g = ParseModelSpecs(specs);
  MultiTaskModel model(g, rng);
  FusedEngine engine(&model);
  engine.Quantize(engine.Calibrate({def.train.InputBatch(0, 16)}));
  ASSERT_GT(engine.num_quantized_steps(), 0);

  const Tensor x = def.test.InputBatch(0, 4);
  engine.Run(x);  // first sight of the batch size binds buffers and scratch
  engine.Run(x);
  const int64_t tensor_bytes = Tensor::TotalAllocatedBytes();
  const int64_t scratch_bytes = ScratchArena::TotalHeapBytes();
  for (int i = 0; i < 3; ++i) {
    engine.Run(x);
  }
  // The int8 path (u8 im2col staging, packed weights, s32 accumulators,
  // dequant epilogue) must run entirely out of prebound storage.
  EXPECT_EQ(Tensor::TotalAllocatedBytes(), tensor_bytes);
  EXPECT_EQ(ScratchArena::TotalHeapBytes(), scratch_bytes);
}

TEST(QuantEngineTest, ScoreQuantizedEngineReportsBudgetAndLatency) {
  Rng rng(41);
  BenchmarkDef def = MakeBenchmark(1, QuantScale(), 83);
  std::vector<ModelSpec> specs;
  for (const BenchmarkTask& task : def.tasks) {
    specs.push_back(task.model);
  }
  AbsGraph g = ParseModelSpecs(specs);
  MultiTaskModel model(g, rng);
  FusedEngine probe(&model);
  const std::vector<double> f32_scores = EngineEvaluateMultiTask(probe, def.test, 16);

  EvalOptions options;
  options.quant.enabled = true;
  options.quant.calib_batches = 2;
  options.quant.calib_batch_size = 16;
  options.quant.drop_budget = 0.01;
  options.finetune.batch_size = 16;
  options.latency.warmup_runs = 1;
  options.latency.measured_runs = 3;
  const QuantOutcome out =
      ScoreQuantizedEngine(model, def.train, def.test, f32_scores, options);
  EXPECT_GT(out.quantized_steps, 0);
  EXPECT_GT(out.latency_ms, 0.0);
  EXPECT_EQ(out.task_scores.size(), f32_scores.size());
  EXPECT_TRUE(out.within_budget) << "max drop " << out.max_drop;

  // The quant knobs join the eval-options hash only when enabled, so f32
  // cache namespaces stay byte-stable for configs that never opt in.
  EvalOptions f32_options;
  EvalOptions disabled_with_knobs;
  disabled_with_knobs.quant.calib_batches = 7;
  EXPECT_EQ(HashEvalOptions(f32_options), HashEvalOptions(disabled_with_knobs));
  EvalOptions enabled = f32_options;
  enabled.quant.enabled = true;
  EXPECT_NE(HashEvalOptions(f32_options), HashEvalOptions(enabled));
}

}  // namespace
}  // namespace gmorph
