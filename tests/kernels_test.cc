// Tests for the solver registry, the tuning DB, and the autotuner
// (src/kernels): randomized cross-checks of every GEMM solver against an
// independent oracle, bitwise pool-solver parity, tuning-DB round-trips and
// corrupt-file handling (loader tolerance vs strict linter rule ids), the
// warm-run-zero-benchmarks guarantee, frozen-DB determinism, and concurrent
// DB access (the TSan target for src/kernels, via the *Parallel* filter).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/artifact_header.h"
#include "src/common/rng.h"
#include "src/kernels/autotune.h"
#include "src/kernels/registry.h"
#include "src/kernels/solver.h"
#include "src/kernels/tune_db.h"
#include "src/obs/metrics.h"
#include "src/tensor/tensor_ops.h"

#ifndef GMORPH_TESTDATA_DIR
#define GMORPH_TESTDATA_DIR "tests/testdata"
#endif

namespace gmorph {
namespace {

using kernels::GemmCall;
using kernels::GemmSolver;
using kernels::MakeGemmCall;
using kernels::OpFamily;
using kernels::PoolCall;
using kernels::PooledDim;
using kernels::PoolSolver;
using kernels::ProblemDesc;
using kernels::ProblemKey;
using kernels::SolverRegistry;
using kernels::TuneDb;
using kernels::VerifyTuneDbFile;

void FillRandom(std::vector<float>& v, Rng& rng) {
  for (float& x : v) {
    x = rng.NextFloat() * 2.0f - 1.0f;
  }
}

// Independent oracle straight off the MatView contract: C[i,j] (+)= sum_p
// A(i,p) * B(p,j) in double precision. Deliberately not one of the solvers,
// so it cross-checks gemm.ref and the canonical views themselves.
std::vector<float> OracleGemm(const ProblemDesc& desc, const GemmCall& call,
                              const std::vector<float>& c_init) {
  std::vector<float> out(static_cast<size_t>(desc.m * desc.n));
  for (int64_t i = 0; i < desc.m; ++i) {
    for (int64_t j = 0; j < desc.n; ++j) {
      double acc = call.accumulate ? c_init[static_cast<size_t>(i * desc.n + j)] : 0.0;
      for (int64_t p = 0; p < desc.k; ++p) {
        acc += static_cast<double>(*call.a.at(i, p)) * static_cast<double>(*call.b.at(p, j));
      }
      out[static_cast<size_t>(i * desc.n + j)] = static_cast<float>(acc);
    }
  }
  return out;
}

struct GemmCase {
  int64_t m, k, n;
};

// Edge shapes the dispatch thresholds and tile loops must survive: single
// rows/columns, K=1 (no accumulation loop), tall-skinny and short-wide tiles
// straddling the 32-column strip and the packing panels.
const GemmCase kEdgeCases[] = {
    {1, 1, 1},  {1, 7, 1},   {5, 1, 9},    {1, 32, 64},  {33, 1, 17},
    {3, 96, 2}, {257, 19, 3}, {2, 5, 301}, {64, 48, 64}, {31, 33, 35},
};

TEST(GemmSolverPropertyTest, AllSolversMatchOracleOnEdgeAndRandomShapes) {
  Rng rng(1234);
  const SolverRegistry& registry = SolverRegistry::Global();
  std::vector<GemmCase> cases(std::begin(kEdgeCases), std::end(kEdgeCases));
  for (int i = 0; i < 6; ++i) {
    cases.push_back({1 + static_cast<int64_t>(rng.NextU64() % 70),
                     1 + static_cast<int64_t>(rng.NextU64() % 70),
                     1 + static_cast<int64_t>(rng.NextU64() % 70)});
  }
  for (const GemmCase& c : cases) {
    for (OpFamily op : {OpFamily::kGemmNN, OpFamily::kGemmNT, OpFamily::kGemmTN}) {
      const ProblemDesc desc = kernels::GemmProblem(op, c.m, c.k, c.n);
      std::vector<float> a(static_cast<size_t>(c.m * c.k));
      std::vector<float> b(static_cast<size_t>(c.k * c.n));
      std::vector<float> c_init(static_cast<size_t>(c.m * c.n));
      FillRandom(a, rng);
      FillRandom(b, rng);
      FillRandom(c_init, rng);
      for (bool accumulate : {false, true}) {
        // Tolerance scales with the dot-product length; solvers reorder the
        // reduction, they do not approximate it.
        const float tol = 1e-5f * static_cast<float>(c.k) + 1e-5f;
        const GemmCall probe = MakeGemmCall(desc, a.data(), b.data(), nullptr, accumulate);
        const std::vector<float> want = OracleGemm(desc, probe, c_init);
        for (const GemmSolver* solver : registry.gemm_solvers()) {
          if (!solver->IsApplicable(desc)) {
            continue;
          }
          std::vector<float> got = c_init;
          solver->Run(desc, MakeGemmCall(desc, a.data(), b.data(), got.data(), accumulate));
          for (size_t idx = 0; idx < want.size(); ++idx) {
            ASSERT_NEAR(got[idx], want[idx], tol)
                << solver->name() << " " << ProblemKey(desc) << " accumulate=" << accumulate
                << " element " << idx;
          }
        }
      }
    }
  }
}

TEST(GemmSolverPropertyTest, HeuristicAndResolveAlwaysApplicable) {
  Rng rng(99);
  const SolverRegistry& registry = SolverRegistry::Global();
  for (int i = 0; i < 50; ++i) {
    const ProblemDesc desc = kernels::GemmProblem(
        static_cast<OpFamily>(rng.NextU64() % 3), 1 + rng.NextU64() % 300,
        1 + rng.NextU64() % 300, 1 + rng.NextU64() % 300);
    const GemmSolver* h = registry.HeuristicGemm(desc);
    ASSERT_NE(h, nullptr);
    EXPECT_TRUE(h->IsApplicable(desc)) << h->name() << " " << ProblemKey(desc);
    const GemmSolver* r = registry.ResolveGemm(desc);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->IsApplicable(desc)) << r->name() << " " << ProblemKey(desc);
    EXPECT_FALSE(registry.Applicable(desc).empty());
  }
}

// With k within one packing block (KC = 256), gemm.packed sums each output
// over k in the same order as gemm.direct, from zero, then stores or adds it
// to C — so the wide-N heuristic may move NN problems between the two without
// changing a bit. Random shapes straddle the 32-column strips, the 6- and
// 8-row tiles, and the 96-row and 1024-column packing blocks.
TEST(GemmSolverPropertyTest, DirectAndPackedBitwiseEqualForKWithinOneBlock) {
  Rng rng(2024);
  const GemmSolver* direct = SolverRegistry::Global().FindGemm("gemm.direct");
  const GemmSolver* packed = SolverRegistry::Global().FindGemm("gemm.packed");
  ASSERT_NE(direct, nullptr);
  ASSERT_NE(packed, nullptr);
  for (int i = 0; i < 24; ++i) {
    const int64_t m = 1 + static_cast<int64_t>(rng.NextU64() % 200);
    const int64_t k = 1 + static_cast<int64_t>(rng.NextU64() % 256);
    const int64_t n = 1 + static_cast<int64_t>(rng.NextU64() % (i < 4 ? 1100 : 300));
    const ProblemDesc desc = kernels::GemmProblem(OpFamily::kGemmNN, m, k, n);
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    std::vector<float> c_init(static_cast<size_t>(m * n));
    FillRandom(a, rng);
    FillRandom(b, rng);
    FillRandom(c_init, rng);
    for (bool accumulate : {false, true}) {
      std::vector<float> got_direct = c_init;
      std::vector<float> got_packed = c_init;
      direct->Run(desc, MakeGemmCall(desc, a.data(), b.data(), got_direct.data(), accumulate));
      packed->Run(desc, MakeGemmCall(desc, a.data(), b.data(), got_packed.data(), accumulate));
      EXPECT_EQ(got_direct, got_packed) << ProblemKey(desc) << " accumulate=" << accumulate;
    }
  }
}

// The NT and TN layouts only move data: for gemm.direct, gemm.packed and
// gemm.dot an NT product equals the NN product over an explicitly
// transposed B, and for every solver a TN product equals the NN product over
// an explicitly transposed A, bit for bit. Shapes reach past one 256-deep
// packing block, across the 8 x 8 transpose tiles' edges, and below the
// 24-column cut where the direct and packed paths still run when pinned.
TEST(GemmSolverPropertyTest, LayoutsBitwiseEqualExplicitTranspose) {
  Rng rng(77);
  const SolverRegistry& registry = SolverRegistry::Global();
  std::vector<GemmCase> cases = {{4, 1024, 36}, {8, 1024, 72}, {288, 32, 16}, {1, 300, 1},
                                 {7, 9, 5}};
  for (int i = 0; i < 8; ++i) {
    cases.push_back({1 + static_cast<int64_t>(rng.NextU64() % 100),
                     1 + static_cast<int64_t>(rng.NextU64() % (i < 3 ? 700 : 100)),
                     1 + static_cast<int64_t>(rng.NextU64() % 100)});
  }
  for (const GemmCase& c : cases) {
    std::vector<float> a(static_cast<size_t>(c.m * c.k));
    std::vector<float> b(static_cast<size_t>(c.k * c.n));
    std::vector<float> c_init(static_cast<size_t>(c.m * c.n));
    FillRandom(a, rng);
    FillRandom(b, rng);
    FillRandom(c_init, rng);
    // NT reads B stored N x K; TN reads A stored K x M.
    const auto transposed = [](const std::vector<float>& v, int64_t rows, int64_t cols) {
      std::vector<float> t(v.size());
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t col = 0; col < cols; ++col) {
          t[static_cast<size_t>(col * rows + r)] = v[static_cast<size_t>(r * cols + col)];
        }
      }
      return t;
    };
    const std::vector<float> bt = transposed(b, c.k, c.n);
    const std::vector<float> at = transposed(a, c.m, c.k);
    const ProblemDesc nn = kernels::GemmProblem(OpFamily::kGemmNN, c.m, c.k, c.n);
    const ProblemDesc nt = kernels::GemmProblem(OpFamily::kGemmNT, c.m, c.k, c.n);
    const ProblemDesc tn = kernels::GemmProblem(OpFamily::kGemmTN, c.m, c.k, c.n);
    for (const char* name : {"gemm.ref", "gemm.direct", "gemm.packed", "gemm.dot"}) {
      const GemmSolver* solver = registry.FindGemm(name);
      ASSERT_NE(solver, nullptr) << name;
      for (bool accumulate : {false, true}) {
        std::vector<float> want = c_init;
        solver->Run(nn, MakeGemmCall(nn, a.data(), b.data(), want.data(), accumulate));
        if (solver->IsApplicable(nt) && std::string(name) != "gemm.ref") {
          std::vector<float> got = c_init;
          solver->Run(nt, MakeGemmCall(nt, a.data(), bt.data(), got.data(), accumulate));
          EXPECT_EQ(got, want) << name << " " << ProblemKey(nt) << " accumulate=" << accumulate;
        }
        std::vector<float> got = c_init;
        solver->Run(tn, MakeGemmCall(tn, at.data(), b.data(), got.data(), accumulate));
        EXPECT_EQ(got, want) << name << " " << ProblemKey(tn) << " accumulate=" << accumulate;
      }
    }
  }
}

// Transpose against the index formula, over sizes on and off the 8 x 8 tile
// grid and with leading dimensions wider than the copied block.
TEST(GemmSolverPropertyTest, TransposeMatchesIndexFormula) {
  Rng rng(88);
  for (const auto& [rows, cols] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 1}, {8, 8}, {7, 9}, {16, 40}, {33, 5}, {36, 1024}}) {
    const int64_t lds = cols + 3;
    const int64_t ldd = rows + 5;
    std::vector<float> src(static_cast<size_t>(rows * lds));
    FillRandom(src, rng);
    std::vector<float> dst(static_cast<size_t>(cols * ldd), -7.0f);
    kernels::Transpose(rows, cols, src.data(), lds, dst.data(), ldd);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        ASSERT_EQ(dst[static_cast<size_t>(c * ldd + r)], src[static_cast<size_t>(r * lds + c)])
            << rows << "x" << cols << " at " << r << "," << c;
      }
    }
    for (int64_t c = 0; c < cols; ++c) {
      for (int64_t r = rows; r < ldd; ++r) {
        ASSERT_EQ(dst[static_cast<size_t>(c * ldd + r)], -7.0f) << "wrote past the block";
      }
    }
  }
}

TEST(PoolSolverTest, AllSolversBitwiseMatchGeneric) {
  Rng rng(555);
  const SolverRegistry& registry = SolverRegistry::Global();
  const PoolSolver* generic = registry.FindPool("pool.generic");
  ASSERT_NE(generic, nullptr);
  struct PoolCase {
    int64_t planes, h, w, kernel, stride;
  };
  const PoolCase cases[] = {
      {1, 2, 2, 2, 2}, {3, 8, 8, 2, 2},  {4, 7, 9, 2, 2},
      {2, 6, 6, 3, 3}, {5, 16, 16, 3, 2}, {8, 5, 5, 2, 1},
  };
  for (const PoolCase& c : cases) {
    const ProblemDesc desc = kernels::PoolProblem(c.planes, c.h, c.w, c.kernel, c.stride);
    const int64_t oh = PooledDim(c.h, c.kernel, c.stride);
    const int64_t ow = PooledDim(c.w, c.kernel, c.stride);
    ASSERT_GE(oh, 1);
    ASSERT_GE(ow, 1);
    std::vector<float> x(static_cast<size_t>(c.planes * c.h * c.w));
    FillRandom(x, rng);
    std::vector<float> want(static_cast<size_t>(c.planes * oh * ow));
    generic->Run(desc, PoolCall{x.data(), want.data()});
    for (const PoolSolver* solver : registry.pool_solvers()) {
      if (!solver->IsApplicable(desc)) {
        continue;
      }
      std::vector<float> got(want.size(), -1.0f);
      solver->Run(desc, PoolCall{x.data(), got.data()});
      EXPECT_EQ(got, want) << solver->name() << " " << ProblemKey(desc);
    }
  }
}

// The untuned pool pick: the unrolled 2x2/stride-2 solver wherever it
// applies (bitwise equal to the generic loop, per the test above), the
// generic loop for every other window.
TEST(PoolSolverTest, HeuristicPicksTwoByTwoForK2S2Only) {
  const SolverRegistry& registry = SolverRegistry::Global();
  const PoolSolver* two_by_two = registry.FindPool("pool.2x2s2");
  const PoolSolver* generic = registry.FindPool("pool.generic");
  ASSERT_NE(two_by_two, nullptr);
  ASSERT_NE(generic, nullptr);
  EXPECT_EQ(registry.HeuristicPool(kernels::PoolProblem(24, 32, 32, 2, 2)), two_by_two);
  EXPECT_EQ(registry.HeuristicPool(kernels::PoolProblem(1, 2, 2, 2, 2)), two_by_two);
  EXPECT_EQ(registry.HeuristicPool(kernels::PoolProblem(3, 7, 9, 2, 2)), two_by_two);
  EXPECT_EQ(registry.HeuristicPool(kernels::PoolProblem(8, 5, 5, 2, 1)), generic);
  EXPECT_EQ(registry.HeuristicPool(kernels::PoolProblem(2, 6, 6, 3, 3)), generic);
  EXPECT_EQ(registry.HeuristicPool(kernels::PoolProblem(5, 16, 16, 3, 2)), generic);
}

TEST(SolverRegistryTest, NamesResolveAndUnknownsDoNot) {
  const SolverRegistry& registry = SolverRegistry::Global();
  for (const GemmSolver* s : registry.gemm_solvers()) {
    EXPECT_EQ(registry.FindGemm(s->name()), s);
  }
  for (const PoolSolver* s : registry.pool_solvers()) {
    EXPECT_EQ(registry.FindPool(s->name()), s);
  }
  EXPECT_EQ(registry.FindGemm("gemm.bogus"), nullptr);
  EXPECT_EQ(registry.FindPool("gemm.ref"), nullptr);  // wrong family
}

class TuneDbFileTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) { return ::testing::TempDir() + "gmorph_" + name; }

  std::string Write(const std::string& name, const std::string& content) {
    const std::string path = Path(name);
    std::ofstream out(path, std::ios::trunc);
    out << content;
    return path;
  }
};

TEST_F(TuneDbFileTest, RoundTripPreservesEntriesAndResolution) {
  TuneDb db;
  const ProblemDesc gemm = kernels::GemmProblem(OpFamily::kGemmNN, 8, 27, 1024);
  const ProblemDesc pool = kernels::PoolProblem(64, 16, 16, 2, 2);
  TuneDb::Entry ge;
  ge.solver = "gemm.packed";
  ge.gflops = 12.5;
  ge.ms = 0.125;
  db.Record(gemm, ge);
  TuneDb::Entry pe;
  pe.solver = "pool.2x2s2";
  pe.gflops = 3.25;
  pe.ms = 0.5;
  db.Record(pool, pe);

  const std::string path = Path("roundtrip.tunedb");
  ASSERT_TRUE(db.Save(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // atomic: no residue

  TuneDb loaded;
  const TuneDb::LoadStats stats = loaded.Load(path);
  EXPECT_TRUE(stats.ok);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.skipped, 0);
  EXPECT_FALSE(stats.fingerprint_mismatch);
  ASSERT_EQ(loaded.size(), 2);

  const TuneDb::Entry* g = loaded.Lookup(gemm);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->solver, "gemm.packed");
  EXPECT_DOUBLE_EQ(g->gflops, 12.5);
  EXPECT_EQ(g->resolved, SolverRegistry::Global().FindGemm("gemm.packed"));
  const TuneDb::Entry* p = loaded.Lookup(pool);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->resolved, SolverRegistry::Global().FindPool("pool.2x2s2"));
  std::filesystem::remove(path);
}

TEST_F(TuneDbFileTest, EntryLineSurvivesFormatParseCycle) {
  ProblemDesc desc = kernels::GemmProblem(OpFamily::kGemmTN, 17, 32, 96);
  desc.threads = 4;
  TuneDb::Entry entry;
  entry.solver = "gemm.dot";
  entry.gflops = 1.0 / 3.0;  // exercises the %.17g round-trip
  entry.ms = 0.0001;
  const std::string line = kernels::FormatTuneEntryLine(desc, entry);
  ProblemDesc desc2;
  TuneDb::Entry entry2;
  std::string error;
  ASSERT_TRUE(kernels::ParseTuneEntryLine(line, &desc2, &entry2, &error)) << error;
  EXPECT_EQ(desc2, desc);
  EXPECT_EQ(entry2.solver, entry.solver);
  EXPECT_DOUBLE_EQ(entry2.gflops, entry.gflops);
  EXPECT_DOUBLE_EQ(entry2.ms, entry.ms);
}

TEST_F(TuneDbFileTest, LoaderDropsMalformedLinesAndForeignFingerprints) {
  const std::string good =
      "entry op=gemm_nn m=4 k=4 n=4 aux0=0 aux1=0 threads=1 solver=gemm.ref gflops=1 ms=1";
  const std::string path = Write("tolerant.tunedb",
                                 ArtifactHeaderLine(kTuneDbArtifact) + "\n" +
                                     "fingerprint " + kernels::BuildFingerprint() + "\n" +
                                     good + "\n" +
                                     "entry op=gemm_nn m=4 k=4 solver=gemm.ref\n" +      // missing fields
                                     "entry op=gemm_nn m=2 k=2 n=2 aux0=0 aux1=0 "
                                     "threads=1 solver=gemm.nope gflops=1 ms=1\n");       // unknown solver
  TuneDb db;
  const TuneDb::LoadStats stats = db.Load(path);
  EXPECT_TRUE(stats.ok);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.skipped, 2);
  EXPECT_EQ(db.size(), 1);

  // A DB tuned by a different build parses but contributes nothing.
  const std::string foreign = Write("foreign.tunedb",
                                    ArtifactHeaderLine(kTuneDbArtifact) + "\n" +
                                        "fingerprint 0123456789abcdef\n" + good + "\n");
  TuneDb db2;
  const TuneDb::LoadStats stats2 = db2.Load(foreign);
  EXPECT_TRUE(stats2.ok);
  EXPECT_TRUE(stats2.fingerprint_mismatch);
  EXPECT_EQ(stats2.entries, 0);
  EXPECT_EQ(db2.size(), 0);
  std::filesystem::remove(path);
  std::filesystem::remove(foreign);
}

// The strict linter must report each seeded defect under its advertised
// tune.* rule id (the loader above only drops them silently).
TEST_F(TuneDbFileTest, VerifierReportsRuleIds) {
  const std::string clean = Write("clean.tunedb",
                                  ArtifactHeaderLine(kTuneDbArtifact) + "\n" +
                                      "fingerprint " + kernels::BuildFingerprint() + "\n" +
                                      "entry op=gemm_nn m=4 k=4 n=4 aux0=0 aux1=0 threads=1 "
                                      "solver=gemm.ref gflops=1 ms=1\n");
  EXPECT_TRUE(VerifyTuneDbFile(clean).ok());

  EXPECT_TRUE(VerifyTuneDbFile(Path("does_not_exist.tunedb")).HasRule("tune.open"));
  EXPECT_TRUE(VerifyTuneDbFile(Write("noheader.tunedb", "entry nope\n")).HasRule("tune.header"));
  EXPECT_TRUE(
      VerifyTuneDbFile(Write("badver.tunedb", "gmorph-tunedb v99\n")).HasRule("tune.version"));

  // Foreign fingerprint: structurally valid, but a warning (this build
  // ignores the entries), so the list stays ok().
  const DiagnosticList foreign = VerifyTuneDbFile(
      Write("fp.tunedb", ArtifactHeaderLine(kTuneDbArtifact) + "\nfingerprint 0123456789abcdef\n"));
  EXPECT_TRUE(foreign.HasRule("tune.fingerprint"));
  EXPECT_TRUE(foreign.ok());
  // Malformed fingerprint: an error.
  const DiagnosticList badfp = VerifyTuneDbFile(
      Write("badfp.tunedb", ArtifactHeaderLine(kTuneDbArtifact) + "\nfingerprint xyz\n"));
  EXPECT_TRUE(badfp.HasRule("tune.fingerprint"));
  EXPECT_FALSE(badfp.ok());

  const std::string corrupt = Write(
      "corrupt.tunedb",
      ArtifactHeaderLine(kTuneDbArtifact) + "\n" + "fingerprint " + kernels::BuildFingerprint() +
          "\n" +
          "entry op=gemm_nn m=8 k=27 n=1024 aux0=0 aux1=0 threads=4 solver=gemm.direct "
          "gflops=10 ms=0.03\n" +
          "entry op=gemm_nn m=8 k=27 solver=gemm.direct\n" +  // tune.entry
          "entry op=gemm_nn m=2 k=2 n=2 aux0=0 aux1=0 threads=1 solver=gemm.bogus gflops=1 "
          "ms=1\n" +  // tune.solver
          "entry op=maxpool m=4 k=8 n=8 aux0=3 aux1=3 threads=1 solver=pool.2x2s2 gflops=1 "
          "ms=1\n" +  // tune.applicable
          "entry op=gemm_nn m=8 k=27 n=1024 aux0=0 aux1=0 threads=4 solver=gemm.packed gflops=2 "
          "ms=1\n");  // tune.duplicate
  const DiagnosticList diags = VerifyTuneDbFile(corrupt);
  EXPECT_FALSE(diags.ok());
  EXPECT_TRUE(diags.HasRule("tune.entry")) << diags.ToString();
  EXPECT_TRUE(diags.HasRule("tune.solver")) << diags.ToString();
  EXPECT_TRUE(diags.HasRule("tune.applicable")) << diags.ToString();
  EXPECT_TRUE(diags.HasRule("tune.duplicate")) << diags.ToString();
}

// The checked-in fixture behind the cli_verify_corrupt_tunedb ctest entry
// must keep tripping the rules that test greps for.
TEST_F(TuneDbFileTest, CheckedInCorruptFixtureTripsLinter) {
  const std::string path = std::string(GMORPH_TESTDATA_DIR) + "/tunedb_corrupt.txt";
  const DiagnosticList diags = VerifyTuneDbFile(path);
  EXPECT_FALSE(diags.ok());
  EXPECT_TRUE(diags.HasRule("tune.entry")) << diags.ToString();
  EXPECT_TRUE(diags.HasRule("tune.solver")) << diags.ToString();
  EXPECT_TRUE(diags.HasRule("tune.duplicate")) << diags.ToString();
}

TEST(AutotuneTest, WinnerIsBestSampleAndRecorded) {
  TuneDb db;
  const ProblemDesc desc = kernels::GemmProblem(OpFamily::kGemmNN, 16, 24, 48);
  kernels::AutotuneOptions opts;
  opts.warmup = 0;
  opts.repeats = 1;
  const kernels::TuneResult result = kernels::TuneProblem(desc, db, opts);
  EXPECT_FALSE(result.reused);
  ASSERT_FALSE(result.samples.empty());
  EXPECT_EQ(result.samples.size(), SolverRegistry::Global().Applicable(desc).size());
  double best = 0.0;
  for (const kernels::SolverSample& s : result.samples) {
    best = std::max(best, s.gflops);
  }
  EXPECT_DOUBLE_EQ(result.winner_gflops, best);
  const TuneDb::Entry* e = db.Lookup(desc);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->solver, result.winner);
  ASSERT_NE(e->resolved, nullptr);
  EXPECT_TRUE(e->resolved->IsApplicable(desc));
}

// The acceptance guarantee: once the DB has an entry, re-tuning the same
// descriptor benchmarks nothing (kernels.autotune_benchmarks stays flat).
TEST(AutotuneTest, WarmRunPerformsZeroBenchmarks) {
  obs::Counter& benchmarks = obs::GetCounter("kernels.autotune_benchmarks");
  obs::Counter& cached = obs::GetCounter("kernels.autotune_cached");
  TuneDb db;
  const ProblemDesc desc = kernels::GemmProblem(OpFamily::kGemmNT, 8, 36, 256);
  kernels::AutotuneOptions opts;
  opts.warmup = 0;
  opts.repeats = 1;
  kernels::TuneProblem(desc, db, opts);

  const int64_t benchmarks_before = benchmarks.Value();
  const int64_t cached_before = cached.Value();
  const kernels::TuneResult warm = kernels::TuneProblem(desc, db, opts);
  EXPECT_TRUE(warm.reused);
  EXPECT_TRUE(warm.samples.empty());
  EXPECT_EQ(benchmarks.Value(), benchmarks_before);  // zero tuning work
  EXPECT_EQ(cached.Value(), cached_before + 1);

  // force=true is the explicit re-measure escape hatch.
  opts.force = true;
  const kernels::TuneResult forced = kernels::TuneProblem(desc, db, opts);
  EXPECT_FALSE(forced.reused);
  EXPECT_GT(benchmarks.Value(), benchmarks_before);
}

// Pins resolution through a frozen DB: the installed winner (deliberately not
// the heuristic pick) is returned for every resolve, the DB-driven kernel is
// bitwise deterministic across runs, and clearing the DB restores heuristic
// dispatch. Mirrors a warm process planning from a tuned DB on disk.
TEST(AutotuneTest, FrozenDbResolvesIdenticalSolversAndBitwiseOutputs) {
  const SolverRegistry& registry = SolverRegistry::Global();
  const ProblemDesc desc = kernels::GemmProblem(OpFamily::kGemmNN, 24, 32, 40);
  const GemmSolver* heuristic = registry.HeuristicGemm(desc);
  const char* pinned = std::string(heuristic->name()) == "gemm.packed" ? "gemm.dot" : "gemm.packed";

  auto db = std::make_shared<TuneDb>();
  TuneDb::Entry entry;
  entry.solver = pinned;
  db->Record(desc, entry);
  kernels::SetGlobalTuneDb(db);

  EXPECT_EQ(registry.ResolveGemm(desc), registry.FindGemm(pinned));
  EXPECT_EQ(registry.ResolveGemm(desc), registry.ResolveGemm(desc));

  Rng rng(7);
  std::vector<float> a(static_cast<size_t>(desc.m * desc.k));
  std::vector<float> b(static_cast<size_t>(desc.k * desc.n));
  FillRandom(a, rng);
  FillRandom(b, rng);
  std::vector<float> c1(static_cast<size_t>(desc.m * desc.n));
  std::vector<float> c2(c1.size());
  MatmulNN(a.data(), b.data(), c1.data(), desc.m, desc.k, desc.n);
  MatmulNN(a.data(), b.data(), c2.data(), desc.m, desc.k, desc.n);
  EXPECT_EQ(c1, c2);  // frozen DB -> same solver -> bitwise-equal outputs

  kernels::SetGlobalTuneDb(nullptr);
  EXPECT_EQ(registry.ResolveGemm(desc), heuristic);
}

// Concurrent Lookup/Resolve against a DB that another thread is still
// recording into — the shared_mutex contract the serving path relies on.
// Named *Parallel* so the threaded/TSan ctest entries pick it up.
TEST(TuneDbParallelTest, ConcurrentLookupAndRecord) {
  auto db = std::make_shared<TuneDb>();
  kernels::SetGlobalTuneDb(db);
  const SolverRegistry& registry = SolverRegistry::Global();
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kDescs = 64;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, w] {
      for (int i = w; i < kDescs; i += kWriters) {
        TuneDb::Entry entry;
        entry.solver = (i % 2 == 0) ? "gemm.packed" : "gemm.ref";
        entry.gflops = i;
        db->Record(kernels::GemmProblem(OpFamily::kGemmNN, 1 + i, 8, 8), entry);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&db, &registry] {
      for (int pass = 0; pass < 4; ++pass) {
        for (int i = 0; i < kDescs; ++i) {
          const ProblemDesc desc = kernels::GemmProblem(OpFamily::kGemmNN, 1 + i, 8, 8);
          if (const TuneDb::Entry* e = db->Lookup(desc); e != nullptr) {
            EXPECT_FALSE(e->solver.empty());
          }
          EXPECT_NE(registry.ResolveGemm(desc), nullptr);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  kernels::SetGlobalTuneDb(nullptr);
  EXPECT_EQ(db->size(), kDescs);
  for (int i = 0; i < kDescs; ++i) {
    const TuneDb::Entry* e = db->Lookup(kernels::GemmProblem(OpFamily::kGemmNN, 1 + i, 8, 8));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->solver, (i % 2 == 0) ? "gemm.packed" : "gemm.ref");
  }
}

}  // namespace
}  // namespace gmorph
