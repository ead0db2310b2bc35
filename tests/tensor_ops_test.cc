#include "src/tensor/tensor_ops.h"

#include <cmath>
#include <cstring>
#include <tuple>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/common/rng.h"
#include "tests/test_util.h"

namespace gmorph {
namespace {

using testing::MaxDiff;

Tensor NaiveMatmul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.shape()[0];
  const int64_t k = a.shape()[1];
  const int64_t n = b.shape()[1];
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at(i * k + p)) * b.at(p * n + j);
      }
      c.at(i * n + j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(ElementwiseTest, AddMul) {
  Tensor a = Tensor::FromVector(Shape{4}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector(Shape{4}, {5, 6, 7, 8});
  EXPECT_EQ(Add(a, b).at(2), 10.0f);
  EXPECT_EQ(Mul(a, b).at(1), 12.0f);
}

TEST(ElementwiseTest, InPlaceVariants) {
  Tensor a = Tensor::FromVector(Shape{3}, {1, 2, 3});
  Tensor b = Tensor::FromVector(Shape{3}, {1, 1, 1});
  AddInPlace(a, b);
  EXPECT_EQ(a.at(0), 2.0f);
  ScaleInPlace(a, 2.0f);
  EXPECT_EQ(a.at(2), 8.0f);
}

TEST(ElementwiseTest, ShapeMismatchThrows) {
  Tensor a(Shape{2});
  Tensor b(Shape{3});
  EXPECT_THROW(Add(a, b), CheckError);
}

// GEMM correctness sweep across sizes, including degenerate dims.
class MatmulParamTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(MatmulParamTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 1000 + k * 100 + n));
  Tensor a = Tensor::RandomGaussian(Shape{m, k}, rng);
  Tensor b = Tensor::RandomGaussian(Shape{k, n}, rng);
  EXPECT_LT(MaxDiff(Matmul(a, b), NaiveMatmul(a, b)), 1e-3f);
}

TEST_P(MatmulParamTest, TransposedVariantsConsistent) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m + k + n));
  Tensor a = Tensor::RandomGaussian(Shape{m, k}, rng);
  Tensor b = Tensor::RandomGaussian(Shape{k, n}, rng);
  Tensor c_ref = Matmul(a, b);

  // NT: C = A * B'^T where B' = B^T.
  Tensor bt(Shape{n, k});
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      bt.at(j * k + i) = b.at(i * n + j);
    }
  }
  Tensor c_nt(Shape{m, n});
  MatmulNT(a.data(), bt.data(), c_nt.data(), m, k, n);
  EXPECT_LT(MaxDiff(c_nt, c_ref), 1e-3f);

  // TN: C = A'^T * B where A' = A^T.
  Tensor at(Shape{k, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      at.at(j * m + i) = a.at(i * k + j);
    }
  }
  Tensor c_tn(Shape{m, n});
  MatmulTN(at.data(), b.data(), c_tn.data(), k, m, n);
  EXPECT_LT(MaxDiff(c_tn, c_ref), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulParamTest,
                         ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 3),
                                           std::make_tuple(5, 1, 5), std::make_tuple(4, 4, 4),
                                           std::make_tuple(3, 17, 9),
                                           std::make_tuple(16, 8, 16),
                                           std::make_tuple(10, 32, 6)));

// ---- Property tests: blocked/parallel GEMM vs the retained references ----
//
// The blocked kernels reorder float accumulation, so results are compared
// against RefMatmul* with a tolerance scaled by the result magnitude rather
// than bitwise.

void ExpectClose(const Tensor& got, const Tensor& want) {
  EXPECT_LE(MaxDiff(got, want), 1e-4f * (1.0f + MaxAbs(want)));
}

// Exercises NN, NT and TN (fresh + accumulate) at one (m, k, n).
void CheckGemmAgainstRef(int64_t m, int64_t k, int64_t n, Rng& rng) {
  SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k << " n=" << n);
  for (const bool accumulate : {false, true}) {
    Tensor init = Tensor::RandomGaussian(Shape{m, n}, rng);
    {
      Tensor a = Tensor::RandomGaussian(Shape{m, k}, rng);
      Tensor b = Tensor::RandomGaussian(Shape{k, n}, rng);
      Tensor got = init.Clone();
      Tensor want = init.Clone();
      MatmulNN(a.data(), b.data(), got.data(), m, k, n, accumulate);
      RefMatmulNN(a.data(), b.data(), want.data(), m, k, n, accumulate);
      ExpectClose(got, want);
    }
    {
      // NT computes C[m,n] = A[m,k] * B[n,k]^T (argument order m, k, n).
      Tensor a = Tensor::RandomGaussian(Shape{m, k}, rng);
      Tensor b = Tensor::RandomGaussian(Shape{n, k}, rng);
      Tensor got = init.Clone();
      Tensor want = init.Clone();
      MatmulNT(a.data(), b.data(), got.data(), m, k, n, accumulate);
      RefMatmulNT(a.data(), b.data(), want.data(), m, k, n, accumulate);
      ExpectClose(got, want);
    }
    {
      // TN computes C[k,n] = A[m,k]^T * B[m,n] (argument order m, k, n).
      Tensor a = Tensor::RandomGaussian(Shape{m, k}, rng);
      Tensor b = Tensor::RandomGaussian(Shape{m, n}, rng);
      Tensor got = Tensor::RandomGaussian(Shape{k, n}, rng);
      Tensor want = got.Clone();
      MatmulTN(a.data(), b.data(), got.data(), m, k, n, accumulate);
      RefMatmulTN(a.data(), b.data(), want.data(), m, k, n, accumulate);
      ExpectClose(got, want);
    }
  }
}

TEST(GemmPropertyTest, RandomShapesMatchReference) {
  Rng rng(1234);
  for (int trial = 0; trial < 24; ++trial) {
    const int64_t m = 1 + rng.NextInt(120);
    const int64_t k = 1 + rng.NextInt(150);
    const int64_t n = 1 + rng.NextInt(140);
    CheckGemmAgainstRef(m, k, n, rng);
  }
}

TEST(GemmPropertyTest, BlockBoundaryShapesMatchReference) {
  // Odd sizes straddling the MC=96 / KC=256 / NC block edges and the
  // MR/NR register-tile edges, where packing has to zero-pad partial panels.
  Rng rng(77);
  for (const auto& [m, k, n] :
       {std::make_tuple<int64_t, int64_t, int64_t>(95, 255, 33),
        std::make_tuple<int64_t, int64_t, int64_t>(97, 257, 65),
        std::make_tuple<int64_t, int64_t, int64_t>(96, 256, 32),
        std::make_tuple<int64_t, int64_t, int64_t>(101, 130, 31),
        std::make_tuple<int64_t, int64_t, int64_t>(130, 300, 29),
        std::make_tuple<int64_t, int64_t, int64_t>(7, 300, 97),
        std::make_tuple<int64_t, int64_t, int64_t>(193, 3, 67)}) {
    CheckGemmAgainstRef(m, k, n, rng);
  }
}

// Chunk boundaries in ParallelFor depend only on the grain, and every
// reduction combines partials in chunk order, so results must be *bitwise*
// identical for any thread count.
TEST(GemmThreadDeterminismTest, BitwiseEqualAcrossThreadCounts) {
  const int restore = KernelThreads();
  Rng rng(99);
  for (const auto& [m, k, n] :
       {std::make_tuple<int64_t, int64_t, int64_t>(130, 64, 130),
        std::make_tuple<int64_t, int64_t, int64_t>(64, 300, 9),
        std::make_tuple<int64_t, int64_t, int64_t>(97, 97, 97)}) {
    Tensor a = Tensor::RandomGaussian(Shape{m, k}, rng);
    Tensor b = Tensor::RandomGaussian(Shape{k, n}, rng);
    Tensor c1(Shape{m, n});
    Tensor c4(Shape{m, n});
    SetKernelThreads(1);
    MatmulNN(a.data(), b.data(), c1.data(), m, k, n);
    SetKernelThreads(4);
    MatmulNN(a.data(), b.data(), c4.data(), m, k, n);
    EXPECT_EQ(std::memcmp(c1.data(), c4.data(), static_cast<size_t>(c1.size()) * sizeof(float)),
              0)
        << "m=" << m << " k=" << k << " n=" << n;

    Tensor bt = Tensor::RandomGaussian(Shape{n, k}, rng);
    SetKernelThreads(1);
    MatmulNT(a.data(), bt.data(), c1.data(), m, k, n);
    SetKernelThreads(4);
    MatmulNT(a.data(), bt.data(), c4.data(), m, k, n);
    EXPECT_EQ(std::memcmp(c1.data(), c4.data(), static_cast<size_t>(c1.size()) * sizeof(float)),
              0);

    Tensor bn = Tensor::RandomGaussian(Shape{m, n}, rng);
    Tensor d1(Shape{k, n});
    Tensor d4(Shape{k, n});
    SetKernelThreads(1);
    MatmulTN(a.data(), bn.data(), d1.data(), m, k, n);
    SetKernelThreads(4);
    MatmulTN(a.data(), bn.data(), d4.data(), m, k, n);
    EXPECT_EQ(std::memcmp(d1.data(), d4.data(), static_cast<size_t>(d1.size()) * sizeof(float)),
              0);
  }
  SetKernelThreads(restore);
}

TEST(MatmulTest, AccumulateAddsToExisting) {
  Rng rng(2);
  Tensor a = Tensor::RandomGaussian(Shape{3, 4}, rng);
  Tensor b = Tensor::RandomGaussian(Shape{4, 5}, rng);
  Tensor c = Tensor::Full(Shape{3, 5}, 1.0f);
  MatmulNN(a.data(), b.data(), c.data(), 3, 4, 5, /*accumulate=*/true);
  Tensor expect = Add(NaiveMatmul(a, b), Tensor::Full(Shape{3, 5}, 1.0f));
  EXPECT_LT(MaxDiff(c, expect), 1e-4f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(4);
  Tensor x = Tensor::RandomGaussian(Shape{6, 9}, rng, 3.0f);
  Tensor y = SoftmaxLastDim(x);
  for (int64_t r = 0; r < 6; ++r) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 9; ++j) {
      const float v = y.at(r * 9 + j);
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxTest, InvariantToRowShift) {
  Rng rng(6);
  Tensor x = Tensor::RandomGaussian(Shape{2, 5}, rng);
  Tensor shifted = x.Clone();
  for (int64_t j = 0; j < 5; ++j) {
    shifted.at(j) += 100.0f;  // shift first row only
  }
  EXPECT_LT(MaxDiff(SoftmaxLastDim(x), SoftmaxLastDim(shifted)), 1e-5f);
}

TEST(ReductionTest, SumMaxAbs) {
  Tensor t = Tensor::FromVector(Shape{4}, {1, -5, 2, 2});
  EXPECT_FLOAT_EQ(SumAll(t), 0.0f);
  EXPECT_FLOAT_EQ(MaxAbs(t), 5.0f);
}

TEST(ArgmaxTest, PicksRowMaxima) {
  Tensor t = Tensor::FromVector(Shape{2, 3}, {0, 2, 1, 5, 4, 3});
  const std::vector<int> idx = ArgmaxRows(t);
  EXPECT_EQ(idx, (std::vector<int>{1, 0}));
}

}  // namespace
}  // namespace gmorph
