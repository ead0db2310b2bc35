#include "src/tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/kernels/registry.h"
#include "src/kernels/solver.h"

namespace gmorph {
namespace {

#define GMORPH_RESTRICT __restrict__

void CheckSameShape(const Tensor& a, const Tensor& b) {
  GMORPH_CHECK(a.shape() == b.shape(), "shape mismatch " << a.shape().ToString() << " vs "
                                                             << b.shape().ToString());
}

// Elementwise kernels only split work above this many elements.
constexpr int64_t kElementwiseGrain = 1 << 15;

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ParallelFor(0, a.size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      po[i] = pa[i] + pb[i];
    }
  });
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ParallelFor(0, a.size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      po[i] = pa[i] - pb[i];
    }
  });
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ParallelFor(0, a.size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      po[i] = pa[i] * pb[i];
    }
  });
  return out;
}

void AddInPlace(Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  float* pa = a.data();
  const float* pb = b.data();
  ParallelFor(0, a.size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      pa[i] += pb[i];
    }
  });
}

void ScaleInPlace(Tensor& a, float s) {
  float* pa = a.data();
  ParallelFor(0, a.size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      pa[i] *= s;
    }
  });
}

void AxpyInPlace(Tensor& y, float alpha, const Tensor& x) {
  CheckSameShape(y, x);
  float* py = y.data();
  const float* px = x.data();
  ParallelFor(0, y.size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      py[i] += alpha * px[i];
    }
  });
}

// The three public GEMMs are thin shims over the solver registry: build the
// logical descriptor, resolve (tuned winner if a tuning DB is loaded, else
// the shape heuristic), run. No dispatch thresholds live here anymore.
void MatmulNN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
              bool accumulate) {
  const kernels::ProblemDesc desc = kernels::GemmProblem(kernels::OpFamily::kGemmNN, m, k, n);
  const kernels::GemmSolver* solver = kernels::SolverRegistry::Global().ResolveGemm(desc);
  solver->Run(desc, kernels::MakeGemmCall(desc, a, b, c, accumulate));
}

void MatmulNT(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
              bool accumulate) {
  // Logical product: M = m, K = n, N = k.
  const kernels::ProblemDesc desc = kernels::GemmProblem(kernels::OpFamily::kGemmNT, m, n, k);
  const kernels::GemmSolver* solver = kernels::SolverRegistry::Global().ResolveGemm(desc);
  solver->Run(desc, kernels::MakeGemmCall(desc, a, b, c, accumulate));
}

void MatmulTN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
              bool accumulate) {
  // Logical product: M = k, K = m, N = n.
  const kernels::ProblemDesc desc = kernels::GemmProblem(kernels::OpFamily::kGemmTN, k, m, n);
  const kernels::GemmSolver* solver = kernels::SolverRegistry::Global().ResolveGemm(desc);
  solver->Run(desc, kernels::MakeGemmCall(desc, a, b, c, accumulate));
}

Tensor Matmul(const Tensor& a, const Tensor& b) {
  GMORPH_CHECK(a.shape().Rank() == 2 && b.shape().Rank() == 2);
  const int64_t m = a.shape()[0];
  const int64_t k = a.shape()[1];
  GMORPH_CHECK(b.shape()[0] == k, "matmul inner dims " << a.shape().ToString() << " x "
                                                           << b.shape().ToString());
  const int64_t n = b.shape()[1];
  Tensor c(Shape{m, n});
  MatmulNN(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

void GeluForwardInto(const Tensor& x, Tensor& out) {
  CheckSameShape(x, out);
  const float* px = x.data();
  float* po = out.data();
  ParallelFor(0, x.size(), kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      po[i] = Gelu(px[i]);
    }
  });
}

void LinearEpilogueRow(float* GMORPH_RESTRICT row, int64_t n, const float* GMORPH_RESTRICT bias,
                       const float* GMORPH_RESTRICT skip, Activation act) {
  if (bias != nullptr) {
    for (int64_t j = 0; j < n; ++j) {
      row[j] += bias[j];
    }
  }
  if (skip != nullptr) {
    for (int64_t j = 0; j < n; ++j) {
      row[j] += skip[j];
    }
  }
  switch (act) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      for (int64_t j = 0; j < n; ++j) {
        row[j] = row[j] > 0.0f ? row[j] : 0.0f;
      }
      break;
    case Activation::kGelu:
      for (int64_t j = 0; j < n; ++j) {
        row[j] = Gelu(row[j]);
      }
      break;
  }
}

void LinearForwardInto(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& out,
                       Activation act, const Tensor* skip, const kernels::GemmSolver* solver) {
  GMORPH_CHECK(w.shape().Rank() == 2);
  const int64_t in_features = w.shape()[0];
  const int64_t out_features = w.shape()[1];
  GMORPH_CHECK(x.shape()[-1] == in_features,
                   "linear in features: x " << x.shape().ToString() << " w "
                                            << w.shape().ToString());
  const int64_t rows = x.size() / in_features;
  GMORPH_CHECK(out.size() == rows * out_features);
  GMORPH_CHECK(skip == nullptr || skip->size() == out.size());
  if (solver != nullptr) {
    const kernels::ProblemDesc desc =
        kernels::GemmProblem(kernels::OpFamily::kGemmNN, rows, in_features, out_features);
    solver->Run(desc, kernels::MakeGemmCall(desc, x.data(), w.data(), out.data(),
                                            /*accumulate=*/false));
  } else {
    MatmulNN(x.data(), w.data(), out.data(), rows, in_features, out_features);
  }
  if (b.empty() && skip == nullptr && act == Activation::kNone) {
    return;
  }
  float* po = out.data();
  const float* pb = b.empty() ? nullptr : b.data();
  const float* ps = skip == nullptr ? nullptr : skip->data();
  const int64_t grain = std::max<int64_t>(1, (1 << 15) / std::max<int64_t>(1, out_features));
  ParallelFor(0, rows, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      LinearEpilogueRow(po + r * out_features, out_features, pb,
                        ps == nullptr ? nullptr : ps + r * out_features, act);
    }
  });
}

Tensor SoftmaxLastDim(const Tensor& x) {
  GMORPH_CHECK(x.shape().Rank() >= 1);
  const int64_t cols = x.shape()[-1];
  const int64_t rows = x.size() / cols;
  Tensor out(x.shape());
  const float* px = x.data();
  float* po = out.data();
  const int64_t grain = std::max<int64_t>(1, kElementwiseGrain / std::max<int64_t>(1, cols));
  ParallelFor(0, rows, grain, [&](int64_t row_lo, int64_t row_hi) {
    for (int64_t r = row_lo; r < row_hi; ++r) {
      const float* xr = px + r * cols;
      float* orow = po + r * cols;
      float mx = xr[0];
      for (int64_t j = 1; j < cols; ++j) {
        mx = std::max(mx, xr[j]);
      }
      float sum = 0.0f;
      for (int64_t j = 0; j < cols; ++j) {
        orow[j] = std::exp(xr[j] - mx);
        sum += orow[j];
      }
      const float inv = 1.0f / sum;
      for (int64_t j = 0; j < cols; ++j) {
        orow[j] *= inv;
      }
    }
  });
  return out;
}

Tensor SoftmaxBackwardLastDim(const Tensor& y, const Tensor& grad_y) {
  CheckSameShape(y, grad_y);
  const int64_t cols = y.shape()[-1];
  const int64_t rows = y.size() / cols;
  Tensor out(y.shape());
  const float* py = y.data();
  const float* pg = grad_y.data();
  float* po = out.data();
  const int64_t grain = std::max<int64_t>(1, kElementwiseGrain / std::max<int64_t>(1, cols));
  ParallelFor(0, rows, grain, [&](int64_t row_lo, int64_t row_hi) {
    for (int64_t r = row_lo; r < row_hi; ++r) {
      const float* yr = py + r * cols;
      const float* gr = pg + r * cols;
      float* orow = po + r * cols;
      float dot = 0.0f;
      for (int64_t j = 0; j < cols; ++j) {
        dot += yr[j] * gr[j];
      }
      for (int64_t j = 0; j < cols; ++j) {
        orow[j] = yr[j] * (gr[j] - dot);
      }
    }
  });
  return out;
}

float SumAll(const Tensor& a) {
  double s = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    s += p[i];
  }
  return static_cast<float>(s);
}

float MeanAll(const Tensor& a) {
  GMORPH_CHECK(a.size() > 0);
  return SumAll(a) / static_cast<float>(a.size());
}

float MaxAbs(const Tensor& a) {
  float m = 0.0f;
  const float* p = a.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(p[i]));
  }
  return m;
}

std::vector<int> ArgmaxRows(const Tensor& a) {
  GMORPH_CHECK(a.shape().Rank() == 2);
  const int64_t rows = a.shape()[0];
  const int64_t cols = a.shape()[1];
  std::vector<int> out(static_cast<size_t>(rows));
  const float* p = a.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = p + r * cols;
    int best = 0;
    for (int64_t j = 1; j < cols; ++j) {
      if (row[j] > row[best]) {
        best = static_cast<int>(j);
      }
    }
    out[static_cast<size_t>(r)] = best;
  }
  return out;
}

}  // namespace gmorph
