#include "tests/test_util.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/obs/timing.h"
#include "src/tensor/tensor_ops.h"

namespace gmorph::testing {
namespace {

float ProbeLoss(Module& module, const Tensor& x, const Tensor& probe) {
  Tensor y = module.Forward(x, /*training=*/true);
  return SumAll(Mul(y, probe));
}

}  // namespace

void GradCheckModule(Module& module, const Tensor& x, float tolerance, Rng& rng, float epsilon) {
  module.ZeroGrad();
  Tensor y = module.Forward(x, /*training=*/true);
  Tensor probe = Tensor::RandomGaussian(y.shape(), rng);
  Tensor grad_x = module.Backward(probe);

  // Snapshot analytic gradients before numeric evaluation clobbers caches.
  std::vector<Tensor> param_grads;
  for (Parameter* p : module.Parameters()) {
    param_grads.push_back(p->grad.Clone());
  }

  // Check a sample of input-gradient entries.
  Tensor x_mut = x.Clone();
  const int input_samples = static_cast<int>(std::min<int64_t>(8, x.size()));
  for (int s = 0; s < input_samples; ++s) {
    const int64_t i = rng.NextInt(static_cast<int>(x.size()));
    const float saved = x_mut.at(i);
    x_mut.at(i) = saved + epsilon;
    const float up = ProbeLoss(module, x_mut, probe);
    x_mut.at(i) = saved - epsilon;
    const float down = ProbeLoss(module, x_mut, probe);
    x_mut.at(i) = saved;
    const float numeric = (up - down) / (2 * epsilon);
    EXPECT_NEAR(grad_x.at(i), numeric, tolerance) << "input grad at flat index " << i;
  }

  // Check a sample of entries in every parameter tensor.
  auto params = module.Parameters();
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Parameter* p = params[pi];
    const int samples = static_cast<int>(std::min<int64_t>(6, p->value.size()));
    for (int s = 0; s < samples; ++s) {
      const int64_t i = rng.NextInt(static_cast<int>(p->value.size()));
      const float saved = p->value.at(i);
      p->value.at(i) = saved + epsilon;
      const float up = ProbeLoss(module, x, probe);
      p->value.at(i) = saved - epsilon;
      const float down = ProbeLoss(module, x, probe);
      p->value.at(i) = saved;
      const float numeric = (up - down) / (2 * epsilon);
      EXPECT_NEAR(param_grads[pi].at(i), numeric, tolerance)
          << "param " << p->name << " grad at flat index " << i;
    }
  }
}

std::pair<double, double> InterleavedMediansMs(const std::function<void()>& a,
                                               const std::function<void()>& b, int runs) {
  a();
  b();
  std::vector<double> a_ms;
  std::vector<double> b_ms;
  for (int i = 0; i < runs; ++i) {
    Timer ta;
    a();
    a_ms.push_back(ta.Millis());
    Timer tb;
    b();
    b_ms.push_back(tb.Millis());
  }
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
  };
  return {median(a_ms), median(b_ms)};
}

std::vector<std::pair<std::string, int64_t>> HostileCheckpointCounts(const std::string& clean) {
  // With those lists empty, the file ends in the trace count, four counters,
  // five stage times, the fingerprint, elite and non-promising counts and the
  // two policy words; each pair is a count's word position from the end.
  const std::pair<size_t, int64_t> kCounts[] = {
      {15, int64_t{1} << 20}, {5, int64_t{1} << 22}, {3, int64_t{1} << 20}};
  std::vector<std::pair<std::string, int64_t>> out;
  for (const auto& [words_from_end, count] : kCounts) {
    std::string bytes = clean;
    std::memcpy(&bytes[bytes.size() - words_from_end * sizeof(int64_t)], &count, sizeof(count));
    out.emplace_back(std::move(bytes), count);
  }
  return out;
}

}  // namespace gmorph::testing
