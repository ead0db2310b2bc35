// Shared helpers for the GMorph test suite.
#ifndef GMORPH_TESTS_TEST_UTIL_H_
#define GMORPH_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/nn/module.h"
#include "src/tensor/tensor.h"

namespace gmorph::testing {

// Max elementwise absolute difference.
inline float MaxDiff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape().dims(), b.shape().dims());
  float m = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a.at(i) - b.at(i)));
  }
  return m;
}

// Central-difference gradient check for a module: verifies both the input
// gradient and every parameter gradient of `module` on input `x` against
// numeric differentiation of the scalar loss sum(output * probe).
// `tolerance` is the max allowed absolute error.
void GradCheckModule(Module& module, const Tensor& x, float tolerance, Rng& rng,
                     float epsilon = 1e-3f);

// Median wall times in ms of `a` and `b`, timed alternately `runs` times each
// after one warm-up call of each. Interleaving exposes both sides to the same
// host load; two loops timed one after the other do not, and a steal burst
// during one of them flips a ratio check.
std::pair<double, double> InterleavedMediansMs(const std::function<void()>& a,
                                               const std::function<void()>& b, int runs);

// `clean` holds a checkpoint whose trace, fingerprint, elite and
// non-promising lists are empty. Returns three copies of it whose trace,
// fingerprint or non-promising count reads 2^20, 2^22 or 2^20, each paired
// with that count: far more records than the bytes after it can hold.
std::vector<std::pair<std::string, int64_t>> HostileCheckpointCounts(const std::string& clean);

}  // namespace gmorph::testing

#endif  // GMORPH_TESTS_TEST_UTIL_H_
