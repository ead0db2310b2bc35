#include "src/nn/init.h"

#include <cmath>

#include "src/common/check.h"

namespace gmorph {

Tensor HeInit(const Shape& shape, int64_t fan_in, Rng& rng) {
  GMORPH_CHECK(fan_in > 0);
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return Tensor::RandomGaussian(shape, rng, stddev);
}

}  // namespace gmorph
