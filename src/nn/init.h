// Weight initialization schemes.
#ifndef GMORPH_SRC_NN_INIT_H_
#define GMORPH_SRC_NN_INIT_H_

#include "src/common/rng.h"
#include "src/tensor/tensor.h"

namespace gmorph {

// Kaiming-He normal init for ReLU networks: N(0, sqrt(2 / fan_in)).
Tensor HeInit(const Shape& shape, int64_t fan_in, Rng& rng);

}  // namespace gmorph

#endif  // GMORPH_SRC_NN_INIT_H_
