#include "src/runtime/engine.h"

#include "src/common/check.h"
#include "src/obs/timing.h"
#include "src/runtime/fused_engine.h"

namespace gmorph {

std::unique_ptr<InferenceEngine> MakeEngine(EngineKind kind, MultiTaskModel* model) {
  GMORPH_CHECK(model != nullptr);
  switch (kind) {
    case EngineKind::kEager:
      return std::make_unique<EagerEngine>(model);
    case EngineKind::kFused:
      return std::make_unique<FusedEngine>(model);
  }
  GMORPH_CHECK(false, "unknown engine kind");
  return nullptr;
}

EngineReplica MakeEngineReplica(EngineKind kind, const AbsGraph& graph, uint64_t seed) {
  EngineReplica replica;
  Rng rng(seed);
  replica.model = std::make_unique<MultiTaskModel>(graph, rng);
  replica.engine = MakeEngine(kind, replica.model.get());
  return replica;
}

double MeasureEngineLatencyMs(InferenceEngine& engine, const Tensor& input, int warmup,
                              int repeats) {
  return MedianTimedMs([&] { engine.Run(input); }, warmup, repeats);
}

}  // namespace gmorph
