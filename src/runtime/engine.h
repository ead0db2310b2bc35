// Inference engines.
//
// The paper evaluates GMorph's fused models on two engines: PyTorch eager
// execution and TensorRT (a graph-optimizing compiler). Here:
//   - EagerEngine executes the multi-task tree module-by-module — the
//     "PyTorch" stand-in.
//   - FusedEngine (fused_engine.h) applies compiler-style graph passes
//     (BN folding, conv+ReLU fusion, identity elimination) before executing —
//     the "TensorRT" stand-in.
// Both consume the same MultiTaskModel, demonstrating that model fusion is
// complementary to engine-level graph optimization (paper Table 3).
#ifndef GMORPH_SRC_RUNTIME_ENGINE_H_
#define GMORPH_SRC_RUNTIME_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/multitask_model.h"

namespace gmorph {

class InferenceEngine {
 public:
  virtual ~InferenceEngine() = default;

  // Runs inference; returns per-task logits.
  virtual std::vector<Tensor> Run(const Tensor& input) = 0;

  virtual std::string Name() const = 0;
};

class EagerEngine : public InferenceEngine {
 public:
  // `model` must outlive the engine.
  explicit EagerEngine(MultiTaskModel* model) : model_(model) {}

  std::vector<Tensor> Run(const Tensor& input) override {
    return model_->Forward(input, /*training=*/false);
  }
  std::string Name() const override { return "eager"; }

 private:
  MultiTaskModel* model_;
};

enum class EngineKind { kEager, kFused };

std::unique_ptr<InferenceEngine> MakeEngine(EngineKind kind, MultiTaskModel* model);

// A self-contained engine instance: the engine plus the model it executes.
// Engines reference live model state (parameter handles into its
// modules) and are not safe for concurrent Run() calls, so a serving replica
// pool instantiates one EngineReplica per worker — each replica owns its own
// MultiTaskModel materialized from the (weight-carrying) graph, sharing no
// mutable state with its siblings. This is also the hot-swap unit: a swap
// hands a whole replica (model + engine) to the pool and receives the
// previous one back, so in-flight batches on the old engine stay valid until
// they complete.
struct EngineReplica {
  std::unique_ptr<MultiTaskModel> model;
  std::unique_ptr<InferenceEngine> engine;

  explicit operator bool() const { return engine != nullptr; }
};

// Builds a replica of `kind` over its own copy of `graph` (weights stored in
// the graph are materialized into the fresh model; `seed` covers any
// parameters the graph does not pin).
EngineReplica MakeEngineReplica(EngineKind kind, const AbsGraph& graph, uint64_t seed = 42);

// Median wall-clock latency (ms) of `engine` over `repeats` runs after
// `warmup` untimed ones, on a caller-owned input batch reused by every run.
// It runs the same MedianTimedMs loop (src/obs/timing.h) as MeasureLatencyMs
// (src/core/latency.h), so search-time and engine latencies are measured
// identically.
double MeasureEngineLatencyMs(InferenceEngine& engine, const Tensor& input, int warmup = 1,
                              int repeats = 5);

}  // namespace gmorph

#endif  // GMORPH_SRC_RUNTIME_ENGINE_H_
