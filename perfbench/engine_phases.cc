#include "perfbench/engine_phases.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "perfbench/checks.h"
#include "src/runtime/engine.h"

namespace perfbench {

namespace {

using namespace gmorph;

constexpr int kCheckEvery = 16;  // every k-th f32 output is checked
constexpr double kFusedTolerance = 1e-3;
// Relative L2 error of int8 against f32. B1 seeds 1-15 measured at most 0.05.
constexpr double kInt8Tolerance = 0.15;
constexpr int kEagerRuns = 100;

std::vector<Tensor> Clone(const std::vector<Tensor>& outputs) {
  std::vector<Tensor> copy;
  for (const Tensor& t : outputs) {
    copy.push_back(t.Clone());
  }
  return copy;
}

}  // namespace

EnginePhases::EnginePhases(const AbsGraph& graph, uint64_t weight_seed,
                           std::vector<Tensor> inputs_b1, std::vector<Tensor> inputs_b8,
                           const std::vector<Tensor>& calibration, int warmup_runs,
                           int64_t index)
    : inputs_b1_(std::move(inputs_b1)), inputs_b8_(std::move(inputs_b8)) {
  Rng weights(weight_seed);
  model_ = std::make_unique<MultiTaskModel>(graph, weights);
  Rng weights_copy(weight_seed);
  int8_model_ = std::make_unique<MultiTaskModel>(graph, weights_copy);
  {
    BenchSpan span("runtime/plan_build", index);
    const double t0 = NowSeconds();
    fused_ = std::make_unique<FusedEngine>(model_.get());
    plan_build_ms_ = (NowSeconds() - t0) * 1e3;
  }
  int8_ = std::make_unique<FusedEngine>(int8_model_.get());

  EagerEngine eager(model_.get());
  for (const Tensor& in : inputs_b1_) {
    want_b1_.push_back(Clone(eager.Run(in)));
  }
  for (const Tensor& in : inputs_b8_) {
    want_b8_.push_back(Clone(eager.Run(in)));
  }

  {
    BenchSpan span("quant/calibrate", index);
    const double t0 = NowSeconds();
    const quant::QuantRecipe recipe = int8_->Calibrate(calibration);
    calibrate_ms_ = (NowSeconds() - t0) * 1e3;
    BenchSpan quantize_span("quant/quantize", index);
    const double t1 = NowSeconds();
    int8_steps_ = int8_->Quantize(recipe);
    quantize_ms_ = (NowSeconds() - t1) * 1e3;
  }
  for (size_t i = 0; i < inputs_b1_.size(); ++i) {
    int8_first_.push_back(Clone(int8_->Run(inputs_b1_[i])));
    int8_rel_err_.push_back(RelativeL2Error(int8_first_.back(), want_b1_[i]));
  }

  for (int i = 0; i < warmup_runs; ++i) {
    const Tensor& in = inputs_b1_[static_cast<size_t>(i) % inputs_b1_.size()];
    fused_->Run(in);
    int8_->Run(in);
    if (i % 8 == 0) {
      fused_->Run(inputs_b8_[static_cast<size_t>(i / 8) % inputs_b8_.size()]);
    }
  }
}

// Runs `engine` on `inputs` round-robin for `seconds`, records each Run()'s
// wall time in `phase` and checks every kCheckEvery-th output with `check`.
template <typename Check>
void EnginePhases::Timed(FusedEngine& engine, const std::vector<Tensor>& inputs,
                                        double seconds, Phase& phase, Check check) {
  std::vector<double> ms;
  int64_t runs = 0;
  const double end = NowSeconds() + seconds;
  while (NowSeconds() < end) {
    const size_t k = static_cast<size_t>(runs % static_cast<int64_t>(inputs.size()));
    BenchSpan span("runtime/run", span_index_++);
    const double t0 = NowSeconds();
    const std::vector<Tensor> out = engine.Run(inputs[k]);
    ms.push_back((NowSeconds() - t0) * 1e3);
    if (runs % kCheckEvery == 0 && !check(out, k)) {
      ++phase.failed;
    }
    ++runs;
  }
  phase.runs += runs;
  phase.p50_rounds.push_back(Median(ms));
  phase.p90_rounds.push_back(Quantile(ms, 0.9));
  phase.all_ms.insert(phase.all_ms.end(), ms.begin(), ms.end());
}

void EnginePhases::Round(double phase_seconds, Report& report) {
  const auto check_f32 = [&report](const std::vector<Tensor>& out,
                                   const std::vector<Tensor>& want, const char* what) {
    double err = 0.0;
    const bool ok = OutputsClose(out, want, kFusedTolerance, &err);
    if (!ok) {
      report.Fail(std::string(what) + " output differs from eager by " + std::to_string(err));
    }
    return ok;
  };
  const int64_t alloc_before = Tensor::TotalAllocatedBytes();

  fused_->ResetProfile();
  Timed(*fused_, inputs_b1_, phase_seconds, f32_b1_,
        [&](const std::vector<Tensor>& out, size_t k) {
          return check_f32(out, want_b1_[k], "f32 batch-1");
        });
  f32_split_.Add(SplitProfile(fused_->Profile()));

  const int64_t b8_runs = f32_b8_.runs;
  const double t8 = NowSeconds();
  Timed(*fused_, inputs_b8_, phase_seconds, f32_b8_,
        [&](const std::vector<Tensor>& out, size_t k) {
          return check_f32(out, want_b8_[k], "f32 batch-8");
        });
  const double batch = static_cast<double>(inputs_b8_.front().shape()[0]);
  b8_tput_rounds_.push_back(batch * static_cast<double>(f32_b8_.runs - b8_runs) /
                            (NowSeconds() - t8));

  int8_->ResetProfile();
  Timed(*int8_, inputs_b1_, phase_seconds, int8_b1_,
        [&](const std::vector<Tensor>& out, size_t k) {
          const bool ok = OutputsBitwiseEqual(out, int8_first_[k]);
          if (!ok) {
            report.Fail("int8 output is not bitwise equal to the first int8 run");
          }
          return ok;
        });
  int8_split_.Add(SplitProfile(int8_->Profile()));

  alloc_bytes_ += Tensor::TotalAllocatedBytes() - alloc_before;
  steal_rounds_.push_back(steal_.Share());
}

void EnginePhases::Finish(Report& report) {
  int64_t int8_far = 0;
  for (size_t i = 0; i < int8_rel_err_.size(); ++i) {
    if (!(int8_rel_err_[i] <= kInt8Tolerance)) {
      ++int8_far;
      report.Fail("int8 output " + std::to_string(i) + " is " + std::to_string(int8_rel_err_[i]) +
                  " from f32, over " + std::to_string(kInt8Tolerance));
    }
  }
  report.Phase("int8-vs-f32", static_cast<int64_t>(int8_rel_err_.size()), int8_far);
  report.Phase("f32-b1", f32_b1_.runs, f32_b1_.failed);
  report.Phase("f32-b8", f32_b8_.runs, f32_b8_.failed);
  report.Phase("int8-b1", int8_b1_.runs, int8_b1_.failed);

  // Eager latency of the same graph: what the search's profile stage times.
  EagerEngine eager(model_.get());
  std::vector<double> eager_ms;
  for (int i = 0; i < kEagerRuns; ++i) {
    const double t0 = NowSeconds();
    eager.Run(inputs_b1_[static_cast<size_t>(i) % inputs_b1_.size()]);
    eager_ms.push_back((NowSeconds() - t0) * 1e3);
  }

  std::printf("engine: plan %d steps, %d fallback, int8 steps %d\n", fused_->num_steps(),
              fused_->num_fallback_modules(), int8_steps_);
  PrintTail("f32-b1 run", f32_b1_.all_ms, "ms");
  PrintTail("f32-b8 run", f32_b8_.all_ms, "ms");
  PrintTail("int8-b1 run", int8_b1_.all_ms, "ms");
  PrintTail("eager-b1 run", eager_ms, "ms");
  std::printf("cpu stolen by the host per engine round: median %.3f, max %.3f\n",
              Median(steal_rounds_),
              steal_rounds_.empty()
                  ? 0.0
                  : *std::max_element(steal_rounds_.begin(), steal_rounds_.end()));

  report.EndToEnd("p50_ms", Median(f32_b1_.p50_rounds), "ms");
  report.EndToEnd("p90_ms", Median(f32_b1_.p90_rounds), "ms");
  report.EndToEnd("int8_p50_ms", Median(int8_b1_.p50_rounds), "ms");

  const StepSplit per_run = f32_split_.PerRun(f32_b1_.runs);
  ReportStepSplit(per_run, report);
  double b1_wall_ms = 0.0;
  for (double v : f32_b1_.all_ms) {
    b1_wall_ms += v;
  }
  const double batch = static_cast<double>(inputs_b8_.front().shape()[0]);
  const int64_t total_runs = f32_b1_.runs + f32_b8_.runs + int8_b1_.runs;
  report.Layer("runtime.plan_build_ms", plan_build_ms_, "ms");
  report.Layer("runtime.plan_steps", fused_->num_steps(), "count");
  report.Layer("runtime.fallback_steps", fused_->num_fallback_modules(), "count");
  report.Layer("runtime.residual_share",
               b1_wall_ms > 0.0 ? 1.0 - f32_split_.total_ms() / b1_wall_ms : 0.0, "ratio");
  report.Layer("runtime.alloc_bytes_per_run",
               static_cast<double>(alloc_bytes_) /
                   static_cast<double>(std::max<int64_t>(1, total_runs)),
               "B");
  report.Layer("runtime.b8_ms_per_sample", Median(f32_b8_.p50_rounds) / batch, "ms");
  report.Layer("runtime.eager_p50_ms", Median(eager_ms), "ms");
  report.Layer("runtime.run_p99_ms", Quantile(f32_b1_.all_ms, 0.99), "ms");
  report.Layer("runtime.service_ms_b1", Median(f32_b1_.p50_rounds), "ms");
  report.Layer("runtime.service_ms_b8", Median(f32_b8_.p50_rounds), "ms");
  report.Layer("kernels.conv_gflops",
               per_run.conv_ms > 0.0 ? per_run.conv_flops / (per_run.conv_ms * 1e6) : 0.0,
               "GFLOP/s");
  report.Layer("quant.calibrate_ms", calibrate_ms_, "ms");
  report.Layer("quant.quantize_ms", quantize_ms_, "ms");
  report.Layer("quant.int8_steps", int8_steps_, "count");
  const StepSplit int8_per_run = int8_split_.PerRun(int8_b1_.runs);
  report.Layer("quant.int8_step_ms", int8_per_run.conv_ms + int8_per_run.linear_ms, "ms");
  report.Layer("quant.int8_max_rel_err",
               int8_rel_err_.empty()
                   ? 0.0
                   : *std::max_element(int8_rel_err_.begin(), int8_rel_err_.end()),
               "ratio");
}

}  // namespace perfbench
