#include "src/kernels/autotune.h"

#include <algorithm>
#include <memory>

#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/common/rng.h"
#include "src/kernels/registry.h"
#include "src/obs/metrics.h"
#include "src/obs/timing.h"
#include "src/obs/trace.h"

namespace gmorph::kernels {
namespace {

// Deterministic operand fill: the same descriptor always benchmarks on the
// same bits, so repeated tunes rank solvers on identical inputs.
void FillUniform(float* p, int64_t n, uint64_t seed) {
  Rng rng(Rng::MixSeed(0x747561656e646200ull, seed));
  for (int64_t i = 0; i < n; ++i) {
    p[i] = rng.NextFloat() - 0.5f;
  }
}

void FillUniformU8(uint8_t* p, int64_t n, uint64_t seed) {
  Rng rng(Rng::MixSeed(0x747561656e646200ull, seed));
  for (int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<uint8_t>(rng.NextFloat() * 256.0f);
  }
}

void FillUniformS8(int8_t* p, int64_t n, uint64_t seed) {
  Rng rng(Rng::MixSeed(0x747561656e646200ull, seed));
  for (int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<int8_t>(static_cast<int>(rng.NextFloat() * 255.0f) - 127);
  }
}

uint64_t DescSeed(const ProblemDesc& desc) {
  return Rng::MixSeed(static_cast<uint64_t>(desc.op),
                      static_cast<uint64_t>(desc.m * 1315423911 + desc.k),
                      static_cast<uint64_t>(desc.n * 2654435761 + desc.aux0 * 97 + desc.aux1));
}

template <typename Fn>
double MeasureRunMs(const ProblemDesc& desc, Fn&& run, const AutotuneOptions& options) {
  if (desc.threads == 1 && KernelThreads() > 1) {
    // Nested-context descriptor: time it the way it runs in production,
    // inside an enclosing parallel region (ParallelFor then stays serial).
    ParallelRegionGuard guard;
    return MedianTimedMs(run, options.warmup, options.repeats);
  }
  return MedianTimedMs(run, options.warmup, options.repeats);
}

double MeasureSolverMs(const ProblemDesc& desc, const Solver* solver, const float* a,
                       const float* b, float* c, const AutotuneOptions& options) {
  return MeasureRunMs(
      desc,
      [&] {
        if (desc.op == OpFamily::kMaxPool) {
          PoolCall call{a, c};
          static_cast<const PoolSolver*>(solver)->Run(desc, call);
        } else {
          const GemmCall call = MakeGemmCall(desc, a, b, c, /*accumulate=*/false);
          static_cast<const GemmSolver*>(solver)->Run(desc, call);
        }
      },
      options);
}

double MeasureQSolverMs(const ProblemDesc& desc, const Solver* solver, const uint8_t* a,
                        const int8_t* b, int32_t* c, const AutotuneOptions& options) {
  const QGemmCall call{a, b, c};
  return MeasureRunMs(
      desc, [&] { static_cast<const QGemmSolver*>(solver)->Run(desc, call); }, options);
}

}  // namespace

TuneResult TuneProblem(const ProblemDesc& desc, TuneDb& db, const AutotuneOptions& options) {
  static obs::Counter& benchmarks = obs::GetCounter("kernels.autotune_benchmarks");
  static obs::Counter& shapes = obs::GetCounter("kernels.autotune_shapes");
  static obs::Counter& cached = obs::GetCounter("kernels.autotune_cached");
  static obs::Histogram& tune_ms = obs::GetHistogram("kernels.autotune_ms");

  TuneResult result;
  result.desc = desc;
  if (!options.force) {
    if (const TuneDb::Entry* e = db.Lookup(desc);
        e != nullptr && e->resolved != nullptr && e->resolved->IsApplicable(desc)) {
      cached.Increment();
      result.reused = true;
      result.winner = e->solver;
      result.winner_gflops = e->gflops;
      return result;
    }
  }

  obs::TraceSpan span("kernel/autotune", obs::TraceCat::kKernel);
  Timer total;

  // Synthetic operands sized for the descriptor, in the descriptor's dtype.
  // For pools, `a` is the input planes and `c` the pooled output; `b` is
  // unused. Int8 descs benchmark on u8 activations and s8 weights, sized for
  // the family's operand layouts (QGemmCall).
  std::unique_ptr<float[]> a, b, c;
  std::unique_ptr<uint8_t[]> qa;
  std::unique_ptr<int8_t[]> qb;
  std::unique_ptr<int32_t[]> qc;
  const uint64_t seed = DescSeed(desc);
  if (desc.dtype == DType::kInt8) {
    qa.reset(new uint8_t[static_cast<size_t>(QActBytes(desc))]);
    qb.reset(new int8_t[static_cast<size_t>(QWeightBytes(desc))]);
    qc.reset(new int32_t[static_cast<size_t>(desc.m * desc.n)]);
    FillUniformU8(qa.get(), QActBytes(desc), seed);
    FillUniformS8(qb.get(), QWeightBytes(desc), seed + 1);
  } else {
    int64_t a_floats = 0, b_floats = 0, c_floats = 0;
    if (desc.op == OpFamily::kMaxPool) {
      const int64_t oh = PooledDim(desc.k, desc.aux0, desc.aux1);
      const int64_t ow = PooledDim(desc.n, desc.aux0, desc.aux1);
      GMORPH_CHECK(oh >= 1 && ow >= 1, "untunable pool descriptor " << ProblemKey(desc));
      a_floats = desc.m * desc.k * desc.n;
      c_floats = desc.m * oh * ow;
    } else {
      a_floats = desc.m * desc.k;
      b_floats = desc.k * desc.n;
      c_floats = desc.m * desc.n;
    }
    a.reset(new float[static_cast<size_t>(a_floats)]);
    b.reset(b_floats > 0 ? new float[static_cast<size_t>(b_floats)] : nullptr);
    c.reset(new float[static_cast<size_t>(c_floats)]);
    FillUniform(a.get(), a_floats, seed);
    if (b_floats > 0) {
      FillUniform(b.get(), b_floats, seed + 1);
    }
  }

  const double flops = static_cast<double>(ProblemFlops(desc));
  const std::vector<const Solver*> candidates = SolverRegistry::Global().Applicable(desc);
  GMORPH_CHECK(!candidates.empty(), "no applicable solver for " << ProblemKey(desc));
  const SolverSample* best = nullptr;
  result.samples.reserve(candidates.size());
  for (const Solver* solver : candidates) {
    SolverSample sample;
    sample.solver = solver->name();
    sample.ms = desc.dtype == DType::kInt8
                    ? MeasureQSolverMs(desc, solver, qa.get(), qb.get(), qc.get(), options)
                    : MeasureSolverMs(desc, solver, a.get(), b.get(), c.get(), options);
    sample.gflops = sample.ms > 0.0 ? flops / (sample.ms * 1e6) : 0.0;
    benchmarks.Increment();
    result.samples.push_back(std::move(sample));
    if (best == nullptr || result.samples.back().gflops > best->gflops) {
      best = &result.samples.back();
    }
  }

  result.winner = best->solver;
  result.winner_gflops = best->gflops;
  TuneDb::Entry entry;
  entry.solver = best->solver;
  entry.gflops = best->gflops;
  entry.ms = best->ms;
  db.Record(desc, std::move(entry));
  shapes.Increment();
  tune_ms.Observe(total.Millis());
  return result;
}

std::vector<TuneResult> TuneProblems(const std::vector<ProblemDesc>& descs, TuneDb& db,
                                     const AutotuneOptions& options) {
  std::vector<TuneResult> results;
  results.reserve(descs.size());
  for (const ProblemDesc& desc : descs) {
    results.push_back(TuneProblem(desc, db, options));
  }
  return results;
}

}  // namespace gmorph::kernels
