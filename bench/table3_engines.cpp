// Table 3: latency of Original vs GMorph-fused models on both inference
// engines (eager = PyTorch stand-in, fused = TensorRT stand-in), at accuracy
// drop < 2%. Shows model fusion is complementary to engine-level graph
// optimization: both engines speed up by a similar factor. On each engine and
// batch the original and the fused model are timed interleaved, so a
// benchmark whose search kept the original graph reads 1.00x.
//
// Besides the human-readable table it prints one JSON line per configuration
// (machine-parseable, like micro_ops):
//   {"bench": "B1", "engine": "fused", "model": "orig"|"fused", "batch": 1,
//    "latency_ms": ..., "throughput_qps": ..., "bytes_per_op": ...}
// bytes_per_op is the heap growth (tensor storage + scratch arenas) per Run
// in steady state — 0 for the planned fused engine on fully-lowered graphs.
//
// --autotune benchmarks the kernel solvers on every shape the measured plans
// execute (all batches) before timing, records the winners in the tuning DB
// (GMORPH_TUNE_DB, else <cache dir>/gmorph.tunedb), and measures with tuned
// dispatch. Without the flag, a DB named by GMORPH_TUNE_DB is still honored —
// kernel resolution consults it automatically.
#include <cstdio>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/graph_io.h"
#include "src/core/model_parser.h"
#include "src/kernels/autotune.h"
#include "src/kernels/scratch.h"
#include "src/kernels/tune_db.h"
#include "src/obs/timing.h"
#include "src/runtime/engine.h"
#include "src/runtime/fused_engine.h"

namespace {

using namespace gmorph;

int64_t HeapBytesNow() { return Tensor::TotalAllocatedBytes() + ScratchArena::TotalHeapBytes(); }

struct EngineSample {
  double latency_ms = 0.0;
  int64_t bytes_per_run = 0;
};

// Heap growth of one steady-state Run(), after an extra warm-up run lets
// arena and binding growth settle.
int64_t BytesPerRun(InferenceEngine& engine, const Tensor& input) {
  engine.Run(input);
  const int64_t before = HeapBytesNow();
  engine.Run(input);
  return HeapBytesNow() - before;
}

// Samples the original and the fused model's engines on one input, their
// runs timed interleaved.
std::pair<EngineSample, EngineSample> Sample(InferenceEngine& orig, InferenceEngine& best,
                                             const Tensor& input) {
  std::pair<EngineSample, EngineSample> s;
  s.first.bytes_per_run = BytesPerRun(orig, input);
  s.second.bytes_per_run = BytesPerRun(best, input);
  const std::vector<double> ms =
      InterleavedMediansMs({[&] { orig.Run(input); }, [&] { best.Run(input); }},
                           /*warmup=*/1, gmorph::bench::kLatencyRuns);
  s.first.latency_ms = ms[0];
  s.second.latency_ms = ms[1];
  return s;
}

void PrintJson(int bench, const std::string& engine, const char* model, int64_t batch,
               const EngineSample& s) {
  gmorph::bench::EmitJsonLine(
      gmorph::bench::JsonLine()
          .Key("bench").String(gmorph::bench::BenchId(bench))
          .Key("engine").String(engine)
          .Key("model").String(model)
          .Key("batch").Int(batch)
          .Key("latency_ms").Fixed(s.latency_ms, 3)
          .Key("throughput_qps")
          .Fixed(s.latency_ms > 0.0 ? 1000.0 / s.latency_ms * static_cast<double>(batch) : 0.0, 1)
          .Key("bytes_per_op").Int(s.bytes_per_run));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gmorph::bench;
  const bool autotune = argc > 1 && std::strcmp(argv[1], "--autotune") == 0;
  std::shared_ptr<kernels::TuneDb> tune_db;
  std::string tune_db_path;
  if (autotune) {
    tune_db_path = kernels::ResolveTuneDbPath();
    tune_db = std::make_shared<kernels::TuneDb>();
    tune_db->Load(tune_db_path);
    kernels::SetGlobalTuneDb(tune_db);
  }

  PrintHeader("Table 3: Original vs GMorph on eager and fused engines", "paper Table 3");
  PrintRow({"Benchmark", "eagerOrig", "eagerFused", "speedup", "optOrig", "optFused",
            "speedup"});

  for (int b = 1; b <= kNumBenchmarks; ++b) {
    SearchSummary s = RunSearchCached(b, /*threshold=*/0.02, Variant::kBase);
    Rng rng(41);
    AbsGraph original = OriginalGraph(b);
    AbsGraph best;
    if (!LoadGraph(s.best_graph_path, best)) {
      std::fprintf(stderr, "missing cached graph for B%d\n", b);
      return 1;
    }
    MultiTaskModel original_model(original, rng);
    MultiTaskModel best_model(best, rng);
    const Shape per_sample = original.node(original.root()).output_shape;

    if (autotune) {
      // Tune every kernel shape the measured plans will execute, at every
      // measured batch, so the timed runs below resolve winners from the DB.
      std::set<kernels::ProblemDesc> problems;
      for (MultiTaskModel* model : {&original_model, &best_model}) {
        FusedEngine probe(model);
        for (int64_t batch : {int64_t{1}, int64_t{4}, int64_t{8}}) {
          for (const kernels::ProblemDesc& desc : probe.KernelProblems(batch)) {
            problems.insert(desc);
          }
        }
      }
      kernels::TuneProblems(std::vector<kernels::ProblemDesc>(problems.begin(), problems.end()),
                            *tune_db, kernels::AutotuneOptions());
    }

    std::vector<std::string> row = {BenchId(b)};
    for (EngineKind kind : {EngineKind::kEager, EngineKind::kFused}) {
      auto engine_orig = MakeEngine(kind, &original_model);
      auto engine_best = MakeEngine(kind, &best_model);
      double batch1_orig = 0.0;
      double batch1_best = 0.0;
      for (int64_t batch : {int64_t{1}, int64_t{4}, int64_t{8}}) {
        const Tensor input = Tensor::Zeros(per_sample.WithBatch(batch));
        const auto [so, sb] = Sample(*engine_orig, *engine_best, input);
        PrintJson(b, engine_orig->Name(), "orig", batch, so);
        PrintJson(b, engine_best->Name(), "fused", batch, sb);
        if (batch == 1) {
          batch1_orig = so.latency_ms;
          batch1_best = sb.latency_ms;
        }
      }
      row.push_back(Fmt(batch1_orig));
      row.push_back(Fmt(batch1_best));
      row.push_back(Fmt(batch1_orig / batch1_best) + "x");
    }
    PrintRow(row);
  }
  if (autotune) {
    if (tune_db->Save(tune_db_path)) {
      std::printf("\nautotuned dispatch: %lld tuned entries -> %s\n",
                  static_cast<long long>(tune_db->size()), tune_db_path.c_str());
    } else {
      std::fprintf(stderr, "warning: failed to save tuning DB to %s\n", tune_db_path.c_str());
    }
  }
  std::printf("\n'eager' executes module-by-module; 'opt' lowers the graph through the\n"
              "execution planner (BN folding, epilogue fusion, static memory planning,\n"
              "branch-parallel scheduling; see src/runtime/fused_engine.h).\n");
  return 0;
}
