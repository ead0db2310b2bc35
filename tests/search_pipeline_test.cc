// Tests for the staged search pipeline: the evaluation cache, search
// checkpoints, kill-and-resume, and parallel-round determinism.
//
// Searches here optimize FLOPs (OptimizeMetric::kFlops): under the FLOPs
// metric every trace field except wall-clock timings is fully deterministic
// (bitwise-deterministic kernels, per-candidate RNG streams, no RNG in
// fine-tuning), so the tests can compare runs field-for-field.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/core/eval_cache.h"
#include "src/core/gmorph.h"
#include "src/core/model_parser.h"
#include "src/core/search_checkpoint.h"
#include "src/data/benchmarks.h"
#include "src/data/teacher.h"
#include "src/models/zoo.h"
#include "tests/test_util.h"

namespace gmorph {
namespace {

AbsGraph TinyGraph(int classes) {
  VisionModelOptions opts;
  opts.base_width = 4;
  opts.classes = classes;
  return ParseModelSpecs({MakeVgg11(opts), MakeVgg11(opts)});
}

// Fresh per-test scratch directory under the gtest temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(::testing::TempDir() + "gmorph_" + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

struct Prepared {
  BenchmarkDef def;
  std::vector<std::unique_ptr<TaskModel>> teachers;
  std::vector<TaskModel*> ptrs;
};

Prepared Prepare(int bench_index, uint64_t seed) {
  BenchmarkScale scale;
  scale.train_size = 48;
  scale.test_size = 32;
  scale.cnn_width = 4;
  Prepared p;
  p.def = MakeBenchmark(bench_index, scale, seed);
  Rng rng(seed);
  for (size_t t = 0; t < p.def.tasks.size(); ++t) {
    p.teachers.push_back(std::make_unique<TaskModel>(p.def.tasks[t].model, rng));
    TeacherTrainOptions topts;
    topts.epochs = 2;
    TrainTeacher(*p.teachers.back(), p.def.train, p.def.test, t, topts);
    p.ptrs.push_back(p.teachers.back().get());
  }
  return p;
}

GMorphOptions FastFlopsOptions() {
  GMorphOptions o;
  o.iterations = 4;
  o.accuracy_drop_threshold = 0.10;
  o.metric = OptimizeMetric::kFlops;
  o.finetune.max_epochs = 2;
  o.finetune.eval_interval = 1;
  o.latency.measured_runs = 1;
  o.seed = 3;
  return o;
}

// Compares every deterministic trace field (all but the wall-clock timings).
// `compare_cache_flags` is off when one run had a warm cache: hit flags and
// the derived counters legitimately differ there.
void ExpectTraceEqual(const std::vector<IterationRecord>& a,
                      const std::vector<IterationRecord>& b, bool compare_cache_flags) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("trace index " + std::to_string(i));
    EXPECT_EQ(a[i].iteration, b[i].iteration);
    EXPECT_EQ(a[i].candidate_flops, b[i].candidate_flops);
    EXPECT_EQ(a[i].accuracy_drop, b[i].accuracy_drop);
    EXPECT_EQ(a[i].met_target, b[i].met_target);
    EXPECT_EQ(a[i].filtered_by_rule, b[i].filtered_by_rule);
    EXPECT_EQ(a[i].terminated_early, b[i].terminated_early);
    EXPECT_EQ(a[i].duplicate, b[i].duplicate);
    EXPECT_EQ(a[i].rejected_by_verifier, b[i].rejected_by_verifier);
    EXPECT_EQ(a[i].best_flops, b[i].best_flops);
    if (compare_cache_flags) {
      EXPECT_EQ(a[i].cache_hit, b[i].cache_hit);
    }
  }
}

TEST(EvalCacheTest, StoreLookupRoundtrip) {
  ScratchDir dir("evalcache_roundtrip");
  AbsGraph trained = TinyGraph(2);
  const std::string fp = trained.Fingerprint();

  EvaluationCache::Entry entry;
  entry.met_target = true;
  entry.terminated_early = false;
  entry.epochs_run = 3;
  entry.accuracy_drop = 0.01625;
  entry.latency_ms = 1.75;
  entry.flops = 123456;
  entry.finetune_seconds = 2.5;
  entry.task_scores = {0.875, 0.9375};

  {
    EvaluationCache cache(dir.path(), /*options_hash=*/0xabcdef01u);
    EXPECT_FALSE(cache.Lookup(fp).has_value());
    cache.Store(fp, entry, &trained);
    auto hit = cache.Lookup(fp);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->entry.accuracy_drop, entry.accuracy_drop);
    ASSERT_TRUE(hit->trained_graph.has_value());
    EXPECT_EQ(hit->trained_graph->Fingerprint(), fp);
  }

  // A fresh instance reloads the persisted index and the trained graph.
  EvaluationCache reloaded(dir.path(), /*options_hash=*/0xabcdef01u);
  EXPECT_TRUE(reloaded.load_diagnostics().ok());
  EXPECT_EQ(reloaded.size(), 1u);
  auto hit = reloaded.Lookup(fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->entry.met_target);
  EXPECT_EQ(hit->entry.epochs_run, 3);
  EXPECT_EQ(hit->entry.accuracy_drop, entry.accuracy_drop);
  EXPECT_EQ(hit->entry.latency_ms, entry.latency_ms);
  EXPECT_EQ(hit->entry.flops, entry.flops);
  EXPECT_EQ(hit->entry.finetune_seconds, entry.finetune_seconds);
  ASSERT_EQ(hit->entry.task_scores.size(), 2u);
  EXPECT_EQ(hit->entry.task_scores[0], 0.875);
  EXPECT_EQ(hit->entry.task_scores[1], 0.9375);
  ASSERT_TRUE(hit->trained_graph.has_value());
  EXPECT_EQ(hit->trained_graph->Fingerprint(), fp);

  // A different options hash is a different namespace: no entries visible.
  EvaluationCache other(dir.path(), /*options_hash=*/0x1111u);
  EXPECT_EQ(other.size(), 0u);
  EXPECT_FALSE(other.Lookup(fp).has_value());

  // Non-elite entries persist without a trained graph.
  EvaluationCache::Entry miss = entry;
  miss.met_target = false;
  miss.task_scores.clear();
  AbsGraph other_graph = TinyGraph(3);
  {
    EvaluationCache cache(dir.path(), 0xabcdef01u);
    cache.Store(other_graph.Fingerprint(), miss, nullptr);
  }
  EvaluationCache again(dir.path(), 0xabcdef01u);
  auto miss_hit = again.Lookup(other_graph.Fingerprint());
  ASSERT_TRUE(miss_hit.has_value());
  EXPECT_FALSE(miss_hit->entry.met_target);
  EXPECT_FALSE(miss_hit->trained_graph.has_value());

  // The on-disk index itself lints clean.
  DiagnosticList lint = VerifyEvalCacheFile(again.index_path());
  EXPECT_TRUE(lint.ok()) << lint.ToString();
  EXPECT_TRUE(lint.HasRule("cache.summary"));
}

TEST(EvalCacheTest, MissingTrainedGraphDegradesToMiss) {
  ScratchDir dir("evalcache_missing_graph");
  AbsGraph trained = TinyGraph(2);
  const std::string fp = trained.Fingerprint();
  EvaluationCache::Entry entry;
  entry.met_target = true;
  {
    EvaluationCache cache(dir.path(), 7);
    cache.Store(fp, entry, &trained);
    // Delete the trained graph behind the cache's back.
    auto hit = cache.Lookup(fp);
    ASSERT_TRUE(hit.has_value());
  }
  for (const auto& f : std::filesystem::directory_iterator(dir.path())) {
    if (f.path().extension() == ".gmorph") {
      std::filesystem::remove(f.path());
    }
  }
  EvaluationCache cache(dir.path(), 7);
  EXPECT_FALSE(cache.Lookup(fp).has_value());
}

TEST(EvalCacheTest, CorruptFileProducesDiagnostics) {
  ScratchDir dir("evalcache_corrupt");
  const std::string path = dir.File("evalcache_bad.txt");
  {
    std::ofstream out(path);
    out << "gmorph-evalcache v1\n"
        << "options zzzz-not-hex\n"
        << "entry met=1 early=0 epochs=bogus\n"
        << "what is this line\n";
  }
  DiagnosticList diags = VerifyEvalCacheFile(path);
  EXPECT_FALSE(diags.ok());
  EXPECT_TRUE(diags.HasRule("cache.options")) << diags.ToString();
  EXPECT_TRUE(diags.HasRule("cache.entry")) << diags.ToString();

  // Unknown version and missing header have their own rules.
  const std::string v2 = dir.File("evalcache_v2.txt");
  { std::ofstream(v2) << "gmorph-evalcache v2\n"; }
  EXPECT_TRUE(VerifyEvalCacheFile(v2).HasRule("cache.version"));
  const std::string noheader = dir.File("not_a_cache.txt");
  { std::ofstream(noheader) << "hello\n"; }
  EXPECT_TRUE(VerifyEvalCacheFile(noheader).HasRule("cache.header"));
  EXPECT_TRUE(VerifyEvalCacheFile(dir.File("absent.txt")).HasRule("cache.open"));

  // The constructor survives a corrupt index: diagnostics recorded, usable.
  {
    std::ofstream out(path, std::ios::app);
    out << "entry met=0 early=0 epochs=1 flops=10 drop=0 lat=0 ftsec=0 scores=- graph=- fp=ok\n";
  }
  // Rename to the index path the cache expects for options hash 0x2a.
  const std::string index = dir.File("evalcache_000000000000002a.txt");
  std::filesystem::copy_file(path, index);
  EvaluationCache cache(dir.path(), 0x2a);
  EXPECT_FALSE(cache.load_diagnostics().ok());
  EXPECT_EQ(cache.size(), 1u);  // the good entry still loaded
  EXPECT_TRUE(cache.Lookup("ok").has_value());
}

TEST(EvalCacheTest, SecondSearchRunHitsCache) {
  ScratchDir dir("evalcache_search");
  Prepared p = Prepare(1, 21);
  GMorphOptions opts = FastFlopsOptions();
  opts.use_eval_cache = true;
  opts.cache_dir = dir.path();

  GMorph first(p.ptrs, &p.def.train, &p.def.test, opts);
  GMorphResult r1 = first.Run();
  EXPECT_EQ(r1.cache_hits, 0);
  ASSERT_GT(r1.candidates_finetuned, 0);

  // Run 2 over the same options samples the identical candidate stream; every
  // previously fine-tuned candidate must be served from the cache.
  GMorph second(p.ptrs, &p.def.train, &p.def.test, opts);
  GMorphResult r2 = second.Run();
  EXPECT_EQ(r2.cache_hits, r1.candidates_finetuned);
  EXPECT_EQ(r2.candidates_finetuned, 0);
  EXPECT_EQ(r2.stage_seconds.finetune, 0.0);
  // The warm run reaches the identical final state.
  EXPECT_EQ(r2.best_flops, r1.best_flops);
  EXPECT_EQ(r2.found_improvement, r1.found_improvement);
  EXPECT_EQ(r2.best_graph.Fingerprint(), r1.best_graph.Fingerprint());
  ExpectTraceEqual(r1.trace, r2.trace, /*compare_cache_flags=*/false);
  for (const IterationRecord& rec : r2.trace) {
    EXPECT_EQ(rec.finetune_seconds, 0.0);
  }
  // And the warm search is cheaper end to end.
  EXPECT_LT(r2.search_seconds, r1.search_seconds);

  // The index written by the search lints clean.
  EvalOptions eval;
  eval.finetune = opts.finetune;
  eval.finetune.target_drop = opts.accuracy_drop_threshold;
  eval.finetune.predictive_termination = opts.predictive_termination;
  eval.latency = opts.latency;
  eval.rule_based_filtering = opts.rule_based_filtering;
  char index_name[64];
  std::snprintf(index_name, sizeof(index_name), "evalcache_%016llx.txt",
                static_cast<unsigned long long>(HashEvalOptions(eval)));
  DiagnosticList lint = VerifyEvalCacheFile(dir.File(index_name));
  EXPECT_TRUE(lint.ok()) << lint.ToString();
}

SearchCheckpoint MakeSyntheticCheckpoint() {
  SearchCheckpoint ckpt;
  ckpt.options_hash = 0xfeedface12345678ull;
  ckpt.next_iteration = 7;
  ckpt.elapsed_seconds = 12.5;
  ckpt.original_latency_ms = 3.25;
  ckpt.original_flops = 1000000;
  ckpt.teacher_scores = {0.75, 0.8125};
  ckpt.found_improvement = true;
  ckpt.best_graph = TinyGraph(2);
  ckpt.best_latency_ms = 2.5;
  ckpt.best_flops = 800000;
  ckpt.best_cost = 800000.0;
  ckpt.best_task_scores = {0.75, 0.78125};
  IterationRecord rec;
  rec.iteration = 1;
  rec.candidate_flops = 900000;
  rec.accuracy_drop = 0.03125;
  rec.met_target = true;
  rec.cache_hit = true;
  rec.stages.sample = 0.125;
  rec.stages.finetune = 1.5;
  ckpt.trace = {rec};
  ckpt.candidates_finetuned = 4;
  ckpt.candidates_filtered = 2;
  ckpt.candidates_rejected = 1;
  ckpt.cache_hits = 3;
  ckpt.stage_seconds.verify = 0.25;
  ckpt.fingerprints = {TinyGraph(2).Fingerprint(), TinyGraph(3).Fingerprint()};
  ckpt.elites.push_back({TinyGraph(3), 850000.0, 0.0625});
  CapacitySignature sig;
  sig.total = 100;
  sig.shared_total = 20;
  sig.per_task_total = {50, 70};
  sig.per_task_specific = {30, 50};
  ckpt.non_promising = {sig};
  ckpt.policy.iteration = 7;
  ckpt.policy.last_drop = 0.046875;
  return ckpt;
}

TEST(CheckpointTest, SaveLoadRoundtrip) {
  ScratchDir dir("ckpt_roundtrip");
  const std::string path = dir.File("search.ckpt");
  SearchCheckpoint ckpt = MakeSyntheticCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(path, ckpt));

  CheckpointLoadResult loaded = TryLoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.diagnostics.ToString();
  const SearchCheckpoint& c = *loaded.checkpoint;
  EXPECT_EQ(c.options_hash, ckpt.options_hash);
  EXPECT_EQ(c.next_iteration, 7);
  EXPECT_EQ(c.elapsed_seconds, 12.5);
  EXPECT_EQ(c.original_latency_ms, 3.25);
  EXPECT_EQ(c.original_flops, 1000000);
  EXPECT_EQ(c.teacher_scores, ckpt.teacher_scores);
  EXPECT_TRUE(c.found_improvement);
  EXPECT_EQ(c.best_graph.Fingerprint(), ckpt.best_graph.Fingerprint());
  EXPECT_EQ(c.best_latency_ms, 2.5);
  EXPECT_EQ(c.best_flops, 800000);
  EXPECT_EQ(c.best_cost, 800000.0);
  EXPECT_EQ(c.best_task_scores, ckpt.best_task_scores);
  ASSERT_EQ(c.trace.size(), 1u);
  EXPECT_EQ(c.trace[0].iteration, 1);
  EXPECT_EQ(c.trace[0].candidate_flops, 900000);
  EXPECT_EQ(c.trace[0].accuracy_drop, 0.03125);
  EXPECT_TRUE(c.trace[0].met_target);
  EXPECT_TRUE(c.trace[0].cache_hit);
  EXPECT_EQ(c.trace[0].stages.sample, 0.125);
  EXPECT_EQ(c.trace[0].stages.finetune, 1.5);
  EXPECT_EQ(c.candidates_finetuned, 4);
  EXPECT_EQ(c.candidates_filtered, 2);
  EXPECT_EQ(c.candidates_rejected, 1);
  EXPECT_EQ(c.cache_hits, 3);
  EXPECT_EQ(c.stage_seconds.verify, 0.25);
  EXPECT_EQ(c.fingerprints, ckpt.fingerprints);
  ASSERT_EQ(c.elites.size(), 1u);
  EXPECT_EQ(c.elites[0].graph.Fingerprint(), ckpt.elites[0].graph.Fingerprint());
  EXPECT_EQ(c.elites[0].cost, 850000.0);
  EXPECT_EQ(c.elites[0].accuracy_drop, 0.0625);
  ASSERT_EQ(c.non_promising.size(), 1u);
  EXPECT_EQ(c.non_promising[0].total, 100);
  EXPECT_EQ(c.non_promising[0].per_task_total, ckpt.non_promising[0].per_task_total);
  EXPECT_EQ(c.policy.iteration, 7);
  EXPECT_EQ(c.policy.last_drop, 0.046875);

  // The lint path reports the clean summary note.
  DiagnosticList lint = VerifyCheckpointFile(path);
  EXPECT_TRUE(lint.ok()) << lint.ToString();
  EXPECT_TRUE(lint.HasRule("ckpt.summary"));

  // Saving again overwrites atomically; no stale .tmp file survives.
  ASSERT_TRUE(SaveCheckpoint(path, ckpt));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(CheckpointTest, CorruptFileDiagnostics) {
  ScratchDir dir("ckpt_corrupt");
  EXPECT_TRUE(TryLoadCheckpoint(dir.File("absent.ckpt")).diagnostics.HasRule("ckpt.open"));

  const std::string bad_header = dir.File("bad_header.ckpt");
  { std::ofstream(bad_header) << "not a checkpoint\n"; }
  EXPECT_TRUE(TryLoadCheckpoint(bad_header).diagnostics.HasRule("ckpt.magic"));

  const std::string bad_version = dir.File("bad_version.ckpt");
  { std::ofstream(bad_version) << "gmorph-checkpoint v99\n"; }
  EXPECT_TRUE(TryLoadCheckpoint(bad_version).diagnostics.HasRule("ckpt.version"));

  const std::string truncated = dir.File("truncated.ckpt");
  {
    std::ofstream out(truncated, std::ios::binary);
    out << "gmorph-checkpoint v1\n";
    const uint64_t hash = 42;
    out.write(reinterpret_cast<const char*>(&hash), sizeof(hash));
  }
  CheckpointLoadResult r = TryLoadCheckpoint(truncated);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diagnostics.HasRule("ckpt.truncated")) << r.diagnostics.ToString();

  // A full checkpoint with flipped payload bytes must fail with a bounds or
  // truncation diagnostic, never crash or allocate absurdly.
  const std::string mangled = dir.File("mangled.ckpt");
  ASSERT_TRUE(SaveCheckpoint(mangled, MakeSyntheticCheckpoint()));
  {
    std::fstream f(mangled, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    const char junk[8] = {'\x7f', '\x7f', '\x7f', '\x7f', '\x7f', '\x7f', '\x7f', '\x7f'};
    f.write(junk, sizeof(junk));
  }
  CheckpointLoadResult m = TryLoadCheckpoint(mangled);
  EXPECT_FALSE(m.ok());
  EXPECT_FALSE(m.diagnostics.ok());
}

// Trace, fingerprint and non-promising counts far beyond the bytes after a
// valid embedded graph are refused before their lists are allocated, as the
// truncation the load would reach anyway.
TEST(CheckpointTest, HostileCountsReportTruncated) {
  ScratchDir dir("ckpt_hostile");
  const std::string clean = dir.File("clean.ckpt");
  SearchCheckpoint ckpt;
  ckpt.best_graph = TinyGraph(2);
  ASSERT_TRUE(SaveCheckpoint(clean, ckpt));
  ASSERT_TRUE(TryLoadCheckpoint(clean).ok());
  std::ifstream in(clean, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  const std::string path = dir.File("hostile.ckpt");
  for (const auto& [hostile, count] : testing::HostileCheckpointCounts(bytes)) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << hostile;
    const CheckpointLoadResult r = TryLoadCheckpoint(path);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.diagnostics.HasRule("ckpt.truncated")) << r.diagnostics.ToString();
    EXPECT_NE(r.diagnostics.ToString().find(std::to_string(count)), std::string::npos)
        << r.diagnostics.ToString();
  }
}

TEST(ResumeTest, KillAndResumeMatchesUninterrupted) {
  ScratchDir dir("resume");
  Prepared p = Prepare(1, 23);

  // Reference: one uninterrupted 6-iteration search.
  GMorphOptions full_opts = FastFlopsOptions();
  full_opts.iterations = 6;
  GMorph full(p.ptrs, &p.def.train, &p.def.test, full_opts);
  GMorphResult r_full = full.Run();

  // "Killed" run: same search, budget exhausted after 3 iterations, final
  // checkpoint written. (iterations is excluded from the options hash, so the
  // checkpoint resumes under the larger budget.)
  GMorphOptions half_opts = full_opts;
  half_opts.iterations = 3;
  half_opts.checkpoint_path = dir.File("search.ckpt");
  GMorph half(p.ptrs, &p.def.train, &p.def.test, half_opts);
  GMorphResult r_half = half.Run();
  EXPECT_EQ(r_half.checkpoints_written, 1);

  CheckpointLoadResult loaded = TryLoadCheckpoint(half_opts.checkpoint_path);
  ASSERT_TRUE(loaded.ok()) << loaded.diagnostics.ToString();
  EXPECT_EQ(loaded.checkpoint->next_iteration, 3);
  EXPECT_EQ(loaded.checkpoint->options_hash, SearchOptionsHash(full_opts));

  // Resume under the full budget: the result must match the uninterrupted
  // run on every deterministic field.
  GMorphOptions resume_opts = full_opts;
  resume_opts.checkpoint_path.clear();
  GMorph resumed(p.ptrs, &p.def.train, &p.def.test, resume_opts);
  GMorphResult r_resumed = resumed.Resume(*loaded.checkpoint);

  ExpectTraceEqual(r_full.trace, r_resumed.trace, /*compare_cache_flags=*/true);
  EXPECT_EQ(r_resumed.found_improvement, r_full.found_improvement);
  EXPECT_EQ(r_resumed.best_flops, r_full.best_flops);
  EXPECT_EQ(r_resumed.original_flops, r_full.original_flops);
  EXPECT_EQ(r_resumed.best_graph.Fingerprint(), r_full.best_graph.Fingerprint());
  EXPECT_EQ(r_resumed.candidates_finetuned, r_full.candidates_finetuned);
  EXPECT_EQ(r_resumed.candidates_filtered, r_full.candidates_filtered);
  EXPECT_EQ(r_resumed.candidates_rejected, r_full.candidates_rejected);
  EXPECT_EQ(r_resumed.best_task_scores, r_full.best_task_scores);
}

TEST(ResumeTest, PeriodicCheckpointsAreWritten) {
  ScratchDir dir("periodic_ckpt");
  Prepared p = Prepare(1, 25);
  GMorphOptions opts = FastFlopsOptions();
  opts.iterations = 6;
  opts.checkpoint_path = dir.File("periodic.ckpt");
  opts.checkpoint_every = 2;
  GMorph gmorph(p.ptrs, &p.def.train, &p.def.test, opts);
  GMorphResult r = gmorph.Run();
  // Periodic at iterations 2 and 4 plus the final write at 6.
  EXPECT_EQ(r.checkpoints_written, 3);
  CheckpointLoadResult loaded = TryLoadCheckpoint(opts.checkpoint_path);
  ASSERT_TRUE(loaded.ok()) << loaded.diagnostics.ToString();
  EXPECT_EQ(loaded.checkpoint->next_iteration, 6);
  EXPECT_EQ(loaded.checkpoint->trace.size(), 6u);
}

TEST(ResumeTest, OptionsHashGuardsSemanticOptions) {
  GMorphOptions a = FastFlopsOptions();
  GMorphOptions b = a;
  // Budget/execution knobs do not change the hash...
  b.iterations = 100;
  b.num_threads = 8;
  b.verbose = true;
  b.use_eval_cache = true;
  b.checkpoint_path = "x.ckpt";
  b.checkpoint_every = 5;
  EXPECT_EQ(SearchOptionsHash(a), SearchOptionsHash(b));
  // ...semantic options do.
  GMorphOptions c = a;
  c.seed = a.seed + 1;
  EXPECT_NE(SearchOptionsHash(a), SearchOptionsHash(c));
  GMorphOptions d = a;
  d.accuracy_drop_threshold = 0.05;
  EXPECT_NE(SearchOptionsHash(a), SearchOptionsHash(d));
  GMorphOptions e = a;
  e.parallel_candidates = 4;
  EXPECT_NE(SearchOptionsHash(a), SearchOptionsHash(e));
  GMorphOptions f = a;
  f.finetune.max_epochs += 1;
  EXPECT_NE(SearchOptionsHash(a), SearchOptionsHash(f));
}

TEST(SearchParallelDeterminismTest, ParallelRoundsMatchSerialBitForBit) {
  Prepared p = Prepare(1, 27);
  GMorphOptions opts = FastFlopsOptions();
  opts.iterations = 8;
  opts.parallel_candidates = 4;

  opts.num_threads = 1;
  GMorph serial(p.ptrs, &p.def.train, &p.def.test, opts);
  GMorphResult r_serial = serial.Run();

  opts.num_threads = 4;
  GMorph parallel(p.ptrs, &p.def.train, &p.def.test, opts);
  GMorphResult r_parallel = parallel.Run();

  ExpectTraceEqual(r_serial.trace, r_parallel.trace, /*compare_cache_flags=*/true);
  EXPECT_EQ(r_parallel.best_flops, r_serial.best_flops);
  EXPECT_EQ(r_parallel.found_improvement, r_serial.found_improvement);
  EXPECT_EQ(r_parallel.best_graph.Fingerprint(), r_serial.best_graph.Fingerprint());
  EXPECT_EQ(r_parallel.candidates_finetuned, r_serial.candidates_finetuned);
  EXPECT_EQ(r_parallel.candidates_filtered, r_serial.candidates_filtered);
  EXPECT_EQ(r_parallel.candidates_rejected, r_serial.candidates_rejected);
  EXPECT_EQ(r_parallel.best_task_scores, r_serial.best_task_scores);
  // The accuracy drops must agree bit-for-bit, not approximately: fine-tuning
  // is RNG-free and the kernels are bitwise thread-deterministic.
  ASSERT_EQ(r_parallel.trace.size(), r_serial.trace.size());
}

TEST(SearchStageAccountingTest, StageSecondsCoverTheSearch) {
  Prepared p = Prepare(1, 29);
  GMorphOptions opts = FastFlopsOptions();
  GMorph gmorph(p.ptrs, &p.def.train, &p.def.test, opts);
  GMorphResult r = gmorph.Run();
  StageSeconds accumulated;
  for (const IterationRecord& rec : r.trace) {
    accumulated.Accumulate(rec.stages);
  }
  EXPECT_EQ(accumulated.Total(), r.stage_seconds.Total());
  EXPECT_GT(r.stage_seconds.Total(), 0.0);
  if (r.candidates_finetuned > 0) {
    EXPECT_GT(r.stage_seconds.finetune, 0.0);
    EXPECT_GT(r.stage_seconds.profile, 0.0);
    EXPECT_GT(r.stage_seconds.verify, 0.0);
  }
  EXPECT_GT(r.stage_seconds.sample, 0.0);
}

}  // namespace
}  // namespace gmorph
