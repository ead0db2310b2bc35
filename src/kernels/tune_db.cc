#include "src/kernels/tune_db.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/text_artifact.h"
#include "src/kernels/registry.h"

namespace gmorph::kernels {
namespace {

constexpr LineArtifact kTuneDbFile{kTuneDbArtifact, "tune", "tuning DB"};

std::string ComputeFingerprint() {
  std::ostringstream os;
#if defined(__VERSION__)
  os << "compiler=" << __VERSION__ << ";";
#endif
#if defined(__OPTIMIZE__)
  os << "opt=1;";
#else
  os << "opt=0;";
#endif
#if defined(NDEBUG)
  os << "ndebug=1;";
#else
  os << "ndebug=0;";
#endif
#if defined(__AVX512F__)
  os << "isa=avx512;";
#elif defined(__AVX2__)
  os << "isa=avx2;";
#elif defined(__AVX__)
  os << "isa=avx;";
#elif defined(__SSE2__)
  os << "isa=sse2;";
#elif defined(__ARM_NEON)
  os << "isa=neon;";
#else
  os << "isa=scalar;";
#endif
  os << "ptr=" << sizeof(void*) * 8;
  // Fingerprints have always hashed from this basis (FNV's offset basis one
  // digit short); another basis would orphan every tuning DB and machine
  // file written so far.
  constexpr uint64_t kFingerprintBasis = 1469598103934665603ull;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, Fnv1aHash(os.str(), kFingerprintBasis));
  return buf;
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// One pass over a tuning-DB file, shared by TuneDb::Load and VerifyTuneDbFile.
struct TuneDbScan {
  DiagnosticList diags;
  bool header_ok = false;
  bool fingerprint_mismatch = false;  // some fingerprint line is not this build's
  int dropped = 0;                    // tune.entry and tune.solver lines
  std::vector<std::pair<ProblemDesc, TuneDb::Entry>> entries;  // the rest, in file order
};

TuneDbScan ScanTuneDbFile(const std::string& path) {
  TuneDbScan scan;
  LineRecordReader reader(path, kTuneDbFile, scan.diags);
  scan.header_ok = reader.ok();
  if (!reader.ok()) {
    return scan;
  }
  DiagnosticList& diags = scan.diags;
  std::map<ProblemDesc, int> first_line;  // desc -> line that introduced it
  bool saw_fingerprint = false;
  while (reader.Next()) {
    const std::string& line = reader.line();
    if (line.rfind("fingerprint", 0) == 0) {
      const FingerprintCheck check = CheckFingerprintLine(line, BuildFingerprint());
      scan.fingerprint_mismatch |= check != FingerprintCheck::kMatch;
      if (saw_fingerprint) {
        diags.Error("tune.fingerprint", reader.where()) << "repeated fingerprint line";
      } else if (check == FingerprintCheck::kMalformed) {
        diags.Error("tune.fingerprint", reader.where())
            << "malformed fingerprint line (want 'fingerprint <16-hex>')";
      } else if (check == FingerprintCheck::kMismatch) {
        diags.Warning("tune.fingerprint", reader.where())
            << "fingerprint " << line.substr(12) << " differs from this build ("
            << BuildFingerprint() << "); this binary will ignore all entries";
      }
      saw_fingerprint = true;
      continue;
    }
    ProblemDesc desc;
    TuneDb::Entry entry;
    std::string error;
    if (!ParseTuneEntryLine(line, &desc, &entry, &error)) {
      diags.Error("tune.entry", reader.where()) << error;
      ++scan.dropped;
      continue;
    }
    // Registry family is keyed by (op, dtype): int8 entries must name a
    // qgemm.* solver, f32 entries a gemm.* one.
    entry.resolved = SolverRegistry::Global().FindForDesc(desc, entry.solver);
    if (entry.resolved == nullptr) {
      diags.Error("tune.solver", reader.where())
          << "solver '" << entry.solver << "' is not registered for " << OpFamilyName(desc.op)
          << " " << DTypeName(desc.dtype);
      ++scan.dropped;
    } else if (!entry.resolved->IsApplicable(desc)) {
      diags.Error("tune.applicable", reader.where())
          << "solver '" << entry.solver << "' rejects " << ProblemKey(desc);
    }
    const auto [it, inserted] = first_line.emplace(desc, reader.lineno());
    if (!inserted) {
      diags.Error("tune.duplicate", reader.where())
          << "duplicate entry for " << ProblemKey(desc) << " (first at line " << it->second
          << "; the loader keeps the last)";
    }
    if (entry.resolved != nullptr) {
      scan.entries.emplace_back(desc, std::move(entry));
    }
  }
  if (!saw_fingerprint) {
    diags.Warning("tune.fingerprint", path)
        << "no fingerprint line; entries cannot be matched to a build";
  }
  return scan;
}

}  // namespace

const std::string& BuildFingerprint() {
  static const std::string fp = ComputeFingerprint();
  return fp;
}

bool ParseTuneEntryLine(const std::string& line, ProblemDesc* desc, TuneDb::Entry* entry,
                        std::string* error) {
  const std::vector<std::string_view> tokens = SplitTokens(line);
  if (tokens.empty() || tokens[0] != "entry") {
    *error = "expected 'entry'";
    return false;
  }
  ProblemDesc d;
  TuneDb::Entry e;
  bool have_op = false, have_m = false, have_k = false, have_n = false, have_threads = false;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const auto [key, val] = SplitField(tokens[i]);
    if (key == "op") {
      if (!OpFamilyFromName(val, &d.op)) {
        *error = "unknown op '" + std::string(val) + "'";
        return false;
      }
      have_op = true;
    } else if (key == "dtype") {
      // Optional: v1 DBs written before the dtype dimension carry no token
      // and load as f32 (the ProblemDesc default), so old files stay valid.
      if (!DTypeFromName(val, &d.dtype)) {
        *error = "unknown dtype '" + std::string(val) + "'";
        return false;
      }
    } else if (key == "m" && ParseNumber(val, &d.m, 1)) {
      have_m = true;
    } else if (key == "k" && ParseNumber(val, &d.k, 1)) {
      have_k = true;
    } else if (key == "n" && ParseNumber(val, &d.n, 1)) {
      have_n = true;
    } else if (key == "aux0" && ParseNumber(val, &d.aux0)) {
    } else if (key == "aux1" && ParseNumber(val, &d.aux1)) {
    } else if (key == "threads" && ParseNumber(val, &d.threads, 1)) {
      have_threads = true;
    } else if (key == "solver" && !val.empty()) {
      e.solver = val;
    } else if (key == "gflops" && ParseNumber(val, &e.gflops)) {
    } else if (key == "ms" && ParseNumber(val, &e.ms)) {
    } else {
      *error = "bad entry field '" + std::string(tokens[i]) + "'";
      return false;
    }
  }
  if (!have_op || !have_m || !have_k || !have_n || !have_threads || e.solver.empty()) {
    *error = "missing required field (op/m/k/n/threads/solver)";
    return false;
  }
  *desc = d;
  *entry = std::move(e);
  return true;
}

std::string FormatTuneEntryLine(const ProblemDesc& desc, const TuneDb::Entry& entry) {
  std::ostringstream os;
  os << "entry op=" << OpFamilyName(desc.op);
  if (desc.dtype != DType::kF32) {
    // f32 entries keep the historical spelling so pre-dtype DB files and a
    // resave of one stay byte-identical.
    os << " dtype=" << DTypeName(desc.dtype);
  }
  os << " m=" << desc.m << " k=" << desc.k
     << " n=" << desc.n << " aux0=" << desc.aux0 << " aux1=" << desc.aux1
     << " threads=" << desc.threads << " solver=" << entry.solver
     << " gflops=" << FormatDouble(entry.gflops) << " ms=" << FormatDouble(entry.ms);
  return os.str();
}

DiagnosticList VerifyTuneDbFile(const std::string& path) { return ScanTuneDbFile(path).diags; }

TuneDb::LoadStats TuneDb::Load(const std::string& path) {
  TuneDbScan scan = ScanTuneDbFile(path);
  LoadStats stats;
  stats.ok = scan.header_ok;
  stats.skipped = scan.dropped;
  stats.fingerprint_mismatch = scan.fingerprint_mismatch;
  if (scan.fingerprint_mismatch) {
    return stats;  // foreign build: keep nothing
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  for (auto& [desc, entry] : scan.entries) {
    entries_[desc] = std::move(entry);  // a later duplicate replaces an earlier one
    ++stats.entries;
  }
  return stats;
}

bool TuneDb::Save(const std::string& path) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return WriteFileAtomically(path, [&](std::ostream& out) {
    out << ArtifactHeaderLine(kTuneDbArtifact) << "\n";
    out << "fingerprint " << BuildFingerprint() << "\n";
    for (const auto& [desc, entry] : entries_) {
      out << FormatTuneEntryLine(desc, entry) << "\n";
    }
  });
}

const TuneDb::Entry* TuneDb::Lookup(const ProblemDesc& desc) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = entries_.find(desc);
  return it == entries_.end() ? nullptr : &it->second;
}

void TuneDb::Record(const ProblemDesc& desc, Entry entry) {
  entry.resolved = SolverRegistry::Global().FindForDesc(desc, entry.solver);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  entries_[desc] = std::move(entry);
}

int64_t TuneDb::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return static_cast<int64_t>(entries_.size());
}

std::string ResolveTuneDbPath(const std::string& override_path) {
  if (!override_path.empty()) {
    return override_path;
  }
  if (const char* env = std::getenv("GMORPH_TUNE_DB"); env != nullptr && *env != '\0') {
    return env;
  }
  return ResolveCacheDir() + "/gmorph.tunedb";
}

namespace {

std::mutex g_global_db_mutex;
std::shared_ptr<TuneDb> g_global_db_owner;
std::atomic<TuneDb*> g_global_db{nullptr};
// Guarded by g_global_db_mutex. Set by the first explicit install or the
// first lazy env probe, whichever comes first: an early SetGlobalTuneDb must
// not be clobbered later by a stale on-disk copy of $GMORPH_TUNE_DB.
bool g_global_db_resolved = false;
// Release-published once resolution happened, so the per-dispatch fast path
// is one atomic load even when no DB is installed (g_global_db stays null).
std::atomic<bool> g_global_db_probed{false};

void InstallGlobalTuneDbLocked(std::shared_ptr<TuneDb> db) {
  g_global_db_resolved = true;
  g_global_db.store(db.get(), std::memory_order_release);
  g_global_db_owner = std::move(db);  // keeps the previous DB alive until here
  g_global_db_probed.store(true, std::memory_order_release);
}

}  // namespace

void SetGlobalTuneDb(std::shared_ptr<TuneDb> db) {
  std::lock_guard<std::mutex> lock(g_global_db_mutex);
  InstallGlobalTuneDbLocked(std::move(db));
}

TuneDb* GlobalTuneDb() {
  if (g_global_db_probed.load(std::memory_order_acquire)) {
    return g_global_db.load(std::memory_order_acquire);
  }
  std::lock_guard<std::mutex> lock(g_global_db_mutex);
  if (!g_global_db_resolved) {
    g_global_db_resolved = true;
    if (const char* env = std::getenv("GMORPH_TUNE_DB"); env != nullptr && *env != '\0') {
      auto db = std::make_shared<TuneDb>();
      db->Load(env);
      InstallGlobalTuneDbLocked(std::move(db));
    }
    g_global_db_probed.store(true, std::memory_order_release);
  }
  return g_global_db.load(std::memory_order_acquire);
}

}  // namespace gmorph::kernels
