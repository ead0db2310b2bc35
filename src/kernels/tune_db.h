// The persistent tuning DB: maps problem descriptors to autotuned solver
// winners so warm processes plan at full speed without re-benchmarking.
//
// On-disk format ("gmorph-tunedb v1", text, one record per line):
//
//   gmorph-tunedb v1
//   fingerprint <hex>
//   entry op=gemm_nn m=8 k=27 n=1024 aux0=0 aux1=0 threads=4
//         solver=gemm.direct gflops=10.5 ms=0.034   (one line on disk)
//
// Entries are content-addressed by the full problem descriptor (family, all
// dims, thread count); the fingerprint line hashes the compiler, optimization
// level, and target architecture, so a DB tuned by a different build is
// ignored rather than trusted. f32 entries carry no dtype= token; others do.
// Saves are atomic (WriteFileAtomically), and the default location sits next
// to the eval cache (ResolveCacheDir()).
//
// One scan reads the file for both the tolerant loader (TuneDb::Load) and the
// strict linter (VerifyTuneDbFile, tune.* rules):
//
//   tune.open         cannot open the file
//   tune.header       missing gmorph-tunedb header line
//   tune.version      header names an unsupported format version
//   tune.fingerprint  fingerprint differs from this build (warning: entries
//                     are valid but this binary ignores them), or the
//                     fingerprint line is malformed / repeated (error)
//   tune.entry        entry line fails the grammar        (loader drops it)
//   tune.solver       entry names an unregistered solver  (loader drops it)
//   tune.applicable   named solver rejects the entry's problem descriptor
//   tune.duplicate    two entries share one problem descriptor (the loader
//                     keeps the last)
//
// Thread safety: Lookup takes a shared lock, Record an exclusive one, so a
// serving process can keep resolving while an autotune pass records winners.
// Entries are never erased and std::map nodes are address-stable, so pointers
// returned by Lookup stay valid for the DB's lifetime.
#ifndef GMORPH_SRC_KERNELS_TUNE_DB_H_
#define GMORPH_SRC_KERNELS_TUNE_DB_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>

#include "src/common/diagnostics.h"
#include "src/kernels/solver.h"

namespace gmorph::kernels {

// Hash of the toolchain + target this binary was built with. Tuned winners
// only transfer between identical builds.
const std::string& BuildFingerprint();

class TuneDb {
 public:
  struct Entry {
    std::string solver;  // winner name, e.g. "gemm.packed"
    double gflops = 0.0;
    double ms = 0.0;
    // Registry lookup cached when the entry is inserted; nullptr when the
    // recorded name is unknown to this build (resolution then falls back to
    // the heuristic).
    const Solver* resolved = nullptr;
  };

  struct LoadStats {
    bool ok = false;      // file opened and header parsed
    int entries = 0;      // entries loaded
    int skipped = 0;      // tune.entry / tune.solver lines dropped
    bool fingerprint_mismatch = false;  // foreign build: entries ignored
  };

  TuneDb() = default;

  // Loads `path`, dropping (not failing on) the lines VerifyTuneDbFile
  // reports as tune.entry or tune.solver. A missing file is not an error —
  // the DB just stays empty.
  LoadStats Load(const std::string& path);

  // Writes the full DB atomically.
  bool Save(const std::string& path) const;

  const Entry* Lookup(const ProblemDesc& desc) const;
  void Record(const ProblemDesc& desc, Entry entry);
  int64_t size() const;

  TuneDb(const TuneDb&) = delete;
  TuneDb& operator=(const TuneDb&) = delete;

 private:
  mutable std::shared_mutex mutex_;
  std::map<ProblemDesc, Entry> entries_;
};

// One entry line, both directions.
bool ParseTuneEntryLine(const std::string& line, ProblemDesc* desc, TuneDb::Entry* entry,
                        std::string* error);
std::string FormatTuneEntryLine(const ProblemDesc& desc, const TuneDb::Entry& entry);

// The strict lint of a tuning-DB file for `gmorph_cli --verify`: the loader's
// scan, returning every finding as a tune.* diagnostic.
DiagnosticList VerifyTuneDbFile(const std::string& path);

// DB location: `override_path` if non-empty, else $GMORPH_TUNE_DB, else
// "<ResolveCacheDir()>/gmorph.tunedb", next to the evaluation cache.
std::string ResolveTuneDbPath(const std::string& override_path = "");

// The DB kernel resolution consults. Starts null (pure heuristic dispatch);
// the first call loads $GMORPH_TUNE_DB automatically when that is set, so
// every binary honors a tuned DB without wiring. Reading is one atomic load.
TuneDb* GlobalTuneDb();
// Installs (or clears, with nullptr) the global DB. Tests and the CLI use
// this; the shared_ptr keeps the previous DB alive until swapped out.
void SetGlobalTuneDb(std::shared_ptr<TuneDb> db);

}  // namespace gmorph::kernels

#endif  // GMORPH_SRC_KERNELS_TUNE_DB_H_
