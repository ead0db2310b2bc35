// Machine-ceiling probe for roofline attribution.
//
// A roofline report needs two hardware ceilings: the peak sustained f32 GEMM
// throughput (GFLOP/s, the compute roof) and the streaming memory bandwidth
// (GB/s, a STREAM-style triad — the memory roof). Probing them costs real
// wall time, so the result is persisted once per machine+build in a
// fingerprinted text artifact next to the tuning DB:
//
//   gmorph-machine v1
//   fingerprint <hex>
//   threads 4
//   peak_gflops 38.2
//   triad_gbps 11.7
//
// The fingerprint is the tuning DB's BuildFingerprint() (compiler + flags +
// target), so ceilings measured by a foreign build are re-probed rather than
// trusted — -O0 "ceilings" would misclassify every step. One scan reads the
// file for both the loader and the strict linter (`gmorph_cli --verify`):
//
//   machine.open / .header / .version   unreadable file or header
//   machine.fingerprint  missing or foreign (warning), malformed or repeated
//   machine.entry        malformed, unknown or repeated entry line
//   machine.value        threads not an integer in [1, INT_MAX], or a ceiling
//                        that is not positive finite
//   machine.missing      a required entry is absent
//
// The loader keeps only the entry lines the linter finds clean.
#ifndef GMORPH_SRC_KERNELS_MACHINE_H_
#define GMORPH_SRC_KERNELS_MACHINE_H_

#include <string>

#include "src/common/diagnostics.h"

namespace gmorph::kernels {

struct MachineCeilings {
  double peak_gflops = 0.0;  // best sustained f32 GEMM throughput
  double triad_gbps = 0.0;   // STREAM-triad memory bandwidth
  int threads = 0;           // kernel pool width the probe ran at

  bool valid() const { return peak_gflops > 0.0 && triad_gbps > 0.0 && threads > 0; }

  // Arithmetic intensity (flop/byte) at which the two roofs intersect; steps
  // below it are memory-bound, above it compute-bound.
  double RidgeIntensity() const;
};

// Runs both probes at the current kernel thread count (~a second of wall
// time: one 512^3 GEMM on the heuristic solver and a cache-busting triad,
// both median-of-5).
MachineCeilings ProbeMachineCeilings();

struct MachineLoadResult {
  bool ok = false;                     // file opened, parsed, values sane
  bool fingerprint_mismatch = false;   // foreign build: ceilings not trusted
  MachineCeilings ceilings;
};

// Tolerant loader: drops every line VerifyMachineFile reports, and is !ok
// (a missing file included) unless all three ceilings survive.
MachineLoadResult LoadMachineCeilings(const std::string& path);

// The strict lint for `gmorph_cli --verify`: the loader's scan, returning
// every finding as a machine.* diagnostic.
DiagnosticList VerifyMachineFile(const std::string& path);

// Atomic save, same discipline as the tuning DB.
bool SaveMachineCeilings(const std::string& path, const MachineCeilings& ceilings);

// Returns trusted cached ceilings when `path` holds a same-build artifact at
// the current thread count, else probes and saves. `*probed` (optional)
// reports whether a fresh probe ran.
MachineCeilings LoadOrProbeMachineCeilings(const std::string& path, bool* probed = nullptr);

// Artifact location: `override_path` if non-empty, else $GMORPH_MACHINE_DB,
// else "<ResolveCacheDir()>/gmorph.machine", next to the tuning DB.
std::string ResolveMachinePath(const std::string& override_path = "");

}  // namespace gmorph::kernels

#endif  // GMORPH_SRC_KERNELS_MACHINE_H_
