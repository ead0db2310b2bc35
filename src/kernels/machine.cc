#include "src/kernels/machine.h"

#include <climits>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string_view>
#include <vector>

#include "src/common/parallel_for.h"
#include "src/common/text_artifact.h"
#include "src/kernels/registry.h"
#include "src/kernels/tune_db.h"
#include "src/obs/timing.h"

namespace gmorph::kernels {
namespace {

// Probe sizes: the GEMM is large enough to reach the blocked/packed solvers'
// steady state but still runs in ~10ms per rep; the triad arrays total ~96MB
// so every pass streams from DRAM, not the LLC.
constexpr int64_t kGemmDim = 512;
constexpr int64_t kTriadElems = int64_t{1} << 23;  // 8M floats per array

double ProbePeakGemmGflops() {
  const int64_t n = kGemmDim;
  std::vector<float> a(static_cast<size_t>(n * n), 1.0f);
  std::vector<float> b(static_cast<size_t>(n * n), 0.5f);
  std::vector<float> c(static_cast<size_t>(n * n), 0.0f);
  const ProblemDesc desc = GemmProblem(OpFamily::kGemmNN, n, n, n);
  const GemmSolver* solver = SolverRegistry::Global().ResolveGemm(desc);
  const GemmCall call = MakeGemmCall(desc, a.data(), b.data(), c.data(), /*accumulate=*/false);
  const double ms = MedianTimedMs([&] { solver->Run(desc, call); }, /*warmup=*/2,
                                  /*repeats=*/5);
  return ms > 0.0 ? static_cast<double>(2 * n * n * n) / (ms * 1e6) : 0.0;
}

double ProbeTriadGbps() {
  std::vector<float> a(static_cast<size_t>(kTriadElems), 0.0f);
  std::vector<float> b(static_cast<size_t>(kTriadElems), 1.0f);
  std::vector<float> c(static_cast<size_t>(kTriadElems), 2.0f);
  const float scale = 3.0f;
  const auto triad = [&] {
    ParallelFor(0, kTriadElems, /*grain=*/int64_t{1} << 16, [&](int64_t lo, int64_t hi) {
      float* pa = a.data();
      const float* pb = b.data();
      const float* pc = c.data();
      for (int64_t i = lo; i < hi; ++i) {
        pa[i] = pb[i] + scale * pc[i];
      }
    });
  };
  const double ms = MedianTimedMs(triad, /*warmup=*/1, /*repeats=*/5);
  // STREAM accounting: two reads + one write per element, no RFO term.
  const double bytes = static_cast<double>(kTriadElems) * 3.0 * sizeof(float);
  return ms > 0.0 ? bytes / (ms * 1e6) : 0.0;
}

}  // namespace

double MachineCeilings::RidgeIntensity() const {
  return triad_gbps > 0.0 ? peak_gflops / triad_gbps : 0.0;
}

MachineCeilings ProbeMachineCeilings() {
  MachineCeilings out;
  out.threads = KernelThreads();
  out.peak_gflops = ProbePeakGemmGflops();
  out.triad_gbps = ProbeTriadGbps();
  return out;
}

namespace {

constexpr LineArtifact kMachineFile{kMachineArtifact, "machine", "machine ceiling"};

// One pass over a machine-ceiling file, shared by the loader and the linter.
struct MachineScan {
  DiagnosticList diags;
  MachineLoadResult loaded;  // values of the clean entry lines only
};

MachineScan ScanMachineFile(const std::string& path) {
  MachineScan scan;
  DiagnosticList& diags = scan.diags;
  LineRecordReader reader(path, kMachineFile, diags);
  if (!reader.ok()) {
    return scan;
  }
  MachineLoadResult& loaded = scan.loaded;
  std::map<std::string, int> first_line;  // key -> line that introduced it
  bool saw_fingerprint = false;
  while (reader.Next()) {
    const std::string& line = reader.line();
    if (line.rfind("fingerprint", 0) == 0) {
      const FingerprintCheck check = CheckFingerprintLine(line, BuildFingerprint());
      loaded.fingerprint_mismatch |= check != FingerprintCheck::kMatch;
      if (saw_fingerprint) {
        diags.Error("machine.fingerprint", reader.where()) << "repeated fingerprint line";
      } else if (check == FingerprintCheck::kMalformed) {
        diags.Error("machine.fingerprint", reader.where())
            << "malformed fingerprint line (want 'fingerprint <16-hex>')";
      } else if (check == FingerprintCheck::kMismatch) {
        diags.Warning("machine.fingerprint", reader.where())
            << "fingerprint " << line.substr(12) << " differs from this build ("
            << BuildFingerprint() << "); this binary will re-probe";
      }
      saw_fingerprint = true;
      continue;
    }
    const std::vector<std::string_view> tokens = SplitTokens(line);
    double value = 0.0;
    if (tokens.size() < 2 || !ParseNumber(tokens[1], &value)) {
      diags.Error("machine.entry", reader.where())
          << "malformed machine entry (want '<key> <value>'): '" << line << "'";
      continue;
    }
    if (tokens.size() > 2) {
      diags.Error("machine.entry", reader.where())
          << "trailing content after machine entry value: '" << tokens[2] << "'";
      continue;
    }
    const std::string key(tokens[0]);
    bool clean = true;
    int threads = 0;
    if (key == "threads") {
      if (!ParseNumber(tokens[1], &threads, 1)) {
        diags.Error("machine.value", reader.where())
            << "threads must be an integer in [1, " << INT_MAX << "], got " << tokens[1];
        clean = false;
      }
    } else if (key == "peak_gflops" || key == "triad_gbps") {
      if (!(value > 0.0) || !std::isfinite(value)) {
        diags.Error("machine.value", reader.where())
            << key << " must be positive finite, got " << value;
        clean = false;
      }
    } else {
      diags.Error("machine.entry", reader.where()) << "unknown machine entry key '" << key << "'";
      continue;
    }
    const auto [it, inserted] = first_line.emplace(key, reader.lineno());
    if (!inserted) {
      diags.Error("machine.entry", reader.where())
          << "repeated " << key << " entry (first at line " << it->second << ")";
      continue;
    }
    if (!clean) {
      continue;
    }
    if (key == "threads") {
      loaded.ceilings.threads = threads;
    } else if (key == "peak_gflops") {
      loaded.ceilings.peak_gflops = value;
    } else {
      loaded.ceilings.triad_gbps = value;
    }
  }
  if (!saw_fingerprint) {
    diags.Warning("machine.fingerprint", path)
        << "no fingerprint line; ceilings cannot be matched to a build";
  }
  for (const char* required : {"threads", "peak_gflops", "triad_gbps"}) {
    if (first_line.find(required) == first_line.end()) {
      diags.Error("machine.missing", path) << "required entry '" << required << "' absent";
    }
  }
  loaded.ok = loaded.ceilings.valid();
  return scan;
}

}  // namespace

MachineLoadResult LoadMachineCeilings(const std::string& path) {
  return ScanMachineFile(path).loaded;
}

DiagnosticList VerifyMachineFile(const std::string& path) { return ScanMachineFile(path).diags; }

bool SaveMachineCeilings(const std::string& path, const MachineCeilings& ceilings) {
  return WriteFileAtomically(path, [&](std::ostream& out) {
    out << ArtifactHeaderLine(kMachineArtifact) << "\n";
    out << "fingerprint " << BuildFingerprint() << "\n";
    out << "threads " << ceilings.threads << "\n";
    out << "peak_gflops " << ceilings.peak_gflops << "\n";
    out << "triad_gbps " << ceilings.triad_gbps << "\n";
  });
}

MachineCeilings LoadOrProbeMachineCeilings(const std::string& path, bool* probed) {
  const MachineLoadResult loaded = LoadMachineCeilings(path);
  if (loaded.ok && !loaded.fingerprint_mismatch &&
      loaded.ceilings.threads == KernelThreads()) {
    if (probed != nullptr) {
      *probed = false;
    }
    return loaded.ceilings;
  }
  const MachineCeilings fresh = ProbeMachineCeilings();
  SaveMachineCeilings(path, fresh);
  if (probed != nullptr) {
    *probed = true;
  }
  return fresh;
}

std::string ResolveMachinePath(const std::string& override_path) {
  if (!override_path.empty()) {
    return override_path;
  }
  if (const char* env = std::getenv("GMORPH_MACHINE_DB"); env != nullptr && *env != '\0') {
    return env;
  }
  return ResolveCacheDir() + "/gmorph.machine";
}

}  // namespace gmorph::kernels
