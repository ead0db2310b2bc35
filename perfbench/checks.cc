#include "perfbench/checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/analysis/driver.h"

namespace perfbench {

double MaxRelativeError(const std::vector<gmorph::Tensor>& got,
                        const std::vector<gmorph::Tensor>& want) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (got.size() != want.size()) {
    return kInf;
  }
  double worst = 0.0;
  for (size_t t = 0; t < got.size(); ++t) {
    if (!(got[t].shape() == want[t].shape())) {
      return kInf;
    }
    double scale = 0.0;
    for (int64_t i = 0; i < want[t].size(); ++i) {
      scale = std::max(scale, std::fabs(static_cast<double>(want[t].at(i))));
    }
    for (int64_t i = 0; i < got[t].size(); ++i) {
      const double diff =
          std::fabs(static_cast<double>(got[t].at(i)) - static_cast<double>(want[t].at(i)));
      // NaN compares false against everything: count it as unbounded error.
      worst = std::isnan(diff) ? kInf : std::max(worst, diff / (scale + 1e-6));
    }
  }
  return worst;
}

double RelativeL2Error(const std::vector<gmorph::Tensor>& got,
                       const std::vector<gmorph::Tensor>& want) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (got.size() != want.size()) {
    return kInf;
  }
  double diff2 = 0.0;
  double want2 = 0.0;
  for (size_t t = 0; t < got.size(); ++t) {
    if (!(got[t].shape() == want[t].shape())) {
      return kInf;
    }
    for (int64_t i = 0; i < got[t].size(); ++i) {
      const double w = want[t].at(i);
      const double d = static_cast<double>(got[t].at(i)) - w;
      diff2 += d * d;
      want2 += w * w;
    }
  }
  const double err = std::sqrt(diff2) / (std::sqrt(want2) + 1e-12);
  return std::isfinite(err) ? err : kInf;
}

bool OutputsClose(const std::vector<gmorph::Tensor>& got,
                  const std::vector<gmorph::Tensor>& want, double tolerance, double* error) {
  const double err = MaxRelativeError(got, want);
  if (error != nullptr) {
    *error = err;
  }
  return err <= tolerance;
}

bool OutputsBitwiseEqual(const std::vector<gmorph::Tensor>& a,
                         const std::vector<gmorph::Tensor>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t t = 0; t < a.size(); ++t) {
    if (!(a[t].shape() == b[t].shape()) ||
        std::memcmp(a[t].data(), b[t].data(), sizeof(float) * static_cast<size_t>(a[t].size())) !=
            0) {
      return false;
    }
  }
  return true;
}

bool SearchResultValid(const gmorph::AbsGraph& best_graph,
                       const std::vector<double>& teacher_scores,
                       const std::vector<double>& rescored, double threshold,
                       std::vector<std::string>* problems) {
  const size_t before = problems->size();
  const gmorph::DiagnosticList diags = gmorph::RunGraphPasses(best_graph);
  if (!diags.ok()) {
    problems->push_back("best graph fails the graph verifier:\n" + diags.ToString());
  }
  if (rescored.size() != teacher_scores.size()) {
    problems->push_back("rescored " + std::to_string(rescored.size()) + " tasks, expected " +
                        std::to_string(teacher_scores.size()));
  }
  for (size_t t = 0; t < std::min(rescored.size(), teacher_scores.size()); ++t) {
    const double drop = teacher_scores[t] - rescored[t];
    // NaN scores fail too: the comparison below is false for them.
    if (!(drop <= threshold + 1e-9)) {
      problems->push_back("task " + std::to_string(t) + " drops " + std::to_string(drop) +
                          " > threshold " + std::to_string(threshold));
    }
  }
  return problems->size() == before;
}

int64_t LostRequests(int64_t submitted, int64_t completed, int64_t shed) {
  return submitted - completed - shed;
}

}  // namespace perfbench
