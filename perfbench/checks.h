// Output checks of the end-to-end benchmark. Each workload routes the
// outputs it produces through these; a check that fails counts the
// operation as failed. checks_test.cc shows each one firing on a
// deliberately corrupted output.
#ifndef GMORPH_PERFBENCH_CHECKS_H_
#define GMORPH_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/abs_graph.h"
#include "src/tensor/tensor.h"

namespace perfbench {

// Largest |got - want| / (|want|_inf + 1e-6) over every task output, where
// the denominator is the task output's own max magnitude. Returns +inf when
// the task count or a shape differs.
double MaxRelativeError(const std::vector<gmorph::Tensor>& got,
                        const std::vector<gmorph::Tensor>& want);

// ||got - want||_2 / ||want||_2 over all task outputs together: the error
// of an approximate (e.g. int8) engine against its f32 reference. Returns
// +inf when the task count or a shape differs, or for non-finite outputs.
double RelativeL2Error(const std::vector<gmorph::Tensor>& got,
                       const std::vector<gmorph::Tensor>& want);

// True when every task output matches `want` within `tolerance` (see
// MaxRelativeError); `error` receives the measured error.
bool OutputsClose(const std::vector<gmorph::Tensor>& got,
                  const std::vector<gmorph::Tensor>& want, double tolerance,
                  double* error = nullptr);

// True when both output lists hold the same shapes and identical bits.
bool OutputsBitwiseEqual(const std::vector<gmorph::Tensor>& a,
                         const std::vector<gmorph::Tensor>& b);

// A search result is valid when its best graph passes the graph verifier and
// each task's rescored metric is within `threshold` of its teacher's.
// `problems` lists every violation.
bool SearchResultValid(const gmorph::AbsGraph& best_graph,
                       const std::vector<double>& teacher_scores,
                       const std::vector<double>& rescored, double threshold,
                       std::vector<std::string>* problems);

// Requests a server accepted but neither completed nor shed.
int64_t LostRequests(int64_t submitted, int64_t completed, int64_t shed);

}  // namespace perfbench

#endif  // GMORPH_PERFBENCH_CHECKS_H_
