// Binary serialization of tensors: weight files, which checkpoint pre-trained
// teacher weights (the paper's .pt checkpoints stand-in) and cache bench
// results across binaries, and the shape and tensor records that the graph
// format shares with them.
#ifndef GMORPH_SRC_TENSOR_SERIALIZATION_H_
#define GMORPH_SRC_TENSOR_SERIALIZATION_H_

#include <string>
#include <vector>

#include "src/common/binary_io.h"
#include "src/tensor/tensor.h"

namespace gmorph {

// Writes nested tensor lists (e.g. TaskModel::ExportWeights()) to `path`.
// Returns false on I/O failure.
bool SaveWeights(const std::string& path, const std::vector<std::vector<Tensor>>& weights);

// Reads a file written by SaveWeights. Returns false on I/O failure or format
// mismatch (leaving `weights` empty).
bool LoadWeights(const std::string& path, std::vector<std::vector<Tensor>>& weights);

// Lints a weight file with the scan LoadWeights runs, so the two agree on
// every file: weights.open, weights.magic, weights.truncated and
// weights.bounds errors, and a weights.summary note when the file loads.
DiagnosticList VerifyWeightsFile(const std::string& path);

// A shape record is an int64 rank, then int64 dims; a tensor record is a shape
// record, then the floats. A rank outside [0, 8], a dim outside [0, 2^24] or
// more than 2^28 elements is <prefix>.bounds ("<what>: ..."). ReadTensor
// appends to `out`, reports as "weight shape" and "weight data", and allocates
// only once the bytes left can hold the floats.
void WriteShape(BinaryWriter& out, const Shape& shape);
void WriteTensor(BinaryWriter& out, const Tensor& tensor);
bool ReadShape(BinaryReader& in, Shape& shape, const char* what);
bool ReadTensor(BinaryReader& in, std::vector<Tensor>& out);

}  // namespace gmorph

#endif  // GMORPH_SRC_TENSOR_SERIALIZATION_H_
