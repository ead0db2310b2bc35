#include "src/tensor/serialization.h"

#include <algorithm>
#include <cstdint>
#include <fstream>

namespace gmorph {

constexpr uint64_t kMagic = 0x474d4f5250485731ull;  // "GMORPHW1"

void WriteShape(BinaryWriter& out, const Shape& shape) { out.List(shape.dims()); }

void WriteTensor(BinaryWriter& out, const Tensor& tensor) {
  WriteShape(out, tensor.shape());
  out.Write(tensor.data(), static_cast<uint64_t>(tensor.size()) * sizeof(float));
}

bool ReadShape(BinaryReader& in, Shape& shape, const char* what) {
  int64_t rank = 0;
  if (!in.Pod(rank, what)) {
    return false;
  }
  if (rank < 0 || rank > 8) {
    in.Fail("bounds", std::string(what) + ": shape rank " + std::to_string(rank));
    return false;
  }
  std::vector<int64_t> dims(static_cast<size_t>(rank));
  int64_t elements = 1;
  for (int64_t& d : dims) {
    if (!in.Pod(d, what)) {
      return false;
    }
    if (d < 0 || d > (1 << 24)) {
      in.Fail("bounds", std::string(what) + ": dimension " + std::to_string(d));
      return false;
    }
    elements *= std::max<int64_t>(d, 1);
    if (elements > (int64_t{1} << 28)) {
      in.Fail("bounds", std::string(what) + ": shape exceeds element budget");
      return false;
    }
  }
  shape = Shape(std::move(dims));
  return true;
}

bool ReadTensor(BinaryReader& in, std::vector<Tensor>& out) {
  Shape shape;
  if (!ReadShape(in, shape, "weight shape") ||
      !in.Fits(static_cast<uint64_t>(shape.NumElements()), sizeof(float), "weight data")) {
    return false;
  }
  Tensor& tensor = out.emplace_back(shape);
  return in.Read(tensor.data(), static_cast<uint64_t>(tensor.size()) * sizeof(float),
                 "weight data");
}

bool SaveWeights(const std::string& path, const std::vector<std::vector<Tensor>>& weights) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  BinaryWriter w(out);
  w.Pod(kMagic);
  w.Pod(static_cast<uint64_t>(weights.size()));
  for (const std::vector<Tensor>& group : weights) {
    w.Pod(static_cast<uint64_t>(group.size()));
    for (const Tensor& t : group) {
      WriteTensor(w, t);
    }
  }
  return static_cast<bool>(out);
}

bool LoadWeights(const std::string& path, std::vector<std::vector<Tensor>>& weights) {
  weights.clear();
  std::ifstream in(path, std::ios::binary);
  DiagnosticList unused;  // LoadWeights returns only a verdict
  BinaryReader r(in, {"weights", path, "file"}, unused);
  // Each group and each tensor takes at least its 8-byte count or rank.
  uint64_t magic = 0;
  uint64_t groups = 0;
  if (!r.Pod(magic, "header") || magic != kMagic || !r.Pod(groups, "header") ||
      !r.Fits(groups, sizeof(uint64_t), "group list")) {
    return false;
  }
  weights.resize(groups);
  for (std::vector<Tensor>& group : weights) {
    uint64_t count = 0;
    if (r.Pod(count, "group") && r.Fits(count, sizeof(uint64_t), "tensor list")) {
      group.reserve(count);
      for (uint64_t i = 0; i < count && !r.failed(); ++i) {
        ReadTensor(r, group);
      }
    }
  }
  if (r.failed()) {
    weights.clear();
  }
  return !r.failed();
}

}  // namespace gmorph
