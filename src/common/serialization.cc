#include "src/common/serialization.h"

#include <algorithm>
#include <cstdint>
#include <fstream>

namespace gmorph {
namespace {

constexpr uint64_t kMagic = 0x474d4f5250485731ull;  // "GMORPHW1"

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

bool SaveWeights(const std::string& path, const std::vector<std::vector<Tensor>>& weights) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  WritePod(out, kMagic);
  WritePod(out, static_cast<uint64_t>(weights.size()));
  for (const auto& group : weights) {
    WritePod(out, static_cast<uint64_t>(group.size()));
    for (const Tensor& t : group) {
      WritePod(out, static_cast<uint64_t>(t.shape().Rank()));
      for (int64_t d : t.shape().dims()) {
        WritePod(out, d);
      }
      out.write(reinterpret_cast<const char*>(t.data()),
                static_cast<std::streamsize>(t.size() * sizeof(float)));
    }
  }
  return static_cast<bool>(out);
}

bool LoadWeights(const std::string& path, std::vector<std::vector<Tensor>>& weights) {
  weights.clear();
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size < 0 || !in.seekg(0)) {
    return false;
  }
  // Every count and tensor size the file declares is checked against the
  // bytes left in it before anything is allocated, so a damaged or hostile
  // file cannot make the loader allocate more than the file could fill.
  uint64_t left = static_cast<uint64_t>(size);
  const auto read = [&](auto& value) {
    if (left < sizeof(value) || !ReadPod(in, value)) {
      return false;
    }
    left -= sizeof(value);
    return true;
  };
  const auto fail = [&] {
    weights.clear();
    return false;
  };
  // Each group and each tensor takes at least its 8-byte count or rank.
  uint64_t magic = 0;
  uint64_t groups = 0;
  if (!read(magic) || magic != kMagic || !read(groups) || groups > left / 8) {
    return false;
  }
  weights.resize(groups);
  for (auto& group : weights) {
    uint64_t count = 0;
    if (!read(count) || count > left / 8) {
      return fail();
    }
    group.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t rank = 0;
      if (!read(rank) || rank > 8) {
        return fail();
      }
      std::vector<int64_t> dims(rank);
      int64_t elements = 1;
      for (auto& d : dims) {
        // Bound dimensions so corrupted files cannot trigger huge allocations.
        if (!read(d) || d < 0 || d > (1 << 24)) {
          return fail();
        }
        elements *= std::max<int64_t>(d, 1);
        if (elements > (int64_t{1} << 28)) {
          return fail();
        }
      }
      const Shape shape(dims);
      const uint64_t bytes = static_cast<uint64_t>(shape.NumElements()) * sizeof(float);
      if (bytes > left) {
        return fail();
      }
      Tensor t(shape);
      in.read(reinterpret_cast<char*>(t.data()), static_cast<std::streamsize>(bytes));
      if (!in) {
        return fail();
      }
      left -= bytes;
      group.push_back(std::move(t));
    }
  }
  return true;
}

}  // namespace gmorph
