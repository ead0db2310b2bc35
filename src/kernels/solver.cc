#include "src/kernels/solver.h"

#include <cstdio>

#include "src/common/check.h"
#include "src/common/parallel_for.h"
#include "src/kernels/registry.h"

namespace gmorph::kernels {

const char* OpFamilyName(OpFamily op) {
  switch (op) {
    case OpFamily::kGemmNN:
      return "gemm_nn";
    case OpFamily::kGemmNT:
      return "gemm_nt";
    case OpFamily::kGemmTN:
      return "gemm_tn";
    case OpFamily::kMaxPool:
      return "maxpool";
    case OpFamily::kQConvPixels:
      return "qconv_pixels";
    case OpFamily::kQConvChannels:
      return "qconv_channels";
  }
  return "unknown";
}

bool OpFamilyFromName(std::string_view name, OpFamily* out) {
  if (name == "gemm_nn") {
    *out = OpFamily::kGemmNN;
  } else if (name == "gemm_nt") {
    *out = OpFamily::kGemmNT;
  } else if (name == "gemm_tn") {
    *out = OpFamily::kGemmTN;
  } else if (name == "maxpool") {
    *out = OpFamily::kMaxPool;
  } else if (name == "qconv_pixels") {
    *out = OpFamily::kQConvPixels;
  } else if (name == "qconv_channels") {
    *out = OpFamily::kQConvChannels;
  } else {
    return false;
  }
  return true;
}

const char* DTypeName(DType dtype) {
  switch (dtype) {
    case DType::kF32:
      return "f32";
    case DType::kInt8:
      return "int8";
  }
  return "unknown";
}

bool DTypeFromName(std::string_view name, DType* out) {
  if (name == "f32") {
    *out = DType::kF32;
  } else if (name == "int8") {
    *out = DType::kInt8;
  } else {
    return false;
  }
  return true;
}

std::string ProblemKey(const ProblemDesc& desc) {
  char buf[176];
  // f32 keys keep their historical spelling; the dtype token only appears for
  // quantized problems, so pre-dtype diagnostics and goldens are unchanged.
  if (desc.dtype == DType::kF32) {
    std::snprintf(buf, sizeof(buf), "%s m=%lld k=%lld n=%lld aux0=%lld aux1=%lld threads=%d",
                  OpFamilyName(desc.op), static_cast<long long>(desc.m),
                  static_cast<long long>(desc.k), static_cast<long long>(desc.n),
                  static_cast<long long>(desc.aux0), static_cast<long long>(desc.aux1),
                  desc.threads);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%s dtype=%s m=%lld k=%lld n=%lld aux0=%lld aux1=%lld threads=%d",
                  OpFamilyName(desc.op), DTypeName(desc.dtype), static_cast<long long>(desc.m),
                  static_cast<long long>(desc.k), static_cast<long long>(desc.n),
                  static_cast<long long>(desc.aux0), static_cast<long long>(desc.aux1),
                  desc.threads);
  }
  return buf;
}

namespace {

int ContextThreads() { return InParallelRegion() ? 1 : KernelThreads(); }

}  // namespace

ProblemDesc GemmProblem(OpFamily op, int64_t m, int64_t k, int64_t n) {
  ProblemDesc desc;
  desc.op = op;
  desc.m = m;
  desc.k = k;
  desc.n = n;
  desc.threads = ContextThreads();
  return desc;
}

ProblemDesc QGemmProblem(int64_t m, int64_t k, int64_t n) {
  ProblemDesc desc = GemmProblem(OpFamily::kGemmNN, m, k, n);
  desc.dtype = DType::kInt8;
  return desc;
}

ProblemDesc ConvProblem(DType dtype, int64_t out_channels, int64_t ckk, int64_t oh, int64_t ow) {
  ProblemDesc desc;
  desc.dtype = dtype;
  desc.k = ckk;
  desc.threads = 1;
  const int64_t spatial = oh * ow;
  const bool channel_cols =
      spatial < (dtype == DType::kInt8 ? kQConvPixelsMinSpatial : kWideMinN);
  if (dtype == DType::kInt8) {
    desc.op = channel_cols ? OpFamily::kQConvChannels : OpFamily::kQConvPixels;
  }
  desc.m = channel_cols ? spatial : out_channels;
  desc.n = channel_cols ? out_channels : spatial;
  return desc;
}

ProblemDesc PoolProblem(int64_t planes, int64_t h, int64_t w, int64_t kernel, int64_t stride) {
  ProblemDesc desc;
  desc.op = OpFamily::kMaxPool;
  desc.m = planes;
  desc.k = h;
  desc.n = w;
  desc.aux0 = kernel;
  desc.aux1 = stride;
  desc.threads = ContextThreads();
  return desc;
}

int64_t PooledDim(int64_t in, int64_t kernel, int64_t stride) {
  return (in - kernel) / stride + 1;
}

int64_t ProblemFlops(const ProblemDesc& desc) {
  if (desc.op == OpFamily::kMaxPool) {
    const int64_t oh = PooledDim(desc.k, desc.aux0, desc.aux1);
    const int64_t ow = PooledDim(desc.n, desc.aux0, desc.aux1);
    return desc.m * oh * ow * desc.aux0 * desc.aux0;
  }
  return 2 * desc.m * desc.k * desc.n;
}

GemmCall MakeGemmCall(const ProblemDesc& desc, const float* a, const float* b, float* c,
                      bool accumulate) {
  GemmCall call;
  call.c = c;
  call.accumulate = accumulate;
  switch (desc.op) {
    case OpFamily::kGemmNN:
      call.a = MatView{a, desc.k, 1};
      call.b = MatView{b, desc.n, 1};
      break;
    case OpFamily::kGemmNT:
      call.a = MatView{a, desc.k, 1};
      call.b = MatView{b, 1, desc.k};
      break;
    case OpFamily::kGemmTN:
      call.a = MatView{a, 1, desc.m};
      call.b = MatView{b, desc.n, 1};
      break;
    case OpFamily::kMaxPool:
    case OpFamily::kQConvPixels:
    case OpFamily::kQConvChannels:
      GMORPH_CHECK(false, "MakeGemmCall on a non-f32-GEMM descriptor");
  }
  return call;
}

}  // namespace gmorph::kernels
