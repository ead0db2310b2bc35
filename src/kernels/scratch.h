// Thread-local scratch arena for kernel workspace (im2col columns, GEMM
// packing panels). Allocation is a bump pointer into blocks that persist for
// the thread's lifetime, so steady-state kernels reuse warm memory instead of
// hitting the heap once per call.
//
// Lifetime rules:
//  - Open a ScratchScope at the top of a kernel; every AllocFloats() through
//    that scope (or a nested one) is released when the scope closes.
//  - Pointers are valid until their scope closes. Never store them across
//    calls. Other threads may use them only as workers of a ParallelFor
//    issued while the scope is open (it joins before the scope can close),
//    e.g. shared packed GEMM panels or a column matrix workers fill. The arena
//    is thread-local: a worker that needs scratch of its own opens its own
//    scope inside the parallel region.
//  - Scopes nest like a stack; closing out of order is a bug (checked).
#ifndef GMORPH_SRC_KERNELS_SCRATCH_H_
#define GMORPH_SRC_KERNELS_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace gmorph {

class ScratchScope;

class ScratchArena {
 public:
  // The calling thread's arena (created on first use).
  static ScratchArena& ThreadLocal();

  // Bytes of backing memory newly allocated from the heap, across all
  // threads, since process start. Flat after warmup — the benchmark's
  // bytes-per-op metric is a delta of this plus the tensor counter.
  static int64_t TotalHeapBytes();

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

 private:
  friend class ScratchScope;

  struct Block {
    std::unique_ptr<float[]> data;
    size_t capacity = 0;  // floats
    size_t used = 0;      // floats
  };

  ScratchArena() = default;

  float* AllocFloats(size_t n);

  struct Mark {
    size_t block = 0;
    size_t used = 0;
  };
  Mark Save() const;
  void Restore(const Mark& mark);

  std::vector<Block> blocks_;
  size_t current_ = 0;  // blocks_[current_] receives the next allocation
};

// RAII window into the thread-local arena.
class ScratchScope {
 public:
  ScratchScope() : arena_(ScratchArena::ThreadLocal()), mark_(arena_.Save()) {}
  ~ScratchScope() { arena_.Restore(mark_); }

  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

  // Contents are uninitialized (reused allocations carry stale data).
  float* AllocFloats(size_t n) { return arena_.AllocFloats(n); }

  // Typed scratch for the non-f32 kernels (u8/s8 operands and weight
  // panels, s32 accumulators): n elements of T carved from the float arena,
  // rounded up to whole float slots. Same lifetime rules as AllocFloats.
  template <typename T>
  T* Alloc(size_t n) {
    static_assert(std::is_trivial_v<T> && alignof(T) <= alignof(float),
                  "scratch types must pack into the float arena");
    const size_t floats = (n * sizeof(T) + sizeof(float) - 1) / sizeof(float);
    return reinterpret_cast<T*>(arena_.AllocFloats(floats));
  }

 private:
  ScratchArena& arena_;
  ScratchArena::Mark mark_;
};

}  // namespace gmorph

#endif  // GMORPH_SRC_KERNELS_SCRATCH_H_
