//===----------------------------------------------------------------------===//
///
/// \file
/// Bump-pointer arena for compiler metadata: interned name storage, the
/// per-compilation-unit syntax heap, and the hash-consed Type objects.
/// Objects allocated here are never destroyed individually; the arena
/// frees all memory at once. Callers that place non-trivially-destructible
/// objects here are responsible for running destructors themselves (the
/// frontend keeps its syntax nodes trivially destructible instead).
///
//===----------------------------------------------------------------------===//

#ifndef MPC_SUPPORT_ARENA_H
#define MPC_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace mpc {

/// A simple bump-pointer allocator with geometrically growing slabs.
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Allocates \p Size bytes aligned to \p Align.
  void *allocate(size_t Size, size_t Align = alignof(std::max_align_t)) {
    uintptr_t P = reinterpret_cast<uintptr_t>(Cur);
    uintptr_t Aligned = (P + Align - 1) & ~(Align - 1);
    if (Aligned + Size > reinterpret_cast<uintptr_t>(End)) {
      growSlab(Size + Align);
      P = reinterpret_cast<uintptr_t>(Cur);
      Aligned = (P + Align - 1) & ~(Align - 1);
    }
    Cur = reinterpret_cast<char *>(Aligned + Size);
    TotalUsed += Size;
    return reinterpret_cast<void *>(Aligned);
  }

  /// Constructs a \p T in the arena. The destructor is never run.
  template <typename T, typename... Args> T *make(Args &&...CtorArgs) {
    return new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(CtorArgs)...);
  }

  /// Allocates an uninitialized array of \p N objects of type \p T.
  template <typename T> T *allocateArray(size_t N) {
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Copies \p N trivially-copyable elements into the arena; returns the
  /// stable copy (null when \p N is zero — an empty span needs no bytes).
  template <typename T> T *copyArray(const T *Data, size_t N) {
    if (!N)
      return nullptr;
    T *Mem = allocateArray<T>(N);
    for (size_t I = 0; I < N; ++I)
      Mem[I] = Data[I];
    return Mem;
  }

  /// Copies \p Size bytes into the arena and returns the stable copy.
  char *copyBytes(const char *Data, size_t Size) {
    char *Mem = static_cast<char *>(allocate(Size ? Size : 1, 1));
    for (size_t I = 0; I < Size; ++I)
      Mem[I] = Data[I];
    return Mem;
  }

  /// Total bytes handed out (excluding alignment waste).
  uint64_t bytesUsed() const { return TotalUsed; }

private:
  void growSlab(size_t AtLeast) {
    size_t Size = NextSlabSize;
    if (Size < AtLeast)
      Size = AtLeast * 2;
    NextSlabSize = NextSlabSize * 2;
    Slabs.push_back({std::make_unique<char[]>(Size), Size});
    Cur = Slabs.back().Mem.get();
    End = Cur + Size;
  }

  struct SlabRec {
    std::unique_ptr<char[]> Mem;
    size_t Size;
  };
  std::vector<SlabRec> Slabs;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextSlabSize = 4096;
  uint64_t TotalUsed = 0;
};

} // namespace mpc

#endif // MPC_SUPPORT_ARENA_H
