// Arena allocation for the simulator's node-based containers.
//
// util::SlabAllocator backs the engine's in-flight transaction map: its
// nodes come from slab-carved free lists instead of one heap allocation
// each. Not thread-safe: the owning container lives on one thread.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace cn::util {

/// Standard-library-compatible arena allocator: single-object
/// allocations (node-based container nodes — the in-flight transaction
/// map's bread and butter) come from slab-carved free lists; array
/// allocations (hash bucket tables) fall through to operator new. The
/// arena lives as long as any copy of the allocator (shared state), so
/// containers can be moved/swapped freely. Not thread-safe.
template <typename T, std::size_t kSlabBytes = 1 << 16>
class SlabAllocator {
  struct State {
    std::vector<std::unique_ptr<std::byte[]>> slabs;
    void* freelist = nullptr;
    std::size_t brk = kSlabBytes;  ///< carve offset into the newest slab

    static constexpr std::size_t slot_size() {
      return sizeof(T) < sizeof(void*) ? sizeof(void*) : sizeof(T);
    }

    void* pop() {
      if (freelist != nullptr) {
        void* p = freelist;
        freelist = *static_cast<void**>(p);
        return p;
      }
      if (brk + slot_size() > kSlabBytes) {
        slabs.push_back(std::make_unique<std::byte[]>(kSlabBytes));
        brk = 0;
      }
      void* p = slabs.back().get() + brk;
      brk += slot_size();
      return p;
    }

    void push(void* p) {
      *static_cast<void**>(p) = freelist;
      freelist = p;
    }
  };

 public:
  using value_type = T;
  /// Explicit rebind: allocator_traits cannot synthesize one because of
  /// the non-type kSlabBytes parameter.
  template <typename U>
  struct rebind {
    using other = SlabAllocator<U, kSlabBytes>;
  };

  SlabAllocator() : state_(std::make_shared<State>()) {}
  template <typename U, std::size_t B>
  explicit SlabAllocator(const SlabAllocator<U, B>&)
      : state_(std::make_shared<State>()) {}  // rebound: fresh arena
  SlabAllocator(const SlabAllocator&) = default;
  SlabAllocator& operator=(const SlabAllocator&) = default;

  T* allocate(std::size_t n) {
    if (n == 1) return static_cast<T*>(state_->pop());
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1) {
      state_->push(p);
    } else {
      ::operator delete(p);
    }
  }

  bool operator==(const SlabAllocator& o) const noexcept {
    return state_ == o.state_;
  }

 private:
  template <typename U, std::size_t B>
  friend class SlabAllocator;
  std::shared_ptr<State> state_;
};

}  // namespace cn::util
