// Chase–Lev work-stealing deque (Chase & Lev, SPAA'05), with the C11
// memory orderings of Lê et al., PPoPP'13, specialized to a fixed-capacity
// ring of pointers.
//
// The owner pushes and pops at the *bottom* (LIFO — deepest frontier node
// first, preserving DFS locality); thieves compare-and-swap the *top*
// (FIFO — the shallowest entry, i.e. the largest pending subtree, so one
// successful steal moves the most work). All operations are lock-free; the
// only cross-thread traffic on the owner's fast path is one fence.
//
// The ring is bounded on purpose: the parallel branch-and-bound donates
// subtree tasks only while its deque sits below a small watermark, so the
// ring can never fill, and a bounded ring means no grow/reclaim protocol
// (the unbounded Chase–Lev variant needs hazard-pointer-style buffer
// reclamation). `Push` still reports overflow so callers that ignore the
// watermark discipline can fall back to running the task inline.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/error.hpp"

namespace ss {

template <typename T>
class StealDeque {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit StealDeque(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    buffer_ = std::vector<std::atomic<T*>>(cap);
    mask_ = cap - 1;
  }

  StealDeque(const StealDeque&) = delete;
  StealDeque& operator=(const StealDeque&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Owner only. False when the ring is full (caller runs `item` inline).
  bool Push(T* item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= static_cast<std::int64_t>(capacity())) return false;
    // The slot is stored with release and Steal loads it with acquire, so
    // a thief that takes `item` also sees everything written to it before
    // the push. (The fence alone gives that too, but ThreadSanitizer does
    // not model fences and reports the stolen item's fields as raced.)
    buffer_[static_cast<std::size_t>(b) & mask_].store(
        item, std::memory_order_release);
    // Publish the slot before the new bottom becomes visible to thieves.
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_relaxed);
    return true;
  }

  /// Owner only. Takes the deepest entry; null when empty.
  T* Pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    // Order the bottom decrement against thieves' top reads: either the
    // thief sees the reservation, or we see its CAS below.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {  // already empty
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    T* item =
        buffer_[static_cast<std::size_t>(b) & mask_].load(
            std::memory_order_relaxed);
    if (t != b) return item;  // more than one entry: no race possible
    // Last entry: race any concurrent thief for it.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      item = nullptr;  // a thief won
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
    return item;
  }

  /// Any thread. Takes the shallowest entry; null when empty or when the
  /// race for the entry was lost (callers just try another victim).
  T* Steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    T* item =
        buffer_[static_cast<std::size_t>(t) & mask_].load(
            std::memory_order_acquire);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return item;
  }

  /// Owner-side size estimate (exact for the owner between its own ops).
  std::size_t SizeApprox() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

 private:
  std::vector<std::atomic<T*>> buffer_;
  std::size_t mask_ = 0;
  // Owner and thief indices on separate cache lines.
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
};

}  // namespace ss
