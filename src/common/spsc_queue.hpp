// Bounded single-producer/single-consumer queue: the ISM's reader-thread →
// ordering-thread handoff. One side pushes, the other pops; no locks, just
// acquire/release on the two cursors. Capacity is fixed at construction —
// a full queue is backpressure, not allocation.
#pragma once

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace brisk {

template <typename T>
class SpscQueue {
 public:
  /// `capacity` is the number of elements the queue can hold; rounded up to
  /// a power of two (minimum 2) so the cursor math is a mask. A capacity
  /// past the largest power of two has no such rounding: std::length_error.
  explicit SpscQueue(std::size_t capacity) {
    constexpr std::size_t kMaxCapacity = ~(~std::size_t{0} >> 1);
    if (capacity > kMaxCapacity) throw std::length_error("SpscQueue capacity too large");
    std::size_t rounded = 2;
    while (rounded < capacity) rounded <<= 1;
    slots_.resize(rounded);
    mask_ = rounded - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. Returns false when full (the element is untouched).
  bool try_push(T&& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail - head > mask_) return false;
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Approximate; exact only from the calling side's perspective.
  [[nodiscard]] std::size_t size() const noexcept {
    return tail_.load(std::memory_order_acquire) - head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }
  [[nodiscard]] std::size_t free_slots() const noexcept {
    const std::size_t used = size();
    return used > capacity() ? 0 : capacity() - used;
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace brisk
