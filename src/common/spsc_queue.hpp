// Bounded single-producer/single-consumer queue: every ISM lane (reader →
// ordering, ordering → shard, shard → merger, merger → gateway and relay
// egress). One side pushes, the other pops; no locks, just acquire/release
// on the two cursors. Capacity is fixed at construction — a full queue is
// backpressure, not allocation.
//
// Each side keeps a private copy of the other side's cursor on its own
// cache line and reloads the real one only when its copy says the queue is
// full (producer) or empty (consumer), so a side that keeps up touches the
// peer's line once per lap, not once per element. The bulk calls publish
// their cursor once per chunk.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <span>
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
    if (writable(tail, 1) == 0) return false;
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer side. Moves the longest prefix of `values` that fits and
  /// returns its length (0 when full); the rest is untouched.
  std::size_t try_push_n(std::span<T> values) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t n = std::min(values.size(), writable(tail, values.size()));
    for (std::size_t i = 0; i < n; ++i) slots_[(tail + i) & mask_] = std::move(values[i]);
    if (n != 0) tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Consumer side. Returns false when empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (readable(head, 1) == 0) return false;
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Appends up to `max` elements to `out` and returns how
  /// many (0 when empty).
  std::size_t try_pop_n(std::vector<T>& out, std::size_t max) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t n = std::min(max, readable(head, max));
    for (std::size_t i = 0; i < n; ++i) out.push_back(std::move(slots_[(head + i) & mask_]));
    if (n != 0) head_.store(head + n, std::memory_order_release);
    return n;
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
  /// Free slots ahead of `tail` (producer side); reloads the consumer's
  /// cursor only when the cached copy shows fewer than `want`.
  std::size_t writable(std::size_t tail, std::size_t want) {
    std::size_t free = capacity() - (tail - head_cache_);
    if (free < want) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = capacity() - (tail - head_cache_);
    }
    return free;
  }

  /// Filled slots from `head` (consumer side); reloads the producer's
  /// cursor only when the cached copy shows fewer than `want`.
  std::size_t readable(std::size_t head, std::size_t want) {
    std::size_t filled = tail_cache_ - head;
    if (filled < want) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      filled = tail_cache_ - head;
    }
    return filled;
  }

  std::vector<T> slots_;
  std::size_t mask_ = 0;
  // Consumer line: its cursor and its copy of the producer's.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t tail_cache_ = 0;
  // Producer line: its cursor and its copy of the consumer's.
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t head_cache_ = 0;
};

}  // namespace brisk
