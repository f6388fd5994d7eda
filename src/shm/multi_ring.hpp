// MultiRing: a directory of SPSC rings in one shared region.
//
// The paper has "multiple user processes ... using internal sensors" per
// node, all drained by one external sensor. Instead of a multi-producer
// ring (which would put CAS contention on the sensor fast path), each
// producer claims a private slot — keeping every ring strictly SPSC — and
// the external sensor polls all active slots.
//
// Layout: [Directory | slot 0 ring | slot 1 ring | ...], each slot ring
// being RingBuffer::region_size(ring_capacity) bytes rounded up to a cache
// line, so every ring header starts on a 64-byte boundary as its alignas(64)
// cursors require (given a region that does).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "shm/ring_buffer.hpp"

namespace brisk::shm {

class MultiRing {
 public:
  struct alignas(64) Directory {
    std::uint64_t magic;
    std::uint32_t slot_count;
    std::uint32_t ring_capacity;                 // data bytes per slot ring
    std::atomic<std::uint32_t> slots_claimed;    // monotonically increasing
  };

  /// Changed with every slot layout (last: the ring header's per-side
  /// lines, which changed the slot stride), so a region formatted by an
  /// older build fails attach() instead of being misread.
  static constexpr std::uint64_t kMagic = 0x425249534b445233ULL;  // "BRISKDR3"

  /// Bytes from one slot ring to the next.
  static constexpr std::size_t slot_stride(std::uint32_t ring_capacity) noexcept {
    return (RingBuffer::region_size(ring_capacity) + 63) & ~std::size_t{63};
  }
  static constexpr std::size_t region_size(std::uint32_t slot_count,
                                           std::uint32_t ring_capacity) noexcept {
    return sizeof(Directory) + std::size_t{slot_count} * slot_stride(ring_capacity);
  }

  /// Formats `memory` as a directory of `slot_count` rings.
  static Result<MultiRing> init(void* memory, std::uint32_t slot_count,
                                std::uint32_t ring_capacity);
  /// Attaches to a formatted region (possibly from another process).
  static Result<MultiRing> attach(void* memory, std::size_t memory_bytes);

  MultiRing() = default;

  /// Producer side: claims the next free slot and returns its ring. Each
  /// producer (process or thread) must claim its own slot exactly once.
  Result<RingBuffer> claim_slot();

  /// Consumer side: ring of slot `index` (must be < claimed_slots()). Each
  /// call returns a fresh handle; keep it to keep its cached cursors.
  Result<RingBuffer> slot(std::uint32_t index);

  [[nodiscard]] std::uint32_t slot_count() const noexcept { return dir_->slot_count; }
  [[nodiscard]] std::uint32_t claimed_slots() const noexcept {
    const std::uint32_t n = dir_->slots_claimed.load(std::memory_order_acquire);
    return n < dir_->slot_count ? n : dir_->slot_count;
  }
  [[nodiscard]] std::uint32_t ring_capacity() const noexcept { return dir_->ring_capacity; }

  /// Aggregate stats across all claimed slots.
  [[nodiscard]] RingStats total_stats();

  [[nodiscard]] bool valid() const noexcept { return dir_ != nullptr; }

 private:
  MultiRing(Directory* dir, std::uint8_t* rings) : dir_(dir), rings_(rings) {}

  [[nodiscard]] std::uint8_t* ring_memory(std::uint32_t index) noexcept {
    return rings_ + std::size_t{index} * slot_stride(dir_->ring_capacity);
  }

  Directory* dir_ = nullptr;
  std::uint8_t* rings_ = nullptr;
};

}  // namespace brisk::shm
