// Single-producer/single-consumer ring buffer for variable-size records,
// laid out over raw (optionally cross-process shared) memory.
//
// This is the paper's central low-intrusion device: internal sensors
// (NOTICE macros in the target application) push binary records here with
// two atomic loads, a memcpy and one release store — no locks and no
// syscalls — while the external sensor pops from another process.
//
// Layout:   [Header | data area]
// Records:  u32 length prefix + payload. A length of kWrapMark means "skip
//           to the start of the data area" (written when a record does not
//           fit contiguously before the end).
// Offsets are monotonically increasing u64 counters (head = producer,
// tail = consumer); the physical position is offset % capacity. Overflow
// policy is drop-new: a full ring rejects the record and bumps a drop
// counter (event dropping is an explicit box in the paper's Fig. 1).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/byte_buffer.hpp"
#include "common/error.hpp"

namespace brisk::shm {

struct RingStats {
  std::uint64_t pushed = 0;   // records successfully written
  std::uint64_t popped = 0;   // records successfully read
  std::uint64_t dropped = 0;  // records rejected because the ring was full
  std::uint64_t bytes_pushed = 0;
};

class RingBuffer {
 public:
  struct Header {
    std::uint64_t magic;
    std::uint64_t capacity;  // bytes in the data area
    alignas(64) std::atomic<std::uint64_t> head;   // producer cursor
    alignas(64) std::atomic<std::uint64_t> tail;   // consumer cursor
    // Statistics. Each has one writer, which bumps it with a load and a
    // store: pushed and bytes_pushed the producer, popped the consumer.
    alignas(64) std::atomic<std::uint64_t> pushed;
    std::atomic<std::uint64_t> popped;
    std::atomic<std::uint64_t> dropped;
    std::atomic<std::uint64_t> bytes_pushed;
  };

  static constexpr std::uint64_t kMagic = 0x425249534b524e47ULL;  // "BRISKRNG"
  static constexpr std::uint32_t kWrapMark = 0xffffffffu;
  static constexpr std::size_t kLengthBytes = sizeof(std::uint32_t);

  /// Bytes of raw memory needed for a ring with `data_capacity` data bytes.
  static constexpr std::size_t region_size(std::size_t data_capacity) noexcept {
    return sizeof(Header) + data_capacity;
  }

  /// Formats `memory` (>= region_size(data_capacity) bytes) as a fresh ring.
  static Result<RingBuffer> init(void* memory, std::size_t data_capacity);
  /// Attaches to memory already formatted by `init` (e.g. in another
  /// process). Validates the magic and capacity against `memory_bytes`.
  static Result<RingBuffer> attach(void* memory, std::size_t memory_bytes);

  RingBuffer() = default;

  /// Producer side. Returns false (and counts a drop) when the record does
  /// not fit. Records larger than capacity/2 are rejected outright.
  bool try_push(ByteSpan record) noexcept;

  /// Consumer side. Appends the record payload to `out` and returns true,
  /// or returns false when the ring is empty.
  bool try_pop(std::vector<std::uint8_t>& out);

  /// Consumer-side peek at the next record length (0 if empty).
  [[nodiscard]] std::size_t next_record_size() const noexcept;

  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept { return header_->capacity; }
  /// Bytes currently queued (including length prefixes and wrap padding).
  [[nodiscard]] std::size_t bytes_used() const noexcept;
  [[nodiscard]] RingStats stats() const noexcept;

  [[nodiscard]] bool valid() const noexcept { return header_ != nullptr; }

 private:
  RingBuffer(Header* header, std::uint8_t* data) : header_(header), data_(data) {}

  void write_bytes(std::uint64_t offset, ByteSpan bytes) noexcept;
  void read_bytes(std::uint64_t offset, void* out, std::size_t len) const noexcept;
  [[nodiscard]] std::uint32_t read_length(std::uint64_t offset) const noexcept;

  Header* header_ = nullptr;
  std::uint8_t* data_ = nullptr;
};

}  // namespace brisk::shm
