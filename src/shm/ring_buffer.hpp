// Single-producer/single-consumer ring buffer for variable-size records,
// laid out over raw (optionally cross-process shared) memory.
//
// This is the paper's central low-intrusion device: internal sensors
// (NOTICE macros in the target application) push binary records here with
// a load of their own cursor, a memcpy and stores to their own cache line,
// the last a release store of the cursor — no locks, no syscalls, and no
// load of the consumer's line while the ring has room — while the external
// sensor pops from another process.
//
// Layout:   [Header | data area]
// Header:   magic and capacity, then one cache line per side. The producer's
//           line holds `head` and the counters only it writes (pushed,
//           bytes_pushed, dropped); the consumer's line holds `tail` and
//           popped. On the fast path each side writes and reads only its own
//           line.
// Records:  u32 length prefix + payload. A length of kWrapMark means "skip
//           to the start of the data area" (written when a record does not
//           fit contiguously before the end).
// Offsets are monotonically increasing u64 counters (head = producer,
// tail = consumer); the physical position is offset % capacity. Overflow
// policy is drop-new: a full ring rejects the record and bumps a drop
// counter (event dropping is an explicit box in the paper's Fig. 1).
//
// Each RingBuffer handle keeps a process-local copy of the peer's cursor
// (tail_cache_ for the producer, head_cache_ for the consumer) and reloads
// the shared one only when its copy says the ring is full or empty. A copy
// can only lag the real cursor, so it understates the room or the records
// ready; a handle whose copy lags by more than a lap (another handle of the
// same side moved on meanwhile) reloads too. So any number of handles may
// take turns on one side, as long as one pushes and one pops at a time.
//
// A producer may also stage a run of records and publish it at once:
// stage() writes each record behind `head` without moving it, publish()
// stores `head` and bumps each counter once. try_push() is stage() plus
// publish().
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
    // Producer line: its cursor and the counters only it writes.
    alignas(64) std::atomic<std::uint64_t> head;
    std::atomic<std::uint64_t> pushed;
    std::atomic<std::uint64_t> bytes_pushed;
    std::atomic<std::uint64_t> dropped;
    // Consumer line: its cursor and its counter.
    alignas(64) std::atomic<std::uint64_t> tail;
    std::atomic<std::uint64_t> popped;
  };

  /// Changed with the per-side header lines, so a region formatted by an
  /// older build fails attach() instead of being misread.
  static constexpr std::uint64_t kMagic = 0x425249534b524e32ULL;  // "BRISKRN2"
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
  /// not fit. Records larger than capacity/2 are rejected outright. Publishes
  /// at once, together with anything staged before.
  bool try_push(ByteSpan record) noexcept {
    const bool ok = stage(record);
    publish();
    return ok;
  }

  /// Producer side: writes `record` behind the records staged since the last
  /// publish(), where the consumer cannot see it yet. Returns false when it
  /// does not fit (the drop is counted at the next publish()); the records
  /// staged before it stay staged.
  bool stage(ByteSpan record) noexcept;
  /// Producer side: makes every staged record visible with one store of
  /// `head`, and moves pushed, bytes_pushed and dropped once each.
  void publish() noexcept;

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

  /// Whether `total` more bytes fit ahead of `head` (producer side).
  bool fits(std::uint64_t head, std::uint64_t total) noexcept;
  /// Whether a record starts at `tail` (consumer side).
  bool readable(std::uint64_t tail) noexcept;

  Header* header_ = nullptr;
  std::uint8_t* data_ = nullptr;
  // Producer side: its copy of tail, and what is staged but not published.
  std::uint64_t tail_cache_ = 0;
  std::uint64_t staged_head_ = 0;
  std::uint64_t staged_records_ = 0;
  std::uint64_t staged_bytes_ = 0;
  std::uint64_t staged_drops_ = 0;
  // Consumer side: its copy of head.
  std::uint64_t head_cache_ = 0;
};

}  // namespace brisk::shm
