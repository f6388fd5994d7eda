#include "shm/ring_buffer.hpp"

#include <cstring>
#include <new>

namespace brisk::shm {

namespace {

/// Adds to a counter only its owning side writes (the producer's pushed,
/// bytes_pushed and dropped, the consumer's popped): a plain load and store,
/// no locked read-modify-write. Readers on other threads still see whole
/// values.
void bump_owned(std::atomic<std::uint64_t>& counter, std::uint64_t delta) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

std::uint32_t load_length(const std::uint8_t* at) noexcept {
  std::uint32_t len = 0;
  std::memcpy(&len, at, sizeof len);
  return len;
}

}  // namespace

Result<RingBuffer> RingBuffer::init(void* memory, std::size_t data_capacity) {
  if (memory == nullptr) return Status(Errc::invalid_argument, "null memory");
  if (data_capacity < 64) return Status(Errc::invalid_argument, "ring capacity too small");
  auto* header = new (memory) Header{};
  header->magic = kMagic;
  header->capacity = data_capacity;
  header->head.store(0, std::memory_order_relaxed);
  header->tail.store(0, std::memory_order_relaxed);
  header->pushed.store(0, std::memory_order_relaxed);
  header->popped.store(0, std::memory_order_relaxed);
  header->dropped.store(0, std::memory_order_relaxed);
  header->bytes_pushed.store(0, std::memory_order_relaxed);
  return RingBuffer(header, static_cast<std::uint8_t*>(memory) + sizeof(Header));
}

Result<RingBuffer> RingBuffer::attach(void* memory, std::size_t memory_bytes) {
  if (memory == nullptr) return Status(Errc::invalid_argument, "null memory");
  if (memory_bytes < sizeof(Header)) return Status(Errc::malformed, "region smaller than header");
  auto* header = static_cast<Header*>(memory);
  if (header->magic != kMagic) return Status(Errc::malformed, "bad ring magic");
  if (sizeof(Header) + header->capacity > memory_bytes) {
    return Status(Errc::malformed, "ring capacity exceeds region");
  }
  return RingBuffer(header, static_cast<std::uint8_t*>(memory) + sizeof(Header));
}

bool RingBuffer::fits(std::uint64_t head, std::uint64_t total) noexcept {
  // stage() keeps `total` below the capacity. A copy of tail can only lag, so
  // it understates the room; one that lags a lap reads as full and reloads.
  const std::uint64_t room = header_->capacity - total;
  if (head - tail_cache_ <= room) return true;
  tail_cache_ = header_->tail.load(std::memory_order_acquire);
  return head - tail_cache_ <= room;
}

bool RingBuffer::stage(ByteSpan record) noexcept {
  const std::uint64_t capacity = header_->capacity;
  const std::size_t need = kLengthBytes + record.size();
  if (need > capacity / 2) {
    ++staged_drops_;
    return false;
  }

  if (staged_records_ == 0) staged_head_ = header_->head.load(std::memory_order_relaxed);
  const std::uint64_t head = staged_head_;
  const std::uint64_t pos = head % capacity;
  const std::uint64_t to_end = capacity - pos;

  // Bytes the producer cursor must advance: a record never straddles the
  // physical end of the data area, so a short tail segment is padded out
  // (with a wrap mark when there is room for one).
  const std::uint64_t skip = (to_end < need) ? to_end : 0;
  const std::uint64_t total = skip + need;
  if (!fits(head, total)) {
    ++staged_drops_;
    return false;
  }

  std::uint8_t* at = data_ + pos;
  if (skip != 0) {
    if (to_end >= kLengthBytes) std::memcpy(at, &kWrapMark, sizeof kWrapMark);
    at = data_;  // the record starts the data area
  }
  const auto len = static_cast<std::uint32_t>(record.size());
  std::memcpy(at, &len, sizeof len);
  if (!record.empty()) std::memcpy(at + kLengthBytes, record.data(), record.size());

  staged_head_ = head + total;
  ++staged_records_;
  staged_bytes_ += record.size();
  return true;
}

void RingBuffer::publish() noexcept {
  if (staged_drops_ != 0) {
    bump_owned(header_->dropped, staged_drops_);
    staged_drops_ = 0;
  }
  if (staged_records_ == 0) return;
  bump_owned(header_->pushed, staged_records_);
  bump_owned(header_->bytes_pushed, staged_bytes_);
  header_->head.store(staged_head_, std::memory_order_release);
  staged_records_ = 0;
  staged_bytes_ = 0;
}

bool RingBuffer::readable(std::uint64_t tail) noexcept {
  // A copy of head can only lag, so it understates what is ready; one at or
  // below `tail` (also one another consumer handle overtook) reloads.
  if (head_cache_ > tail) return true;
  head_cache_ = header_->head.load(std::memory_order_acquire);
  return head_cache_ > tail;
}

bool RingBuffer::try_pop(std::vector<std::uint8_t>& out) {
  const std::uint64_t capacity = header_->capacity;
  std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);

  // The producer moves head past a skipped segment only together with the
  // record behind it, so a readable tail always leads to a record.
  if (!readable(tail)) return false;
  for (;;) {
    const std::uint64_t pos = tail % capacity;
    const std::uint64_t to_end = capacity - pos;
    if (to_end < kLengthBytes) {
      tail += to_end;  // producer skipped a segment too short for a mark
      continue;
    }
    const std::uint32_t len = load_length(data_ + pos);
    if (len == kWrapMark) {
      tail += to_end;
      continue;
    }
    const std::size_t old_size = out.size();
    out.resize(old_size + len);
    if (len != 0) std::memcpy(out.data() + old_size, data_ + pos + kLengthBytes, len);
    bump_owned(header_->popped, 1);
    header_->tail.store(tail + kLengthBytes + len, std::memory_order_release);
    return true;
  }
}

std::size_t RingBuffer::next_record_size() const noexcept {
  const std::uint64_t capacity = header_->capacity;
  std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t head = header_->head.load(std::memory_order_acquire);
    if (tail == head) return 0;
    const std::uint64_t pos = tail % capacity;
    const std::uint64_t to_end = capacity - pos;
    if (to_end < kLengthBytes) {
      tail += to_end;
      continue;
    }
    const std::uint32_t len = load_length(data_ + pos);
    if (len == kWrapMark) {
      tail += to_end;
      continue;
    }
    return len;
  }
}

bool RingBuffer::empty() const noexcept {
  return header_->head.load(std::memory_order_acquire) ==
         header_->tail.load(std::memory_order_acquire);
}

std::size_t RingBuffer::bytes_used() const noexcept {
  return static_cast<std::size_t>(header_->head.load(std::memory_order_acquire) -
                                  header_->tail.load(std::memory_order_acquire));
}

RingStats RingBuffer::stats() const noexcept {
  RingStats s;
  s.pushed = header_->pushed.load(std::memory_order_relaxed);
  s.popped = header_->popped.load(std::memory_order_relaxed);
  s.dropped = header_->dropped.load(std::memory_order_relaxed);
  s.bytes_pushed = header_->bytes_pushed.load(std::memory_order_relaxed);
  return s;
}

}  // namespace brisk::shm
