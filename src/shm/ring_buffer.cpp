#include "shm/ring_buffer.hpp"

#include <cstring>
#include <new>

namespace brisk::shm {

namespace {

/// Adds to a counter only its owning side writes (the producer's pushed and
/// bytes_pushed, the consumer's popped): a plain load and store, no locked
/// read-modify-write. Readers on other threads still see whole values.
void bump_owned(std::atomic<std::uint64_t>& counter, std::uint64_t delta) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
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

void RingBuffer::write_bytes(std::uint64_t offset, ByteSpan bytes) noexcept {
  std::memcpy(data_ + offset % header_->capacity, bytes.data(), bytes.size());
}

void RingBuffer::read_bytes(std::uint64_t offset, void* out, std::size_t len) const noexcept {
  std::memcpy(out, data_ + offset % header_->capacity, len);
}

std::uint32_t RingBuffer::read_length(std::uint64_t offset) const noexcept {
  std::uint32_t len = 0;
  read_bytes(offset, &len, sizeof len);
  return len;
}

bool RingBuffer::try_push(ByteSpan record) noexcept {
  const std::uint64_t capacity = header_->capacity;
  const std::size_t need = kLengthBytes + record.size();
  if (need > capacity / 2) {
    header_->dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  const std::uint64_t head = header_->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
  const std::uint64_t pos = head % capacity;
  const std::uint64_t to_end = capacity - pos;

  // Bytes the producer cursor must advance: a record never straddles the
  // physical end of the data area, so a short tail segment is padded out
  // (with a wrap mark when there is room for one).
  const std::uint64_t skip = (to_end < need) ? to_end : 0;
  const std::uint64_t total = skip + need;
  if (total > capacity - (head - tail)) {
    header_->dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  std::uint64_t write_at = head;
  if (skip != 0) {
    if (to_end >= kLengthBytes) {
      const std::uint32_t mark = kWrapMark;
      write_bytes(write_at, ByteSpan{reinterpret_cast<const std::uint8_t*>(&mark), sizeof mark});
    }
    write_at += skip;  // now at a physical offset of 0
  }
  const auto len = static_cast<std::uint32_t>(record.size());
  write_bytes(write_at, ByteSpan{reinterpret_cast<const std::uint8_t*>(&len), sizeof len});
  if (!record.empty()) write_bytes(write_at + kLengthBytes, record);

  bump_owned(header_->pushed, 1);
  bump_owned(header_->bytes_pushed, record.size());
  header_->head.store(head + total, std::memory_order_release);
  return true;
}

bool RingBuffer::try_pop(std::vector<std::uint8_t>& out) {
  const std::uint64_t capacity = header_->capacity;
  std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);

  for (;;) {
    const std::uint64_t head = header_->head.load(std::memory_order_acquire);
    if (tail == head) {
      header_->tail.store(tail, std::memory_order_release);
      return false;
    }
    const std::uint64_t pos = tail % capacity;
    const std::uint64_t to_end = capacity - pos;
    if (to_end < kLengthBytes) {
      tail += to_end;  // producer skipped a segment too short for a mark
      continue;
    }
    const std::uint32_t len = read_length(tail);
    if (len == kWrapMark) {
      tail += to_end;
      continue;
    }
    const std::size_t old_size = out.size();
    out.resize(old_size + len);
    if (len != 0) read_bytes(tail + kLengthBytes, out.data() + old_size, len);
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
    const std::uint32_t len = read_length(tail);
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
