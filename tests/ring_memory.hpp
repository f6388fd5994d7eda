// Memory for a shm ring a test builds over its own storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace brisk::test {

/// Zeroed, 64-byte-aligned bytes for RingBuffer::init / MultiRing::init.
/// The ring header keeps its producer and consumer cursors on separate
/// cache lines, so it must start on one; a std::vector<std::uint8_t> gives
/// no such alignment, and UBSan reports every access through the header.
class RingMemory {
 public:
  RingMemory() = default;
  explicit RingMemory(std::size_t bytes) { resize(bytes); }

  void resize(std::size_t bytes) {
    lines_.resize((bytes + sizeof(Line) - 1) / sizeof(Line));
    bytes_ = bytes;
  }
  [[nodiscard]] std::uint8_t* data() noexcept {
    return reinterpret_cast<std::uint8_t*>(lines_.data());
  }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_; }

 private:
  struct alignas(64) Line {
    std::uint8_t bytes[64];
  };
  std::vector<Line> lines_;
  std::size_t bytes_ = 0;
};

}  // namespace brisk::test
