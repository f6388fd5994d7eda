#include "ism/output.hpp"

#include <array>
#include <cstring>

namespace brisk::ism {

Result<ByteSpan> encode_output_into(const sensors::Record& record, MutableByteSpan out) {
  if (out.size() < kNodePrefixBytes) return Status(Errc::buffer_full, "node prefix");
  std::memcpy(out.data(), &record.node, kNodePrefixBytes);
  auto native = sensors::encode_native_into(record, out.subspan(kNodePrefixBytes));
  if (!native) return native.status();
  return ByteSpan{out.data(), kNodePrefixBytes + native.value().size()};
}

Result<ByteBuffer> encode_output_record(const sensors::Record& record) {
  std::array<std::uint8_t, kMaxOutputRecordBytes> buf;
  auto bytes = encode_output_into(record, buf);
  if (!bytes) return bytes.status();
  return ByteBuffer(bytes.value());
}

Result<sensors::Record> decode_output_record(ByteSpan bytes) {
  if (bytes.size() < kNodePrefixBytes) return Status(Errc::truncated, "node prefix");
  NodeId node = 0;
  std::memcpy(&node, bytes.data(), kNodePrefixBytes);
  return sensors::decode_native(bytes.subspan(kNodePrefixBytes), node);
}

Status ShmSink::accept(const sensors::Record& record) {
  // Encoded on the stack like a NOTICE: no heap traffic on the merger thread.
  std::array<std::uint8_t, kMaxOutputRecordBytes> buf;
  auto encoded = encode_output_into(record, buf);
  if (!encoded) return encoded.status();
  if (!ring_.try_push(encoded.value())) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return Status(Errc::buffer_full, "output ring full");
  }
  delivered_.fetch_add(1, std::memory_order_relaxed);
  return Status::ok();
}

}  // namespace brisk::ism
