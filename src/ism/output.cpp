#include "ism/output.hpp"

#include <cstring>

namespace brisk::ism {

Result<ByteBuffer> encode_output_record(const sensors::Record& record) {
  auto native = sensors::encode_native(record);
  if (!native) return native.status();
  ByteBuffer out;
  std::uint8_t node_prefix[4];
  std::memcpy(node_prefix, &record.node, 4);
  out.append(node_prefix, 4);
  out.append(native.value().view());
  return out;
}

Result<sensors::Record> decode_output_record(ByteSpan bytes) {
  if (bytes.size() < 4) return Status(Errc::truncated, "node prefix");
  NodeId node = 0;
  std::memcpy(&node, bytes.data(), 4);
  return sensors::decode_native(bytes.subspan(4), node);
}

Status ShmSink::accept(const sensors::Record& record) {
  auto encoded = encode_output_record(record);
  if (!encoded) return encoded.status();
  if (!ring_.try_push(encoded.value().view())) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return Status(Errc::buffer_full, "output ring full");
  }
  delivered_.fetch_add(1, std::memory_order_relaxed);
  return Status::ok();
}

}  // namespace brisk::ism
