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

RunResult Sink::accept_run(std::span<const sensors::Record> run) {
  RunResult result;
  for (const sensors::Record& record : run) {
    Status st = accept(record);
    if (st.is_ok()) {
      ++result.accepted;
    } else if (result.status.is_ok()) {
      result.status = std::move(st);
    }
  }
  return result;
}

RunResult ShmSink::accept_run(std::span<const sensors::Record> run) {
  RunResult result;
  std::uint64_t refused = 0;
  // Encoded on the stack like a NOTICE: no heap traffic on the merger thread.
  std::array<std::uint8_t, kMaxOutputRecordBytes> buf;
  for (const sensors::Record& record : run) {
    auto encoded = encode_output_into(record, buf);
    if (!encoded) {
      if (result.status.is_ok()) result.status = encoded.status();
    } else if (!ring_.stage(encoded.value())) {
      ++refused;
      if (result.status.is_ok()) result.status = Status(Errc::buffer_full, "output ring full");
    } else {
      ++result.accepted;
    }
  }
  // The consumer sees the run at once: one store of head, one bump of each
  // ring counter.
  ring_.publish();
  if (result.accepted != 0) delivered_.fetch_add(result.accepted, std::memory_order_relaxed);
  if (refused != 0) dropped_.fetch_add(refused, std::memory_order_relaxed);
  return result;
}

}  // namespace brisk::ism
