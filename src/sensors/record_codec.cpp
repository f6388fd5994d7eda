#include "sensors/record_codec.hpp"

#include <array>

namespace brisk::sensors {
namespace {

template <typename T>
void store(std::uint8_t* at, T value) noexcept {
  std::memcpy(at, &value, sizeof value);
}

template <typename T>
T load(const std::uint8_t* at) noexcept {
  T value;
  std::memcpy(&value, at, sizeof value);
  return value;
}

// Walks the field region of a native record and returns the offset of the
// first byte after the last field (where the trace tail, if any, starts).
Result<std::size_t> native_fields_end(ByteSpan bytes) {
  if (bytes.size() < kNativeHeaderBytes) return Status(Errc::truncated, "native header");
  const std::uint8_t nfields = bytes[20];
  if (nfields > kMaxFieldsPerRecord) return Status(Errc::malformed, "field count");
  std::size_t pos = kNativeHeaderBytes;
  for (std::uint8_t i = 0; i < nfields; ++i) {
    if (pos >= bytes.size()) return Status(Errc::truncated, "field type");
    const std::uint8_t raw_type = bytes[pos++];
    if (!field_type_valid(raw_type)) return Status(Errc::malformed, "field type tag");
    const auto type = static_cast<FieldType>(raw_type);
    if (type == FieldType::x_string) {
      if (pos >= bytes.size()) return Status(Errc::truncated, "string length");
      const std::uint8_t len = bytes[pos++];
      if (pos + len > bytes.size()) return Status(Errc::truncated, "string body");
      pos += len;
      continue;
    }
    const std::size_t width = native_payload_size(type);
    if (pos + width > bytes.size()) return Status(Errc::truncated, "field body");
    pos += width;
  }
  return pos;
}

}  // namespace

bool RecordWriter::reserve(std::size_t len) noexcept {
  if (failed_ || pos_ + len > buf_.size()) {
    failed_ = true;
    return false;
  }
  return true;
}

bool RecordWriter::begin(SensorId sensor, SequenceNo sequence, TimeMicros timestamp) noexcept {
  pos_ = 0;
  nfields_ = 0;
  trace_count_pos_ = 0;
  failed_ = false;
  if (!reserve(kNativeHeaderBytes)) return false;
  store<std::uint32_t>(buf_.data(), sensor);
  store<std::uint64_t>(buf_.data() + 4, sequence);
  store<std::int64_t>(buf_.data() + kNativeTimestampOffset, timestamp);
  buf_[20] = 0;                      // nfields, patched in finish()
  buf_[kNativeFlagsOffset] = 0;      // flags
  pos_ = kNativeHeaderBytes;
  return true;
}

bool RecordWriter::add_fixed(FieldType type, const void* payload, std::size_t len) noexcept {
  if (nfields_ >= kMaxFieldsPerRecord || trace_count_pos_ != 0) {
    failed_ = true;
    return false;
  }
  if (!reserve(1 + len)) return false;
  buf_[pos_] = static_cast<std::uint8_t>(type);
  std::memcpy(buf_.data() + pos_ + 1, payload, len);
  pos_ += 1 + len;
  ++nfields_;
  return true;
}

bool RecordWriter::add_string(std::string_view v) noexcept {
  if (nfields_ >= kMaxFieldsPerRecord || v.size() > kMaxStringFieldBytes ||
      trace_count_pos_ != 0) {
    failed_ = true;
    return false;
  }
  if (!reserve(2 + v.size())) return false;
  buf_[pos_] = static_cast<std::uint8_t>(FieldType::x_string);
  buf_[pos_ + 1] = static_cast<std::uint8_t>(v.size());
  std::memcpy(buf_.data() + pos_ + 2, v.data(), v.size());
  pos_ += 2 + v.size();
  ++nfields_;
  return true;
}

bool RecordWriter::add_field(const Field& field) noexcept {
  switch (field.type()) {
    case FieldType::x_i8: return add_i8(static_cast<std::int8_t>(field.as_signed()));
    case FieldType::x_u8: return add_u8(static_cast<std::uint8_t>(field.as_unsigned()));
    case FieldType::x_i16: return add_i16(static_cast<std::int16_t>(field.as_signed()));
    case FieldType::x_u16: return add_u16(static_cast<std::uint16_t>(field.as_unsigned()));
    case FieldType::x_i32: return add_i32(static_cast<std::int32_t>(field.as_signed()));
    case FieldType::x_u32: return add_u32(static_cast<std::uint32_t>(field.as_unsigned()));
    case FieldType::x_i64: return add_i64(field.as_signed());
    case FieldType::x_u64: return add_u64(field.as_unsigned());
    case FieldType::x_f32: return add_f32(static_cast<float>(field.as_double()));
    case FieldType::x_f64: return add_f64(field.as_double());
    case FieldType::x_char: return add_char(static_cast<char>(field.as_signed()));
    case FieldType::x_string: return add_string(field.as_string());
    case FieldType::x_ts: return add_ts(field.as_timestamp());
    case FieldType::x_reason: return add_reason(field.as_causal_id());
    case FieldType::x_conseq: return add_conseq(field.as_causal_id());
  }
  failed_ = true;
  return false;
}

bool RecordWriter::begin_trace(std::uint64_t trace_id) noexcept {
  if (failed_ || pos_ < kNativeHeaderBytes || trace_count_pos_ != 0) {
    failed_ = true;
    return false;
  }
  if (!reserve(8 + 1)) return false;
  buf_[kNativeFlagsOffset] |= kNativeFlagTrace;
  store<std::uint64_t>(buf_.data() + pos_, trace_id);
  trace_count_pos_ = pos_ + 8;
  buf_[trace_count_pos_] = 0;
  pos_ += 9;
  return true;
}

bool RecordWriter::add_trace_stamp(TraceStage stage, TimeMicros at) noexcept {
  if (failed_ || trace_count_pos_ == 0 || buf_[trace_count_pos_] >= kMaxTraceStamps) {
    failed_ = true;
    return false;
  }
  if (!reserve(kNativeTraceStampBytes)) return false;
  buf_[pos_] = static_cast<std::uint8_t>(stage);
  store<std::int64_t>(buf_.data() + pos_ + 1, at);
  pos_ += kNativeTraceStampBytes;
  ++buf_[trace_count_pos_];
  return true;
}

Result<ByteSpan> RecordWriter::finish() noexcept {
  if (failed_) return Status(Errc::buffer_full, "record overflowed writer buffer");
  if (pos_ < kNativeHeaderBytes) return Status(Errc::internal, "finish before begin");
  buf_[20] = static_cast<std::uint8_t>(nfields_);
  return ByteSpan{buf_.data(), pos_};
}

Result<ByteSpan> encode_native_into(const Record& record, MutableByteSpan out) {
  RecordWriter writer(out);
  if (!writer.begin(record.sensor, record.sequence, record.timestamp)) {
    return Status(Errc::buffer_full, "header");
  }
  for (const Field& f : record.fields) {
    if (!writer.add_field(f)) {
      return Status(Errc::buffer_full, "too many / too large fields");
    }
  }
  if (record.trace) {
    if (!writer.begin_trace(record.trace->trace_id)) {
      return Status(Errc::buffer_full, "trace annotation");
    }
    for (const TraceStamp& s : record.trace->stamps) {
      if (!writer.add_trace_stamp(s.stage, s.at)) {
        return Status(Errc::buffer_full, "too many trace stamps");
      }
    }
  }
  return writer.finish();
}

Result<ByteBuffer> encode_native(const Record& record) {
  std::array<std::uint8_t, kMaxNativeRecordBytes> buf;
  auto bytes = encode_native_into(record, buf);
  if (!bytes) return bytes.status();
  return ByteBuffer(bytes.value());
}

Result<Record> decode_native(ByteSpan bytes, NodeId node) {
  if (bytes.size() < kNativeHeaderBytes) return Status(Errc::truncated, "native header");
  Record record;
  record.node = node;
  record.sensor = load<std::uint32_t>(bytes.data());
  record.sequence = load<std::uint64_t>(bytes.data() + 4);
  record.timestamp = load<std::int64_t>(bytes.data() + kNativeTimestampOffset);
  const std::uint8_t nfields = bytes[20];
  if (nfields > kMaxFieldsPerRecord) return Status(Errc::malformed, "field count");

  std::size_t pos = kNativeHeaderBytes;
  record.fields.reserve(nfields);
  for (std::uint8_t i = 0; i < nfields; ++i) {
    if (pos >= bytes.size()) return Status(Errc::truncated, "field type");
    const std::uint8_t raw_type = bytes[pos++];
    if (!field_type_valid(raw_type)) return Status(Errc::malformed, "field type tag");
    const auto type = static_cast<FieldType>(raw_type);
    if (type == FieldType::x_string) {
      if (pos >= bytes.size()) return Status(Errc::truncated, "string length");
      const std::uint8_t len = bytes[pos++];
      if (pos + len > bytes.size()) return Status(Errc::truncated, "string body");
      record.fields.push_back(
          Field::str({reinterpret_cast<const char*>(bytes.data() + pos), len}));
      pos += len;
      continue;
    }
    const std::size_t width = native_payload_size(type);
    if (pos + width > bytes.size()) return Status(Errc::truncated, "field body");
    const std::uint8_t* p = bytes.data() + pos;
    pos += width;
    switch (type) {
      case FieldType::x_i8: record.fields.push_back(Field::i8(load<std::int8_t>(p))); break;
      case FieldType::x_u8: record.fields.push_back(Field::u8(load<std::uint8_t>(p))); break;
      case FieldType::x_i16: record.fields.push_back(Field::i16(load<std::int16_t>(p))); break;
      case FieldType::x_u16: record.fields.push_back(Field::u16(load<std::uint16_t>(p))); break;
      case FieldType::x_i32: record.fields.push_back(Field::i32(load<std::int32_t>(p))); break;
      case FieldType::x_u32: record.fields.push_back(Field::u32(load<std::uint32_t>(p))); break;
      case FieldType::x_i64: record.fields.push_back(Field::i64(load<std::int64_t>(p))); break;
      case FieldType::x_u64: record.fields.push_back(Field::u64(load<std::uint64_t>(p))); break;
      case FieldType::x_f32: record.fields.push_back(Field::f32(load<float>(p))); break;
      case FieldType::x_f64: record.fields.push_back(Field::f64(load<double>(p))); break;
      case FieldType::x_char: record.fields.push_back(Field::ch(load<char>(p))); break;
      case FieldType::x_ts: record.fields.push_back(Field::ts(load<std::int64_t>(p))); break;
      case FieldType::x_reason:
        record.fields.push_back(Field::reason(load<std::uint32_t>(p)));
        break;
      case FieldType::x_conseq:
        record.fields.push_back(Field::conseq(load<std::uint32_t>(p)));
        break;
      case FieldType::x_string: break;  // handled above
    }
  }
  const std::uint8_t flags = bytes[kNativeFlagsOffset];
  if ((flags & ~kNativeFlagTrace) != 0) return Status(Errc::malformed, "record flags");
  if (flags & kNativeFlagTrace) {
    if (pos + 8 + 1 > bytes.size()) return Status(Errc::truncated, "trace tail");
    TraceAnnotation annotation;
    annotation.trace_id = load<std::uint64_t>(bytes.data() + pos);
    pos += 8;
    const std::uint8_t nstamps = bytes[pos++];
    if (nstamps > kMaxTraceStamps) return Status(Errc::malformed, "trace stamp count");
    annotation.stamps.reserve(nstamps);
    for (std::uint8_t i = 0; i < nstamps; ++i) {
      if (pos + kNativeTraceStampBytes > bytes.size()) {
        return Status(Errc::truncated, "trace stamp");
      }
      const std::uint8_t raw_stage = bytes[pos];
      if (raw_stage >= kTraceStageCount) return Status(Errc::malformed, "trace stage");
      annotation.stamps.push_back(TraceStamp{static_cast<TraceStage>(raw_stage),
                                             load<std::int64_t>(bytes.data() + pos + 1)});
      pos += kNativeTraceStampBytes;
    }
    record.trace = std::move(annotation);
  }
  if (pos != bytes.size()) return Status(Errc::malformed, "trailing bytes after record");
  return record;
}

Status patch_native_timestamps(MutableByteSpan bytes, TimeMicros delta) noexcept {
  if (bytes.size() < kNativeHeaderBytes) return Status(Errc::truncated, "native header");
  const auto ts = load<std::int64_t>(bytes.data() + kNativeTimestampOffset);
  store<std::int64_t>(bytes.data() + kNativeTimestampOffset, ts + delta);

  const std::uint8_t nfields = bytes[20];
  std::size_t pos = kNativeHeaderBytes;
  for (std::uint8_t i = 0; i < nfields; ++i) {
    if (pos >= bytes.size()) return Status(Errc::truncated, "field type");
    const std::uint8_t raw_type = bytes[pos++];
    if (!field_type_valid(raw_type)) return Status(Errc::malformed, "field type tag");
    const auto type = static_cast<FieldType>(raw_type);
    if (type == FieldType::x_string) {
      if (pos >= bytes.size()) return Status(Errc::truncated, "string length");
      const std::uint8_t len = bytes[pos++];
      if (pos + len > bytes.size()) return Status(Errc::truncated, "string body");
      pos += len;
      continue;
    }
    const std::size_t width = native_payload_size(type);
    if (pos + width > bytes.size()) return Status(Errc::truncated, "field body");
    if (type == FieldType::x_ts) {
      const auto embedded = load<std::int64_t>(bytes.data() + pos);
      store<std::int64_t>(bytes.data() + pos, embedded + delta);
    }
    pos += width;
  }
  if (bytes[kNativeFlagsOffset] & kNativeFlagTrace) {
    if (pos + 8 + 1 > bytes.size()) return Status(Errc::truncated, "trace tail");
    pos += 8;  // trace id
    const std::uint8_t nstamps = bytes[pos++];
    for (std::uint8_t i = 0; i < nstamps; ++i) {
      if (pos + kNativeTraceStampBytes > bytes.size()) {
        return Status(Errc::truncated, "trace stamp");
      }
      const auto at = load<std::int64_t>(bytes.data() + pos + 1);
      store<std::int64_t>(bytes.data() + pos + 1, at + delta);
      pos += kNativeTraceStampBytes;
    }
  }
  return Status::ok();
}

bool native_trace_present(ByteSpan bytes) noexcept {
  return bytes.size() >= kNativeHeaderBytes &&
         (bytes[kNativeFlagsOffset] & kNativeFlagTrace) != 0;
}

Status stamp_native_trace(std::vector<std::uint8_t>& bytes, TraceStage stage, TimeMicros at) {
  if (!native_trace_present({bytes.data(), bytes.size()})) return Status::ok();
  auto fields_end = native_fields_end({bytes.data(), bytes.size()});
  if (!fields_end) return fields_end.status();
  const std::size_t count_pos = fields_end.value() + 8;
  if (count_pos >= bytes.size()) return Status(Errc::truncated, "trace tail");
  if (bytes[count_pos] >= kMaxTraceStamps) {
    return Status(Errc::buffer_full, "trace stamp count");
  }
  ++bytes[count_pos];
  const std::size_t stamp_pos = bytes.size();
  bytes.resize(stamp_pos + kNativeTraceStampBytes);
  bytes[stamp_pos] = static_cast<std::uint8_t>(stage);
  store<std::int64_t>(bytes.data() + stamp_pos + 1, at);
  return Status::ok();
}

}  // namespace brisk::sensors
