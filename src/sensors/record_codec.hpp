// Native (in-node) binary record encoding.
//
// This is the "binary structure used by the NOTICE macros": the format the
// internal sensors write into the shared-memory ring, and the format the
// ISM writes into its shared-memory output buffer for consumer tools. It is
// host-endian and unpadded — it never crosses a machine boundary; the
// transfer protocol (src/tp) transcodes it to XDR for the network.
//
// Layout:
//   u32 sensor_id | u64 sequence | i64 timestamp_us | u8 nfields | u8 flags
//   then per field: u8 type | payload
//   payload: fixed native width per type (field.hpp); x_string: u8 len + bytes.
//
// If bit 0 of the flags byte (kNativeFlagTrace) is set, a trace annotation
// tail follows the last field:
//   u64 trace_id | u8 nstamps | nstamps x (u8 stage | i64 at_us)
// Records without the flag are byte-identical to the pre-tracing format
// (the flags byte was previously reserved-zero).
//
// RecordWriter is the allocation-free fast path used by the NOTICE macros:
// it formats a record into a caller-provided (stack) buffer.
#pragma once

#include <cstring>
#include <vector>

#include "common/byte_buffer.hpp"
#include "sensors/record.hpp"

namespace brisk::sensors {

inline constexpr std::size_t kNativeHeaderBytes = 22;
/// Offset of the i64 timestamp within the native header (EXS patches it).
inline constexpr std::size_t kNativeTimestampOffset = 12;
/// Offset of the flags byte within the native header.
inline constexpr std::size_t kNativeFlagsOffset = 21;
/// Flags bit: a trace annotation tail follows the fields.
inline constexpr std::uint8_t kNativeFlagTrace = 0x01;
/// Bytes per (stage, timestamp) stamp in the annotation tail.
inline constexpr std::size_t kNativeTraceStampBytes = 9;
/// Upper bound for a full annotation tail.
inline constexpr std::size_t kMaxNativeTraceBytes =
    8 + 1 + kMaxTraceStamps * kNativeTraceStampBytes;
/// Generous upper bound for one native record (16 string fields maxed out
/// plus a full trace annotation tail).
inline constexpr std::size_t kMaxNativeRecordBytes =
    kNativeHeaderBytes + kMaxFieldsPerRecord * (2 + kMaxStringFieldBytes) +
    kMaxNativeTraceBytes;

class RecordWriter {
 public:
  /// Formats into `buffer`; the buffer must outlive the writer.
  explicit RecordWriter(MutableByteSpan buffer) noexcept : buf_(buffer) {}

  /// Starts a record. Returns false if the buffer cannot hold a header.
  bool begin(SensorId sensor, SequenceNo sequence, TimeMicros timestamp) noexcept;

  bool add_i8(std::int8_t v) noexcept { return add_fixed(FieldType::x_i8, &v, 1); }
  bool add_u8(std::uint8_t v) noexcept { return add_fixed(FieldType::x_u8, &v, 1); }
  bool add_i16(std::int16_t v) noexcept { return add_fixed(FieldType::x_i16, &v, 2); }
  bool add_u16(std::uint16_t v) noexcept { return add_fixed(FieldType::x_u16, &v, 2); }
  bool add_i32(std::int32_t v) noexcept { return add_fixed(FieldType::x_i32, &v, 4); }
  bool add_u32(std::uint32_t v) noexcept { return add_fixed(FieldType::x_u32, &v, 4); }
  bool add_i64(std::int64_t v) noexcept { return add_fixed(FieldType::x_i64, &v, 8); }
  bool add_u64(std::uint64_t v) noexcept { return add_fixed(FieldType::x_u64, &v, 8); }
  bool add_f32(float v) noexcept { return add_fixed(FieldType::x_f32, &v, 4); }
  bool add_f64(double v) noexcept { return add_fixed(FieldType::x_f64, &v, 8); }
  bool add_char(char v) noexcept { return add_fixed(FieldType::x_char, &v, 1); }
  bool add_string(std::string_view v) noexcept;
  bool add_ts(TimeMicros v) noexcept { return add_fixed(FieldType::x_ts, &v, 8); }
  bool add_reason(CausalId id) noexcept { return add_fixed(FieldType::x_reason, &id, 4); }
  bool add_conseq(CausalId id) noexcept { return add_fixed(FieldType::x_conseq, &id, 4); }

  /// Appends a decoded Field (slow path, used by tools and tests).
  bool add_field(const Field& field) noexcept;

  /// Opens a trace annotation tail. Must come after the last field — adding
  /// fields after this fails the writer. Sets the trace flag bit.
  bool begin_trace(std::uint64_t trace_id) noexcept;
  /// Appends one stamp to an open annotation tail.
  bool add_trace_stamp(TraceStage stage, TimeMicros at) noexcept;

  /// Finishes the record and returns the encoded bytes, or an error if any
  /// add_* failed (overflow / too many fields).
  Result<ByteSpan> finish() noexcept;

  [[nodiscard]] std::size_t field_count() const noexcept { return nfields_; }

 private:
  bool add_fixed(FieldType type, const void* payload, std::size_t len) noexcept;
  bool reserve(std::size_t len) noexcept;

  MutableByteSpan buf_;
  std::size_t pos_ = 0;
  std::size_t nfields_ = 0;
  std::size_t trace_count_pos_ = 0;  // 0 = no annotation open
  bool failed_ = false;
};

/// Encodes a decoded Record (minus its node id, which travels in the batch
/// header) into the native format, in `out`, with no heap allocation.
/// Returns the encoded prefix of `out`; Errc::buffer_full if the record has
/// too many or too large fields or trace stamps, or does not fit in `out`
/// (kMaxNativeRecordBytes always fits a valid record).
Result<ByteSpan> encode_native_into(const Record& record, MutableByteSpan out);

/// encode_native_into, copied into an exact-size buffer (one allocation).
Result<ByteBuffer> encode_native(const Record& record);

/// Decodes a native record. `node` is supplied by the caller (from the
/// batch/ring context).
Result<Record> decode_native(ByteSpan bytes, NodeId node = 0);

/// In-place timestamp patch: adds `delta` to the header timestamp, every
/// x_ts field, and every trace stamp of a native-encoded record. This is
/// what the EXS does when it applies the clock-sync correction without
/// fully decoding the record.
Status patch_native_timestamps(MutableByteSpan bytes, TimeMicros delta) noexcept;

/// True if the native record carries a trace annotation tail (flags bit).
[[nodiscard]] bool native_trace_present(ByteSpan bytes) noexcept;

/// Appends one stamp to the annotation tail of a traced native record
/// (grows `bytes` by kNativeTraceStampBytes). No-op success on untraced
/// records; Errc::buffer_full once the tail holds kMaxTraceStamps stamps.
Status stamp_native_trace(std::vector<std::uint8_t>& bytes, TraceStage stage,
                          TimeMicros at);

}  // namespace brisk::sensors
