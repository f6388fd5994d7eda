// ISM output stage: where sorted records go.
//
// "The default output mode of the ISM is writing to a memory [buffer],
// which is then read by instrumentation data consumer tools. Besides
// writing to memory, the BRISK ISM may log instrumentation data to trace
// files in the PICL ASCII format, or it may pass instrumentation data to a
// list of CORBA-enabled visual objects." All three output paths implement
// the one Sink interface; the ConsumerGateway (ism/gateway.hpp) fans every
// sorted record out to any number of them.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "picl/picl_writer.hpp"
#include "sensors/record.hpp"
#include "sensors/record_codec.hpp"
#include "shm/ring_buffer.hpp"

namespace brisk::ism {

/// What a sink did with a run: how many records it took, and the first
/// refusal or error (ok when it took them all).
struct RunResult {
  std::size_t accepted = 0;
  Status status;
};

/// One output path for sorted records. The pipeline hands its released
/// records over in runs through accept_run(); accept() takes one record.
/// flush() is called on idle cycles and at shutdown.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual Status accept(const sensors::Record& record) = 0;
  /// A run of consecutive records in delivery order. Sinks with per-record
  /// bookkeeping override it to pay that once per run; the default takes the
  /// records one accept() at a time and keeps going past a refusal.
  virtual RunResult accept_run(std::span<const sensors::Record> run);
  virtual Status flush() { return Status::ok(); }
  /// Advance notice of the merge's release watermark (the timestamp below
  /// which no further record will be delivered). Called from the ordering
  /// thread on idle cycles; time-windowed sinks (the consumer gateway's
  /// aggregation subscriptions) use it to close windows during lulls
  /// without risking a late record landing behind a closed window.
  virtual void tick(TimeMicros watermark) { (void)watermark; }
  /// Shutdown path, called once after the pipeline has drained: complete
  /// all deferred work (close aggregation windows, flush fan-out queues to
  /// connected consumers) before the process exits. Defaults to flush().
  virtual Status drain() { return flush(); }
  /// Stable identifier for diagnostics.
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Default output: native-encoded records into a shared-memory ring that
/// consumer tools read ("using the same binary structure used by the NOTICE
/// macros"). Node ids are preserved by prefixing each payload with the
/// 4-byte node id.
class ShmSink final : public Sink {
 public:
  explicit ShmSink(shm::RingBuffer ring) : ring_(ring) {}

  Status accept(const sensors::Record& record) override { return accept_run({&record, 1}).status; }
  /// Encodes and stages each record, then publishes the run to the ring at
  /// once; a record the full ring refuses counts as dropped and the rest of
  /// the run is still tried.
  RunResult accept_run(std::span<const sensors::Record> run) override;
  [[nodiscard]] const char* name() const noexcept override { return "shm"; }

  // accept_run() runs on the merger thread when the pipeline is sharded while
  // stats readers poll from the ordering thread, so the counters are atomic;
  // each is bumped once per run.
  [[nodiscard]] std::uint64_t delivered() const noexcept {
    return delivered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  shm::RingBuffer ring_;
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// PICL ASCII trace file output.
class PiclFileSink final : public Sink {
 public:
  explicit PiclFileSink(picl::PiclWriter writer) : writer_(std::move(writer)) {}

  Status accept(const sensors::Record& record) override { return writer_.write(record); }
  Status flush() override { return writer_.flush(); }
  [[nodiscard]] const char* name() const noexcept override { return "picl"; }

  [[nodiscard]] picl::PiclWriter& writer() noexcept { return writer_; }

 private:
  picl::PiclWriter writer_;
};

/// In-process consumer callback (tests, embedded consumers).
class CallbackSink final : public Sink {
 public:
  using Fn = std::function<void(const sensors::Record&)>;
  explicit CallbackSink(Fn fn) : fn_(std::move(fn)) {}

  Status accept(const sensors::Record& record) override {
    fn_(record);
    return Status::ok();
  }
  [[nodiscard]] const char* name() const noexcept override { return "callback"; }

 private:
  Fn fn_;
};

/// Bytes of the node id prefix in front of each output-ring payload.
inline constexpr std::size_t kNodePrefixBytes = sizeof(NodeId);
/// Upper bound for one output-ring payload.
inline constexpr std::size_t kMaxOutputRecordBytes =
    kNodePrefixBytes + sensors::kMaxNativeRecordBytes;

/// Encodes a record (with its node id prefix) as placed in the output ring,
/// into `out`, with no heap allocation. Returns the encoded prefix of `out`.
Result<ByteSpan> encode_output_into(const sensors::Record& record, MutableByteSpan out);
/// encode_output_into, copied into an exact-size buffer (one allocation).
Result<ByteBuffer> encode_output_record(const sensors::Record& record);
/// Decodes one output-ring payload back into a record.
Result<sensors::Record> decode_output_record(ByteSpan bytes);

}  // namespace brisk::ism
