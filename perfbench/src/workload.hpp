// Workload definitions shared by the load generator, the output checker and
// the layer replay: the record mix, the seed-derived open-loop schedule, and
// the per-record field values the checker recomputes.
//
// Every data record is the paper's 6 x i32 NOTICE:
//   (node, seq, due, p0, p1, p2)
// where `seq` is the record's index in its node's schedule, `due` is the
// due offset in microseconds from the start of the open loop (the trial
// number on `firehose`), and p0..p2 are derived from (seed, node, seq).
// A causally-marked record adds a seventh field, X_REASON or X_CONSEQ.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sensors/record.hpp"
#include "sensors/sensor.hpp"

namespace perfbench {

enum class Workload { steady, firehose, tree };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload workload) noexcept;

/// Producer nodes are 1..kNodes in every workload.
inline constexpr std::uint32_t kNodes = 4;
/// Open-loop rate per node on the paced workloads (steady, tree).
inline constexpr std::uint32_t kPacedRatePerNode = 25'000;
/// One base record in this many starts a cross-node reason/consequence
/// pair on the paced workloads (pairs are ~1% of all records).
inline constexpr std::uint32_t kCrePairEvery = 200;
/// Records per node in one firehose trial, issued in blocks of kBlock.
inline constexpr std::uint32_t kBlock = 256;
inline constexpr std::uint32_t kFirehoseTrialRecords = 800 * kBlock;
/// Latency samples skip records due in the first and the last part of the
/// open loop: sessions are still settling at the start, and at the end the
/// batches and relay lanes drain at the keep-alive rate instead of the
/// workload's.
inline constexpr std::int64_t kWarmupUs = 500'000;

/// Sensor ids of the data records (everything >= 0xFF00 is reserved).
inline constexpr brisk::SensorId kDataSensor = 100;
inline constexpr brisk::SensorId kReasonSensor = 101;
inline constexpr brisk::SensorId kConseqSensor = 102;
/// Keep-alive records the paced producer emits after its schedule while it
/// waits for delivery, so every relay watermark keeps advancing past the
/// last scheduled record. Not data: never checked or counted.
inline constexpr brisk::SensorId kFillerSensor = 103;

enum class Kind : std::uint8_t { data = 0, reason = 1, conseq = 2 };

brisk::SensorId sensor_of(Kind kind) noexcept;
bool is_data_sensor(brisk::SensorId sensor) noexcept;

/// splitmix64 finalizer.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// The seed-derived payload words of record (node, seq).
std::array<std::int32_t, 3> payload(std::uint64_t seed, std::uint32_t node,
                                    std::uint32_t seq) noexcept;

/// One scheduled NOTICE.
struct Event {
  std::int64_t due_us = 0;
  std::uint32_t node = 0;  // 1..kNodes
  std::uint32_t seq = 0;   // index in the node's schedule
  Kind kind = Kind::data;
  brisk::CausalId cid = 0;  // reason/consequence pairing id (0 for data)
};

/// The open-loop schedule of a paced workload: every node's records over
/// [0, duration_us), merged and sorted by due time. Inter-arrival gaps and
/// the reason/consequence pairs are drawn from the seed; each reason on node
/// n has its consequence on node n % kNodes + 1, due between 50 us before and
/// 150 us after the reason (the early ones are tachyons the ISM repairs).
std::vector<Event> paced_schedule(std::uint64_t seed, std::int64_t duration_us);

/// The firehose record for (node, seq): data only, `due` = trial number.
Event firehose_event(std::uint32_t node, std::uint32_t seq) noexcept;

/// FNV-1a over every event and its payload: the input schedule's identity.
std::uint64_t schedule_digest(std::uint64_t seed, const std::vector<Event>& events) noexcept;

/// Digest of a workload's inputs: the paced schedule over `duration_us`, or
/// the first firehose trial (every trial has the same shape).
std::uint64_t input_digest(Workload workload, std::uint64_t seed, std::int64_t duration_us);

/// Issues `event` through `sensor` (the NOTICE under test).
bool notice(brisk::sensors::Sensor& sensor, std::uint64_t seed, const Event& event) noexcept;

/// The decoded record a correct pipeline delivers for `event` (timestamp
/// `ts`); used by the replay and the checker self-test.
brisk::sensors::Record make_record(std::uint64_t seed, const Event& event, brisk::TimeMicros ts);

}  // namespace perfbench
