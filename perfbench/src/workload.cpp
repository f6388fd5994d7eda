#include "workload.hpp"

#include <algorithm>
#include <tuple>

namespace perfbench {

using brisk::sensors::Field;
using brisk::sensors::Record;

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "steady") return Workload::steady;
  if (name == "firehose") return Workload::firehose;
  if (name == "tree") return Workload::tree;
  return std::nullopt;
}

const char* workload_name(Workload workload) noexcept {
  switch (workload) {
    case Workload::steady: return "steady";
    case Workload::firehose: return "firehose";
    case Workload::tree: return "tree";
  }
  return "?";
}

brisk::SensorId sensor_of(Kind kind) noexcept {
  switch (kind) {
    case Kind::data: return kDataSensor;
    case Kind::reason: return kReasonSensor;
    case Kind::conseq: return kConseqSensor;
  }
  return kDataSensor;
}

bool is_data_sensor(brisk::SensorId sensor) noexcept {
  return sensor == kDataSensor || sensor == kReasonSensor || sensor == kConseqSensor;
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace {

std::uint64_t draw(std::uint64_t seed, std::uint32_t node, std::uint64_t index,
                   std::uint64_t salt) noexcept {
  return mix64(mix64(seed ^ (salt << 56)) ^ (static_cast<std::uint64_t>(node) << 40) ^ index);
}

}  // namespace

std::array<std::int32_t, 3> payload(std::uint64_t seed, std::uint32_t node,
                                    std::uint32_t seq) noexcept {
  const std::uint64_t a = draw(seed, node, seq, 1);
  const std::uint64_t b = draw(seed, node, seq, 2);
  return {static_cast<std::int32_t>(a), static_cast<std::int32_t>(a >> 32),
          static_cast<std::int32_t>(b)};
}

std::vector<Event> paced_schedule(std::uint64_t seed, std::int64_t duration_us) {
  const std::int64_t mean_gap = 1'000'000 / kPacedRatePerNode;
  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(duration_us / mean_gap * kNodes * 102 / 100));
  for (std::uint32_t node = 1; node <= kNodes; ++node) {
    // Gaps uniform in [mean/2, 3*mean/2], a seed-derived phase per node.
    std::int64_t t = static_cast<std::int64_t>(draw(seed, node, 0, 3) %
                                               static_cast<std::uint64_t>(mean_gap));
    for (std::uint64_t k = 0; t < duration_us; ++k) {
      const std::uint64_t r = draw(seed, node, k, 4);
      if (r % kCrePairEvery == 0) {
        const auto cid = static_cast<brisk::CausalId>((node << 24) | (k & 0xFFFFFF));
        events.push_back(Event{t, node, 0, Kind::reason, cid});
        const std::int64_t conseq_due = t - 50 + static_cast<std::int64_t>((r >> 16) % 200);
        if (conseq_due >= 0 && conseq_due < duration_us) {
          events.push_back(Event{conseq_due, node % kNodes + 1, 0, Kind::conseq, cid});
        } else {
          events.back().kind = Kind::data;  // no room for the pair: plain record
          events.back().cid = 0;
        }
      } else {
        events.push_back(Event{t, node, 0, Kind::data, 0});
      }
      t += mean_gap / 2 + static_cast<std::int64_t>((r >> 8) % static_cast<std::uint64_t>(mean_gap + 1));
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.due_us, a.node, a.kind, a.cid) < std::tie(b.due_us, b.node, b.kind, b.cid);
  });
  std::array<std::uint32_t, kNodes + 1> next_seq{};
  for (Event& e : events) e.seq = next_seq[e.node]++;
  return events;
}

Event firehose_event(std::uint32_t node, std::uint32_t seq) noexcept {
  return Event{static_cast<std::int64_t>(seq / kFirehoseTrialRecords), node, seq, Kind::data, 0};
}

std::uint64_t schedule_digest(std::uint64_t seed, const std::vector<Event>& events) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto feed = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const Event& e : events) {
    feed(static_cast<std::uint64_t>(e.due_us));
    feed((static_cast<std::uint64_t>(e.node) << 32) | e.seq);
    feed((static_cast<std::uint64_t>(e.kind) << 32) | e.cid);
    for (std::int32_t word : payload(seed, e.node, e.seq)) feed(static_cast<std::uint32_t>(word));
  }
  return h;
}

std::uint64_t input_digest(Workload workload, std::uint64_t seed, std::int64_t duration_us) {
  if (workload != Workload::firehose) return schedule_digest(seed, paced_schedule(seed, duration_us));
  std::vector<Event> trial;
  trial.reserve(std::size_t{kFirehoseTrialRecords} * kNodes);
  for (std::uint32_t seq = 0; seq < kFirehoseTrialRecords; ++seq) {
    for (std::uint32_t node = 1; node <= kNodes; ++node) trial.push_back(firehose_event(node, seq));
  }
  return schedule_digest(seed, trial);
}

bool notice(brisk::sensors::Sensor& sensor, std::uint64_t seed, const Event& event) noexcept {
  using namespace brisk::sensors;  // NOLINT
  const auto p = payload(seed, event.node, event.seq);
  const auto node = static_cast<std::int32_t>(event.node);
  const auto seq = static_cast<std::int32_t>(event.seq);
  const auto due = static_cast<std::int32_t>(event.due_us);
  switch (event.kind) {
    case Kind::data:
      return BRISK_NOTICE(sensor, kDataSensor, x_i32(node), x_i32(seq), x_i32(due), x_i32(p[0]),
                          x_i32(p[1]), x_i32(p[2]));
    case Kind::reason:
      return BRISK_NOTICE(sensor, kReasonSensor, x_i32(node), x_i32(seq), x_i32(due), x_i32(p[0]),
                          x_i32(p[1]), x_i32(p[2]), x_reason(event.cid));
    case Kind::conseq:
      return BRISK_NOTICE(sensor, kConseqSensor, x_i32(node), x_i32(seq), x_i32(due), x_i32(p[0]),
                          x_i32(p[1]), x_i32(p[2]), x_conseq(event.cid));
  }
  return false;
}

Record make_record(std::uint64_t seed, const Event& event, brisk::TimeMicros ts) {
  const auto p = payload(seed, event.node, event.seq);
  Record record;
  record.node = event.node;
  record.sensor = sensor_of(event.kind);
  record.timestamp = ts;
  record.fields = {Field::i32(static_cast<std::int32_t>(event.node)),
                   Field::i32(static_cast<std::int32_t>(event.seq)),
                   Field::i32(static_cast<std::int32_t>(event.due_us)),
                   Field::i32(p[0]),
                   Field::i32(p[1]),
                   Field::i32(p[2])};
  if (event.kind == Kind::reason) record.fields.push_back(Field::reason(event.cid));
  if (event.kind == Kind::conseq) record.fields.push_back(Field::conseq(event.cid));
  return record;
}

}  // namespace perfbench
