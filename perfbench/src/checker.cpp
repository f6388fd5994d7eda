#include "checker.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

using brisk::sensors::FieldType;
using brisk::sensors::Record;

bool CheckReport::ok(std::uint64_t accounted_loss, std::uint64_t accounted_sub_drops) const {
  std::uint64_t missing = 0;
  std::uint64_t extra = 0;
  for (std::uint64_t m : sub_missing) missing += m;
  for (std::uint64_t e : sub_extra) extra += e;
  return duplicates == 0 && corrupt == 0 && misrouted == 0 && cre_violations == 0 &&
         lost <= accounted_loss && extra == 0 && missing <= accounted_sub_drops;
}

std::string CheckReport::describe() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "issued=%llu delivered=%llu lost=%llu rejected=%llu duplicates=%llu "
                "corrupt=%llu misrouted=%llu inversions=%llu cre_pairs=%llu "
                "cre_violations=%llu",
                static_cast<unsigned long long>(issued), static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(lost), static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(duplicates),
                static_cast<unsigned long long>(corrupt),
                static_cast<unsigned long long>(misrouted),
                static_cast<unsigned long long>(inversions),
                static_cast<unsigned long long>(cre_pairs),
                static_cast<unsigned long long>(cre_violations));
  std::string out = buf + examples;
  for (std::size_t i = 0; i < sub_missing.size(); ++i) {
    std::snprintf(buf, sizeof buf, " sub%zu_missing=%llu sub%zu_extra=%llu", i,
                  static_cast<unsigned long long>(sub_missing[i]), i,
                  static_cast<unsigned long long>(sub_extra[i]));
    out += buf;
  }
  return out;
}

Checker::Checker(std::uint64_t seed, Lookup lookup,
                 std::vector<brisk::ism::SubscriptionFilter> filters)
    : seed_(seed),
      lookup_(std::move(lookup)),
      filters_(std::move(filters)),
      seen_(kNodes),
      rejected_(kNodes),
      sub_expected_(filters_.size()),
      sub_received_(filters_.size()) {}

namespace {

bool i32_field(const Record& record, std::size_t index, std::int32_t& out) {
  if (index >= record.fields.size() || record.fields[index].type() != FieldType::x_i32) {
    return false;
  }
  out = static_cast<std::int32_t>(record.fields[index].as_signed());
  return true;
}

/// (node, seq) named by a data record's own fields.
bool record_key(const Record& record, std::uint32_t& node, std::uint32_t& seq) {
  std::int32_t n = 0;
  std::int32_t s = 0;
  if (!i32_field(record, 0, n) || !i32_field(record, 1, s)) return false;
  if (n < 1 || n > static_cast<std::int32_t>(kNodes) || s < 0) return false;
  node = static_cast<std::uint32_t>(n);
  seq = static_cast<std::uint32_t>(s);
  return true;
}

void mark(std::vector<std::uint8_t>& cells, std::uint32_t seq, std::uint8_t& previous) {
  if (seq >= cells.size()) cells.resize(std::max<std::size_t>(seq + 1, cells.size() * 2), 0);
  previous = cells[seq];
  if (cells[seq] < 255) ++cells[seq];
}

}  // namespace

bool Checker::observe(const Record& record) {
  if (!is_data_sensor(record.sensor)) return false;
  const auto position = static_cast<std::int64_t>(data_records_++);

  if (have_prev_ && (record.timestamp < prev_ts_ ||
                     (record.timestamp == prev_ts_ && record.node < prev_node_))) {
    ++inversions_;
  }
  have_prev_ = true;
  prev_ts_ = record.timestamp;
  prev_node_ = record.node;

  for (std::size_t i = 0; i < filters_.size(); ++i) {
    std::uint32_t node = 0;
    std::uint32_t seq = 0;
    if (filters_[i].matches(record) && record_key(record, node, seq)) {
      sub_expected_[i].push_back(key(node, seq));
    }
  }

  std::uint32_t node = 0;
  std::uint32_t seq = 0;
  Event expected;
  if (!record_key(record, node, seq) || !lookup_(node, seq, expected)) {
    ++corrupt_;
    return true;
  }
  if (record.node != node) {
    ++misrouted_;
    return true;
  }
  const auto p = payload(seed_, node, seq);
  std::int32_t due = 0;
  std::int32_t w0 = 0;
  std::int32_t w1 = 0;
  std::int32_t w2 = 0;
  bool good = record.sensor == sensor_of(expected.kind) && i32_field(record, 2, due) &&
              due == static_cast<std::int32_t>(expected.due_us) && i32_field(record, 3, w0) &&
              w0 == p[0] && i32_field(record, 4, w1) && w1 == p[1] && i32_field(record, 5, w2) &&
              w2 == p[2];
  if (good && expected.kind == Kind::data) {
    good = record.fields.size() == 6;
  } else if (good) {
    const FieldType marker =
        expected.kind == Kind::reason ? FieldType::x_reason : FieldType::x_conseq;
    good = record.fields.size() == 7 && record.fields[6].type() == marker &&
           record.fields[6].as_causal_id() == expected.cid;
  }
  if (!good) {
    ++corrupt_;
    return true;
  }
  std::uint8_t previous = 0;
  mark(seen_[node - 1], seq, previous);
  if (previous != 0) {
    ++duplicates_;
    return true;
  }
  if (expected.kind != Kind::data) {
    auto [it, inserted] = cre_.try_emplace(expected.cid, -1, -1);
    (expected.kind == Kind::reason ? it->second.first : it->second.second) = position;
  }
  return true;
}

void Checker::observe_filtered(std::size_t sub, const Record& record) {
  if (sub >= sub_received_.size() || !is_data_sensor(record.sensor)) return;
  std::uint32_t node = 0;
  std::uint32_t seq = 0;
  // A record without a readable key can never match an expected one; file
  // it under an impossible key so it counts as extra.
  sub_received_[sub].push_back(record_key(record, node, seq) ? key(node, seq) : ~0ull);
}

void Checker::mark_rejected(std::uint32_t node, std::uint32_t seq) {
  if (node < 1 || node > kNodes) return;
  std::uint8_t previous = 0;
  mark(rejected_[node - 1], seq, previous);
}

CheckReport Checker::finish(const std::vector<std::uint64_t>& issued) const {
  CheckReport report;
  report.duplicates = duplicates_;
  report.corrupt = corrupt_;
  report.misrouted = misrouted_;
  report.inversions = inversions_;
  for (std::uint32_t n = 0; n < kNodes && n < issued.size(); ++n) {
    report.issued += issued[n];
    for (std::uint64_t seq = 0; seq < issued[n]; ++seq) {
      const bool seen = seq < seen_[n].size() && seen_[n][seq] != 0;
      if (seen) {
        ++report.delivered;
        continue;
      }
      ++report.lost;
      if (seq < rejected_[n].size() && rejected_[n][seq] != 0) ++report.rejected;
      Event e;
      if (report.lost <= 4 && lookup_(n + 1, static_cast<std::uint32_t>(seq), e)) {
        report.examples += " lost " + std::to_string(n + 1) + ":" + std::to_string(seq) +
                           " kind " + std::to_string(static_cast<int>(e.kind)) + " due " +
                           std::to_string(e.due_us) + " cid " + std::to_string(e.cid);
      }
    }
  }
  for (const auto& [cid, positions] : cre_) {
    if (positions.first < 0 || positions.second < 0) continue;
    ++report.cre_pairs;
    if (positions.second >= positions.first) continue;
    if (++report.cre_violations <= 4) {
      report.examples += " conseq-first cid " + std::to_string(cid) + " at " +
                         std::to_string(positions.second) + " < " +
                         std::to_string(positions.first);
    }
  }
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    std::vector<std::uint64_t> expected = sub_expected_[i];
    std::vector<std::uint64_t> received = sub_received_[i];
    std::sort(expected.begin(), expected.end());
    std::sort(received.begin(), received.end());
    std::vector<std::uint64_t> diff;
    std::set_difference(expected.begin(), expected.end(), received.begin(), received.end(),
                        std::back_inserter(diff));
    report.sub_missing.push_back(diff.size());
    diff.clear();
    std::set_difference(received.begin(), received.end(), expected.begin(), expected.end(),
                        std::back_inserter(diff));
    report.sub_extra.push_back(diff.size());
  }
  return report;
}

// ---- self-test ---------------------------------------------------------------

bool checker_self_test() {
  constexpr std::uint64_t kSeed = 7;
  constexpr std::uint32_t kPerNode = 20;
  std::vector<Event> events;
  for (std::uint32_t seq = 0; seq < kPerNode; ++seq) {
    for (std::uint32_t node = 1; node <= 2; ++node) {
      Event e{static_cast<std::int64_t>(seq) * 10, node, seq, Kind::data, 0};
      if (node == 1 && seq == 5) e = Event{50, 1, 5, Kind::reason, 77};
      if (node == 2 && seq == 6) e = Event{60, 2, 6, Kind::conseq, 77};
      events.push_back(e);
    }
  }
  auto lookup = [&events](std::uint32_t node, std::uint32_t seq, Event& out) {
    if (node < 1 || node > 2 || seq >= kPerNode) return false;
    out = events[seq * 2 + (node - 1)];
    return true;
  };
  std::vector<Record> clean;
  for (const Event& e : events) clean.push_back(make_record(kSeed, e, e.due_us));
  auto index_of = [](std::uint32_t node, std::uint32_t seq) { return seq * 2 + (node - 1); };
  const std::vector<std::uint64_t> issued = {kPerNode, kPerNode, 0, 0};

  auto node1 = brisk::ism::SubscriptionFilter::parse("node=1");
  if (!node1) return false;

  bool pass = true;
  auto expect = [&pass](const char* what, bool condition) {
    std::printf("checker self-test: %-44s %s\n", what, condition ? "ok" : "FAILED");
    if (!condition) pass = false;
  };

  {
    Checker checker(kSeed, lookup, {node1.value()});
    for (const Record& r : clean) {
      checker.observe(r);
      if (r.node == 1) checker.observe_filtered(0, r);
    }
    const CheckReport report = checker.finish(issued);
    expect("clean stream passes", report.ok(0, 0) && report.lost == 0 && report.inversions == 0 &&
                                      report.cre_pairs == 1);
  }

  std::vector<Record> faulty = clean;
  faulty[index_of(1, 8)].fields[3] = brisk::sensors::Field::i32(
      static_cast<std::int32_t>(faulty[index_of(1, 8)].fields[3].as_signed() ^ 1));
  faulty[index_of(1, 12)].node = 2;
  std::swap(faulty[index_of(2, 10)], faulty[index_of(2, 11)]);
  std::swap(faulty[index_of(1, 5)], faulty[index_of(2, 6)]);
  faulty.insert(faulty.begin() + index_of(2, 4) + 1, faulty[index_of(2, 4)]);
  faulty.erase(faulty.begin() + index_of(1, 3));

  Checker checker(kSeed, lookup, {node1.value()});
  for (const Record& r : faulty) checker.observe(r);
  std::size_t fed = 0;
  for (const Record& r : faulty) {
    if (r.node != 1) continue;
    if (fed++ == 2) continue;  // the subscription misses one of its records
    checker.observe_filtered(0, r);
  }
  checker.observe_filtered(0, clean[index_of(2, 15)]);  // and gets a foreign one
  const CheckReport report = checker.finish(issued);
  std::printf("checker self-test: faulty stream: %s\n", report.describe().c_str());
  expect("dropped record reported as lost", report.lost == 3);  // drop + corrupt + misrouted
  expect("duplicated record reported", report.duplicates == 1);
  expect("corrupted record reported", report.corrupt == 1);
  expect("misrouted record reported", report.misrouted == 1);
  expect("reordered records reported as inversions", report.inversions >= 2);
  expect("consequence before reason reported", report.cre_violations == 1);
  expect("filtered subscription miss reported",
         report.sub_missing.size() == 1 && report.sub_missing[0] == 1);
  expect("filtered subscription foreign record reported",
         report.sub_extra.size() == 1 && report.sub_extra[0] == 1);
  expect("faulty stream fails the check", !report.ok(report.lost, 1));
  return pass;
}

}  // namespace perfbench
