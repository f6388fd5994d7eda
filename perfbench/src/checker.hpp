// The output checker: verifies every delivered data record against the
// schedule it was generated from.
//
// Each data record's fields are recomputed from (seed, node, seq) and
// compared. The checker counts lost, duplicate, corrupt and misrouted
// records and (timestamp, node) inversions on the full stream, asserts
// reason-before-consequence for every causal pair, and checks that each
// filtered subscription received exactly its filter's subset of the full
// stream. Reserved-sensor records (metrics, trace spans, flight events) are
// never data and are ignored here.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ism/filter.hpp"
#include "sensors/record.hpp"
#include "workload.hpp"

namespace perfbench {

struct CheckReport {
  std::uint64_t issued = 0;
  std::uint64_t delivered = 0;      // distinct scheduled records seen
  std::uint64_t lost = 0;           // issued - delivered
  std::uint64_t rejected = 0;       // refused by a full ring at NOTICE (counted loss)
  std::uint64_t duplicates = 0;
  std::uint64_t corrupt = 0;        // fields differ from the recomputed values
  std::uint64_t misrouted = 0;      // wrong node, or outside the schedule
  std::uint64_t inversions = 0;     // (ts, node) below the predecessor's
  std::uint64_t cre_pairs = 0;      // pairs with both halves delivered
  std::uint64_t cre_violations = 0; // consequence delivered before its reason
  /// Per filtered subscription: records its filter selects from the full
  /// stream but it never got, and records it got that it should not have.
  std::vector<std::uint64_t> sub_missing;
  std::vector<std::uint64_t> sub_extra;
  /// A few lost records and violated pairs, for diagnosis.
  std::string examples;

  /// True when nothing is wrong beyond `accounted_loss` lost records (ring
  /// rejections plus drops the daemons counted) and `accounted_sub_drops`
  /// subscription drops.
  [[nodiscard]] bool ok(std::uint64_t accounted_loss, std::uint64_t accounted_sub_drops) const;
  [[nodiscard]] std::string describe() const;
};

class Checker {
 public:
  /// Expected values of the record at (node, seq); false when the schedule
  /// has no such record.
  using Lookup = std::function<bool(std::uint32_t node, std::uint32_t seq, Event& out)>;

  Checker(std::uint64_t seed, Lookup lookup,
          std::vector<brisk::ism::SubscriptionFilter> filters = {});

  /// One record of the full stream, in delivery order. Returns true for a
  /// data record.
  bool observe(const brisk::sensors::Record& record);
  /// One record of filtered subscription `sub` (index into the filters).
  void observe_filtered(std::size_t sub, const brisk::sensors::Record& record);
  /// The NOTICE of (node, seq) was refused by its ring.
  void mark_rejected(std::uint32_t node, std::uint32_t seq);

  /// `issued` is the number of NOTICEs made per node (index node - 1),
  /// rejected ones included.
  [[nodiscard]] CheckReport finish(const std::vector<std::uint64_t>& issued) const;

 private:
  static std::uint64_t key(std::uint32_t node, std::uint32_t seq) noexcept {
    return (static_cast<std::uint64_t>(node) << 32) | seq;
  }

  std::uint64_t seed_;
  Lookup lookup_;
  std::vector<brisk::ism::SubscriptionFilter> filters_;
  /// Per node (index node - 1): delivery count per seq.
  std::vector<std::vector<std::uint8_t>> seen_;
  std::vector<std::vector<std::uint8_t>> rejected_;
  std::uint64_t data_records_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t misrouted_ = 0;
  std::uint64_t inversions_ = 0;
  bool have_prev_ = false;
  brisk::TimeMicros prev_ts_ = 0;
  brisk::NodeId prev_node_ = 0;
  /// Causal id -> (reason position, consequence position) in the full
  /// stream's data order; -1 = not seen.
  std::unordered_map<brisk::CausalId, std::pair<std::int64_t, std::int64_t>> cre_;
  /// Per filter: keys the full stream says it should get / keys it got.
  std::vector<std::vector<std::uint64_t>> sub_expected_;
  std::vector<std::vector<std::uint64_t>> sub_received_;
};

/// Feeds the checker a stream with one dropped, one duplicated, one
/// corrupted, one reordered and one misrouted record, a consequence ahead
/// of its reason, and a filtered subscription with one missing and one
/// foreign record, and expects each to be reported. Prints what it finds;
/// returns true when every fault was caught and a clean stream passes.
bool checker_self_test();

}  // namespace perfbench
