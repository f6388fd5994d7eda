// Per-node session protocol state in one owner: the batch_seq cursor (dedupe,
// go-back-N holes, gap skip), rejoin and quarantine, credit grants and the
// ack cadence. No sockets, no monotonic clock: each call takes the caller's
// `now` and returns the action; Ism sends whatever ack it asks for. Ordering
// thread only, except note_records_drained (the pipeline's sink thread),
// DrainCell::note_drained and counters() (any thread).
#pragma once

#include <atomic>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "clock/clock.hpp"
#include "metrics/flight_recorder.hpp"
#include "sensors/record.hpp"
#include "tp/wire.hpp"

namespace brisk::ism {

struct IsmConfig;

/// Relaxed increment of a counter cell that other threads snapshot.
inline void bump(std::atomic<std::uint64_t>& cell, std::uint64_t delta = 1) noexcept {
  cell.fetch_add(delta, std::memory_order_relaxed);
}

/// The session counters behind IsmStats.
struct SessionCounters {
  std::atomic<std::uint64_t> ring_drops_reported{0};
  std::atomic<std::uint64_t> batch_seq_gaps{0};
  std::atomic<std::uint64_t> rejoins{0};
  std::atomic<std::uint64_t> duplicate_batches_dropped{0};
  std::atomic<std::uint64_t> out_of_order_batches_dropped{0};
  std::atomic<std::uint64_t> sessions_expired{0};
  std::atomic<std::uint64_t> acks_sent{0};
  std::atomic<std::uint64_t> credit_grants_sent{0};
  std::atomic<std::uint64_t> zero_window_grants{0};
  std::atomic<std::uint64_t> window_update_acks{0};
  std::atomic<std::uint64_t> drain_window_updates{0};
};

/// One credited session's pipeline-exit counter. The drain side bumps it by
/// the records that leave the pipeline, a run at a time; the ordering thread
/// keeps `regrant_at`, the drained count at which the session's grant could
/// widen by a quarter window. The bump that crosses it (before < mark <=
/// before + n) calls `wake`, so the ordering loop re-grants as soon as the
/// pipeline has freed the credit. The counter and the mark are seq_cst on
/// both sides: a mark stored while the drain side is crossing it is either
/// seen by the bump or seen crossed by the re-check after the store (see
/// SessionTable::arm).
struct DrainCell {
  static constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

  explicit DrainCell(std::function<void()> on_regrant) : wake(std::move(on_regrant)) {}

  void note_drained(std::uint64_t n = 1) noexcept {
    const std::uint64_t before = drained.fetch_add(n);
    const std::uint64_t mark = regrant_at.load();
    if (before < mark && mark - before <= n && wake) wake();
  }

  std::atomic<std::uint64_t> drained{0};
  std::atomic<std::uint64_t> regrant_at{kNever};
  const std::function<void()> wake;
};

class SessionTable {
 public:
  using DrainedCell = std::shared_ptr<DrainCell>;

  /// Reads the resilience and credit fields of `config`, which must outlive
  /// the table. `clock` only stamps flight-recorder events. `on_regrant`
  /// (any thread) is called when a session's drained records cross its
  /// re-grant mark; the caller then asks regrant_due.
  SessionTable(const IsmConfig& config, clk::Clock& clock, metrics::FlightRecorder& flight,
               std::function<void()> on_regrant = {})
      : config_(config), clock_(clock), flight_(flight), on_regrant_(std::move(on_regrant)) {}

  struct Hello {
    /// Relay sessions: the lane of this incarnation's earlier connection to
    /// resume, or nullopt: add a lane fed by `drained` and bind it.
    std::optional<std::size_t> relay_lane;
    DrainedCell drained;
  };
  /// A new node or incarnation starts at cursor 0; the same incarnation
  /// rejoins at its cursor. Acks carry grants iff credits are on and the
  /// peer speaks v3+.
  Hello hello(NodeId node, std::uint64_t incarnation, std::uint32_t version, bool relay);
  void bind_relay_lane(NodeId node, std::size_t lane);

  /// True when the batch's records enter the pipeline. Below the cursor is a
  /// duplicate; above it a go-back-N hole, declared lost once open for
  /// gap_skip_timeout_us. Admitted batches report their ring drops.
  bool admit(NodeId node, std::uint32_t seq, std::uint64_t ring_dropped_total, TimeMicros now);
  /// Counts records that entered the pipeline. True when a credited session
  /// has had half its window admitted since its last ack: a window update
  /// is due, or its EXS stalls until the ack cadence.
  bool admitted(NodeId node, std::uint64_t records);

  /// The ack to send now (a BATCH_ACK uses its cursor and grant). The grant
  /// is the window minus the in-pipeline backlog, clamped at zero.
  std::optional<tp::HelloAck> ack(NodeId node);
  /// True when a credited session's grant, as of the records drained so far,
  /// would exceed its last grant by a quarter window: a window update is due
  /// now rather than at the replenish cadence. Asked after on_regrant fires.
  bool regrant_due(NodeId node);
  /// credit_replenish_us while the last grant is below the full window (the
  /// EXS may be window-stalled), else ack_period_us.
  [[nodiscard]] TimeMicros ack_period(NodeId node) const;

  enum class Departure { forgotten, quarantined, expire_now };
  /// A BYE forgets the session (pending records drain in order); a crash
  /// quarantines it for a rejoin, or expires it now if quarantine is 0.
  Departure disconnect(NodeId node, bool bye, TimeMicros now);
  /// Quarantined nodes gone for quarantine_timeout_us.
  [[nodiscard]] std::vector<NodeId> expired(TimeMicros now) const;
  /// Forgets a session whose `drained` records left out of band.
  void expire(NodeId node, std::size_t drained);

  /// Pipeline-sink hook: `run` left the pipeline. Nodes interleave record
  /// by record in a merged run, so the records are counted per node first
  /// and each node's cell is bumped once, by its count. One thread at a time
  /// (the pipeline runs its sink under the merger mutex); it re-reads the
  /// published cells only when their version changes, so a run costs one
  /// acquire load and a small sorted lookup per record, with no lock or
  /// refcount.
  void note_records_drained(std::span<const sensors::Record> run);

  [[nodiscard]] std::uint64_t backlog(NodeId node) const;
  [[nodiscard]] std::size_t size() const noexcept { return sessions_.size(); }
  [[nodiscard]] const SessionCounters& counters() const noexcept { return counters_; }

 private:
  struct NodeSession {
    std::uint64_t incarnation = 0;
    std::uint32_t next_batch_seq = 0;  // cumulative cursor, also the ack value
    std::uint64_t ring_dropped_total = 0;
    bool credited = false;
    std::optional<TimeMicros> disconnected_at;  // set while quarantined
    std::optional<TimeMicros> hole_since;  // an open seq hole
    std::uint32_t lowest_pending_seq = 0;  // smallest seq offered above cursor
    std::uint64_t records_admitted = 0;
    DrainedCell records_drained;           // bumped at the pipeline exit
    std::uint32_t last_granted_records = 0;
    std::uint64_t admitted_at_last_ack = 0;
    /// Lanes are append-only: the index survives one incarnation's rejoins.
    std::optional<std::size_t> relay_lane;
  };
  /// Sorted by node: the sink hook's lookup over a handful of sessions.
  using DrainedMap = std::vector<std::pair<NodeId, DrainedCell>>;

  /// Publishes `cell` for the sink hook; a null cell retires the node's.
  void set_drained(NodeId node, DrainedCell cell);
  /// Sets the cell's re-grant mark from the session's admissions and last
  /// grant: the drained count at which window − backlog reaches the last
  /// grant plus a quarter window. Wakes at once if the pipeline is already
  /// past it.
  void arm(NodeSession& session);

  const IsmConfig& config_;
  clk::Clock& clock_;
  metrics::FlightRecorder& flight_;
  const std::function<void()> on_regrant_;
  std::map<NodeId, NodeSession> sessions_;
  std::shared_ptr<const DrainedMap> drained_;  // replaced copy-on-write
  std::atomic<std::uint64_t> drained_version_{0};  // bumped after each publish
  // Sink-thread cache of drained_, refreshed when drained_version_ moves,
  // and the per-cell record counts of the run being noted.
  std::shared_ptr<const DrainedMap> sink_map_;
  std::uint64_t sink_version_ = 0;
  std::vector<std::uint64_t> sink_counts_;
  SessionCounters counters_;
};

}  // namespace brisk::ism
