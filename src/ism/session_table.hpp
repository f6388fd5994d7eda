// Per-node session protocol state in one owner: the batch_seq cursor (dedupe,
// go-back-N holes, gap skip), rejoin and quarantine, credit grants and the
// ack cadence. No sockets, no monotonic clock: each call takes the caller's
// `now` and returns the action; Ism sends whatever ack it asks for. Ordering
// thread only, except note_record_drained and counters() (any thread).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "clock/clock.hpp"
#include "metrics/flight_recorder.hpp"
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
};

class SessionTable {
 public:
  using DrainedCell = std::shared_ptr<std::atomic<std::uint64_t>>;

  /// Reads the resilience and credit fields of `config`, which must outlive
  /// the table. `clock` only stamps flight-recorder events.
  SessionTable(const IsmConfig& config, clk::Clock& clock, metrics::FlightRecorder& flight)
      : config_(config), clock_(clock), flight_(flight) {}

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

  /// Pipeline-sink hook: lock-free copy-on-write map lookup.
  void note_record_drained(NodeId node) noexcept;

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
  using DrainedMap = std::map<NodeId, DrainedCell>;

  /// Publishes `cell` for the sink hook; a null cell retires the node's.
  void set_drained(NodeId node, DrainedCell cell);

  const IsmConfig& config_;
  clk::Clock& clock_;
  metrics::FlightRecorder& flight_;
  std::map<NodeId, NodeSession> sessions_;
  std::shared_ptr<const DrainedMap> drained_;  // replaced copy-on-write
  SessionCounters counters_;
};

}  // namespace brisk::ism
