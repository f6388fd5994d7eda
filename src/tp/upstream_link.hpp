// The session half of a TP client: everything a peer needs to ship ordered
// batches to an ISM and stay in its timebase, with no socket in sight.
//
// Two users, one implementation:
//  * the EXS daemon (lis::ExsCore wires its batcher's output here), and
//  * a relay ISM's egress (ism::RelayEgress re-batches its post-merge
//    stream onto the same link, making the relay "EXS-shaped" to its
//    parent).
//
// The link owns: the HELLO/HELLO_ACK session handshake (including the
// capability word), the bounded go-back-N ReplayBuffer, cumulative
// BATCH_ACK processing with stuck-cursor resend detection, the
// credit-window pacer (protocol v3), and the clock-sync slave: it answers
// the sync master's TIME_REQ polls with `now + correction` and folds each
// ADJUST delta into that correction. Frames leave through a FrameSink
// callback and arrive through handle_frame(), so the same code runs under
// a daemon's tp::UpstreamClient (the socket half) or a test harness.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <random>

#include "clock/clock.hpp"
#include "common/byte_buffer.hpp"
#include "common/error.hpp"
#include "tp/replay_buffer.hpp"
#include "tp/wire.hpp"

namespace brisk::tp {

struct LinkConfig {
  NodeId node = 0;
  /// Session identity; see tp::Hello. Must be non-zero for crash detection.
  std::uint64_t incarnation = 0;
  /// Capability word carried by HELLO (0 = plain EXS-shaped peer).
  std::uint32_t capabilities = 0;
  /// Replay depth in batches; 0 disables replay (and therefore pacing:
  /// credit grants are honoured only with a replay buffer to park in).
  std::size_t replay_batches = 256;
  /// Replay depth in bytes; 0 disables the byte cap.
  std::size_t replay_bytes = 0;
};

struct LinkStats {
  std::uint64_t reconnects = 0;
  std::uint64_t batches_replayed = 0;
  std::uint64_t replay_evictions = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t replay_pending = 0;
  std::uint64_t credit_grants_received = 0;
  std::uint64_t paced_batches = 0;
  TimeMicros credit_stalled_us = 0;
  bool credit_active = false;
  std::uint64_t sync_polls_answered = 0;
  std::uint64_t sync_adjustments = 0;
  std::uint32_t credit_window_records = 0;  // meaningful when credit_active
  std::uint64_t credit_window_bytes = 0;
};

class UpstreamLink {
 public:
  /// Carries a finished frame payload toward the peer. Transport loss must
  /// not surface here as an error — the daemon layer reports it through
  /// on_disconnect() and the replay buffer covers the gap.
  using FrameSink = std::function<Status(ByteBuffer payload)>;
  /// Observes every applied grant (the EXS caps its batch size to the
  /// largest granted window so no batch is built that the window cannot
  /// take whole).
  using WindowObserver = std::function<void(std::uint32_t window_records,
                                            std::uint64_t window_bytes)>;

  /// `clock` times credit stalls; `sink` carries frames to the peer.
  UpstreamLink(const LinkConfig& config, clk::Clock& clock, FrameSink sink);

  void set_window_observer(WindowObserver observer) { window_observer_ = std::move(observer); }

  /// Sends the HELLO that opens (or re-opens) the session. With replay
  /// enabled, outbound batches are deferred into the replay buffer until
  /// the peer's HELLO_ACK names the resume cursor — this keeps the batch
  /// sequence the peer observes contiguous across a reconnect.
  Status send_hello();

  /// Sends a liveness heartbeat (empty body).
  Status send_heartbeat();

  /// Ships one finished batch frame (data_batch or relay_batch — the link
  /// only reads the shared header prefix). The frame is retained for replay
  /// and, under pacing, released through the credit window in sequence
  /// order.
  Status ship_batch(ByteBuffer payload);

  /// Handles one frame from the upstream ISM (TIME_REQ, ADJUST, HELLO_ACK,
  /// BATCH_ACK, HEARTBEAT, BYE). Returns Errc::closed for BYE and
  /// Errc::malformed for any other message type.
  Status handle_frame(ByteSpan payload);

  /// The clock correction the sync protocol has accumulated; added to every
  /// record timestamp on its way out ("the raw local time ... is added to a
  /// correction value maintained by the EXS, before sending the record to
  /// the ISM"). Readable from any thread.
  [[nodiscard]] TimeMicros correction() const noexcept {
    return correction_.load(std::memory_order_relaxed);
  }
  /// The node clock as the sync protocol sees it (raw + correction).
  [[nodiscard]] TimeMicros corrected_now() noexcept { return clock_.now() + correction(); }

  /// Transport notifications from the daemon layer: while the link is
  /// down, batches accumulate in the replay buffer instead of being handed
  /// to the sink; re-establishing it replays everything unacked.
  void on_disconnect() noexcept;
  Status on_reconnected();

  /// True once the peer sent BYE (clean shutdown, not a link failure).
  [[nodiscard]] bool saw_bye() const noexcept { return saw_bye_; }
  /// True while batches are gated on a pending HELLO_ACK.
  [[nodiscard]] bool awaiting_ack() const noexcept { return awaiting_ack_; }
  [[nodiscard]] const ReplayBuffer& replay() const noexcept { return replay_; }

  /// True once a credit grant governs this session's sends (pacing on,
  /// replay enabled, and a grant for this incarnation has arrived).
  [[nodiscard]] bool pacing() const noexcept { return credit_active_; }
  /// True while a new batch could not leave now: the link is down, the
  /// session awaits its HELLO_ACK, or the credit window is shut.
  [[nodiscard]] bool send_blocked() const noexcept {
    return !link_ready_ || awaiting_ack_ || stall_started_at_ != 0;
  }
  /// Sent-but-unacknowledged records/bytes charged against the window.
  [[nodiscard]] std::uint64_t outstanding_records() const noexcept;
  [[nodiscard]] std::uint64_t outstanding_bytes() const noexcept;

  [[nodiscard]] LinkStats stats() const noexcept;
  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }

 private:
  /// Re-sends every retained batch, oldest first (the peer dedupes).
  Status resend_unacked();
  /// Folds an ack's credit grant (if any) into the pacer window. Grants for
  /// a foreign incarnation are ignored — never a session error.
  void apply_credit(const std::optional<CreditGrant>& credit);
  /// The paced send path: ships retained batches in sequence order from
  /// `next_unsent_seq_` while the granted window has room. A batch larger
  /// than the whole window is sent once nothing is outstanding (progress
  /// guarantee — a zero or shrunken window can never deadlock the stream).
  Status pump_sends();
  /// Marks everything unacked as unsent (go-back-N under pacing).
  void rewind_unsent() noexcept;
  void begin_stall() noexcept;
  void end_stall() noexcept;

  LinkConfig config_;
  clk::Clock& clock_;
  FrameSink sink_;
  WindowObserver window_observer_;
  ReplayBuffer replay_;
  bool link_ready_ = true;
  bool awaiting_ack_ = false;
  bool saw_bye_ = false;
  bool have_last_ack_ = false;
  std::uint32_t last_batch_ack_expected_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t batches_replayed_ = 0;
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t acks_received_ = 0;
  // --- clock-sync slave --------------------------------------------------------
  std::atomic<TimeMicros> correction_{0};
  std::uint64_t sync_polls_answered_ = 0;
  std::uint64_t sync_adjustments_ = 0;
  // --- credit-based flow control ---------------------------------------------
  /// True once a grant for this incarnation arrived and pacing applies.
  bool credit_active_ = false;
  std::uint32_t window_records_ = 0;  // last granted record window
  std::uint64_t window_bytes_ = 0;    // last granted byte window (0 = uncapped)
  /// Replay entries with batch_seq below this have been handed to the sink
  /// and are charged against the window; at or above are still queued.
  std::uint32_t next_unsent_seq_ = 0;
  /// Highest batch_seq ever handed to the sink (+1); re-sends below it
  /// count as replays.
  std::uint32_t send_high_water_ = 0;
  std::uint64_t credit_grants_received_ = 0;
  std::uint64_t paced_batches_ = 0;
  TimeMicros credit_stalled_us_ = 0;
  TimeMicros stall_started_at_ = 0;  // node-clock time, 0 = not stalled
};

/// A fresh session incarnation: pid ⊕ monotonic clock, never zero. One
/// process lifetime is one incarnation, which lets the ISM tell a reconnect
/// of the same peer (resume the batch_seq cursor) from a restarted one
/// (start over at zero).
[[nodiscard]] std::uint64_t derive_incarnation() noexcept;

// ---- reconnect schedule -----------------------------------------------------

struct ReconnectConfig {
  TimeMicros backoff_base_us = 50'000;
  TimeMicros backoff_cap_us = 5'000'000;
  /// Uniform jitter fraction added on top of the exponential delay.
  double jitter = 0.2;
  /// Consecutive failures before giving up; 0 = retry forever.
  std::uint32_t max_attempts = 0;
};

/// Exponential-backoff reconnect pacing with deterministic jitter; the
/// tp::UpstreamClient's. The schedule only decides *when* to try; the
/// client owns the actual connect.
class ReconnectSchedule {
 public:
  ReconnectSchedule(const ReconnectConfig& config, std::uint64_t seed)
      : config_(config), jitter_rng_(seed ^ 0x9e3779b97f4a7c15ull) {}

  /// True when a connect attempt is due (monotonic time).
  [[nodiscard]] bool due(TimeMicros now) const noexcept { return now >= next_attempt_at_; }

  /// Arms an immediate retry (call when the link drops).
  void arm(TimeMicros now) noexcept {
    next_attempt_at_ = now;
    failed_attempts_ = 0;
  }

  void record_success() noexcept { failed_attempts_ = 0; }

  /// Records a failed attempt and schedules the next one. Returns false
  /// once the attempt budget is exhausted — the caller should give up.
  bool record_failure(TimeMicros now);

  [[nodiscard]] std::uint32_t failed_attempts() const noexcept { return failed_attempts_; }
  /// When the next attempt is due (monotonic).
  [[nodiscard]] TimeMicros next_attempt_at() const noexcept { return next_attempt_at_; }

 private:
  [[nodiscard]] TimeMicros backoff_delay();

  ReconnectConfig config_;
  std::uint32_t failed_attempts_ = 0;
  TimeMicros next_attempt_at_ = 0;  // monotonic
  std::mt19937_64 jitter_rng_;
};

}  // namespace brisk::tp
