// Tuning knobs of the external sensor. The paper: "we added tuning knobs to
// many of BRISK's subsystems, so that users can trade-off among the various
// simple and complex IS performance metrics in a specific working
// environment" — these are the LIS-side knobs (batching vs latency, ring
// polling, the select timeout that sets the latency floor).
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/types.hpp"
#include "net/frame.hpp"
#include "net/poller.hpp"

namespace brisk::lis {

struct ExsConfig {
  NodeId node = 0;

  // --- batching / latency control -----------------------------------------
  /// Flush the current batch at this many records...
  std::uint32_t batch_max_records = 256;
  /// ...or at this many payload bytes...
  std::uint32_t batch_max_bytes = 32 * 1024;
  /// ...or when its oldest record is this old. 0 = flush every cycle
  /// (lowest latency, lowest throughput).
  TimeMicros batch_max_age_us = 20'000;

  // --- ring draining --------------------------------------------------------
  /// Records drained from the rings per loop cycle (bounds EXS CPU bursts;
  /// the EXS "may be assigned a lower priority").
  std::uint32_t drain_burst = 1024;

  // --- event loop ------------------------------------------------------------
  /// Longest select() wait — the idle cap. The loop sleeps until its next
  /// batch is due to seal (ExsCore::next_wait_us) and waits this long only
  /// when nothing is due sooner; with batch_max_age_us = 0 and idle rings
  /// it is the paper's fixed select timeout, which bounds worst-case record
  /// latency ("up to 40 ms").
  TimeMicros select_timeout_us = 40'000;
  /// Readiness-poll backend of the daemon loop.
  net::PollerBackend poller = net::PollerBackend::select;
  /// Cap on outbound frames deferred by a full kernel send buffer. The
  /// daemon subscribes to Readiness::writable only while this outbox holds
  /// bytes; at the cap, sends fall back to a bounded blocking flush.
  std::size_t outbox_bytes = net::kDefaultSendBufferBytes;
  /// How long a send may block flushing a wedged outbox before the link
  /// counts as lost (reconnect + replay take over).
  TimeMicros send_stall_timeout_us = 2'000'000;

  // --- session resilience ----------------------------------------------------
  /// Identifies this EXS process lifetime to the ISM. 0 = derive a unique
  /// value at connect time (daemons); tests may pin it for determinism.
  std::uint64_t incarnation = 0;
  /// Sent-but-unacknowledged data batches retained for replay after a
  /// reconnect. 0 disables replay (and the HELLO_ACK send gate with it).
  std::uint32_t replay_buffer_batches = 256;
  /// Byte cap on the replay buffer — the memory an operator actually
  /// provisions. 0 = no byte cap (count cap alone applies).
  std::size_t replay_buffer_bytes = 0;
  /// First reconnect delay after a lost connection...
  TimeMicros reconnect_backoff_base_us = 50'000;
  /// ...doubling per failed attempt up to this cap...
  TimeMicros reconnect_backoff_cap_us = 5'000'000;
  /// ...plus uniform jitter of up to this fraction of the delay (decorrelates
  /// a thundering herd of EXSes after an ISM restart).
  double reconnect_jitter = 0.2;
  /// Give up after this many consecutive failed reconnects (0 = never).
  std::uint32_t max_reconnect_attempts = 0;
  /// Idle-link heartbeat period (0 disables heartbeats).
  TimeMicros heartbeat_period_us = 1'000'000;
  /// Reconnect if the ISM has been silent this long — catches half-open
  /// TCP sessions where writes still succeed locally (0 disables).
  TimeMicros ism_silence_timeout_us = 0;

  // --- self-instrumentation ---------------------------------------------------
  /// Snapshot the EXS's own counters into reserved-sensor-id metrics
  /// records at this period and ship them in-band like any sensor record
  /// (0 disables).
  TimeMicros metrics_interval_us = 0;

  /// Validates knob consistency.
  [[nodiscard]] Status validate() const;
};

/// Counters the EXS exports for perturbation analysis and the evaluation
/// harness.
struct ExsStats {
  std::uint64_t records_forwarded = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t ring_drops_seen = 0;      // cumulative drops reported by rings
  std::uint64_t transcode_errors = 0;
  std::uint64_t sync_polls_answered = 0;
  std::uint64_t sync_adjustments = 0;
  TimeMicros correction_us = 0;           // current clock correction value
  // --- event loop ------------------------------------------------------------
  std::uint64_t loop_wakeups = 0;         // drain passes (one per loop cycle)
  std::uint64_t burst_limited_drains = 0; // passes that stopped at drain_burst
  // --- session resilience ----------------------------------------------------
  std::uint64_t reconnects = 0;           // sessions re-established after a loss
  std::uint64_t batches_replayed = 0;     // frames re-sent from the replay buffer
  std::uint64_t replay_evictions = 0;     // batches declared lost (buffer full)
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t acks_received = 0;        // HELLO_ACK + BATCH_ACK frames
  std::uint64_t replay_pending = 0;       // batches currently awaiting ack
  // --- credit-based flow control ---------------------------------------------
  std::uint64_t credit_grants_received = 0;  // acks carrying a grant
  std::uint64_t paced_batches = 0;        // batches deferred by a closed window
  TimeMicros credit_stalled_us = 0;       // total time sends sat window-blocked
  std::uint64_t credit_window_records = 0;   // last granted record window
  std::uint64_t credit_window_bytes = 0;     // last granted byte window (0 = uncapped)
};

}  // namespace brisk::lis
