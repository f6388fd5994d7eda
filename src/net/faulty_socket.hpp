// Deterministic frame-level fault injection on the outbound framed-write
// path. The wrapper sits between a daemon and net::write_frame and can
// drop, stall, truncate, or duplicate individual frames according to a
// pluggable policy. Policies live above this layer (sim::FaultInjector
// provides a seeded one); net/ only defines the decision vocabulary so it
// stays independent of the simulation code.
//
// Truncation writes the full declared length prefix but only part of the
// frame body — exactly what a peer observes when a sender dies mid-write —
// which desynchronizes the stream and forces the receiver to drop the
// connection. That makes it the sharpest tool here: it exercises the whole
// reconnect + replay path, not just a lost message.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/byte_buffer.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace brisk::net {

enum class FaultAction {
  pass,       // deliver normally
  drop,       // silently discard the frame
  stall,      // sleep stall_us, then deliver
  truncate,   // send the length prefix + only truncate_to body bytes
  duplicate,  // deliver the frame twice
};

struct FaultDecision {
  FaultAction action = FaultAction::pass;
  std::size_t truncate_to = 0;  // body bytes kept when action == truncate
  TimeMicros stall_us = 0;      // sleep before delivery when action == stall
};

/// Decides the fate of outbound frame number `frame_index` (0-based,
/// counting every frame offered for send). Must be deterministic for a
/// given index/payload if the test wants reproducibility.
using FaultPolicy = std::function<FaultDecision(std::uint64_t frame_index, ByteSpan payload)>;

struct FaultStats {
  std::uint64_t frames = 0;  // frames offered for send
  std::uint64_t dropped = 0;
  std::uint64_t stalled = 0;
  std::uint64_t truncated = 0;
  std::uint64_t duplicated = 0;
  TimeMicros stalled_us_total = 0;
};

/// "faults injected: D/N frames dropped, ..." — the footer line a daemon
/// prints after a run with fault injection on.
std::string to_string(const FaultStats& stats);

class FaultySocket {
 public:
  FaultySocket() = default;
  explicit FaultySocket(FaultPolicy policy) : policy_(std::move(policy)) {}

  void set_policy(FaultPolicy policy) { policy_ = std::move(policy); }
  [[nodiscard]] bool active() const noexcept { return static_cast<bool>(policy_); }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

  /// Framed write through the policy. With no policy installed this is
  /// exactly net::write_frame(socket, payload).
  Status write_frame(TcpSocket& socket, ByteSpan payload);

  /// Buffered variant: the frame (after the policy's verdict) goes through
  /// `outbox` instead of blocking write_all calls, so a full kernel send
  /// buffer defers cleanly instead of tearing the frame. Errors are the
  /// outbox's (Errc::buffer_full when the peer stopped reading).
  Status write_frame(TcpSocket& socket, FrameSendBuffer& outbox, ByteSpan payload);

 private:
  FaultPolicy policy_;
  FaultStats stats_;
};

}  // namespace brisk::net
