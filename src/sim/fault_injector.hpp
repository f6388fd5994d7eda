// Seeded frame-fault plans for the EXS⇄ISM link.
//
// A FaultInjector turns a FaultPlan (probabilities + a periodic stall) into
// the net::FaultPolicy that net::FaultySocket consumes. All randomness
// comes from one mt19937_64 seeded by the plan, and every frame consumes
// exactly one draw, so a given (seed, frame sequence) always produces the
// same fault pattern — crash/churn tests are replayable from their seed.
#pragma once

#include <cstdint>
#include <random>

#include "common/types.hpp"
#include "net/faulty_socket.hpp"

namespace brisk::sim {

struct FaultPlan {
  std::uint64_t seed = 1;
  /// Per-frame probabilities, evaluated in this order from a single draw;
  /// their sum must be <= 1 (the remainder passes clean).
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  double truncate_probability = 0.0;
  double stall_probability = 0.0;
  /// Stall duration (both for random and periodic stalls).
  TimeMicros stall_us = 0;
  /// Every Nth frame stalls (deterministic periodic stall, e.g. the
  /// "periodic 500 ms stall" scenario). 0 disables.
  std::uint32_t stall_every = 0;
  /// Fault only DATA_BATCH frames, letting HELLO/acks/sync through. The
  /// data path is where loss is recoverable by replay; control frames are
  /// tiny and faulting the handshake mostly tests TCP, not BRISK.
  bool spare_control_frames = true;

  [[nodiscard]] Status validate() const;
  /// True when the plan can inject any fault at all.
  [[nodiscard]] bool enabled() const noexcept;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  /// One decision per frame; consumes exactly one RNG draw.
  net::FaultDecision decide(std::uint64_t frame_index, ByteSpan payload);

  /// The policy to install on a FaultySocket. Captures `this`: the injector
  /// must outlive the socket wrapper.
  [[nodiscard]] net::FaultPolicy policy();

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

 private:
  FaultPlan plan_;
  std::mt19937_64 rng_;
};

}  // namespace brisk::sim
