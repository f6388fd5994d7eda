#include "sim/fault_injector.hpp"

namespace brisk::sim {

Status FaultPlan::validate() const {
  const double sum =
      drop_probability + duplicate_probability + truncate_probability + stall_probability;
  if (drop_probability < 0 || duplicate_probability < 0 || truncate_probability < 0 ||
      stall_probability < 0) {
    return Status(Errc::invalid_argument, "negative fault probability");
  }
  if (sum > 1.0) return Status(Errc::invalid_argument, "fault probabilities sum above 1");
  if (stall_us < 0) return Status(Errc::invalid_argument, "negative stall_us");
  return Status::ok();
}

bool FaultPlan::enabled() const noexcept {
  return drop_probability > 0 || duplicate_probability > 0 || truncate_probability > 0 ||
         stall_probability > 0 || stall_every > 0;
}

FaultInjector::FaultInjector(const FaultPlan& plan) : plan_(plan), rng_(plan.seed) {}

net::FaultDecision FaultInjector::decide(std::uint64_t frame_index, ByteSpan payload) {
  // One draw per frame, before any branching, so the random sequence stays
  // aligned with the frame sequence no matter which faults are enabled.
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const double draw = uniform(rng_);

  // The message type is a big-endian u32 at offset 0; all defined types fit
  // in the low byte.
  const bool is_data =
      payload.size() >= 4 && payload[0] == 0 && payload[1] == 0 && payload[2] == 0 &&
      payload[3] == 2 /* MsgType::data_batch */;
  if (plan_.spare_control_frames && !is_data) return {};

  if (plan_.stall_every > 0 && (frame_index + 1) % plan_.stall_every == 0) {
    return {net::FaultAction::stall, 0, plan_.stall_us};
  }

  double threshold = plan_.drop_probability;
  if (draw < threshold) return {net::FaultAction::drop, 0, 0};
  threshold += plan_.duplicate_probability;
  if (draw < threshold) return {net::FaultAction::duplicate, 0, 0};
  threshold += plan_.truncate_probability;
  if (draw < threshold) return {net::FaultAction::truncate, payload.size() / 2, 0};
  threshold += plan_.stall_probability;
  if (draw < threshold) return {net::FaultAction::stall, 0, plan_.stall_us};
  return {};
}

net::FaultPolicy FaultInjector::policy() {
  return [this](std::uint64_t frame_index, ByteSpan payload) {
    return decide(frame_index, payload);
  };
}

}  // namespace brisk::sim
