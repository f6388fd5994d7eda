#include "ism/online_sorter.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace brisk::ism {

OnlineSorter::OnlineSorter(const SorterConfig& config, clk::Clock& clock, EmitFn emit)
    : config_(config),
      clock_(clock),
      emit_(std::move(emit)),
      frame_us_(static_cast<double>(config.initial_frame_us)),
      last_decay_at_(clock.now()) {}

Status OnlineSorter::push(sensors::Record record) {
  auto it = queues_.find(record.node);
  if (it == queues_.end()) {
    auto queue = std::make_unique<EventQueue>(record.node);
    EventQueue* raw = queue.get();
    queues_.emplace(record.node, std::move(queue));
    Status st = heap_.add_queue(raw);
    if (!st) return st;
    it = queues_.find(record.node);
  }
  if (heap_.pending() >= config_.max_pending) {
    if (config_.overflow == OverflowPolicy::drop_newest) {
      ++stats_.overflow_drops;
      return Status::ok();
    }
    handle_overflow();
  }
  if (emitted_any_ && record.timestamp < last_emitted_ts_) {
    // Already behind the emitted frontier: no delay window can reorder this
    // record any more, so it is a late arrival the current T failed to
    // absorb (it still gets emitted, just out of order).
    ++stats_.late_records;
  }
  const NodeId node = record.node;
  it->second->push(std::move(record));
  heap_.notify_pushed(node);
  ++stats_.pushed;
  return Status::ok();
}

void OnlineSorter::handle_overflow() {
  auto popped = heap_.pop_min();
  if (!popped) return;
  if (config_.overflow == OverflowPolicy::emit_early) {
    ++stats_.overflow_emits;
    emit(std::move(popped).value(), true);
  } else {  // drop_oldest
    ++stats_.overflow_drops;
  }
}

void OnlineSorter::emit(sensors::Record record, bool respect_order_check) {
  if (respect_order_check) {
    if (emitted_any_ && record.timestamp < last_emitted_ts_) {
      // Two successive records extracted out of order: raise T to the
      // observed lateness.
      const TimeMicros lateness = last_emitted_ts_ - record.timestamp;
      ++stats_.out_of_order_emissions;
      disorder_.record(static_cast<std::uint64_t>(lateness));
      if (lateness > stats_.max_lateness_us) stats_.max_lateness_us = lateness;
      if (config_.adaptive && static_cast<double>(lateness) > frame_us_) {
        frame_us_ = static_cast<double>(
            lateness < config_.max_frame_us ? lateness : config_.max_frame_us);
        ++stats_.frame_raises;
      }
    }
    if (!emitted_any_ || record.timestamp > last_emitted_ts_) {
      last_emitted_ts_ = record.timestamp;
    }
    emitted_any_ = true;
  }
  // Out-of-band emissions (session-expiry drain) leave last_emitted_ts_ and
  // T untouched: a dead node's leftovers must not distort the adaptive
  // window the live nodes are sorted under.
  ++stats_.emitted;
  const TimeMicros delay = clock_.now() - record.timestamp;
  if (delay > 0) stats_.total_delay_us += static_cast<std::uint64_t>(delay);
  emit_(std::move(record));
}

void OnlineSorter::decay_frame(TimeMicros now) {
  const TimeMicros dt = now - last_decay_at_;
  last_decay_at_ = now;
  if (!config_.adaptive || dt <= 0 || config_.decay_half_life_s <= 0) return;
  const double half_lives = static_cast<double>(dt) / (config_.decay_half_life_s * 1e6);
  const double floor = static_cast<double>(config_.min_frame_us);
  frame_us_ = floor + (frame_us_ - floor) * std::exp2(-half_lives);
  if (frame_us_ < floor) frame_us_ = floor;
}

void OnlineSorter::service() {
  const TimeMicros now = clock_.now();
  while (heap_.has_min() &&
         now >= heap_.min_timestamp() + static_cast<TimeMicros>(frame_us_)) {
    auto popped = heap_.pop_min();
    if (!popped) break;
    emit(std::move(popped).value(), true);
  }
  decay_frame(now);
}

void OnlineSorter::flush_all() {
  while (heap_.has_min()) {
    auto popped = heap_.pop_min();
    if (!popped) break;
    emit(std::move(popped).value(), true);
  }
}

std::size_t OnlineSorter::remove_node(NodeId node) {
  auto it = queues_.find(node);
  if (it == queues_.end()) return 0;
  std::size_t drained = 0;
  EventQueue& queue = *it->second;
  // The heap must stop referencing the queue before we drain it: pop_min
  // re-peeks queue heads when fixing itself up.
  (void)heap_.remove_queue(node);
  while (!queue.empty()) {
    emit(queue.pop(), /*respect_order_check=*/false);
    ++drained;
  }
  queues_.erase(it);
  return drained;
}

TimeMicros OnlineSorter::next_due_in() {
  if (!heap_.has_min()) return -1;
  return heap_.min_timestamp() + static_cast<TimeMicros>(frame_us_) - clock_.now();
}

}  // namespace brisk::ism
