// Per-EXS event queues. "When the ISM receives a data batch from an
// external sensor, it stores it in the corresponding queue; the in-order
// arrival of these batches is guaranteed by the socket stream protocol."
#pragma once

#include <cstdint>
#include <deque>

#include "sensors/record.hpp"

namespace brisk::ism {

class EventQueue {
 public:
  explicit EventQueue(NodeId node) : node_(node) {}

  void push(sensors::Record record) { queue_.push_back(std::move(record)); }

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }
  [[nodiscard]] const sensors::Record& front() const { return queue_.front(); }

  sensors::Record pop() {
    sensors::Record out = std::move(queue_.front());
    queue_.pop_front();
    return out;
  }

  [[nodiscard]] NodeId node() const noexcept { return node_; }

 private:
  NodeId node_;
  std::deque<sensors::Record> queue_;
};

}  // namespace brisk::ism
