// Timestamp-ordered merge across the per-EXS queues.
//
// "For dynamic merging/on-line sorting and extracting instrumentation data
// records from multiple queues, the ISM uses a heap having one entry for
// each queue." The heap holds at most one entry per queue — the queue
// head's timestamp — so extracting the global minimum is O(log n_queues)
// regardless of how many records are pending.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ism/event_queue.hpp"

namespace brisk::ism {

class MergeHeap {
 public:
  /// Registers a queue (one per connected EXS). The queue must outlive the
  /// heap. Re-adding a node id is an error.
  Status add_queue(EventQueue* queue);
  Status remove_queue(NodeId node);

  /// Re-establishes the heap entry for `node` after records were pushed to
  /// its queue (cheap no-op if already present).
  void notify_pushed(NodeId node);

  /// Timestamp of the globally smallest queue-head record, if any.
  [[nodiscard]] bool has_min() const noexcept { return !heap_.empty(); }
  [[nodiscard]] TimeMicros min_timestamp() const;

  /// Pops the globally smallest record and fixes up the heap.
  Result<sensors::Record> pop_min();

  [[nodiscard]] std::size_t queue_count() const noexcept { return queues_.size(); }
  /// Total records pending across all queues.
  [[nodiscard]] std::size_t pending() const noexcept;

 private:
  struct Entry {
    TimeMicros timestamp;
    EventQueue* queue;
    bool operator>(const Entry& other) const noexcept {
      if (timestamp != other.timestamp) return timestamp > other.timestamp;
      return queue->node() > other.queue->node();  // deterministic tie-break
    }
  };

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void heap_push(Entry entry);
  Entry heap_pop();

  std::map<NodeId, EventQueue*> queues_;
  std::map<NodeId, bool> in_heap_;
  std::vector<Entry> heap_;  // binary min-heap (operator> above)
};

}  // namespace brisk::ism
