#include "ism/merge_heap.hpp"

#include <utility>

namespace brisk::ism {

Status MergeHeap::add_queue(EventQueue* queue) {
  if (queue == nullptr) return Status(Errc::invalid_argument, "null queue");
  auto [it, inserted] = queues_.try_emplace(queue->node(), queue);
  if (!inserted) return Status(Errc::already_exists, "queue for node already registered");
  in_heap_[queue->node()] = false;
  notify_pushed(queue->node());
  return Status::ok();
}

Status MergeHeap::remove_queue(NodeId node) {
  if (queues_.erase(node) == 0) return Status(Errc::not_found, "no queue for node");
  in_heap_.erase(node);
  // Lazy removal: rebuild the heap without the node's entry.
  std::vector<Entry> keep;
  keep.reserve(heap_.size());
  for (const Entry& e : heap_) {
    if (e.queue->node() != node) keep.push_back(e);
  }
  heap_.clear();
  for (const Entry& e : keep) heap_push(e);
  return Status::ok();
}

void MergeHeap::notify_pushed(NodeId node) {
  auto it = queues_.find(node);
  if (it == queues_.end() || it->second->empty()) return;
  auto flag = in_heap_.find(node);
  if (flag == in_heap_.end() || flag->second) return;
  heap_push({it->second->front().timestamp, it->second});
  flag->second = true;
}

TimeMicros MergeHeap::min_timestamp() const {
  return heap_.empty() ? 0 : heap_.front().timestamp;
}

Result<sensors::Record> MergeHeap::pop_min() {
  if (heap_.empty()) return Status(Errc::buffer_empty, "merge heap empty");
  Entry top = heap_pop();
  in_heap_[top.queue->node()] = false;
  sensors::Record record = top.queue->pop();
  // Re-arm the queue's entry with its new head.
  notify_pushed(top.queue->node());
  return record;
}

std::size_t MergeHeap::pending() const noexcept {
  std::size_t total = 0;
  for (const auto& [node, queue] : queues_) total += queue->size();
  return total;
}

void MergeHeap::heap_push(Entry entry) {
  heap_.push_back(entry);
  sift_up(heap_.size() - 1);
}

MergeHeap::Entry MergeHeap::heap_pop() {
  Entry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return top;
}

void MergeHeap::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(heap_[parent] > heap_[i])) break;
    std::swap(heap_[parent], heap_[i]);
    i = parent;
  }
}

void MergeHeap::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t smallest = i;
    const std::size_t left = 2 * i + 1;
    const std::size_t right = 2 * i + 2;
    if (left < n && heap_[smallest] > heap_[left]) smallest = left;
    if (right < n && heap_[smallest] > heap_[right]) smallest = right;
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

}  // namespace brisk::ism
