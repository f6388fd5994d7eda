// A counting global allocator for the layer replay.
//
// counting_alloc.cpp replaces the global operator new/delete of the binary
// that links it (brisk_replay only; the end-to-end load generator keeps the
// system allocator). Calls and requested bytes are counted, from every
// thread, only between start() and stop(), so set-up and teardown outside
// the timed region never show up in a layer's figures.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

struct Counts {
  std::uint64_t calls = 0;  // operator new / new[] calls
  std::uint64_t bytes = 0;  // bytes requested by those calls
};

/// Zeroes the counters and starts counting.
void start() noexcept;
/// Stops counting and returns what was counted since start().
Counts stop() noexcept;

/// Proves the counting is exact: a known allocation pattern inside the
/// counted region is counted call for call and byte for byte, and
/// allocations outside it are not. Prints its findings; true on success.
bool self_test();

}  // namespace perfbench::alloc
