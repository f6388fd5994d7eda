// Wall-clock and CPU-time helpers. Everything in BRISK that *reads time*
// goes through clk::Clock (src/clock); these free functions are the raw OS
// primitives that SystemClock and the benchmark harness build on.
#pragma once

#include <string>

#include "common/types.hpp"

namespace brisk {

/// Microseconds of UTC from the realtime clock (the paper's gettimeofday).
TimeMicros wall_time_micros() noexcept;

/// Monotonic microseconds, for intervals that must not jump with clock sync.
TimeMicros monotonic_micros() noexcept;

/// CPU time consumed by the calling process (user + system), microseconds.
TimeMicros process_cpu_micros() noexcept;

/// CPU time consumed by the calling thread, microseconds.
TimeMicros thread_cpu_micros() noexcept;

/// Shortest wait of a loop that sleeps until its next work is due (the EXS
/// loop, the ISM ordering loop, the sorter shard workers): a due time that
/// is a few microseconds away must not turn the loop into a busy spin.
inline constexpr TimeMicros kMinLoopWaitUs = 100;

/// Sleeps the calling thread (best effort; may wake early on signals).
void sleep_micros(TimeMicros duration) noexcept;

/// "seconds.micros" rendering used by PICL output and logs.
std::string format_micros(TimeMicros t);

}  // namespace brisk
