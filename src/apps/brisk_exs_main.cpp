// brisk_exs: the external sensor executable (the other of the paper's "two
// executables").
//
// Creates (or attaches to) the node's named shared-memory ring directory,
// connects to the ISM, and runs the drain/batch/sync loop — "another
// process on the same node [that] may be assigned a lower priority" (see
// --nice).
//
// Usage:
//   brisk_exs --node 1 --shm /brisk-node1 --ism-host 127.0.0.1 --ism-port 7411
//             --slots 8 --ring-bytes 1048576 --nice 10
//
// --workload-rate N runs an in-process synthetic producer (one claimed
// sensor slot emitting N records/second) so a smoke pipeline needs no
// separate instrumented application. --trace-sample-rate enables the
// end-to-end trace annotations on that fraction of records.
#include <sys/resource.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <thread>

#include "apps/flag_parser.hpp"
#include "common/time_util.hpp"
#include "common/logging.hpp"
#include "core/brisk_node.hpp"
#include "core/version.hpp"
#include "metrics/flight_recorder.hpp"
#include "sim/fault_injector.hpp"

namespace {

brisk::lis::ExternalSensor* g_exs = nullptr;

void handle_signal(int) {
  if (g_exs != nullptr) g_exs->stop();
}

void handle_dump_signal(int) {
  brisk::metrics::request_flight_dump();  // drained on the next loop cycle
}

}  // namespace

int main(int argc, char** argv) {
  using namespace brisk;
  apps::FlagRegistry flags("brisk_exs", "BRISK external sensor daemon");
  flags.add_knobs(node_knobs())
      .add_knobs(fault_knobs())
      .add_int("nice", 0, "setpriority() delta for this process")
      .add_bool("verbose", false, "log at info level");
  flags.parse(argc, argv);

  NodeConfig config;
  flags.apply_knobs(node_knobs(), config);
  sim::FaultPlan fault_plan;
  flags.apply_knobs(fault_knobs(), fault_plan);
  const std::string ism_host = flags.str("ism-host");
  const auto ism_port = static_cast<std::uint16_t>(flags.num("ism-port"));
  const long long workload_rate = flags.num("workload-rate");
  const long long nice_delta = flags.num("nice");
  const bool attach = flags.flag("attach");
  if (flags.flag("verbose")) Logging::set_level(LogLevel::info);

  if (config.shm_name.empty()) {
    std::fprintf(stderr, "brisk_exs: --shm /name is required\n");
    return 2;
  }
  if (ism_port == 0) {
    std::fprintf(stderr, "brisk_exs: --ism-port is required\n");
    return 2;
  }
  // A process option, not a NodeConfig knob: checked here, where it is read.
  if (nice_delta < -20 || nice_delta > 19) {
    std::fprintf(stderr, "brisk_exs: flag --nice must be in [-20, 19], got %lld\n", nice_delta);
    return 2;
  }
  if (nice_delta != 0 &&
      ::setpriority(PRIO_PROCESS, 0, static_cast<int>(nice_delta)) != 0) {
    std::fprintf(stderr, "brisk_exs: warning: setpriority failed\n");
  }

  // Usage errors exit 2 before anything is created, as in brisk_ism.
  Status plan_ok = fault_plan.validate();
  if (!plan_ok) {
    std::fprintf(stderr, "brisk_exs: %s\n", plan_ok.to_string().c_str());
    return 2;
  }
  Status config_ok = config.validate();
  if (!config_ok) {
    std::fprintf(stderr, "brisk_exs: %s\n", config_ok.to_string().c_str());
    return 2;
  }

  auto node = attach ? BriskNode::attach(config) : BriskNode::create(config);
  if (!node) {
    std::fprintf(stderr, "brisk_exs: %s\n", node.status().to_string().c_str());
    return 1;
  }
  auto exs = node.value()->connect_exs(ism_host, ism_port);
  if (!exs) {
    std::fprintf(stderr, "brisk_exs: %s\n", exs.status().to_string().c_str());
    return 1;
  }
  sim::FaultInjector fault_injector(fault_plan);
  if (fault_plan.enabled()) exs.value()->set_fault_policy(fault_injector.policy());
  g_exs = exs.value().get();
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGUSR1, handle_dump_signal);

  // Synthetic workload: one claimed sensor slot, paced at --workload-rate
  // records/second, so a smoke pipeline is self-contained.
  std::atomic<bool> workload_stop{false};
  std::thread workload;
  if (workload_rate > 0) {
    auto sensor = node.value()->make_sensor();
    if (!sensor) {
      std::fprintf(stderr, "brisk_exs: workload sensor: %s\n",
                   sensor.status().to_string().c_str());
      return 1;
    }
    workload = std::thread([rate = workload_rate, &workload_stop,
                            s = std::move(sensor).value()]() mutable {
      // Deficit pacing: emit whatever the target rate says is due since the
      // last wakeup, then nap. Sleeping per record would cap the real rate
      // at the scheduler's wakeup cost (~15k/s), far below what the flag
      // can ask for.
      std::uint64_t emitted = 0;
      const TimeMicros start = monotonic_micros();
      while (!workload_stop.load(std::memory_order_acquire)) {
        using namespace brisk::sensors;  // NOLINT
        const TimeMicros elapsed = monotonic_micros() - start;
        const std::uint64_t due = static_cast<std::uint64_t>(
            static_cast<double>(rate) * static_cast<double>(elapsed) / 1e6);
        if (emitted >= due) {
          sleep_micros(500);
          continue;
        }
        std::uint64_t burst = due - emitted;
        if (burst > 4096) burst = 4096;
        for (std::uint64_t i = 0; i < burst; ++i) {
          BRISK_NOTICE(s, 1, x_u64(emitted), x_i32(static_cast<std::int32_t>(emitted & 0xff)));
          ++emitted;
        }
      }
    });
  }

  std::printf("brisk_exs %s node %u, rings at %s, ISM %s:%u\n", version_string(), config.node,
              config.shm_name.c_str(), ism_host.c_str(), ism_port);
  std::printf("%s", describe(config).c_str());
  std::fflush(stdout);

  Status st = exs.value()->run();
  workload_stop.store(true, std::memory_order_release);
  if (workload.joinable()) workload.join();
  (void)exs.value()->core().flush();
  if (!st && st.code() != Errc::closed) {
    std::fprintf(stderr, "brisk_exs: %s\n", st.to_string().c_str());
    metrics::dump_flight_recorders(stderr);
    return 1;
  }
  const auto stats = exs.value()->core().stats();
  std::printf("forwarded %llu records in %llu batches (%llu ring drops)\n",
              static_cast<unsigned long long>(stats.records_forwarded),
              static_cast<unsigned long long>(stats.batches_sent),
              static_cast<unsigned long long>(stats.ring_drops_seen));
  std::printf("resilience: %llu reconnects, %llu replayed, %llu evicted, %llu pending\n",
              static_cast<unsigned long long>(stats.reconnects),
              static_cast<unsigned long long>(stats.batches_replayed),
              static_cast<unsigned long long>(stats.replay_evictions),
              static_cast<unsigned long long>(stats.replay_pending));
  std::printf("loop: %llu wakeups, %llu burst-limited drains\n",
              static_cast<unsigned long long>(stats.loop_wakeups),
              static_cast<unsigned long long>(stats.burst_limited_drains));
  if (fault_plan.enabled()) {
    std::printf("%s\n", net::to_string(exs.value()->fault_stats()).c_str());
  }
  return 0;
}
