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

brisk::apps::FlagRegistry make_registry() {
  brisk::apps::FlagRegistry flags("brisk_exs", "BRISK external sensor daemon");
  flags.add_int("node", 0, "node id reported to the ISM")
      .add_string("shm", "", "named shared-memory ring directory (required)")
      .add_bool("attach", false, "attach to an existing ring instead of creating it")
      .add_int("slots", 8, "sensor ring slots")
      .add_int("ring-bytes", 1 << 20, "per-ring capacity in bytes")
      .add_string("ism-host", "127.0.0.1", "ISM host to connect to")
      .add_int("ism-port", 0, "ISM port to connect to (required)")
      .add_string("poller", "select", "readiness backend: select or epoll")
      .add_int("batch-records", 256, "flush a batch after this many records")
      .add_int("batch-bytes", 32768, "flush a batch after this many bytes")
      .add_int("batch-age-us", 20'000, "flush a batch older than this")
      .add_int("select-timeout-us", 40'000, "longest poll wait (idle cap) in microseconds")
      .add_int("replay-batches", 256, "replay buffer cap in batches")
      .add_int("replay-bytes", 0, "replay buffer cap in bytes (0 = unlimited)")
      .add_bool("exs-pace", true, "honour ISM credit grants (pace sends to the granted window)")
      .add_int("backoff-base-us", 50'000, "reconnect backoff base")
      .add_int("backoff-cap-us", 5'000'000, "reconnect backoff ceiling")
      .add_double("backoff-jitter", 0.2, "reconnect backoff jitter fraction")
      .add_int("max-reconnects", 0, "give up after this many reconnects (0 = forever)")
      .add_int("heartbeat-us", 1'000'000, "heartbeat period while idle")
      .add_int("ism-silence-us", 0, "reconnect if the ISM is silent this long (0 = off)")
      .add_int("metrics-interval", 0,
               "emit self-instrumentation metrics records every N seconds (0 = off)")
      .add_double("trace-sample-rate", 0.0,
                  "fraction of records carrying end-to-end trace annotations (0..1)")
      .add_int("workload-rate", 0,
               "emit synthetic records at this rate per second (0 = off)")
      .add_int("fault-seed", 1, "RNG seed for outbound fault injection")
      .add_double("fault-drop", 0.0, "probability of dropping an outbound frame")
      .add_double("fault-dup", 0.0, "probability of duplicating an outbound frame")
      .add_double("fault-trunc", 0.0, "probability of truncating an outbound frame")
      .add_double("fault-stall", 0.0, "probability of stalling before an outbound frame")
      .add_int("fault-stall-us", 0, "stall duration in microseconds")
      .add_int("fault-stall-every", 0, "stall deterministically every N frames (0 = off)")
      .add_int("nice", 0, "setpriority() delta for this process")
      .add_bool("verbose", false, "log at info level");
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace brisk;
  apps::FlagRegistry flags = make_registry();
  flags.parse(argc, argv);

  NodeConfig config;
  config.node = flags.node_id("node");
  config.shm_name = flags.str("shm");
  config.sensor_slots = flags.count<std::uint32_t>("slots");
  config.ring_capacity = flags.count<std::uint32_t>("ring-bytes");
  config.exs.batch_max_records = flags.count<std::uint32_t>("batch-records");
  config.exs.batch_max_bytes = flags.count<std::uint32_t>("batch-bytes");
  config.exs.batch_max_age_us = flags.num("batch-age-us");
  config.exs.select_timeout_us = flags.num("select-timeout-us");
  auto backend = net::parse_poller_backend(flags.str("poller"));
  if (!backend) {
    std::fprintf(stderr, "brisk_exs: --poller: %s\n", backend.status().to_string().c_str());
    return 2;
  }
  config.exs.poller = backend.value();
  config.exs.replay_buffer_batches = flags.count<std::uint32_t>("replay-batches");
  config.exs.replay_buffer_bytes = flags.count<std::size_t>("replay-bytes");
  config.exs.pace = flags.flag("exs-pace");
  config.exs.reconnect_backoff_base_us = flags.num("backoff-base-us");
  config.exs.reconnect_backoff_cap_us = flags.num("backoff-cap-us");
  config.exs.reconnect_jitter = flags.real("backoff-jitter");
  config.exs.max_reconnect_attempts = flags.count<std::uint32_t>("max-reconnects");
  config.exs.heartbeat_period_us = flags.num("heartbeat-us");
  config.exs.ism_silence_timeout_us = flags.num("ism-silence-us");
  config.exs.metrics_interval_us = flags.num("metrics-interval") * 1'000'000;
  config.trace_sample_rate = flags.real("trace-sample-rate");
  const long long workload_rate = flags.num("workload-rate");
  sim::FaultPlan fault_plan;
  fault_plan.seed = static_cast<std::uint64_t>(flags.num("fault-seed"));
  fault_plan.drop_probability = flags.real("fault-drop");
  fault_plan.duplicate_probability = flags.real("fault-dup");
  fault_plan.truncate_probability = flags.real("fault-trunc");
  fault_plan.stall_probability = flags.real("fault-stall");
  fault_plan.stall_us = flags.num("fault-stall-us");
  fault_plan.stall_every = flags.count<std::uint32_t>("fault-stall-every");
  const std::string ism_host = flags.str("ism-host");
  const auto ism_port = flags.count<std::uint16_t>("ism-port");
  const int nice_delta = static_cast<int>(flags.num("nice"));
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
  if (nice_delta != 0 && ::setpriority(PRIO_PROCESS, 0, nice_delta) != 0) {
    std::fprintf(stderr, "brisk_exs: warning: setpriority failed\n");
  }

  auto node = attach ? BriskNode::attach(config) : BriskNode::create(config);
  if (!node) {
    std::fprintf(stderr, "brisk_exs: %s\n", node.status().to_string().c_str());
    return 1;
  }
  Status plan_ok = fault_plan.validate();
  if (!plan_ok) {
    std::fprintf(stderr, "brisk_exs: %s\n", plan_ok.to_string().c_str());
    return 2;
  }
  auto exs = node.value()->connect_exs(ism_host, ism_port);
  if (!exs) {
    std::fprintf(stderr, "brisk_exs: %s\n", exs.status().to_string().c_str());
    return 1;
  }
  const bool faults_enabled =
      fault_plan.drop_probability > 0 || fault_plan.duplicate_probability > 0 ||
      fault_plan.truncate_probability > 0 || fault_plan.stall_probability > 0 ||
      fault_plan.stall_every > 0;
  sim::FaultInjector fault_injector(fault_plan);
  if (faults_enabled) exs.value()->set_fault_policy(fault_injector.policy());
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
  if (faults_enabled) {
    const net::FaultStats& faults = exs.value()->fault_stats();
    std::printf("faults injected: %llu/%llu frames dropped, %llu stalled, %llu truncated, "
                "%llu duplicated\n",
                static_cast<unsigned long long>(faults.dropped),
                static_cast<unsigned long long>(faults.frames),
                static_cast<unsigned long long>(faults.stalled),
                static_cast<unsigned long long>(faults.truncated),
                static_cast<unsigned long long>(faults.duplicated));
  }
  return 0;
}
