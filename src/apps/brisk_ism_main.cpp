// brisk_ism: the instrumentation system manager executable (one of the
// paper's "two executables").
//
// Usage:
//   brisk_ism --port 7411 --shm /brisk-out --picl trace.picl
//             --poller epoll --ism-reader-threads 4 --ism-sorter-shards 4
//             --frame-us 10000 --sync-algorithm brisk
//
// Runs until SIGINT/SIGTERM, then drains the sorter and exits. See --help
// for the full knob list (generated from the flag registry).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/flag_parser.hpp"
#include "common/logging.hpp"
#include "core/brisk_manager.hpp"
#include "core/version.hpp"
#include "metrics/flight_recorder.hpp"
#include "sim/fault_injector.hpp"

namespace {

brisk::BriskManager* g_manager = nullptr;

void handle_signal(int) {
  if (g_manager != nullptr) g_manager->stop();
}

void handle_dump_signal(int) { brisk::metrics::request_flight_dump(); }

brisk::apps::FlagRegistry make_registry() {
  brisk::apps::FlagRegistry flags("brisk_ism", "BRISK instrumentation system manager");
  flags.add_int("port", 0, "TCP port to listen on (0 = ephemeral)")
      .add_string("shm", "", "named shared-memory output ring (empty = anonymous)")
      .add_int("output-ring-bytes", 1 << 20, "output ring capacity in bytes")
      .add_string("picl", "", "write a PICL trace file to this path")
      .add_bool("picl-utc", false, "stamp PICL lines with UTC micros")
      .add_string("poller", "select", "readiness backend: select or epoll")
      .add_int("ism-reader-threads", 0, "ingest reader threads (0 = single-threaded)")
      .add_int("ingest-queue-frames", 1024, "per-connection ingest queue depth (frames)")
      .add_int("ism-sorter-shards", 1, "ordering shards with a k-way merge (1 = inline)")
      .add_int("shard-queue-records", 4096, "per-shard ordering lane depth (records)")
      .add_int("stats-interval", 0, "log a one-line stats summary every N seconds (0 = off)")
      .add_int("metrics-interval", 0,
               "emit self-instrumentation metrics records every N seconds (0 = off)")
      .add_int("select-timeout-us", 40'000, "longest poll wait (idle cap) in microseconds")
      .add_int("frame-us", 10'000, "initial sorter frame window")
      .add_int("min-frame-us", 1'000, "adaptive sorter frame floor")
      .add_int("max-frame-us", 10'000'000, "adaptive sorter frame ceiling")
      .add_double("decay-half-life-s", 1.0, "sorter delay-estimate decay half-life")
      .add_bool("adaptive", true, "adapt the sorter frame to observed delays")
      .add_int("cre-timeout-us", 1'000'000, "causal-relation hold timeout")
      .add_int("peer-idle-us", 30'000'000, "disconnect peers idle longer than this")
      .add_int("quarantine-us", 5'000'000, "session quarantine after unclean close")
      .add_int("ack-period-us", 200'000, "batch acknowledgement period (> 0)")
      .add_int("gap-skip-us", 1'000'000, "give up on a batch-sequence gap after this")
      .add_int("ism-credit-records", 0,
               "per-connection credit window in records (0 = no credit grants)")
      .add_int("ism-credit-bytes", 0, "per-connection credit window in bytes (0 = uncapped)")
      .add_int("credit-replenish-us", 20'000,
               "ack cadence while a session's window is below the full grant")
      .add_int("consumer-port", -1,
               "TCP consumer gateway port (-1 = disabled, 0 = ephemeral)")
      .add_int("consumer-queue-records", 1024,
               "default per-subscriber gateway queue depth (records)")
      .add_int("consumer-max-queue-records", 65536,
               "cap on the per-subscriber queue depth a SUBSCRIBE may request")
      .add_int("consumer-lane-records", 8192, "pipeline -> gateway fan-out lane depth")
      .add_int("consumer-outbox-bytes", 1 << 20, "per-subscriber socket send buffer cap")
      .add_int("consumer-overrun-grace-us", 2'000'000,
               "evict a subscriber continuously overrunning its queue for this long")
      .add_int("consumer-agg-window-us", 1'000'000,
               "default aggregation-subscription window")
      .add_int("consumer-max-subscribers", 64, "max concurrent gateway connections")
      .add_string("relay-to", "",
                  "run as a relay tier: forward the ordered output to a parent ISM "
                  "at host:port (empty = standalone root)")
      .add_int("relay-node", 0, "this relay's node identity toward its parent")
      .add_int("relay-queue-records", 8192, "pipeline -> relay egress queue depth")
      .add_int("relay-batch-records", 512, "relay batch seal threshold (records)")
      .add_int("relay-batch-age-us", 5'000, "relay batch seal threshold (age)")
      .add_int("relay-idle-wm-us", 50'000,
               "idle RELAY_WATERMARK cadence toward the parent (0 = off)")
      .add_bool("relay-aggregate-metrics", false,
                "merge the subtree's metrics snapshots at this relay and forward "
                "one agg.* snapshot per --metrics-interval instead of every record")
      .add_bool("sync", true, "run the clock synchronisation service")
      .add_int("sync-period-us", 5'000'000, "clock sync round period")
      .add_string("sync-algorithm", "brisk", "clock sync algorithm: brisk or cristian")
      .add_int("fault-seed", 1, "RNG seed for outbound fault injection")
      .add_double("fault-drop", 0.0, "probability of dropping an outbound frame")
      .add_double("fault-dup", 0.0, "probability of duplicating an outbound frame")
      .add_double("fault-trunc", 0.0, "probability of truncating an outbound frame")
      .add_double("fault-stall", 0.0, "probability of stalling before an outbound frame")
      .add_int("fault-stall-us", 0, "stall duration in microseconds")
      .add_int("fault-stall-every", 0, "stall deterministically every N frames (0 = off)")
      .add_bool("verbose", false, "log at info level");
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace brisk;
  apps::FlagRegistry flags = make_registry();
  flags.parse(argc, argv);

  ManagerConfig config;
  config.ism.port = flags.count<std::uint16_t>("port");
  config.ism.select_timeout_us = flags.num("select-timeout-us");
  auto backend = net::parse_poller_backend(flags.str("poller"));
  if (!backend) {
    std::fprintf(stderr, "brisk_ism: --poller: %s\n", backend.status().to_string().c_str());
    return 2;
  }
  config.ism.poller = backend.value();
  config.ism.reader_threads = flags.count<std::size_t>("ism-reader-threads");
  config.ism.ingest_queue_frames = flags.count<std::size_t>("ingest-queue-frames");
  config.ism.sorter_shards = flags.count<std::size_t>("ism-sorter-shards");
  config.ism.shard_queue_records = flags.count<std::size_t>("shard-queue-records");
  config.ism.stats_interval_us = flags.num("stats-interval") * 1'000'000;
  config.ism.metrics_interval_us = flags.num("metrics-interval") * 1'000'000;
  config.ism.sorter.initial_frame_us = flags.num("frame-us");
  config.ism.sorter.min_frame_us = flags.num("min-frame-us");
  config.ism.sorter.max_frame_us = flags.num("max-frame-us");
  config.ism.sorter.decay_half_life_s = flags.real("decay-half-life-s");
  config.ism.sorter.adaptive = flags.flag("adaptive");
  config.ism.cre.hold_timeout_us = flags.num("cre-timeout-us");
  config.ism.peer_idle_timeout_us = flags.num("peer-idle-us");
  config.ism.quarantine_timeout_us = flags.num("quarantine-us");
  config.ism.ack_period_us = flags.num("ack-period-us");
  config.ism.gap_skip_timeout_us = flags.num("gap-skip-us");
  config.ism.credit_window_records = flags.count<std::uint32_t>("ism-credit-records");
  config.ism.credit_window_bytes = flags.count<std::uint64_t>("ism-credit-bytes");
  config.ism.credit_replenish_us = flags.num("credit-replenish-us");
  const std::string relay_to = flags.str("relay-to");
  if (!relay_to.empty()) {
    const auto colon = relay_to.rfind(':');
    const unsigned long parent_port =
        colon == std::string::npos ? 0 : std::strtoul(relay_to.c_str() + colon + 1, nullptr, 10);
    if (colon == std::string::npos || colon == 0 || parent_port == 0 || parent_port > 65535) {
      std::fprintf(stderr, "brisk_ism: --relay-to expects host:port, got '%s'\n",
                   relay_to.c_str());
      return 2;
    }
    config.relay_enabled = true;
    config.relay.parent_host = relay_to.substr(0, colon);
    config.relay.parent_port = static_cast<std::uint16_t>(parent_port);
    config.relay.relay_node = flags.node_id("relay-node");
    config.relay.poller = backend.value();
    config.relay.queue_records = flags.count<std::size_t>("relay-queue-records");
    config.relay.batch_max_records = flags.count<std::size_t>("relay-batch-records");
    config.relay.batch_max_age_us = flags.num("relay-batch-age-us");
    config.relay.idle_watermark_period_us = flags.num("relay-idle-wm-us");
    config.relay.aggregate_metrics = flags.flag("relay-aggregate-metrics");
    if (flags.num("metrics-interval") > 0) {
      config.relay.metrics_flush_period_us = flags.num("metrics-interval") * 1'000'000;
    }
  }
  config.ism.enable_sync = flags.flag("sync");
  config.ism.sync.period_us = flags.num("sync-period-us");
  const std::string algorithm = flags.str("sync-algorithm");
  if (algorithm == "brisk") {
    config.ism.sync.algorithm = clk::SyncAlgorithm::brisk;
  } else if (algorithm == "cristian") {
    config.ism.sync.algorithm = clk::SyncAlgorithm::cristian;
  } else {
    std::fprintf(stderr, "brisk_ism: --sync-algorithm: unknown algorithm '%s' (brisk|cristian)\n",
                 algorithm.c_str());
    return 2;
  }
  const long long consumer_port = flags.num("consumer-port");
  config.gateway.tcp_enabled = consumer_port >= 0;
  config.gateway.consumer_port = static_cast<std::uint16_t>(consumer_port < 0 ? 0 : consumer_port);
  config.gateway.poller = backend.value();
  config.gateway.queue_records = flags.count<std::size_t>("consumer-queue-records");
  config.gateway.max_queue_records = flags.count<std::size_t>("consumer-max-queue-records");
  config.gateway.lane_records = flags.count<std::size_t>("consumer-lane-records");
  config.gateway.outbox_bytes = flags.count<std::size_t>("consumer-outbox-bytes");
  config.gateway.overrun_grace_us = flags.num("consumer-overrun-grace-us");
  config.gateway.agg_window_us = flags.num("consumer-agg-window-us");
  config.gateway.max_subscribers = flags.count<std::size_t>("consumer-max-subscribers");
  config.output_ring_capacity = flags.count<std::uint32_t>("output-ring-bytes");
  config.output_shm_name = flags.str("shm");
  config.picl_trace_path = flags.str("picl");
  if (flags.flag("picl-utc")) {
    config.picl_options.mode = picl::TimestampMode::utc_micros;
  } else {
    config.picl_options.epoch_us = clk::SystemClock::instance().now();
  }
  sim::FaultPlan fault_plan;
  fault_plan.seed = static_cast<std::uint64_t>(flags.num("fault-seed"));
  fault_plan.drop_probability = flags.real("fault-drop");
  fault_plan.duplicate_probability = flags.real("fault-dup");
  fault_plan.truncate_probability = flags.real("fault-trunc");
  fault_plan.stall_probability = flags.real("fault-stall");
  fault_plan.stall_us = flags.num("fault-stall-us");
  fault_plan.stall_every = flags.count<std::uint32_t>("fault-stall-every");
  // The ISM's outbound traffic is all control frames (acks, sync, bye) —
  // sparing them would make every --fault-* flag a no-op here. Ack loss is
  // exactly what ISM-side drills exist to exercise.
  fault_plan.spare_control_frames = false;
  if (flags.flag("verbose")) Logging::set_level(LogLevel::info);

  Status plan_ok = fault_plan.validate();
  if (!plan_ok) {
    std::fprintf(stderr, "brisk_ism: %s\n", plan_ok.to_string().c_str());
    return 2;
  }
  Status config_ok = config.validate();
  if (!config_ok) {
    std::fprintf(stderr, "brisk_ism: %s\n", config_ok.to_string().c_str());
    return 2;
  }

  auto manager = BriskManager::create(config);
  if (!manager) {
    std::fprintf(stderr, "brisk_ism: %s\n", manager.status().to_string().c_str());
    return 1;
  }
  const bool faults_enabled =
      fault_plan.drop_probability > 0 || fault_plan.duplicate_probability > 0 ||
      fault_plan.truncate_probability > 0 || fault_plan.stall_probability > 0 ||
      fault_plan.stall_every > 0;
  sim::FaultInjector fault_injector(fault_plan);
  if (faults_enabled) manager.value()->ism().set_fault_policy(fault_injector.policy());
  g_manager = manager.value().get();
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGUSR1, handle_dump_signal);

  std::printf("brisk_ism %s listening on 127.0.0.1:%u\n", version_string(),
              manager.value()->port());
  if (config.gateway.tcp_enabled) {
    std::printf("consumer gateway listening on 127.0.0.1:%u\n",
                manager.value()->consumer_port());
  }
  if (config.relay_enabled) {
    std::printf("relaying ordered output to %s:%u as node %u\n",
                config.relay.parent_host.c_str(), config.relay.parent_port,
                static_cast<unsigned>(config.relay.relay_node));
  }
  std::printf("%s", describe(config).c_str());
  std::fflush(stdout);

  Status st = manager.value()->run();
  if (!st) {
    std::fprintf(stderr, "brisk_ism: %s\n", st.to_string().c_str());
    metrics::dump_flight_recorders(stderr);
    return 1;
  }
  st = manager.value()->drain();
  if (!st) {
    std::fprintf(stderr, "brisk_ism: drain: %s\n", st.to_string().c_str());
    metrics::dump_flight_recorders(stderr);
    return 1;
  }
  const auto& stats = manager.value()->ism().stats();
  std::printf("received %llu records in %llu batches from %llu connections\n",
              static_cast<unsigned long long>(stats.records_received),
              static_cast<unsigned long long>(stats.batches_received),
              static_cast<unsigned long long>(stats.connections_accepted));
  std::printf("resilience: %llu rejoins, %llu dup batches dropped, %llu gaps, "
              "%llu idle disconnects, %llu sessions expired\n",
              static_cast<unsigned long long>(stats.rejoins),
              static_cast<unsigned long long>(stats.duplicate_batches_dropped),
              static_cast<unsigned long long>(stats.batch_seq_gaps),
              static_cast<unsigned long long>(stats.idle_disconnects),
              static_cast<unsigned long long>(stats.sessions_expired));
  if (config.ism.credit_window_records > 0) {
    std::printf("credit: %llu grants (%llu zero-window), %llu half-window updates, "
                "%llu drain window updates\n",
                static_cast<unsigned long long>(stats.credit_grants_sent),
                static_cast<unsigned long long>(stats.zero_window_grants),
                static_cast<unsigned long long>(stats.window_update_acks),
                static_cast<unsigned long long>(stats.drain_window_updates));
  }
  if (faults_enabled) {
    const net::FaultStats& faults = manager.value()->ism().fault_stats();
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
