// brisk_ism: the instrumentation system manager executable (one of the
// paper's "two executables").
//
// Usage:
//   brisk_ism --port 7411 --shm /brisk-out --picl trace.picl
//             --poller epoll --ism-reader-threads 4 --ism-sorter-shards 4
//             --frame-us 10000 --sync-algorithm brisk
//
// Runs until SIGINT/SIGTERM, then drains the sorter and exits. See --help
// for the full knob list (generated from the knob tables in core/knobs.cpp).
#include <csignal>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "apps/flag_parser.hpp"
#include "common/logging.hpp"
#include "core/brisk_manager.hpp"
#include "core/version.hpp"
#include "metrics/flight_recorder.hpp"
#include "metrics/metrics.hpp"
#include "sim/fault_injector.hpp"

namespace {

brisk::BriskManager* g_manager = nullptr;

void handle_signal(int) {
  if (g_manager != nullptr) g_manager->stop();
}

void handle_dump_signal(int) { brisk::metrics::request_flight_dump(); }

/// The exit summary's "loss:" line: every counter that names where an
/// admitted record went other than to a sink, read from the same metrics
/// snapshot the 0xFF01 records carry. Subscribers with queue drops are
/// listed by name; the shm sink's refusals are its matched minus delivered.
std::string loss_line(const std::vector<brisk::metrics::Sample>& samples) {
  auto value = [&samples](std::string_view name) -> unsigned long long {
    for (const brisk::metrics::Sample& sample : samples) {
      if (sample.name == name) return sample.value;
    }
    return 0;
  };
  const std::string_view prefix = "ism.gateway.sub.";
  const std::string_view suffix = ".dropped";
  unsigned long long sub_drops = 0;
  std::string by_subscriber;
  for (const brisk::metrics::Sample& sample : samples) {
    std::string_view name = sample.name;
    if (sample.value == 0 || !name.starts_with(prefix) || !name.ends_with(suffix)) continue;
    name.remove_prefix(prefix.size());
    name.remove_suffix(suffix.size());
    sub_drops += sample.value;
    by_subscriber += by_subscriber.empty() ? " (" : ", ";
    by_subscriber += std::string(name) + " " + std::to_string(sample.value);
  }
  if (!by_subscriber.empty()) by_subscriber += ")";
  // Matched is read before delivered, so a run delivered in between could
  // make the difference negative; after drain() nothing is in flight.
  const unsigned long long shm_matched = value("ism.gateway.sub.shm.matched");
  const unsigned long long shm_delivered = value("ism.gateway.sub.shm.delivered");
  const unsigned long long shm_refused =
      shm_matched > shm_delivered ? shm_matched - shm_delivered : 0;
  return "loss: " + std::to_string(value("ism.gateway.lane_drops")) + " gateway lane drops, " +
         std::to_string(sub_drops) + " subscriber queue drops" + by_subscriber + ", " +
         std::to_string(value("ism.gateway.tcp_evicted")) + " subscribers evicted, " +
         std::to_string(shm_refused) + " shm ring refusals, " +
         std::to_string(value("ism.sorter.overflow_drops")) + " sorter overflow drops, " +
         std::to_string(value("ism.pipeline.merge_inversions")) + " merge inversions";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace brisk;
  apps::FlagRegistry flags("brisk_ism", "BRISK instrumentation system manager");
  flags.add_knobs(manager_knobs())
      .add_knobs(fault_knobs())
      .add_bool("verbose", false, "log at info level");
  flags.parse(argc, argv);

  ManagerConfig config;
  flags.apply_knobs(manager_knobs(), config);
  sim::FaultPlan fault_plan;
  flags.apply_knobs(fault_knobs(), fault_plan);
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
  sim::FaultInjector fault_injector(fault_plan);
  if (fault_plan.enabled()) manager.value()->ism().set_fault_policy(fault_injector.policy());
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
  std::printf("%s\n", loss_line(manager.value()->ism().metrics().snapshot()).c_str());
  if (config.ism.credit_window_records > 0) {
    std::printf("credit: %llu grants (%llu zero-window), %llu half-window updates, "
                "%llu drain window updates\n",
                static_cast<unsigned long long>(stats.credit_grants_sent),
                static_cast<unsigned long long>(stats.zero_window_grants),
                static_cast<unsigned long long>(stats.window_update_acks),
                static_cast<unsigned long long>(stats.drain_window_updates));
  }
  if (fault_plan.enabled()) {
    std::printf("%s\n", net::to_string(manager.value()->ism().fault_stats()).c_str());
  }
  return 0;
}
