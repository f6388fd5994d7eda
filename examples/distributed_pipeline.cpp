// Distributed pipeline: the paper's motivating scenario — a multi-process
// parallel application whose stages hand work to each other, instrumented
// with causally-related events so the IS can order cross-node interactions
// even with unsynchronized clocks.
//
// Topology (3 forked node processes, loopback TCP to one ISM):
//   producer (node 1)  --work items-->  transformer (node 2)  --> sink (node 3)
//
// Each hand-off is marked X_REASON on the sender and X_CONSEQ on the
// receiver with the work-item id, so BRISK's CRE matcher guarantees the
// receive can never be ordered before its send (tachyon repair) — the
// per-node clocks are deliberately skewed to force tachyons.
//
// Build & run:  ./examples/distributed_pipeline
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <thread>

#include "clock/sim_clock.hpp"
#include "common/time_util.hpp"
#include "consumers/trace_stats.hpp"
#include "core/brisk_manager.hpp"
#include "core/brisk_node.hpp"

namespace {

using namespace brisk;           // NOLINT
using namespace brisk::sensors;  // NOLINT

constexpr SensorId kProduce = 10;   // reason: item leaves the producer
constexpr SensorId kTransform = 20; // conseq of produce, reason for sink
constexpr SensorId kConsume = 30;   // conseq of transform
constexpr int kItems = 40;
constexpr TimeMicros kRunBudget = 4'000'000;

struct StageConfig {
  NodeId node;
  TimeMicros clock_skew_us;  // deliberate, to force tachyons
};

/// One pipeline stage in its own process: instruments `kItems` hand-offs.
[[noreturn]] void run_stage(const StageConfig& stage, std::uint16_t ism_port) {
  // Skewed node clock: this is what defeats naive timestamp ordering.
  clk::SimClock clock(clk::SystemClock::instance(), {.initial_offset_us = stage.clock_skew_us});

  NodeConfig config;
  config.node = stage.node;
  config.exs.select_timeout_us = 2'000;
  config.exs.batch_max_age_us = 1'000;
  auto node = BriskNode::create(config, clock);
  if (!node) _exit(10);
  auto sensor = node.value()->make_sensor();
  if (!sensor) _exit(11);
  auto exs = node.value()->connect_exs("127.0.0.1", ism_port);
  if (!exs) _exit(12);

  std::thread exs_thread([&] { (void)exs.value()->run_for(kRunBudget); });

  // The stage's work loop. Real stages would pass data over a queue or
  // socket; the timing (producer first, sink last per item) is emulated
  // with small sleeps — the instrumentation pattern is the point.
  for (int item = 0; item < kItems; ++item) {
    const auto id = static_cast<CausalId>(item);
    switch (stage.node) {
      case 1:  // producer: emit work, mark as reason
        BRISK_NOTICE(sensor.value(), kProduce, x_reason(id), x_i32(item), x_str("produced"));
        sleep_micros(3'000);
        break;
      case 2:  // transformer: receive (conseq), process, forward (reason)
        sleep_micros(1'000);
        BRISK_NOTICE(sensor.value(), kTransform, x_conseq(id), x_reason(id + 1'000),
                     x_i32(item * 2));
        sleep_micros(2'000);
        break;
      case 3:  // sink: receive the transformed item
        sleep_micros(2'000);
        BRISK_NOTICE(sensor.value(), kConsume, x_conseq(id + 1'000), x_i32(item * 2));
        sleep_micros(1'000);
        break;
      default: _exit(13);
    }
  }
  sleep_micros(200'000);  // let the EXS drain the tail
  exs.value()->stop();
  exs_thread.join();
  _exit(0);
}

}  // namespace

int main() {
  ManagerConfig manager_config;
  manager_config.ism.select_timeout_us = 2'000;
  manager_config.ism.sorter.initial_frame_us = 20'000;
  manager_config.ism.cre.hold_timeout_us = 2'000'000;
  manager_config.ism.enable_sync = true;
  manager_config.ism.sync.period_us = 200'000;
  auto manager = BriskManager::create(manager_config);
  if (!manager) {
    std::fprintf(stderr, "manager: %s\n", manager.status().to_string().c_str());
    return 1;
  }
  std::printf("pipeline: ISM on port %u, 3 stage processes, %d items\n",
              manager.value()->port(), kItems);

  const StageConfig stages[3] = {
      {1, -40'000},  // producer clock 40 ms behind
      {2, +25'000},  // transformer 25 ms ahead
      {3, 0},
  };
  std::vector<pid_t> children;
  for (const StageConfig& stage : stages) {
    const pid_t pid = ::fork();
    if (pid < 0) return 1;
    if (pid == 0) run_stage(stage, manager.value()->port());
    children.push_back(pid);
  }

  std::thread ism_thread([&] { (void)manager.value()->run_for(kRunBudget + 500'000); });

  // Consume and analyze the merged, ordered, causally-repaired stream.
  auto consumer = manager.value()->make_consumer();
  if (!consumer) return 1;
  consumers::TraceStats stats;
  std::map<CausalId, TimeMicros> produce_ts;
  int causality_violations = 0;
  int received = 0;
  const TimeMicros deadline = monotonic_micros() + kRunBudget;
  while (received < kItems * 3 && monotonic_micros() < deadline) {
    auto record = consumer.value().poll();
    if (!record) break;
    if (!record.value().has_value()) {
      sleep_micros(2'000);
      continue;
    }
    const sensors::Record& r = *record.value();
    stats.add(r);
    ++received;
    if (auto reason = r.reason_id()) produce_ts[*reason] = r.timestamp;
    if (auto conseq = r.conseq_id()) {
      auto it = produce_ts.find(*conseq);
      if (it != produce_ts.end() && r.timestamp <= it->second) ++causality_violations;
    }
  }

  for (pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  manager.value()->stop();
  ism_thread.join();
  (void)manager.value()->drain();

  std::printf("\n--- delivered trace ---\n%s", stats.report().c_str());
  std::printf("causality violations in delivered order: %d (must be 0)\n",
              causality_violations);
  std::printf("tachyons repaired by the ISM: %llu\n",
              static_cast<unsigned long long>(
                  manager.value()->ism().cre_stats().tachyons_repaired));
  std::printf("extra clock-sync rounds requested: %llu\n",
              static_cast<unsigned long long>(
                  manager.value()->ism().cre_stats().extra_sync_requests));
  return (received == kItems * 3 && causality_violations == 0) ? 0 : 1;
}
