// E3 — Maximum EXS → ISM event throughput and the 40-byte wire record.
//
// Paper: "the maximum throughput achieved between an EXS and ISM was 90,000
// events per second", with six-int records of exactly 40 bytes in the
// XDR-based transfer protocol.
//
// Setup: one node saturates (unpaced looping application), one EXS ships to
// one ISM over loopback TCP. We report the record wire size (must be
// exactly 40) and the delivered event rate for several batching settings —
// batching is the knob the paper's number depends on.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_harness.hpp"
#include "clock/clock.hpp"
#include "common/time_util.hpp"
#include "ism/output.hpp"
#include "consumers/gateway_client.hpp"
#include "net/poller.hpp"
#include "sensors/event_record.hpp"
#include "sensors/metrics_record.hpp"
#include "sim/workload.hpp"
#include "tp/wire.hpp"

namespace {

// Shortened by --smoke (the ci.sh regression gate) so the binary doubles as
// a fast does-it-still-run check without a separate harness.
brisk::TimeMicros g_sweep_duration = 1'000'000;

/// Child process body for the ingest sweep: one saturating LIS.
[[noreturn]] void run_sweep_node(brisk::NodeId node_id, std::uint16_t ism_port) {
  using namespace brisk;  // NOLINT
  auto node_config = bench::bench_node_config(node_id);
  node_config.exs.batch_max_records = 256;
  node_config.exs.batch_max_bytes = 1u << 20;
  auto node = BriskNode::create(node_config);
  if (!node) _exit(10);
  auto sensor = node.value()->make_sensor();
  if (!sensor) _exit(11);
  auto exs = node.value()->connect_exs("127.0.0.1", ism_port);
  if (!exs) _exit(12);
  std::thread app([&] {
    sim::WorkloadConfig config;
    config.events_per_sec = 0.0;  // saturate
    config.duration_us = g_sweep_duration;
    (void)sim::run_looping_workload(sensor.value(), config);
  });
  (void)exs.value()->run_for(g_sweep_duration + 200'000);
  app.join();
  _exit(0);
}

/// Child process body for the metrics-heavy federation cell: a *paced*
/// sender whose interesting traffic is its own 0xFF01 self-instrumentation
/// at a 50 ms interval — the aggregation win is measured on those records,
/// so the data plane must not be the bottleneck.
[[noreturn]] void run_metrics_node(brisk::NodeId node_id, std::uint16_t ism_port) {
  using namespace brisk;  // NOLINT
  auto node_config = bench::bench_node_config(node_id);
  node_config.exs.batch_max_records = 256;
  node_config.exs.batch_max_bytes = 1u << 20;
  node_config.exs.metrics_interval_us = 50'000;
  auto node = BriskNode::create(node_config);
  if (!node) _exit(10);
  auto sensor = node.value()->make_sensor();
  if (!sensor) _exit(11);
  auto exs = node.value()->connect_exs("127.0.0.1", ism_port);
  if (!exs) _exit(12);
  std::thread app([&] {
    sim::WorkloadConfig config;
    config.events_per_sec = 2'000;
    config.duration_us = g_sweep_duration;
    (void)sim::run_looping_workload(sensor.value(), config);
  });
  (void)exs.value()->run_for(g_sweep_duration + 200'000);
  app.join();
  _exit(0);
}

/// Ordering-configuration sweep: saturated senders with the epoll ingest
/// path held fixed, across sorter-shard count x reader-thread count. Rate is
/// the record count through the full ordering pipeline (k-way merge + CRE),
/// drained at the end so every submitted record is counted.
int shard_sweep(int senders) {
  using namespace brisk;  // NOLINT
  bench::row("ordering sweep: %d saturated sender processes, epoll, batch_records=256",
             senders);
  bench::row("%8s %16s %16s %12s %14s %10s", "shards", "reader_threads", "delivered(ev/s)",
             "inversions", "submit_stalls", "run_len");
  struct ShardConfig {
    std::size_t shards;
    std::size_t readers;
  };
  std::vector<ShardConfig> grid;
  if (senders <= 2) {
    grid = {{2, 2}};  // --smoke: one sharded config, just prove the path runs
  } else {
    for (std::size_t readers : {std::size_t{0}, std::size_t{4}}) {
      for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        grid.push_back({shards, readers});
      }
    }
  }
  for (const ShardConfig& cfg : grid) {
    auto manager_config = bench::bench_manager_config();
    manager_config.ism.sorter.max_pending = 1u << 22;
    manager_config.ism.poller = net::PollerBackend::epoll;
    manager_config.ism.reader_threads = cfg.readers;
    manager_config.ism.sorter_shards = cfg.shards;
    manager_config.ism.shard_queue_records = 1u << 14;
    auto manager = BriskManager::create(manager_config);
    if (!manager) return 1;

    std::vector<pid_t> children;
    for (int n = 0; n < senders; ++n) {
      const pid_t pid = ::fork();
      if (pid < 0) return 1;
      if (pid == 0) run_sweep_node(static_cast<NodeId>(n + 1), manager.value()->port());
      children.push_back(pid);
    }

    (void)manager.value()->run_for(g_sweep_duration + 600'000);
    manager.value()->stop();
    for (pid_t pid : children) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    (void)manager.value()->drain();

    const auto pipeline_stats = manager.value()->ism().pipeline().stats();
    const double rate = static_cast<double>(pipeline_stats.merged) /
                        (static_cast<double>(g_sweep_duration) / 1e6);
    // run_len: average records released per watermark-front scan — the
    // merge-side batching win (1.0 would mean one scan per record).
    const double run_len =
        pipeline_stats.merge_runs == 0
            ? 0.0
            : static_cast<double>(pipeline_stats.merged) /
                  static_cast<double>(pipeline_stats.merge_runs);
    bench::row("%8zu %16zu %16.0f %12llu %14llu %10.1f", cfg.shards, cfg.readers, rate,
               static_cast<unsigned long long>(pipeline_stats.merge_inversions),
               static_cast<unsigned long long>(pipeline_stats.submit_stalls), run_len);
  }
  bench::row("shape check: shards>=2 beats shards=1 once ingest feeds from reader threads");
  return 0;
}

/// Tracing-overhead check: one saturated single-node run per sample rate,
/// all in-process (forked senders would add scheduler noise that swamps a
/// few percent). Reports the delivered-rate delta of 1% sampling.
int trace_overhead(brisk::TimeMicros duration) {
  using namespace brisk;  // NOLINT
  bench::row("trace overhead: saturated single node, batch_records=256");
  bench::row("%18s %16s", "trace_sample_rate", "delivered(ev/s)");
  double rates[2] = {0.0, 0.0};
  const double sample_rates[2] = {0.0, 0.01};
  for (int pass = 0; pass < 2; ++pass) {
    auto manager_config = bench::bench_manager_config();
    manager_config.ism.sorter.max_pending = 1u << 22;
    auto manager = BriskManager::create(manager_config);
    if (!manager) return 1;
    auto node_config = bench::bench_node_config(1);
    node_config.exs.batch_max_records = 256;
    node_config.exs.batch_max_bytes = 1u << 20;
    node_config.trace_sample_rate = sample_rates[pass];
    auto node = BriskNode::create(node_config);
    if (!node) return 1;
    auto sensor = node.value()->make_sensor();
    if (!sensor) return 1;
    auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
    if (!exs) return 1;

    std::thread ism_thread([&] { (void)manager.value()->run_for(duration + 500'000); });
    std::thread app_thread([&] {
      sim::WorkloadConfig config;
      config.events_per_sec = 0.0;  // saturate
      config.duration_us = duration;
      (void)sim::run_looping_workload(sensor.value(), config);
    });
    const TimeMicros wall_before = monotonic_micros();
    (void)exs.value()->run_for(duration + 300'000);
    const double wall_s = static_cast<double>(monotonic_micros() - wall_before) / 1e6;
    app_thread.join();
    exs.value()->stop();
    manager.value()->stop();
    ism_thread.join();

    const auto& ism_stats = manager.value()->ism().stats();
    rates[pass] = static_cast<double>(ism_stats.records_received) / wall_s;
    bench::row("%18.2f %16.0f", sample_rates[pass], rates[pass]);
  }
  if (rates[0] > 0) {
    bench::row("overhead at 1%% sampling: %+.1f%% (acceptance: < 3%%)",
               (rates[0] - rates[1]) / rates[0] * 100.0);
  }
  return 0;
}

/// Credit flow-control sweep: delivered vs offered load with drop counts,
/// credits off vs on, against a throttled ISM (one reader thread feeding a
/// tiny ingest lane, so a full lane pauses the socket and the TCP window
/// pushes back). Credits off: the overdriven EXS blasts into the blocked
/// socket, its write stalls starve ring draining, and records drop at the
/// rings. Credits on: the shrunken window parks batches in the replay
/// buffer instead, draining continues, and nothing is lost.
int flow_sweep(bool smoke) {
  using namespace brisk;  // NOLINT
  const TimeMicros duration = smoke ? 1'000'000 : 2'000'000;
  bench::row("flow-control sweep: 1 paced sender, throttled ISM "
             "(1 reader thread, ingest_queue_frames=4, 40ms cycle)");
  bench::row("%14s %8s %16s %16s %12s %14s %14s %8s", "offered(ev/s)", "window",
             "generated(ev/s)", "delivered(ev/s)", "ring_drops", "replay_evicts",
             "paced_batches", "grants");
  const std::vector<double> offered =
      smoke ? std::vector<double>{240'000} : std::vector<double>{30'000, 120'000, 240'000};
  bool smoke_ok = true;
  for (double rate : offered) {
    for (std::uint32_t window : {0u, 8192u}) {
      auto manager_config = bench::bench_manager_config();
      manager_config.ism.sorter.max_pending = 1u << 22;
      manager_config.ism.select_timeout_us = 40'000;  // the drain-rate throttle
      manager_config.ism.reader_threads = 1;
      manager_config.ism.ingest_queue_frames = 4;
      manager_config.ism.ack_period_us = 20'000;
      manager_config.ism.credit_window_records = window;
      manager_config.ism.credit_replenish_us = 5'000;
      auto manager = BriskManager::create(manager_config);
      if (!manager) return 1;
      auto node_config = bench::bench_node_config(1);
      node_config.ring_capacity = 64 * 1024;  // a short cushion once sends stall
      node_config.exs.batch_max_records = 16;
      node_config.exs.batch_max_bytes = 1u << 20;
      node_config.exs.replay_buffer_batches = 1u << 15;
      auto node = BriskNode::create(node_config);
      if (!node) return 1;
      auto sensor = node.value()->make_sensor();
      if (!sensor) return 1;
      auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
      if (!exs) return 1;

      std::thread ism_thread([&] { (void)manager.value()->run_for(duration + 500'000); });
      sim::WorkloadResult workload{};
      std::thread app_thread([&] {
        sim::WorkloadConfig config;
        config.events_per_sec = rate;
        config.duration_us = duration;
        workload = sim::run_looping_workload(sensor.value(), config);
      });
      const TimeMicros wall_before = monotonic_micros();
      (void)exs.value()->run_for(duration + 300'000);
      const double wall_s = static_cast<double>(monotonic_micros() - wall_before) / 1e6;
      app_thread.join();
      exs.value()->stop();
      manager.value()->stop();
      ism_thread.join();

      const auto& ism_stats = manager.value()->ism().stats();
      const auto exs_stats = exs.value()->core().stats();
      bench::row("%14.0f %8u %16.0f %16.0f %12llu %14llu %14llu %8llu", rate, window,
                 workload.achieved_rate_per_sec(),
                 static_cast<double>(ism_stats.records_received) / wall_s,
                 static_cast<unsigned long long>(exs_stats.ring_drops_seen),
                 static_cast<unsigned long long>(exs_stats.replay_evictions),
                 static_cast<unsigned long long>(exs_stats.paced_batches),
                 static_cast<unsigned long long>(exs_stats.credit_grants_received));
      if (smoke && window > 0 && exs_stats.ring_drops_seen != 0) smoke_ok = false;
    }
  }
  bench::row("shape check: at overload, window>0 rows lose nothing at the rings "
             "(parked batches absorb the excess); window=0 rows drop");
  return smoke_ok ? 0 : 1;
}

/// Consumer fan-out sweep: a saturated single-node transfer with N TCP
/// gateway subscribers attached (mixed filters: full stream, 1-in-16
/// sampled, sensor- and node-scoped, plus an aggregate subscriber per
/// eight), against the 0-subscriber baseline. The number that matters is
/// the ISM's delivered rate: the gateway's lane decouples TCP fan-out from
/// the merge, so attaching subscribers must not tax the pipeline by more
/// than the accept()-side copy. Acceptance: <= 15% delivered-throughput
/// cost at 16 mixed-filter subscribers.
int fanout_sweep(bool smoke) {
  using namespace brisk;  // NOLINT
  const TimeMicros duration = smoke ? 300'000 : 1'000'000;
  bench::row("fan-out sweep: saturated single node, N TCP gateway subscribers "
             "(mixed filters), batch_records=256");
  bench::row("%12s %16s %12s %16s %12s %12s", "subscribers", "delivered(ev/s)",
             "vs_baseline", "fanout(rec)", "sub_drops", "lane_drops");
  double baseline = 0.0;
  bool smoke_ok = true;
  const std::vector<int> cells =
      smoke ? std::vector<int>{0, 16} : std::vector<int>{0, 1, 4, 16};
  for (int subs : cells) {
    auto manager_config = bench::bench_manager_config();
    manager_config.ism.sorter.max_pending = 1u << 22;
    if (subs > 0) {
      manager_config.gateway.tcp_enabled = true;
      manager_config.gateway.consumer_port = 0;
      manager_config.gateway.lane_records = 1u << 15;
      manager_config.gateway.queue_records = 1u << 15;
      manager_config.gateway.max_queue_records = 1u << 16;
    }
    auto manager = BriskManager::create(manager_config);
    if (!manager) return 1;
    auto node_config = bench::bench_node_config(1);
    node_config.exs.batch_max_records = 256;
    node_config.exs.batch_max_bytes = 1u << 20;
    auto node = BriskNode::create(node_config);
    if (!node) return 1;
    auto sensor = node.value()->make_sensor();
    if (!sensor) return 1;
    auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
    if (!exs) return 1;

    // Subscribers attach before the workload starts (the listener is live
    // from manager creation) and poll until the run is over.
    std::atomic<bool> readers_stop{false};
    std::atomic<std::uint64_t> fanout_records{0};
    std::vector<std::thread> readers;
    static const char* kFilters[4] = {"", "sample=16", "sensor=1-8", "node=1"};
    for (int i = 0; i < subs; ++i) {
      readers.emplace_back([&, i] {
        consumers::GatewayClient::Options opt;
        opt.name = "bench-" + std::to_string(i);
        opt.filter = kFilters[i % 4];
        opt.queue_records = 1u << 15;
        const bool agg = (i % 8) == 7;  // one aggregate reader per eight
        if (agg) {
          opt.kind = tp::SubscriptionKind::aggregate;
          opt.agg_window_us = 100'000;
        }
        auto client = consumers::GatewayClient::connect(
            "127.0.0.1", manager.value()->consumer_port(), opt);
        if (!client.is_ok()) return;
        while (!readers_stop.load(std::memory_order_acquire)) {
          bool got = false;
          if (agg) {
            auto polled = client.value().poll_agg();
            if (!polled.is_ok()) break;
            got = polled.value().has_value();
          } else {
            auto polled = client.value().poll();
            if (!polled.is_ok()) break;
            got = polled.value().has_value();
          }
          if (got) {
            fanout_records.fetch_add(1, std::memory_order_relaxed);
          } else {
            sleep_micros(200);
          }
        }
      });
    }

    std::thread ism_thread([&] { (void)manager.value()->run_for(duration + 500'000); });
    std::thread app_thread([&] {
      sim::WorkloadConfig config;
      config.events_per_sec = 0.0;  // saturate
      config.duration_us = duration;
      (void)sim::run_looping_workload(sensor.value(), config);
    });
    const TimeMicros wall_before = monotonic_micros();
    (void)exs.value()->run_for(duration + 300'000);
    const double wall_s = static_cast<double>(monotonic_micros() - wall_before) / 1e6;
    app_thread.join();
    exs.value()->stop();
    manager.value()->stop();
    ism_thread.join();

    std::uint64_t sub_drops = 0;
    std::uint64_t lane_drops = 0;
    if (subs > 0) {
      for (const auto& s : manager.value()->gateway().subscriber_stats()) {
        if (s.tcp) sub_drops += s.dropped;
      }
      lane_drops = manager.value()->gateway().stats().lane_drops;
    }
    readers_stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    const auto& ism_stats = manager.value()->ism().stats();
    const double rate = static_cast<double>(ism_stats.records_received) / wall_s;
    if (subs == 0) baseline = rate;
    const double ratio = baseline > 0 ? rate / baseline : 0.0;
    bench::row("%12d %16.0f %11.0f%% %16llu %12llu %12llu", subs, rate, ratio * 100.0,
               static_cast<unsigned long long>(fanout_records.load()),
               static_cast<unsigned long long>(sub_drops),
               static_cast<unsigned long long>(lane_drops));
    if (smoke && subs > 0 && fanout_records.load() == 0) smoke_ok = false;
  }
  bench::row("acceptance: the 16-subscriber row stays >= 85%% of baseline "
             "(lane-decoupled fan-out; the merge never waits on a consumer)");
  return smoke_ok ? 0 : 1;
}

}  // namespace

/// Federation sweep (E9): the same saturated sender processes delivered
/// through a flat ISM vs a 2-level relay tree (2 and 4 relays). Delivered
/// rate is the root pipeline's merged count over the workload duration;
/// end-to-end latency is sampled at the root sink as sink-arrival minus
/// record timestamp (same host, sync off, so the timebases agree — the
/// tree pays one extra batch+hop of latency for its fan-in relief).
int federation_sweep(int senders) {
  using namespace brisk;  // NOLINT
  bench::row("federation sweep: %d saturated sender processes, epoll, "
             "4 root readers / 2 shards; relays: 2 readers / 2 shards",
             senders);
  bench::row("%12s %8s %16s %13s %13s %14s", "topology", "relays", "delivered(ev/s)",
             "e2e_p50(us)", "e2e_p99(us)", "egress_stalls");
  struct Topo {
    const char* name;
    int relays;
  };
  for (const Topo& topo : {Topo{"flat", 0}, Topo{"tree", 2}, Topo{"tree", 4}}) {
    auto root_config = bench::bench_manager_config();
    root_config.ism.sorter.max_pending = 1u << 22;
    root_config.ism.poller = net::PollerBackend::epoll;
    root_config.ism.reader_threads = 4;
    root_config.ism.sorter_shards = 2;
    root_config.ism.shard_queue_records = 1u << 14;
    auto root = BriskManager::create(root_config);
    if (!root) return 1;

    // Sample 1-in-64 deliveries; the mutex is uncontended at that rate.
    std::mutex sample_mutex;
    std::vector<TimeMicros> samples;
    std::atomic<std::uint64_t> seen{0};
    auto sink = std::make_shared<ism::CallbackSink>([&](const sensors::Record& r) {
      if ((seen.fetch_add(1, std::memory_order_relaxed) & 63) != 0) return;
      const TimeMicros delay = clk::SystemClock::instance().now() - r.timestamp;
      std::lock_guard<std::mutex> lock(sample_mutex);
      samples.push_back(delay);
    });
    if (!root.value()->add_sink("bench-e2e", sink).ok()) return 1;
    std::thread root_thread([&] { (void)root.value()->run(); });

    std::vector<std::unique_ptr<BriskManager>> relays;
    std::vector<std::thread> relay_threads;
    for (int r = 0; r < topo.relays; ++r) {
      auto relay_config = bench::bench_manager_config();
      relay_config.ism.sorter.max_pending = 1u << 22;
      relay_config.ism.poller = net::PollerBackend::epoll;
      relay_config.ism.reader_threads = 2;
      relay_config.ism.sorter_shards = 2;
      relay_config.ism.shard_queue_records = 1u << 14;
      relay_config.relay_enabled = true;
      relay_config.relay.parent_port = root.value()->port();
      relay_config.relay.relay_node = static_cast<NodeId>(1000 + r);
      relay_config.relay.batch_max_age_us = 2'000;
      relay_config.relay.idle_watermark_period_us = 20'000;
      auto relay = BriskManager::create(relay_config);
      if (!relay) return 1;
      relays.push_back(std::move(relay).value());
      relay_threads.emplace_back([m = relays.back().get()] { (void)m->run(); });
    }

    std::vector<pid_t> children;
    for (int n = 0; n < senders; ++n) {
      const std::uint16_t port =
          topo.relays == 0
              ? root.value()->port()
              : relays[static_cast<std::size_t>(n) % relays.size()]->port();
      const pid_t pid = ::fork();
      if (pid < 0) return 1;
      if (pid == 0) run_sweep_node(static_cast<NodeId>(n + 1), port);
      children.push_back(pid);
    }
    for (pid_t pid : children) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }

    std::uint64_t egress_stalls = 0;
    for (std::size_t r = 0; r < relays.size(); ++r) {
      relays[r]->stop();
      relay_threads[r].join();
      (void)relays[r]->drain();  // ships + waits for the root's acks
      egress_stalls += relays[r]->relay()->stats().queue_stalls;
    }
    root.value()->stop();
    root_thread.join();
    (void)root.value()->drain();

    const auto pipeline_stats = root.value()->ism().pipeline().stats();
    const double rate = static_cast<double>(pipeline_stats.merged) /
                        (static_cast<double>(g_sweep_duration) / 1e6);
    std::sort(samples.begin(), samples.end());
    const TimeMicros p50 = samples.empty() ? 0 : samples[samples.size() / 2];
    const TimeMicros p99 = samples.empty() ? 0 : samples[samples.size() * 99 / 100];
    bench::row("%12s %8d %16.0f %13lld %13lld %14llu", topo.name, topo.relays, rate,
               static_cast<long long>(p50), static_cast<long long>(p99),
               static_cast<unsigned long long>(egress_stalls));
  }
  bench::row("shape check: tree delivers the full workload; the extra hop adds "
             "one batch-seal of latency");
  return 0;
}

/// Metrics-heavy federation cell: the same 2-level tree, but the traffic
/// that matters is self-instrumentation — paced senders emitting 0xFF01
/// snapshots every 50 ms behind 2 relays, with --relay-aggregate-metrics
/// off vs on. The root sink counts reserved records by sensor id; with
/// aggregation on, per-node subtree snapshots collapse into one aggregated
/// snapshot per relay per flush period, while 0xFF03 events pass through
/// unmerged in both cells. Acceptance: >= 2x fewer 0xFF01 records at the
/// root with aggregation on.
int metrics_aggregation_sweep(int senders) {
  using namespace brisk;  // NOLINT
  bench::row("metrics-heavy federation: %d paced senders (2k ev/s, metrics every 50ms), "
             "2 relays, flush period 50ms",
             senders);
  bench::row("%12s %16s %12s %12s %14s", "aggregate", "delivered(ev/s)", "ff01@root",
             "ff03@root", "egress_stalls");
  std::uint64_t ff01_counts[2] = {0, 0};
  int pass = 0;
  for (bool aggregate : {false, true}) {
    auto root_config = bench::bench_manager_config();
    root_config.ism.sorter.max_pending = 1u << 22;
    root_config.ism.poller = net::PollerBackend::epoll;
    root_config.ism.reader_threads = 4;
    root_config.ism.sorter_shards = 2;
    root_config.ism.shard_queue_records = 1u << 14;
    auto root = BriskManager::create(root_config);
    if (!root) return 1;

    std::atomic<std::uint64_t> ff01{0};
    std::atomic<std::uint64_t> ff03{0};
    auto sink = std::make_shared<ism::CallbackSink>([&](const sensors::Record& r) {
      if (r.sensor == sensors::kMetricsSensorId) {
        ff01.fetch_add(1, std::memory_order_relaxed);
      } else if (r.sensor == sensors::kEventSensorId) {
        ff03.fetch_add(1, std::memory_order_relaxed);
      }
    });
    if (!root.value()->add_sink("bench-ff01", sink).ok()) return 1;
    std::thread root_thread([&] { (void)root.value()->run(); });

    std::vector<std::unique_ptr<BriskManager>> relays;
    std::vector<std::thread> relay_threads;
    for (int r = 0; r < 2; ++r) {
      auto relay_config = bench::bench_manager_config();
      relay_config.ism.sorter.max_pending = 1u << 22;
      relay_config.ism.poller = net::PollerBackend::epoll;
      relay_config.ism.reader_threads = 2;
      relay_config.ism.sorter_shards = 2;
      relay_config.ism.shard_queue_records = 1u << 14;
      relay_config.relay_enabled = true;
      relay_config.relay.parent_port = root.value()->port();
      relay_config.relay.relay_node = static_cast<NodeId>(1000 + r);
      relay_config.relay.batch_max_age_us = 2'000;
      relay_config.relay.idle_watermark_period_us = 20'000;
      relay_config.relay.aggregate_metrics = aggregate;
      relay_config.relay.metrics_flush_period_us = 50'000;
      auto relay = BriskManager::create(relay_config);
      if (!relay) return 1;
      relays.push_back(std::move(relay).value());
      relay_threads.emplace_back([m = relays.back().get()] { (void)m->run(); });
    }

    std::vector<pid_t> children;
    for (int n = 0; n < senders; ++n) {
      const std::uint16_t port = relays[static_cast<std::size_t>(n) % 2]->port();
      const pid_t pid = ::fork();
      if (pid < 0) return 1;
      if (pid == 0) run_metrics_node(static_cast<NodeId>(n + 1), port);
      children.push_back(pid);
    }
    for (pid_t pid : children) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }

    std::uint64_t egress_stalls = 0;
    for (std::size_t r = 0; r < relays.size(); ++r) {
      relays[r]->stop();
      relay_threads[r].join();
      (void)relays[r]->drain();  // forces the final aggregated flush upstream
      egress_stalls += relays[r]->relay()->stats().queue_stalls;
    }
    root.value()->stop();
    root_thread.join();
    (void)root.value()->drain();

    const auto pipeline_stats = root.value()->ism().pipeline().stats();
    const double rate = static_cast<double>(pipeline_stats.merged) /
                        (static_cast<double>(g_sweep_duration) / 1e6);
    bench::row("%12s %16.0f %12llu %12llu %14llu", aggregate ? "on" : "off", rate,
               static_cast<unsigned long long>(ff01.load()),
               static_cast<unsigned long long>(ff03.load()),
               static_cast<unsigned long long>(egress_stalls));
    ff01_counts[pass++] = ff01.load();
  }
  const double reduction =
      ff01_counts[1] > 0
          ? static_cast<double>(ff01_counts[0]) / static_cast<double>(ff01_counts[1])
          : 0.0;
  bench::row("0xFF01 reduction at root: %.1fx (acceptance: >= 2x with aggregation on)",
             reduction);
  return reduction >= 2.0 ? 0 : 1;
}

int main(int argc, char** argv) {
  using namespace brisk;  // NOLINT
  // --smoke (ci.sh): skip the minute-long sweeps, run one short sharded
  // config end-to-end to catch ordering-pipeline regressions cheaply.
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  // --metrics-agg: just the metrics-heavy federation cell (agg off vs on),
  // exits nonzero if the 0xFF01 reduction at the root falls under 2x.
  if (argc > 1 && std::strcmp(argv[1], "--metrics-agg") == 0) {
    g_sweep_duration = 2'000'000;
    bench::heading("E-obs: in-tree metrics aggregation at the relay tier",
                   "16 metrics-heavy senders, 2 relays; pass = >= 2x fewer 0xFF01 at root");
    return metrics_aggregation_sweep(16);
  }
  if (smoke) {
    g_sweep_duration = 200'000;
    bench::heading("E3 (smoke): sharded ordering pipeline end-to-end",
                   "short saturated run, shards=2; pass = nonzero delivery");
    if (int rc = shard_sweep(2); rc != 0) return rc;
    if (int rc = trace_overhead(400'000); rc != 0) return rc;
    if (int rc = flow_sweep(true); rc != 0) return rc;
    return fanout_sweep(true);
  }

  bench::heading("E3: max EXS->ISM throughput (saturated sender, loopback TCP)",
                 "max throughput 90,000 ev/s; 40-byte XDR records");

  // Wire-size check first: the paper's six-int record.
  sensors::Record probe;
  probe.sensor = 1;
  probe.timestamp = 1'700'000'000'000'000LL;
  for (int i = 0; i < 6; ++i) probe.fields.push_back(sensors::Field::i32(i));
  bench::row("six-int record wire size: %zu bytes (paper: 40)", tp::record_wire_size(probe));

  bench::row("%14s %16s %16s %14s", "batch_records", "generated(ev/s)", "delivered(ev/s)",
             "ring_drops");

  for (std::uint32_t batch_records : {1u, 16u, 64u, 256u, 1024u}) {
    auto manager_config = bench::bench_manager_config();
    manager_config.ism.sorter.max_pending = 1u << 22;
    auto manager = BriskManager::create(manager_config);
    if (!manager) return 1;
    auto node_config = bench::bench_node_config(1);
    node_config.exs.batch_max_records = batch_records;
    node_config.exs.batch_max_bytes = 1u << 20;
    auto node = BriskNode::create(node_config);
    if (!node) return 1;
    auto sensor = node.value()->make_sensor();
    if (!sensor) return 1;
    auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
    if (!exs) return 1;

    constexpr TimeMicros kDuration = 1'000'000;
    std::thread ism_thread([&] { (void)manager.value()->run_for(kDuration + 500'000); });
    sim::WorkloadResult workload{};
    std::thread app_thread([&] {
      sim::WorkloadConfig config;
      config.events_per_sec = 0.0;  // saturate
      config.duration_us = kDuration;
      workload = sim::run_looping_workload(sensor.value(), config);
    });
    const TimeMicros wall_before = monotonic_micros();
    (void)exs.value()->run_for(kDuration + 300'000);
    const double wall_s =
        static_cast<double>(monotonic_micros() - wall_before) / 1e6;

    app_thread.join();
    exs.value()->stop();
    manager.value()->stop();
    ism_thread.join();

    const auto& ism_stats = manager.value()->ism().stats();
    const auto exs_stats = exs.value()->core().stats();
    bench::row("%14u %16.0f %16.0f %14llu", batch_records, workload.achieved_rate_per_sec(),
               static_cast<double>(ism_stats.records_received) / wall_s,
               static_cast<unsigned long long>(exs_stats.ring_drops_seen));
  }
  bench::row("shape check: throughput rises steeply with batching, then saturates");

  // Ingest-configuration sweep: the same saturated transfer, now with four
  // sender processes, across poller backend x ISM reader-thread count.
  // Reader threads take socket reads + XDR batch decode off the ordering
  // thread and hand work over in drained-lane batches rather than one
  // readiness dispatch at a time — that pipelining wins even on a single
  // CPU, and on a multi-core ISM host the decode itself parallelizes too.
  bench::row("ingest sweep: 4 saturated sender processes, batch_records=256");
  bench::row("%10s %16s %16s", "poller", "reader_threads", "delivered(ev/s)");
  struct IngestConfig {
    net::PollerBackend poller;
    std::size_t readers;
  };
  const IngestConfig ingest_configs[] = {{net::PollerBackend::select, 0},
                                         {net::PollerBackend::select, 4},
                                         {net::PollerBackend::epoll, 0},
                                         {net::PollerBackend::epoll, 4}};
  for (IngestConfig cfg : ingest_configs) {
    auto manager_config = bench::bench_manager_config();
    manager_config.ism.sorter.max_pending = 1u << 22;
    manager_config.ism.poller = cfg.poller;
    manager_config.ism.reader_threads = cfg.readers;
    auto manager = BriskManager::create(manager_config);
    if (!manager) return 1;

    std::vector<pid_t> children;
    for (int n = 0; n < 4; ++n) {
      const pid_t pid = ::fork();
      if (pid < 0) return 1;
      if (pid == 0) run_sweep_node(static_cast<NodeId>(n + 1), manager.value()->port());
      children.push_back(pid);
    }

    (void)manager.value()->run_for(g_sweep_duration + 600'000);
    manager.value()->stop();
    for (pid_t pid : children) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }

    const auto& ism_stats = manager.value()->ism().stats();
    const double rate =
        static_cast<double>(ism_stats.records_received) / (static_cast<double>(g_sweep_duration) / 1e6);
    bench::row("%10s %16zu %16.0f", net::to_string(cfg.poller), cfg.readers, rate);
  }
  bench::row("shape check: threaded epoll >= single-threaded select on multi-core ISM hosts");

  if (int rc = trace_overhead(1'000'000); rc != 0) return rc;

  if (int rc = flow_sweep(false); rc != 0) return rc;

  if (int rc = fanout_sweep(false); rc != 0) return rc;

  // Sorter-shard sweep: same saturated senders, epoll throughout, varying
  // the ordering-stage parallelism instead of the ingest parallelism.
  if (int rc = shard_sweep(4); rc != 0) return rc;

  // Federation sweep: flat fan-in vs a 2-level relay tree for the same
  // sender population.
  if (int rc = federation_sweep(16); rc != 0) return rc;

  // Metrics-heavy federation cell: relay-tier 0xFF01 aggregation off vs on.
  return metrics_aggregation_sweep(16);
}
