// Integration tests: the whole BRISK pipeline assembled through the public
// API — sensors → shared-memory rings → external sensor (thread) → TCP/XDR
// transfer protocol → ISM (thread) → on-line sorting / CRE matching →
// shared-memory consumer — plus clock synchronization over real sockets and
// named-shm attach between "processes".
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "clock/sim_clock.hpp"
#include "common/time_util.hpp"
#include "consumers/trace_stats.hpp"
#include "core/brisk_manager.hpp"
#include "core/brisk_node.hpp"
#include "picl/picl_reader.hpp"

namespace brisk {
namespace {

using sensors::x_conseq;
using sensors::x_i32;
using sensors::x_reason;
using sensors::x_str;

/// Runs a callable in a joined thread for the duration of a scope.
class ScopedThread {
 public:
  template <typename Fn>
  explicit ScopedThread(Fn fn) : thread_(std::move(fn)) {}
  ~ScopedThread() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

ManagerConfig fast_manager_config() {
  ManagerConfig config;
  config.ism.select_timeout_us = 2'000;
  config.ism.sorter.initial_frame_us = 5'000;
  config.ism.sorter.min_frame_us = 1'000;
  config.ism.enable_sync = false;
  return config;
}

NodeConfig fast_node_config(NodeId node) {
  NodeConfig config;
  config.node = node;
  config.exs.select_timeout_us = 2'000;
  config.exs.batch_max_age_us = 1'000;
  return config;
}

/// Polls the consumer until `count` records arrived or `timeout` expired.
std::vector<sensors::Record> collect(consumers::ShmConsumer& consumer, std::size_t count,
                                     TimeMicros timeout = 5'000'000) {
  std::vector<sensors::Record> records;
  const TimeMicros deadline = monotonic_micros() + timeout;
  while (records.size() < count && monotonic_micros() < deadline) {
    auto polled = consumer.poll();
    if (!polled.is_ok()) break;
    if (polled.value().has_value()) {
      records.push_back(std::move(*polled.value()));
    } else {
      sleep_micros(500);
    }
  }
  return records;
}

TEST(IntegrationTest, SingleNodeEndToEnd) {
  auto manager = BriskManager::create(fast_manager_config());
  ASSERT_TRUE(manager.is_ok()) << manager.status().to_string();
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());

  auto node = BriskNode::create(fast_node_config(1));
  ASSERT_TRUE(node.is_ok()) << node.status().to_string();
  auto sensor = node.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());
  auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs.is_ok()) << exs.status().to_string();

  ScopedThread ism_thread([&] { (void)manager.value()->run_for(3'000'000); });
  ScopedThread exs_thread([&] { (void)exs.value()->run_for(3'000'000); });

  constexpr int kEvents = 500;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(BRISK_NOTICE(sensor.value(), 7, x_i32(i), x_i32(i * 2)));
  }

  auto records = collect(consumer.value(), kEvents);
  exs.value()->stop();
  manager.value()->stop();

  ASSERT_EQ(records.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_EQ(records[i].node, 1u);
    EXPECT_EQ(records[i].sensor, 7u);
    EXPECT_EQ(records[i].fields[0].as_signed(), i) << "FIFO per node preserved";
  }
  consumers::TraceStats stats;
  for (const auto& record : records) stats.add(record);
  EXPECT_EQ(stats.summary().out_of_order, 0u);
}

TEST(IntegrationTest, MultiNodeMergeIsTimestampOrdered) {
  auto manager_config = fast_manager_config();
  manager_config.ism.sorter.initial_frame_us = 50'000;  // generous window
  auto manager = BriskManager::create(manager_config);
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());

  constexpr int kNodes = 4;
  constexpr int kPerNode = 200;
  std::vector<std::unique_ptr<BriskNode>> nodes;
  std::vector<sensors::Sensor> node_sensors;
  std::vector<std::unique_ptr<lis::ExternalSensor>> exses;
  for (int n = 0; n < kNodes; ++n) {
    auto node = BriskNode::create(fast_node_config(static_cast<NodeId>(n)));
    ASSERT_TRUE(node.is_ok());
    auto sensor = node.value()->make_sensor();
    ASSERT_TRUE(sensor.is_ok());
    auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
    ASSERT_TRUE(exs.is_ok());
    nodes.push_back(std::move(node).value());
    node_sensors.push_back(std::move(sensor).value());
    exses.push_back(std::move(exs).value());
  }

  ScopedThread ism_thread([&] { (void)manager.value()->run_for(6'000'000); });
  std::vector<std::unique_ptr<ScopedThread>> exs_threads;
  for (auto& exs : exses) {
    exs_threads.push_back(
        std::make_unique<ScopedThread>([&exs] { (void)exs->run_for(6'000'000); }));
  }

  // Interleave notices across nodes so merge actually has work to do.
  for (int i = 0; i < kPerNode; ++i) {
    for (int n = 0; n < kNodes; ++n) {
      ASSERT_TRUE(node_sensors[static_cast<std::size_t>(n)].notice(1, x_i32(i)));
    }
  }

  auto records = collect(consumer.value(), kNodes * kPerNode);
  for (auto& exs : exses) exs->stop();
  manager.value()->stop();

  ASSERT_EQ(records.size(), static_cast<std::size_t>(kNodes) * kPerNode);
  consumers::TraceStats stats;
  for (const auto& record : records) stats.add(record);
  EXPECT_EQ(stats.summary().out_of_order, 0u)
      << "50 ms window must absorb loopback transport disorder";
  // Every node contributed its full share.
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(stats.summary().per_node.at(static_cast<NodeId>(n)),
              static_cast<std::uint64_t>(kPerNode));
  }
}

TEST(IntegrationTest, CausalTachyonRepairedEndToEnd) {
  auto manager_config = fast_manager_config();
  manager_config.ism.cre.hold_timeout_us = 2'000'000;
  auto manager = BriskManager::create(manager_config);
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());

  auto node_a = BriskNode::create(fast_node_config(1));
  auto node_b = BriskNode::create(fast_node_config(2));
  ASSERT_TRUE(node_a.is_ok());
  ASSERT_TRUE(node_b.is_ok());
  auto sensor_a = node_a.value()->make_sensor();
  auto sensor_b = node_b.value()->make_sensor();
  ASSERT_TRUE(sensor_a.is_ok());
  ASSERT_TRUE(sensor_b.is_ok());
  auto exs_a = node_a.value()->connect_exs("127.0.0.1", manager.value()->port());
  auto exs_b = node_b.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs_a.is_ok());
  ASSERT_TRUE(exs_b.is_ok());

  ScopedThread ism_thread([&] { (void)manager.value()->run_for(4'000'000); });
  ScopedThread exs_a_thread([&] { (void)exs_a.value()->run_for(4'000'000); });
  ScopedThread exs_b_thread([&] { (void)exs_b.value()->run_for(4'000'000); });

  // The consequence is NOTICEd *before* its reason, so its timestamp is
  // smaller — a tachyon once both reach the ISM. BRISK must override the
  // consequence timestamp with reason + margin.
  ASSERT_TRUE(sensor_b.value().notice(20, x_conseq(555), x_str("consequence")));
  sleep_micros(20'000);
  ASSERT_TRUE(sensor_a.value().notice(10, x_reason(555), x_str("reason")));

  auto records = collect(consumer.value(), 2);
  exs_a.value()->stop();
  exs_b.value()->stop();
  manager.value()->stop();

  ASSERT_EQ(records.size(), 2u);
  const sensors::Record* reason = nullptr;
  const sensors::Record* conseq = nullptr;
  for (const auto& record : records) {
    if (record.reason_id().has_value()) reason = &record;
    if (record.conseq_id().has_value()) conseq = &record;
  }
  ASSERT_NE(reason, nullptr);
  ASSERT_NE(conseq, nullptr);
  EXPECT_GT(conseq->timestamp, reason->timestamp)
      << "tachyon must be repaired: consequence ordered after its reason";
  EXPECT_EQ(manager.value()->ism().cre_stats().tachyons_repaired, 1u);
}

TEST(IntegrationTest, TachyonSyncRoundsRunAtMostOncePerSelectTimeout) {
  auto manager_config = fast_manager_config();
  manager_config.ism.enable_sync = true;
  manager_config.ism.select_timeout_us = 200'000;
  manager_config.ism.cre.hold_timeout_us = 2'000'000;
  auto manager = BriskManager::create(manager_config);
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());
  auto node_a = BriskNode::create(fast_node_config(1));
  auto node_b = BriskNode::create(fast_node_config(2));
  ASSERT_TRUE(node_a.is_ok());
  ASSERT_TRUE(node_b.is_ok());
  auto sensor_a = node_a.value()->make_sensor();
  auto sensor_b = node_b.value()->make_sensor();
  ASSERT_TRUE(sensor_a.is_ok());
  ASSERT_TRUE(sensor_b.is_ok());
  auto exs_a = node_a.value()->connect_exs("127.0.0.1", manager.value()->port());
  auto exs_b = node_b.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs_a.is_ok());
  ASSERT_TRUE(exs_b.is_ok());

  constexpr int kPairs = 10;
  const TimeMicros started = monotonic_micros();
  TimeMicros took = 0;
  {
    ScopedThread exs_a_thread([&] { (void)exs_a.value()->run_for(3'000'000); });
    ScopedThread exs_b_thread([&] { (void)exs_b.value()->run_for(3'000'000); });
    {
      ScopedThread ism_thread([&] { (void)manager.value()->run_for(3'000'000); });
      // Ten tachyons 10 ms apart: each consequence NOTICEd before its reason.
      for (int i = 0; i < kPairs; ++i) {
        EXPECT_TRUE(sensor_b.value().notice(20, x_conseq(100 + i)));
        sleep_micros(1'000);
        EXPECT_TRUE(sensor_a.value().notice(10, x_reason(100 + i)));
        sleep_micros(9'000);
      }
      EXPECT_EQ(collect(consumer.value(), 2 * kPairs).size(), 2u * kPairs);
      manager.value()->stop();
    }  // ISM loop joined while both EXSes still answer a pending sync round
    took = monotonic_micros() - started;
    exs_a.value()->stop();
    exs_b.value()->stop();
  }
  EXPECT_EQ(manager.value()->ism().cre_stats().tachyons_repaired,
            static_cast<std::uint64_t>(kPairs));
  // A loop woken by every due record would run one round per tachyon.
  const std::uint64_t extra_rounds = manager.value()->ism().sync()->extra_rounds_run();
  EXPECT_GE(extra_rounds, 1u);
  EXPECT_LE(extra_rounds,
            static_cast<std::uint64_t>(took / manager_config.ism.select_timeout_us + 1));
}

TEST(IntegrationTest, ClockSyncAlignsSkewedNodesOverSockets) {
  auto manager_config = fast_manager_config();
  manager_config.ism.enable_sync = true;
  manager_config.ism.sync.period_us = 100'000;  // fast rounds for the test
  manager_config.ism.sync.brisk.polls_per_round = 3;
  manager_config.ism.sync_poll_timeout_us = 500'000;
  auto manager = BriskManager::create(manager_config);
  ASSERT_TRUE(manager.is_ok());

  // Two nodes whose clocks disagree by 70 ms.
  clk::SimClock clock_a(clk::SystemClock::instance(), {.initial_offset_us = -50'000});
  clk::SimClock clock_b(clk::SystemClock::instance(), {.initial_offset_us = 20'000});

  auto node_a = BriskNode::create(fast_node_config(1), clock_a);
  auto node_b = BriskNode::create(fast_node_config(2), clock_b);
  ASSERT_TRUE(node_a.is_ok());
  ASSERT_TRUE(node_b.is_ok());
  auto exs_a = node_a.value()->connect_exs("127.0.0.1", manager.value()->port());
  auto exs_b = node_b.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs_a.is_ok());
  ASSERT_TRUE(exs_b.is_ok());

  ScopedThread ism_thread([&] { (void)manager.value()->run_for(2'500'000); });
  ScopedThread exs_a_thread([&] { (void)exs_a.value()->run_for(2'500'000); });
  ScopedThread exs_b_thread([&] { (void)exs_b.value()->run_for(2'500'000); });

  // Wait for several sync rounds.
  const TimeMicros deadline = monotonic_micros() + 2'000'000;
  while (monotonic_micros() < deadline) {
    if (exs_a.value()->core().correction() != 0) break;
    sleep_micros(10'000);
  }
  sleep_micros(300'000);  // let another round settle

  exs_a.value()->stop();
  exs_b.value()->stop();
  manager.value()->stop();

  // Corrected clocks = offset + correction must now agree within loopback
  // noise; node A (behind by 70 ms) must have been advanced.
  const TimeMicros corrected_a = -50'000 + exs_a.value()->core().correction();
  const TimeMicros corrected_b = 20'000 + exs_b.value()->core().correction();
  EXPECT_GT(exs_a.value()->core().correction(), 60'000) << "laggard must close the 70 ms gap";
  EXPECT_LT(std::abs(corrected_a - corrected_b), 5'000)
      << "ensemble agreement within a few ms on loopback";
  // The most-ahead clock is the reference and essentially never moves; once
  // converged, loopback jitter may elect either node and nudge the other by
  // a few microseconds, so "never" is asserted as "negligibly".
  EXPECT_LT(exs_b.value()->core().correction(), 1'000)
      << "reference clock must not be dragged";
}

TEST(IntegrationTest, PiclTraceFileWrittenByManager) {
  const std::string path = "/tmp/brisk-integration-" + std::to_string(::getpid()) + ".picl";
  auto manager_config = fast_manager_config();
  manager_config.picl_trace_path = path;
  manager_config.picl_options.mode = picl::TimestampMode::utc_micros;
  auto manager = BriskManager::create(manager_config);
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());

  auto node = BriskNode::create(fast_node_config(3));
  ASSERT_TRUE(node.is_ok());
  auto sensor = node.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());
  auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs.is_ok());

  {
    ScopedThread ism_thread([&] { (void)manager.value()->run_for(2'000'000); });
    ScopedThread exs_thread([&] { (void)exs.value()->run_for(2'000'000); });
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(sensor.value().notice(4, x_i32(i)));
    }
    auto records = collect(consumer.value(), 50);
    EXPECT_EQ(records.size(), 50u);
    exs.value()->stop();
    manager.value()->stop();
  }
  ASSERT_TRUE(manager.value()->drain());

  auto reader = picl::PiclReader::open(path, manager_config.picl_options);
  ASSERT_TRUE(reader.is_ok());
  auto records = reader.value().read_all();
  ASSERT_TRUE(records.is_ok()) << records.status().to_string();
  EXPECT_EQ(records.value().size(), 50u);
  EXPECT_EQ(records.value()[0].node, 3u);
  std::remove(path.c_str());
}

TEST(IntegrationTest, NamedShmAttachAcrossHandles) {
  // The application and the EXS normally live in different processes and
  // meet through a named region; emulate with two BriskNode handles.
  NodeConfig config = fast_node_config(9);
  config.shm_name = "/brisk-itest-" + std::to_string(::getpid());
  auto creator = BriskNode::create(config);
  ASSERT_TRUE(creator.is_ok()) << creator.status().to_string();

  auto attacher = BriskNode::attach(config);
  ASSERT_TRUE(attacher.is_ok()) << attacher.status().to_string();

  auto sensor = attacher.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());
  ASSERT_TRUE(sensor.value().notice(1, x_i32(42)));

  // The creator's view of the rings sees the record.
  EXPECT_EQ(creator.value()->rings().claimed_slots(), 1u);
  auto ring = creator.value()->rings().slot(0);
  ASSERT_TRUE(ring.is_ok());
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(ring.value().try_pop(bytes));

  // Cleanup the name.
  shm::SharedRegion::open_named(config.shm_name).value().unlink();
}

TEST(IntegrationTest, IsmStatsAccount) {
  auto manager = BriskManager::create(fast_manager_config());
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());
  auto node = BriskNode::create(fast_node_config(1));
  ASSERT_TRUE(node.is_ok());
  auto sensor = node.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());
  auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs.is_ok());

  {
    ScopedThread ism_thread([&] { (void)manager.value()->run_for(2'000'000); });
    ScopedThread exs_thread([&] { (void)exs.value()->run_for(2'000'000); });
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(sensor.value().notice(1, x_i32(i)));
    auto records = collect(consumer.value(), 100);
    EXPECT_EQ(records.size(), 100u);
    exs.value()->stop();
    manager.value()->stop();
  }

  const auto& stats = manager.value()->ism().stats();
  EXPECT_EQ(stats.records_received, 100u);
  EXPECT_GE(stats.batches_received, 1u);
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_GT(stats.bytes_received, 100u * 20);
  EXPECT_EQ(stats.protocol_errors, 0u);

  const auto exs_stats = exs.value()->core().stats();
  EXPECT_EQ(exs_stats.records_forwarded, 100u);
  EXPECT_EQ(exs_stats.ring_drops_seen, 0u);
  EXPECT_EQ(stats.batch_seq_gaps, 0u) << "TCP stream guarantees batch continuity";
}

TEST(IntegrationTest, RingOverflowDropsReachIsmAccounting) {
  auto manager = BriskManager::create(fast_manager_config());
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());

  // A deliberately tiny ring with nobody draining it yet.
  NodeConfig node_config = fast_node_config(1);
  node_config.ring_capacity = 2'048;
  auto node = BriskNode::create(node_config);
  ASSERT_TRUE(node.is_ok());
  auto sensor = node.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());

  // Overflow before the EXS even starts: guaranteed drops.
  std::uint64_t accepted = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (sensor.value().notice(1, x_i32(i))) ++accepted;
  }
  ASSERT_GT(accepted, 0u);
  ASSERT_GT(sensor.value().stats().records_dropped, 0u);

  auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs.is_ok());
  {
    ScopedThread ism_thread([&] { (void)manager.value()->run_for(1'500'000); });
    ScopedThread exs_thread([&] { (void)exs.value()->run_for(1'500'000); });
    auto records = collect(consumer.value(), accepted);
    EXPECT_EQ(records.size(), accepted) << "everything the ring accepted is delivered";
    exs.value()->stop();
    manager.value()->stop();
  }

  // The drop counter crossed the whole pipeline: ring → EXS → batch header
  // → ISM accounting.
  EXPECT_EQ(exs.value()->core().stats().ring_drops_seen,
            sensor.value().stats().records_dropped);
  EXPECT_EQ(manager.value()->ism().stats().ring_drops_reported,
            sensor.value().stats().records_dropped);
}

/// An EXS whose select timeout is ten times its batch age bound: the loop
/// must wake for the batch, not for the timeout.
NodeConfig slow_select_node_config(NodeId node) {
  NodeConfig config = fast_node_config(node);
  config.exs.select_timeout_us = 200'000;
  config.exs.batch_max_age_us = 20'000;
  return config;
}

TEST(IntegrationTest, LoneRecordSealsWithinBatchAgeNotSelectTimeout) {
  auto manager = BriskManager::create(fast_manager_config());
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());
  auto node = BriskNode::create(slow_select_node_config(1));
  ASSERT_TRUE(node.is_ok());
  auto sensor = node.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());
  auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs.is_ok());

  TimeMicros latency = 0;
  std::size_t delivered = 0;
  {
    ScopedThread ism_thread([&] { (void)manager.value()->run_for(3'000'000); });
    ScopedThread exs_thread([&] { (void)exs.value()->run_for(3'000'000); });
    sleep_micros(300'000);  // idle rings: the EXS settles into its idle waits
    const TimeMicros noticed_at = monotonic_micros();
    ASSERT_TRUE(BRISK_NOTICE(sensor.value(), 7, x_i32(1)));
    delivered = collect(consumer.value(), 1, 2'000'000).size();
    latency = monotonic_micros() - noticed_at;
    exs.value()->stop();
    manager.value()->stop();
  }
  ASSERT_EQ(delivered, 1u);
  // Drained within one age bound, sealed within the next, plus the ISM's
  // sorter window; a loop cycling on the 200 ms timeout needs 200-400 ms.
  EXPECT_LT(latency, 150'000);
}

TEST(IntegrationTest, BacklogPastDrainBurstDrainsWithinOneSelectTimeout) {
  auto manager = BriskManager::create(fast_manager_config());
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());
  const NodeConfig node_config = slow_select_node_config(1);
  auto node = BriskNode::create(node_config);
  ASSERT_TRUE(node.is_ok());
  auto sensor = node.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());
  const std::uint64_t backlog = 4u * node_config.exs.drain_burst;
  for (std::uint64_t i = 0; i < backlog; ++i) {
    ASSERT_TRUE(sensor.value().notice(1, x_i32(static_cast<std::int32_t>(i))));
  }
  auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs.is_ok());

  TimeMicros took = 0;
  {
    ScopedThread ism_thread([&] { (void)manager.value()->run_for(3'000'000); });
    const TimeMicros started = monotonic_micros();
    ScopedThread exs_thread([&] { (void)exs.value()->run_for(3'000'000); });
    while (manager.value()->ism().stats().records_received < backlog &&
           monotonic_micros() - started < 2'000'000) {
      sleep_micros(1'000);
    }
    took = monotonic_micros() - started;
    EXPECT_EQ(collect(consumer.value(), backlog).size(), backlog);
    exs.value()->stop();
    manager.value()->stop();
  }
  EXPECT_EQ(manager.value()->ism().stats().records_received, backlog);
  // One burst per 200 ms cycle would need three more cycles after the first.
  EXPECT_LT(took, node_config.exs.select_timeout_us);
  EXPECT_GE(exs.value()->core().stats().burst_limited_drains, 3u);
}

TEST(IntegrationTest, FlowControlShedsExcessLoad) {
  auto manager_config = fast_manager_config();
  manager_config.ism.flow_control_rate_per_sec = 1'000.0;  // far below offered
  manager_config.ism.flow_control_burst = 50.0;
  auto manager = BriskManager::create(manager_config);
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());
  auto node = BriskNode::create(fast_node_config(1));
  ASSERT_TRUE(node.is_ok());
  auto sensor = node.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());
  auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs.is_ok());

  constexpr int kOffered = 5'000;
  {
    ScopedThread ism_thread([&] { (void)manager.value()->run_for(1'500'000); });
    ScopedThread exs_thread([&] { (void)exs.value()->run_for(1'500'000); });
    for (int i = 0; i < kOffered; ++i) {
      (void)sensor.value().notice(1, x_i32(i));
    }
    // Wait out the run; everything the bucket admits should be delivered.
    sleep_micros(1'600'000);
    exs.value()->stop();
    manager.value()->stop();
  }

  const auto& stats = manager.value()->ism().stats();
  EXPECT_EQ(stats.records_received,
            stats.flow_control_drops + manager.value()->ism().sorter_stats().pushed);
  EXPECT_GT(stats.flow_control_drops, 0u) << "the bucket must have rejected load";
  EXPECT_LT(manager.value()->ism().sorter_stats().pushed,
            static_cast<std::uint64_t>(kOffered))
      << "admitted stream must be bounded by the configured rate";
}

TEST(IntegrationTest, ConfigValidationRejectsBadKnobs) {
  ManagerConfig bad_manager;
  bad_manager.output_ring_capacity = 10;
  EXPECT_FALSE(BriskManager::create(bad_manager).is_ok());

  NodeConfig bad_node;
  bad_node.sensor_slots = 0;
  EXPECT_FALSE(BriskNode::create(bad_node).is_ok());

  NodeConfig no_name;
  EXPECT_EQ(BriskNode::attach(no_name).status().code(), Errc::invalid_argument);
}

TEST(IntegrationTest, DescribeRendersKnobs) {
  const std::string node_desc = describe(fast_node_config(7));
  EXPECT_NE(node_desc.find("node = 7"), std::string::npos);
  EXPECT_NE(node_desc.find("exs.select_timeout_us = 2000"), std::string::npos);
  ManagerConfig credited = fast_manager_config();
  credited.ism.credit_window_records = 8192;
  credited.ism.credit_window_bytes = 1 << 20;
  const std::string manager_desc = describe(credited);
  EXPECT_NE(manager_desc.find("sync.algorithm = \"brisk\""), std::string::npos);
  EXPECT_NE(manager_desc.find("sorter.initial_frame_us = 5000"), std::string::npos);
  // A credited run must be told apart from an uncredited one in the dump.
  EXPECT_NE(manager_desc.find("ism.credit_window_records = 8192"), std::string::npos);
  EXPECT_NE(manager_desc.find("ism.credit_window_bytes = 1048576"), std::string::npos);
  EXPECT_NE(manager_desc.find("ism.credit_replenish_us = 20000"), std::string::npos);
}

}  // namespace
}  // namespace brisk
