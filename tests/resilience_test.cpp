// Connection-resilience suite: crash, churn, and fault-injection tests of
// the EXS⇄ISM path. Covers the full failure model of DESIGN.md §6:
//  * kill -9 of a brisk_exs child mid-stream + restart (real processes,
//    records ride out the crash in the named shared-memory rings),
//  * ISM-side idle reaping → EXS backoff reconnect → same-incarnation
//    rejoin with replay of unacknowledged batches,
//  * seeded frame faults (drop / stall / truncate) on the outbound link,
//    recovered by the BATCH_ACK go-back-N resend without duplicates,
//  * heartbeats keeping record-free sessions alive,
//  * quarantine expiry draining a crashed node's pending records.
// Labelled `resilience` in ctest; the sanitizer gate runs exactly this
// suite (see BRISK_SANITIZE in the top-level CMakeLists).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common/time_util.hpp"
#include "consumers/gateway_client.hpp"
#include "core/brisk_manager.hpp"
#include "core/brisk_node.hpp"
#include "ism/ism.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "shm/shared_region.hpp"
#include "sim/fault_injector.hpp"
#include "tp/batch.hpp"
#include "xdr/xdr_encoder.hpp"

#ifndef BRISK_APPS_DIR
#error "BRISK_APPS_DIR must be defined by the build"
#endif

namespace brisk {
namespace {

using sensors::x_i32;

constexpr SensorId kSensor = 7;

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

/// Runs a cleanup at scope exit — declared after the ScopedThreads so a
/// failing ASSERT still stops the loops before the threads are joined.
struct Stopper {
  std::function<void()> fn;
  ~Stopper() { fn(); }
};

ManagerConfig resilient_manager_config() {
  ManagerConfig config;
  config.ism.select_timeout_us = 2'000;
  config.ism.sorter.initial_frame_us = 5'000;
  config.ism.sorter.min_frame_us = 1'000;
  config.ism.enable_sync = false;
  config.ism.ack_period_us = 20'000;        // fast replay-buffer trimming
  config.ism.gap_skip_timeout_us = 2'000'000;  // resends must win the race
  return config;
}

NodeConfig resilient_node_config(NodeId node) {
  NodeConfig config;
  config.node = node;
  config.exs.select_timeout_us = 2'000;
  config.exs.batch_max_age_us = 1'000;
  config.exs.replay_buffer_batches = 1'024;
  config.exs.reconnect_backoff_base_us = 20'000;
  config.exs.reconnect_backoff_cap_us = 200'000;
  config.exs.heartbeat_period_us = 100'000;
  return config;
}

/// Polls the consumer until `count` records arrived or `timeout` expired.
std::vector<sensors::Record> collect(consumers::ShmConsumer& consumer, std::size_t count,
                                     TimeMicros timeout = 8'000'000) {
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

/// Asserts the invariant every resilience scenario must uphold: the node's
/// delivered records carry payload counters `first..first+count-1`, each
/// exactly once, in per-node FIFO order.
void expect_exactly_once_in_order(const std::vector<sensors::Record>& records,
                                  NodeId node, int first, int count) {
  ASSERT_EQ(records.size(), static_cast<std::size_t>(count));
  std::set<long long> counters;
  long long previous = first - 1;
  for (const auto& record : records) {
    EXPECT_EQ(record.node, node);
    ASSERT_FALSE(record.fields.empty());
    const long long value = record.fields[0].as_signed();
    EXPECT_TRUE(counters.insert(value).second) << "duplicate record " << value;
    EXPECT_GT(value, previous) << "per-node FIFO violated at " << value;
    previous = value;
  }
  EXPECT_EQ(*counters.begin(), first);
  EXPECT_EQ(*counters.rbegin(), first + count - 1);
}

// ---- child-process harness (same shape as apps_test) ------------------------

struct ChildProcess {
  pid_t pid = -1;
  int stdout_fd = -1;

  void terminate_and_wait() {
    if (pid <= 0) return;
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    if (stdout_fd >= 0) {
      ::close(stdout_fd);
      stdout_fd = -1;
    }
  }

  /// SIGKILL: the crash under test. Returns true if the child died by it.
  bool kill_nine() {
    if (pid <= 0) return false;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    if (stdout_fd >= 0) {
      ::close(stdout_fd);
      stdout_fd = -1;
    }
    return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  }
};

ChildProcess spawn(const std::string& binary, std::vector<std::string> args) {
  int pipe_fds[2];
  EXPECT_EQ(::pipe(pipe_fds), 0);
  ChildProcess child;
  child.pid = ::fork();
  if (child.pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    static std::string bin_storage;
    bin_storage = binary;
    argv.push_back(bin_storage.data());
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(pipe_fds[1]);
  child.stdout_fd = pipe_fds[0];
  return child;
}

std::string read_until(ChildProcess& child, const std::string& marker,
                       TimeMicros timeout = 10'000'000) {
  std::string output;
  const TimeMicros deadline = monotonic_micros() + timeout;
  const int flags = ::fcntl(child.stdout_fd, F_GETFL, 0);
  ::fcntl(child.stdout_fd, F_SETFL, flags | O_NONBLOCK);
  while (monotonic_micros() < deadline) {
    char chunk[4096];
    const ssize_t n = ::read(child.stdout_fd, chunk, sizeof chunk);
    if (n > 0) {
      output.append(chunk, static_cast<std::size_t>(n));
      if (output.find(marker) != std::string::npos) break;
    } else if (n == 0) {
      break;
    } else {
      sleep_micros(10'000);
    }
  }
  return output;
}

std::vector<std::string> exs_args(const std::string& shm, std::uint16_t port,
                                  std::vector<std::string> extra = {}) {
  std::vector<std::string> args{"--node", "1", "--shm", shm,
                                "--ism-port", std::to_string(port),
                                "--select-timeout-us", "2000",
                                "--batch-age-us", "1000",
                                "--heartbeat-us", "100000",
                                "--backoff-base-us", "20000"};
  for (auto& arg : extra) args.push_back(std::move(arg));
  return args;
}

/// Attaches the test as "the application" to the region a brisk_exs child
/// created, with a readiness retry loop.
Result<std::unique_ptr<BriskNode>> attach_app(const std::string& shm) {
  NodeConfig config;
  config.node = 1;
  config.shm_name = shm;
  Result<std::unique_ptr<BriskNode>> app = Status(Errc::not_found, "pending");
  const TimeMicros deadline = monotonic_micros() + 5'000'000;
  while (monotonic_micros() < deadline) {
    app = BriskNode::attach(config);
    if (app.is_ok()) break;
    sleep_micros(20'000);
  }
  return app;
}

// ---- satellite (a): kill -9 an EXS mid-stream, restart, output intact -------

// Tearing a manager down while the gateway's fan-out thread is busy
// recording queue drops into the ISM's flight recorder must not touch the
// recorder after the ISM frees it (the ASan stage runs this label).
TEST(ResilienceTest, ManagerTeardownWhileFanoutRecordsDrops) {
  sensors::Record fat;
  fat.node = 1;
  fat.sensor = 1;
  for (int i = 0; i < 8; ++i) {
    fat.fields.push_back(sensors::Field::str(std::string(sensors::kMaxStringFieldBytes, 'x')));
  }
  for (int round = 0; round < 3; ++round) {
    ManagerConfig config = resilient_manager_config();
    config.ism.sorter_shards = 2;  // pipeline threads still run at teardown
    config.gateway.tcp_enabled = true;
    config.gateway.consumer_port = 0;
    config.gateway.outbox_bytes = 8'192;
    auto manager = BriskManager::create(config);
    ASSERT_TRUE(manager.is_ok()) << manager.status().to_string();
    consumers::GatewayClient::Options options;
    options.name = "never-reads";
    options.queue_records = 8;
    auto client = consumers::GatewayClient::connect(
        "127.0.0.1", manager.value()->consumer_port(), options);
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    for (int i = 0; i < 4'000; ++i) {
      fat.timestamp = i;
      (void)manager.value()->gateway().accept(fat);  // the shm ring fills: ignored
    }
    manager.value().reset();  // while the fan-out thread still works the lane
  }
}

TEST(ResilienceTest, KillNineRestartIsGapAndDuplicateFree) {
  const std::string apps_dir = BRISK_APPS_DIR;
  const std::string node_shm = "/brisk-res-kill-" + std::to_string(::getpid());

  auto manager = BriskManager::create(resilient_manager_config());
  ASSERT_TRUE(manager.is_ok()) << manager.status().to_string();
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());
  ScopedThread ism_thread([&] { (void)manager.value()->run_for(25'000'000); });
  Stopper stop_ism{[&] { manager.value()->stop(); }};

  ChildProcess exs = spawn(apps_dir + "/brisk_exs",
                           exs_args(node_shm, manager.value()->port()));
  ASSERT_GT(exs.pid, 0);
  (void)read_until(exs, "node 1");
  Stopper stop_children{[&] { exs.terminate_and_wait(); }};

  auto app = attach_app(node_shm);
  ASSERT_TRUE(app.is_ok()) << app.status().to_string();
  auto sensor = app.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());

  // Phase 1: stream through the first EXS and wait for it to settle, so the
  // crash cannot eat records still sitting in the child's batcher.
  constexpr int kPhase = 250;
  for (int i = 0; i < kPhase; ++i) {
    ASSERT_TRUE(BRISK_NOTICE(sensor.value(), kSensor, x_i32(i)));
  }
  auto first = collect(consumer.value(), kPhase);
  ASSERT_EQ(first.size(), static_cast<std::size_t>(kPhase))
      << "phase 1 must be fully delivered before the crash";

  // The crash: SIGKILL, no cleanup, no BYE. The named region survives.
  ASSERT_TRUE(exs.kill_nine());

  // Phase 2: the application keeps noticing into the orphaned rings.
  for (int i = kPhase; i < 2 * kPhase; ++i) {
    ASSERT_TRUE(BRISK_NOTICE(sensor.value(), kSensor, x_i32(i)));
  }

  // Restart: a fresh incarnation attaches to the same rings and drains the
  // backlog. Its batch sequence restarts at zero; the ISM must reset the
  // cursor instead of dropping the new stream as duplicates.
  ChildProcess restarted = spawn(apps_dir + "/brisk_exs",
                                 exs_args(node_shm, manager.value()->port(), {"--attach"}));
  ASSERT_GT(restarted.pid, 0);
  (void)read_until(restarted, "node 1");
  Stopper stop_restarted{[&] { restarted.terminate_and_wait(); }};

  auto rest = collect(consumer.value(), kPhase);

  std::vector<sensors::Record> all = first;
  all.insert(all.end(), rest.begin(), rest.end());
  expect_exactly_once_in_order(all, 1, 0, 2 * kPhase);

  restarted.terminate_and_wait();
  manager.value()->stop();
  // Joined by scope exit; now the stats are quiescent.
  const auto& stats = manager.value()->ism().stats();
  EXPECT_EQ(stats.batch_seq_gaps, 0u) << "no batches were lost for good";
  EXPECT_EQ(stats.duplicate_batches_dropped, 0u)
      << "a fresh incarnation must not collide with the old cursor";
  EXPECT_GE(stats.connections_accepted, 2u);

  (void)shm::SharedRegion::open_named(node_shm).value().unlink();
}

// ---- tentpole: idle reap → backoff reconnect → rejoin with replay -----------

TEST(ResilienceTest, IdleReapedExsRejoinsAndReplays) {
  auto manager_config = resilient_manager_config();
  manager_config.ism.peer_idle_timeout_us = 150'000;
  auto manager = BriskManager::create(manager_config);
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());

  // No heartbeats: the EXS goes silent between phases, so the ISM must reap
  // it, and the reconnect must resume the same incarnation's session.
  NodeConfig node_config = resilient_node_config(1);
  node_config.exs.heartbeat_period_us = 0;
  auto node = BriskNode::create(node_config);
  ASSERT_TRUE(node.is_ok());
  auto sensor = node.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());
  auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs.is_ok()) << exs.status().to_string();

  ScopedThread ism_thread([&] { (void)manager.value()->run_for(12'000'000); });
  ScopedThread exs_thread([&] { (void)exs.value()->run_for(12'000'000); });
  Stopper stop_all{[&] {
    exs.value()->stop();
    manager.value()->stop();
  }};

  constexpr int kPhase = 100;
  for (int i = 0; i < kPhase; ++i) {
    ASSERT_TRUE(BRISK_NOTICE(sensor.value(), kSensor, x_i32(i)));
  }
  auto first = collect(consumer.value(), kPhase);
  ASSERT_EQ(first.size(), static_cast<std::size_t>(kPhase));

  // Silence. The ISM reaps the mute peer; the EXS notices the EOF and
  // reconnects with backoff.
  TimeMicros deadline = monotonic_micros() + 5'000'000;
  while (monotonic_micros() < deadline &&
         manager.value()->ism().stats().idle_disconnects == 0) {
    sleep_micros(10'000);
  }
  EXPECT_GE(manager.value()->ism().stats().idle_disconnects, 1u);
  deadline = monotonic_micros() + 5'000'000;
  while (monotonic_micros() < deadline && exs.value()->reconnects() == 0) {
    sleep_micros(10'000);
  }
  EXPECT_GE(exs.value()->reconnects(), 1u);

  // Phase 2 must flow through the re-established session, exactly once.
  for (int i = kPhase; i < 2 * kPhase; ++i) {
    ASSERT_TRUE(BRISK_NOTICE(sensor.value(), kSensor, x_i32(i)));
  }
  auto rest = collect(consumer.value(), kPhase);

  exs.value()->stop();
  manager.value()->stop();

  std::vector<sensors::Record> all = first;
  all.insert(all.end(), rest.begin(), rest.end());
  expect_exactly_once_in_order(all, 1, 0, 2 * kPhase);
  EXPECT_GE(manager.value()->ism().stats().rejoins, 1u)
      << "the reconnect must resume the session, not reset it";
  EXPECT_EQ(manager.value()->ism().stats().batch_seq_gaps, 0u);
}

// ---- tentpole: seeded frame faults recovered by ack-driven replay -----------

TEST(ResilienceTest, DroppedFramesAreReplayedExactlyOnce) {
  auto manager = BriskManager::create(resilient_manager_config());
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());
  auto node = BriskNode::create(resilient_node_config(1));
  ASSERT_TRUE(node.is_ok());
  auto sensor = node.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());
  auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs.is_ok());

  sim::FaultPlan plan;
  plan.seed = 42;
  plan.drop_probability = 0.1;
  plan.stall_every = 25;
  plan.stall_us = 50'000;
  ASSERT_TRUE(plan.validate());
  sim::FaultInjector injector(plan);
  exs.value()->set_fault_policy(injector.policy());

  ScopedThread ism_thread([&] { (void)manager.value()->run_for(12'000'000); });
  ScopedThread exs_thread([&] { (void)exs.value()->run_for(12'000'000); });
  Stopper stop_all{[&] {
    exs.value()->stop();
    manager.value()->stop();
  }};

  // Paced so the age-based flush produces many distinct frames — more
  // frames, more faults, more replays.
  constexpr int kEvents = 2'000;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(BRISK_NOTICE(sensor.value(), kSensor, x_i32(i)));
    if (i % 50 == 0) sleep_micros(2'000);
  }
  auto records = collect(consumer.value(), kEvents);

  exs.value()->stop();
  manager.value()->stop();

  expect_exactly_once_in_order(records, 1, 0, kEvents);
  const auto& ism_stats = manager.value()->ism().stats();
  EXPECT_EQ(ism_stats.batch_seq_gaps, 0u) << "every dropped batch must be resent";
  const auto& faults = exs.value()->fault_stats();
  if (faults.dropped > 0) {
    EXPECT_GE(exs.value()->core().stats().batches_replayed, 1u)
        << "drops happened but nothing was ever resent";
    EXPECT_GE(ism_stats.duplicate_batches_dropped + ism_stats.out_of_order_batches_dropped, 1u)
        << "go-back-N resend must have overlapped the live stream";
  }
}

TEST(ResilienceTest, TruncatedFramesForceReconnectWithoutDuplicates) {
  auto manager = BriskManager::create(resilient_manager_config());
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());
  auto node = BriskNode::create(resilient_node_config(1));
  ASSERT_TRUE(node.is_ok());
  auto sensor = node.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());
  auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs.is_ok());

  // A truncated frame poisons the byte stream: the ISM hits a decode error,
  // drops the connection, and the EXS must reconnect and replay.
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.truncate_probability = 0.2;
  ASSERT_TRUE(plan.validate());
  sim::FaultInjector injector(plan);
  exs.value()->set_fault_policy(injector.policy());

  ScopedThread ism_thread([&] { (void)manager.value()->run_for(12'000'000); });
  ScopedThread exs_thread([&] { (void)exs.value()->run_for(12'000'000); });
  Stopper stop_all{[&] {
    exs.value()->stop();
    manager.value()->stop();
  }};

  constexpr int kEvents = 1'000;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(BRISK_NOTICE(sensor.value(), kSensor, x_i32(i)));
    if (i % 50 == 0) sleep_micros(2'000);
  }
  auto records = collect(consumer.value(), kEvents);

  exs.value()->stop();
  manager.value()->stop();

  expect_exactly_once_in_order(records, 1, 0, kEvents);
  if (exs.value()->fault_stats().truncated > 0) {
    EXPECT_GE(exs.value()->reconnects(), 1u)
        << "a poisoned stream must cost the connection";
    EXPECT_GE(manager.value()->ism().stats().protocol_errors, 1u);
    EXPECT_GE(exs.value()->core().stats().batches_replayed, 1u);
  }
}

TEST(ResilienceTest, DroppedAcksStarveExsIntoReconnectWithoutDuplicates) {
  auto manager = BriskManager::create(resilient_manager_config());
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());
  NodeConfig node_config = resilient_node_config(1);
  // With every BATCH_ACK eaten on the ISM side, the only thing that tells
  // the EXS its acks are gone is this silence timeout.
  node_config.exs.ism_silence_timeout_us = 250'000;
  auto node = BriskNode::create(node_config);
  ASSERT_TRUE(node.is_ok());
  auto sensor = node.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());
  auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs.is_ok());

  // Reverse-channel loss: the ISM-side FaultySocket drops BATCH_ACK frames
  // (HELLO_ACKs pass, so sessions can re-establish). Bounded so the link
  // heals within the test and the replay buffer gets to drain.
  constexpr std::uint64_t kMaxDroppedAcks = 25;
  std::atomic<std::uint64_t> acks_dropped{0};
  manager.value()->ism().set_fault_policy([&](std::uint64_t, ByteSpan payload) {
    net::FaultDecision decision;
    if (payload.size() >= 4) {
      const std::uint32_t type = (std::uint32_t{payload[0]} << 24) |
                                 (std::uint32_t{payload[1]} << 16) |
                                 (std::uint32_t{payload[2]} << 8) | std::uint32_t{payload[3]};
      if (type == static_cast<std::uint32_t>(tp::MsgType::batch_ack) &&
          acks_dropped.load(std::memory_order_relaxed) < kMaxDroppedAcks) {
        acks_dropped.fetch_add(1, std::memory_order_relaxed);
        decision.action = net::FaultAction::drop;
      }
    }
    return decision;
  });

  ScopedThread ism_thread([&] { (void)manager.value()->run_for(12'000'000); });
  ScopedThread exs_thread([&] { (void)exs.value()->run_for(12'000'000); });
  Stopper stop_all{[&] {
    exs.value()->stop();
    manager.value()->stop();
  }};

  constexpr int kEvents = 1'000;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(BRISK_NOTICE(sensor.value(), kSensor, x_i32(i)));
    if (i % 50 == 0) sleep_micros(2'000);
  }
  auto records = collect(consumer.value(), kEvents);

  // Data flows EXS→ISM regardless of lost acks, so delivery finishes well
  // before the first 250 ms silence window closes. Keep the loops running
  // until the starved EXS actually tears the link down, reconnects, and the
  // post-fault acks trim its replay buffer back to empty.
  const TimeMicros deadline = monotonic_micros() + 8'000'000;
  while (monotonic_micros() < deadline) {
    const auto stats = exs.value()->core().stats();
    if (exs.value()->reconnects() >= 1 && stats.replay_pending == 0) break;
    sleep_micros(2'000);
  }

  exs.value()->stop();
  manager.value()->stop();

  expect_exactly_once_in_order(records, 1, 0, kEvents);
  EXPECT_GE(acks_dropped.load(), 1u) << "the fault policy never saw a BATCH_ACK";
  EXPECT_GE(exs.value()->reconnects(), 1u)
      << "ack silence must starve the EXS into dropping the half-open link";
  const auto exs_stats = exs.value()->core().stats();
  EXPECT_EQ(exs_stats.replay_pending, 0u)
      << "once acks flow again the replay buffer must drain";
  // The reconnect HELLO_ACK carries the resume cursor, so replays of batches
  // the ISM already sorted must be discarded, never re-delivered.
  EXPECT_EQ(manager.value()->ism().stats().batch_seq_gaps, 0u);
}

// ---- heartbeats vs the idle reaper -----------------------------------------

TEST(ResilienceTest, HeartbeatsKeepIdleLinkAlive) {
  auto manager_config = resilient_manager_config();
  manager_config.ism.peer_idle_timeout_us = 200'000;
  auto manager = BriskManager::create(manager_config);
  ASSERT_TRUE(manager.is_ok());
  NodeConfig node_config = resilient_node_config(1);
  node_config.exs.heartbeat_period_us = 50'000;
  auto node = BriskNode::create(node_config);
  ASSERT_TRUE(node.is_ok());
  auto exs = node.value()->connect_exs("127.0.0.1", manager.value()->port());
  ASSERT_TRUE(exs.is_ok());

  {
    ScopedThread ism_thread([&] { (void)manager.value()->run_for(1'500'000); });
    ScopedThread exs_thread([&] { (void)exs.value()->run_for(1'500'000); });
    Stopper stop_all{[&] {
      exs.value()->stop();
      manager.value()->stop();
    }};
    // No records at all: heartbeats are the only traffic.
    sleep_micros(1'200'000);
  }

  EXPECT_EQ(manager.value()->ism().stats().idle_disconnects, 0u)
      << "a heartbeating EXS must never be reaped";
  EXPECT_GE(manager.value()->ism().stats().heartbeats_received, 5u);
  EXPECT_EQ(exs.value()->reconnects(), 0u);
  EXPECT_TRUE(exs.value()->connected());
}

// ---- quarantine: a crashed node's pending records still come out ------------

TEST(ResilienceTest, CrashedSessionQuarantineExpiresAndDrains) {
  ism::IsmConfig config;
  config.select_timeout_us = 2'000;
  config.enable_sync = false;
  config.ack_period_us = 20'000;
  config.peer_idle_timeout_us = 0;  // only the quarantine clock matters here
  config.quarantine_timeout_us = 150'000;
  // A huge fixed frame parks every record in the sorter: only the expiry
  // drain can get them out within the test window.
  config.sorter.initial_frame_us = 10'000'000;
  config.sorter.min_frame_us = 0;
  config.sorter.adaptive = false;

  struct DeliveredLog {
    std::mutex mutex;
    std::vector<sensors::Record> records;
  };
  auto delivered = std::make_shared<DeliveredLog>();
  auto sink = std::make_shared<ism::CallbackSink>([delivered](const sensors::Record& r) {
    std::lock_guard<std::mutex> lock(delivered->mutex);
    delivered->records.push_back(r);
  });
  auto ism = ism::Ism::start(config, clk::SystemClock::instance(), sink);
  ASSERT_TRUE(ism.is_ok()) << ism.status().to_string();

  {
    ScopedThread server([&] { (void)ism.value()->run(); });
    Stopper stop_server{[&] { ism.value()->stop(); }};

    {
      auto socket = net::TcpSocket::connect("127.0.0.1", ism.value()->port());
      ASSERT_TRUE(socket.is_ok());
      ByteBuffer hello;
      xdr::Encoder enc(hello);
      tp::put_type(tp::MsgType::hello, enc);
      tp::encode_hello({5, tp::kProtocolVersion, /*incarnation=*/77}, enc);
      ASSERT_TRUE(net::write_frame(socket.value(), hello.view()));

      tp::BatchBuilder builder(5);
      for (int i = 0; i < 3; ++i) {
        sensors::Record record;
        record.sensor = kSensor;
        record.timestamp = clk::SystemClock::instance().now();
        record.fields = {sensors::Field::i32(i)};
        ASSERT_TRUE(builder.add_record(record));
      }
      ByteBuffer payload = builder.finish();
      ASSERT_TRUE(net::write_frame(socket.value(), payload.view()));
      sleep_micros(100'000);  // let the ISM ingest before the "crash"
    }  // abrupt close, no BYE — the session goes into quarantine

    // Expiry must drain the three parked records out of band.
    const TimeMicros deadline = monotonic_micros() + 3'000'000;
    while (monotonic_micros() < deadline) {
      {
        std::lock_guard<std::mutex> lock(delivered->mutex);
        if (delivered->records.size() >= 3) break;
      }
      sleep_micros(10'000);
    }
  }  // server joined: stats are quiescent

  std::lock_guard<std::mutex> lock(delivered->mutex);
  ASSERT_EQ(delivered->records.size(), 3u);
  const auto& stats = ism.value()->stats();
  EXPECT_GE(stats.sessions_expired, 1u);
  EXPECT_EQ(stats.records_drained_on_expiry, 3u);
  EXPECT_EQ(ism.value()->session_count(), 0u) << "the expired session is forgotten";
}

// ---- satellite demo: 5% drop + 500 ms stalls through the real binaries ------

TEST(ResilienceTest, FaultDemoDropAndStallThroughRealBinaries) {
  const std::string apps_dir = BRISK_APPS_DIR;
  const std::string node_shm = "/brisk-res-demo-" + std::to_string(::getpid());

  auto manager = BriskManager::create(resilient_manager_config());
  ASSERT_TRUE(manager.is_ok());
  auto consumer = manager.value()->make_consumer();
  ASSERT_TRUE(consumer.is_ok());
  ScopedThread ism_thread([&] { (void)manager.value()->run_for(25'000'000); });
  Stopper stop_ism{[&] { manager.value()->stop(); }};

  // The acceptance scenario: 5% frame drop plus a 500 ms stall every 10th
  // frame, injected by the brisk_exs --fault-* flags.
  ChildProcess exs = spawn(
      apps_dir + "/brisk_exs",
      exs_args(node_shm, manager.value()->port(),
               {"--fault-seed", "1", "--fault-drop", "0.05", "--fault-stall-every", "10",
                "--fault-stall-us", "500000"}));
  ASSERT_GT(exs.pid, 0);
  (void)read_until(exs, "node 1");
  Stopper stop_exs{[&] { exs.terminate_and_wait(); }};

  auto app = attach_app(node_shm);
  ASSERT_TRUE(app.is_ok()) << app.status().to_string();
  auto sensor = app.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());

  constexpr int kEvents = 600;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(BRISK_NOTICE(sensor.value(), kSensor, x_i32(i)));
    if (i % 40 == 0) sleep_micros(3'000);
  }
  auto records = collect(consumer.value(), kEvents, /*timeout=*/15'000'000);

  exs.terminate_and_wait();
  manager.value()->stop();

  expect_exactly_once_in_order(records, 1, 0, kEvents);
  EXPECT_EQ(manager.value()->ism().stats().batch_seq_gaps, 0u)
      << "5% drop + stalls must be fully recovered by replay";

  (void)shm::SharedRegion::open_named(node_shm).value().unlink();
}

}  // namespace
}  // namespace brisk
