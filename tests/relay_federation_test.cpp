// Hierarchical ISM federation tests.
//
// The load-bearing property: a 2-level relay tree must produce output
// byte-identical to a flat deployment of the same nodes — the relay tier
// re-batches its post-merge ordered stream onto an upstream link, the root
// merges relay lanes with its own sorter shards, and CRE matching happens
// exactly once, at the root. The determinism grid runs the same workload
// through both topologies across root ingest configurations (inline and
// threaded readers x 1 and 4 sorter shards) and compares encoded records
// byte for byte, including a cross-relay tachyon the root must repair.
#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "clock/clock.hpp"
#include "common/time_util.hpp"
#include "ism/ism.hpp"
#include "ism/output.hpp"
#include "ism/relay.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "sensors/event_record.hpp"
#include "sensors/field.hpp"
#include "sensors/metrics_record.hpp"
#include "tp/batch.hpp"
#include "tp/wire.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace brisk::ism {
namespace {

constexpr CausalId kCausalPair = 42;

struct GridMode {
  std::size_t reader_threads = 0;
  std::size_t sorter_shards = 1;
};

std::string grid_mode_name(const ::testing::TestParamInfo<GridMode>& info) {
  return (info.param.reader_threads == 0 ? std::string("inline") : std::string("threaded")) +
         "_shards" + std::to_string(info.param.sorter_shards);
}

/// A sorter frame far larger than the test runtime: nothing is released
/// until drain(), so the output is the fully sorted stream regardless of
/// scheduling — the comparison isolates topology, not timing.
IsmConfig make_ism_config(std::size_t reader_threads, std::size_t sorter_shards) {
  IsmConfig config;
  config.select_timeout_us = 2'000;
  config.enable_sync = false;
  config.sorter.initial_frame_us = 120'000'000;
  config.sorter.min_frame_us = 120'000'000;
  config.sorter.max_frame_us = 120'000'000;
  config.sorter.adaptive = false;
  config.reader_threads = reader_threads;
  config.sorter_shards = sorter_shards;
  return config;
}

struct DeliveredLog {
  std::mutex mutex;
  std::vector<sensors::Record> records;
  void add(const sensors::Record& r) {
    std::lock_guard<std::mutex> lock(mutex);
    records.push_back(r);
  }
  std::vector<sensors::Record> snapshot() {
    std::lock_guard<std::mutex> lock(mutex);
    return records;
  }
};

/// The workload: four nodes, globally unique timestamps (so the sorted
/// order is total and any divergence is a real ordering difference), plus
/// one causal pair whose reason and consequence live on nodes that land
/// behind *different* relays in the tree runs — and whose consequence is a
/// tachyon the root's CRE matcher must repair.
std::map<NodeId, std::vector<sensors::Record>> make_workload(TimeMicros base) {
  std::map<NodeId, std::vector<sensors::Record>> by_node;
  const NodeId nodes[] = {1, 2, 3, 4};
  std::uint64_t seq = 0;
  for (std::size_t n = 0; n < 4; ++n) {
    for (std::size_t i = 0; i < 25; ++i) {
      sensors::Record record;
      record.node = nodes[n];
      record.sensor = 7;
      record.sequence = seq;
      // (seq * 733) mod 1009 is a permutation (733 and 1009 coprime), so
      // all 100 offsets are distinct; x100 spreads them over ~100ms.
      record.timestamp = base + static_cast<TimeMicros>((seq * 733) % 1009) * 100;
      record.fields.push_back(sensors::Field::u64(seq));
      by_node[nodes[n]].push_back(std::move(record));
      ++seq;
    }
  }
  // Reason on node 1, tachyonic consequence on node 3 (different relay).
  sensors::Record& reason = by_node[1][5];
  reason.fields.push_back(sensors::Field::reason(kCausalPair));
  sensors::Record& conseq = by_node[3][7];
  conseq.fields.push_back(sensors::Field::conseq(kCausalPair));
  conseq.timestamp = reason.timestamp - 1;  // unique: all others are x100
  return by_node;
}

Status send_hello(net::TcpSocket& socket, NodeId node) {
  ByteBuffer out;
  xdr::Encoder enc(out);
  tp::put_type(tp::MsgType::hello, enc);
  tp::encode_hello({node, tp::kProtocolVersion, 1, 0}, enc);
  return net::write_frame(socket, out.view());
}

Status send_bye(net::TcpSocket& socket) {
  ByteBuffer out;
  xdr::Encoder enc(out);
  tp::put_type(tp::MsgType::bye, enc);
  return net::write_frame(socket, out.view());
}

/// Plays one node's records at the given ISM port: hello, one data batch,
/// bye, then drains the socket until the server closes it. The server
/// processes frames in order and closes on BYE, so EOF proves every record
/// was admitted — and the drain consumes the hello_ack/acks the server
/// sent, so our close is a clean FIN rather than an RST that could destroy
/// the batch still queued in the server's receive buffer.
void play_node(std::uint16_t port, NodeId node,
               const std::vector<sensors::Record>& records) {
  auto socket = net::TcpSocket::connect("127.0.0.1", port);
  ASSERT_TRUE(socket.is_ok()) << socket.status().to_string();
  ASSERT_TRUE(send_hello(socket.value(), node).ok());
  tp::BatchBuilder builder(node);
  for (const sensors::Record& record : records) {
    ASSERT_TRUE(builder.add_record(record).ok());
  }
  ByteBuffer payload = builder.finish();
  ASSERT_TRUE(net::write_frame(socket.value(), payload.view()).ok());
  ASSERT_TRUE(send_bye(socket.value()).ok());
  ASSERT_TRUE(socket.value().set_nonblocking(true).ok());
  const TimeMicros deadline = monotonic_micros() + 5'000'000;
  std::uint8_t chunk[512];
  while (monotonic_micros() < deadline) {
    auto n = socket.value().read_some(MutableByteSpan{chunk, sizeof chunk});
    if (!n) {
      if (n.status().code() != Errc::would_block) return;  // reset == closed
      sleep_micros(2'000);
      continue;
    }
    if (n.value() == 0) return;  // orderly EOF
  }
  FAIL() << "server did not close node " << node << "'s connection after BYE";
}

bool wait_for_received(const Ism& ism, std::uint64_t count,
                       TimeMicros timeout = 5'000'000) {
  const TimeMicros deadline = monotonic_micros() + timeout;
  while (monotonic_micros() < deadline) {
    if (ism.stats().records_received >= count) return true;
    sleep_micros(2'000);
  }
  return false;
}

std::vector<std::string> encode_all(const std::vector<sensors::Record>& records) {
  std::vector<std::string> out;
  out.reserve(records.size());
  for (const sensors::Record& record : records) {
    auto bytes = encode_output_record(record);
    EXPECT_TRUE(bytes.is_ok()) << bytes.status().to_string();
    if (!bytes) continue;
    out.emplace_back(reinterpret_cast<const char*>(bytes.value().data()),
                     bytes.value().size());
  }
  return out;
}

/// Flat deployment: every node connects straight to one ISM.
std::vector<sensors::Record> run_flat(
    const GridMode& mode, const std::map<NodeId, std::vector<sensors::Record>>& workload,
    std::size_t total) {
  auto log = std::make_shared<DeliveredLog>();
  auto sink = std::make_shared<CallbackSink>(
      [log](const sensors::Record& r) { log->add(r); });
  auto ism = Ism::start(make_ism_config(mode.reader_threads, mode.sorter_shards),
                        clk::SystemClock::instance(), sink);
  EXPECT_TRUE(ism.is_ok()) << ism.status().to_string();
  if (!ism) return {};
  std::thread server([&] { (void)ism.value()->run(); });
  for (const auto& [node, records] : workload) {
    play_node(ism.value()->port(), node, records);
  }
  EXPECT_TRUE(wait_for_received(*ism.value(), total));
  ism.value()->stop();
  server.join();
  EXPECT_TRUE(ism.value()->drain().ok());
  return log->snapshot();
}

/// Sits between a relay and its parent and loses the link once, mid-stream:
/// on the first connection it forwards the relay's HELLO and the parent's
/// replies, then swallows the relay's first RELAY_BATCH and closes both
/// sides. The parent never sees that batch, so the relay must reconnect and
/// replay it. Later connections pass through untouched.
class LinkCutter {
 public:
  explicit LinkCutter(std::uint16_t parent_port) : parent_port_(parent_port) {
    auto listener = net::TcpListener::listen(0);
    EXPECT_TRUE(listener.is_ok()) << listener.status().to_string();
    if (listener) listener_ = std::move(listener).value();
    thread_ = std::thread([this] { run(); });
  }
  ~LinkCutter() {
    stop_.store(true);
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }
  [[nodiscard]] bool cut() const noexcept { return cut_.load(); }

 private:
  struct Link {
    net::TcpSocket relay;
    net::TcpSocket parent;
    bool first = false;  // the connection to cut
    net::FrameReader frames;
  };

  void run() {
    std::vector<Link> links;
    while (!stop_.load()) {
      std::vector<pollfd> fds{{listener_.fd(), POLLIN, 0}};
      for (const Link& link : links) {
        fds.push_back({link.relay.fd(), POLLIN, 0});
        fds.push_back({link.parent.fd(), POLLIN, 0});
      }
      if (::poll(fds.data(), fds.size(), 5) <= 0) continue;
      const std::size_t polled = links.size();
      if (fds[0].revents != 0) {
        auto relay = listener_.accept();
        auto parent = net::TcpSocket::connect("127.0.0.1", parent_port_);
        if (relay && parent) {
          links.push_back(
              {std::move(relay).value(), std::move(parent).value(), !accepted_any_, {}});
          accepted_any_ = true;
        }
      }
      std::vector<Link> open;
      for (std::size_t i = 0; i < links.size(); ++i) {
        bool alive = true;
        if (i < polled && fds[1 + 2 * i].revents != 0) alive = forward_up(links[i]);
        if (alive && i < polled && fds[2 + 2 * i].revents != 0) {
          alive = copy(links[i].parent, links[i].relay);
        }
        if (alive) open.push_back(std::move(links[i]));  // else both sockets close
      }
      links = std::move(open);
    }
  }

  /// Relay → parent. Returns false once the link is closed (or cut).
  bool forward_up(Link& link) {
    if (!link.first) return copy(link.relay, link.parent);
    std::uint8_t chunk[16 * 1024];
    auto n = link.relay.read_some(MutableByteSpan{chunk, sizeof chunk});
    if (!n || n.value() == 0) return false;
    link.frames.feed(ByteSpan{chunk, n.value()});
    for (;;) {
      auto frame = link.frames.next();
      if (!frame || !frame.value().has_value()) return frame.is_ok();
      xdr::Decoder decoder(frame.value()->view());
      auto type = tp::peek_type(decoder);
      if (type && type.value() == tp::MsgType::relay_batch) {
        cut_.store(true);
        return false;
      }
      if (!net::write_frame(link.parent, frame.value()->view())) return false;
    }
  }

  static bool copy(net::TcpSocket& from, net::TcpSocket& to) {
    std::uint8_t chunk[16 * 1024];
    auto n = from.read_some(MutableByteSpan{chunk, sizeof chunk});
    if (!n || n.value() == 0) return false;
    return static_cast<bool>(to.write_all(ByteSpan{chunk, n.value()}));
  }

  std::uint16_t parent_port_;
  net::TcpListener listener_;
  bool accepted_any_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<bool> cut_{false};
  std::thread thread_;
};

/// 2-level tree: nodes split across `relay_count` relay ISMs, each of which
/// forwards its ordered output to the root over a RelayEgress. With
/// `cut_first_relay`, relay 0 reaches the root through a LinkCutter and
/// must come out of it having reconnected and replayed.
std::vector<sensors::Record> run_tree(
    const GridMode& mode, const std::map<NodeId, std::vector<sensors::Record>>& workload,
    std::size_t total, std::size_t relay_count, bool cut_first_relay = false) {
  auto log = std::make_shared<DeliveredLog>();
  auto sink = std::make_shared<CallbackSink>(
      [log](const sensors::Record& r) { log->add(r); });
  auto root = Ism::start(make_ism_config(mode.reader_threads, mode.sorter_shards),
                         clk::SystemClock::instance(), sink);
  EXPECT_TRUE(root.is_ok()) << root.status().to_string();
  if (!root) return {};
  std::thread root_thread([&] { (void)root.value()->run(); });
  std::unique_ptr<LinkCutter> cutter;
  if (cut_first_relay) cutter = std::make_unique<LinkCutter>(root.value()->port());

  struct RelayNode {
    std::shared_ptr<RelayEgress> egress;
    std::unique_ptr<Ism> ism;
    std::thread thread;
    std::uint64_t expected = 0;
  };
  std::vector<RelayNode> relays(relay_count);
  for (std::size_t r = 0; r < relay_count; ++r) {
    RelayConfig relay_config;
    relay_config.parent_port = r == 0 && cutter ? cutter->port() : root.value()->port();
    relay_config.relay_node = static_cast<NodeId>(1000 + r);
    relay_config.idle_watermark_period_us = 20'000;
    auto egress = RelayEgress::connect(relay_config, clk::SystemClock::instance());
    EXPECT_TRUE(egress.is_ok()) << egress.status().to_string();
    if (!egress) return {};
    relays[r].egress = std::move(egress).value();
    IsmConfig relay_ism = make_ism_config(0, 1);
    relay_ism.cre.forward_only = true;  // matching happens once, at the root
    auto ism = Ism::start(relay_ism, clk::SystemClock::instance(), relays[r].egress);
    EXPECT_TRUE(ism.is_ok()) << ism.status().to_string();
    if (!ism) return {};
    relays[r].ism = std::move(ism).value();
    relays[r].thread = std::thread([ism = relays[r].ism.get()] { (void)ism->run(); });
  }

  std::size_t index = 0;
  for (const auto& [node, records] : workload) {
    RelayNode& relay = relays[index++ % relay_count];
    relay.expected += records.size();
    play_node(relay.ism->port(), node, records);
  }
  for (RelayNode& relay : relays) {
    EXPECT_TRUE(wait_for_received(*relay.ism, relay.expected));
    relay.ism->stop();
    relay.thread.join();
    // Drains the relay pipeline into the egress, ships the batches, waits
    // for the root's acks, and says BYE.
    EXPECT_TRUE(relay.ism->drain().ok());
    EXPECT_EQ(relay.egress->stats().records_forwarded, relay.expected);
  }
  if (cutter) {
    EXPECT_TRUE(cutter->cut());
    const RelayEgressStats cut = relays[0].egress->stats();
    EXPECT_GE(cut.reconnects, 1u);
    EXPECT_EQ(cut.reconnects, cut.link.reconnects);
    EXPECT_GE(cut.link.batches_replayed, 1u);
  }
  EXPECT_TRUE(wait_for_received(*root.value(), total));
  root.value()->stop();
  root_thread.join();
  EXPECT_TRUE(root.value()->drain().ok());
  return log->snapshot();
}

// ---- relay metrics aggregation ----------------------------------------------

struct TreeMetricsOptions {
  bool aggregate_metrics = false;
  /// Relay-ISM self-snapshot cadence (0 = the relays emit no local metrics).
  TimeMicros relay_metrics_interval_us = 0;
};

/// The determinism workload plus reserved-sensor traffic per node: two
/// 0xFF01 snapshot records and one 0xFF03 event, all timestamped past the
/// data records so the reserved stream rides the same sorted tail in every
/// run.
std::map<NodeId, std::vector<sensors::Record>> make_observability_workload(TimeMicros base) {
  auto by_node = make_workload(base);
  std::uint64_t seq = 5'000;
  for (auto& [node, records] : by_node) {
    const TimeMicros ts = base + 200'000 + static_cast<TimeMicros>(node) * 10;
    records.push_back(sensors::make_metrics_record(node, seq++, ts, "exs.records_forwarded",
                                                   100 + node, sensors::MetricKind::counter));
    records.push_back(sensors::make_metrics_record(node, seq++, ts + 1, "exs.replay_pending",
                                                   node, sensors::MetricKind::gauge));
    records.push_back(sensors::make_event_record(node, seq++, ts + 2,
                                                 sensors::EventKind::reconnect, node, 1, ts));
  }
  return by_node;
}

/// run_tree minus the forwarded-count invariant (aggregation absorbs subtree
/// 0xFF01 records, so forwarded != played), plus the aggregation knobs. The
/// relay flush period is an hour: the only aggregated snapshot is the one the
/// drain forces, which keeps the output deterministic.
std::vector<sensors::Record> run_metrics_tree(
    const std::map<NodeId, std::vector<sensors::Record>>& workload, std::size_t relay_count,
    const TreeMetricsOptions& options) {
  auto log = std::make_shared<DeliveredLog>();
  auto sink = std::make_shared<CallbackSink>(
      [log](const sensors::Record& r) { log->add(r); });
  auto root = Ism::start(make_ism_config(0, 1), clk::SystemClock::instance(), sink);
  EXPECT_TRUE(root.is_ok()) << root.status().to_string();
  if (!root) return {};
  std::thread root_thread([&] { (void)root.value()->run(); });

  struct RelayNode {
    std::shared_ptr<RelayEgress> egress;
    std::unique_ptr<Ism> ism;
    std::thread thread;
    std::uint64_t expected = 0;
  };
  std::vector<RelayNode> relays(relay_count);
  for (std::size_t r = 0; r < relay_count; ++r) {
    RelayConfig relay_config;
    relay_config.parent_port = root.value()->port();
    relay_config.relay_node = static_cast<NodeId>(1000 + r);
    relay_config.idle_watermark_period_us = 20'000;
    relay_config.aggregate_metrics = options.aggregate_metrics;
    relay_config.metrics_flush_period_us = 3'600'000'000;
    auto egress = RelayEgress::connect(relay_config, clk::SystemClock::instance());
    EXPECT_TRUE(egress.is_ok()) << egress.status().to_string();
    if (!egress) return {};
    relays[r].egress = std::move(egress).value();
    IsmConfig relay_ism = make_ism_config(0, 1);
    relay_ism.cre.forward_only = true;
    relay_ism.metrics_interval_us = options.relay_metrics_interval_us;
    auto ism = Ism::start(relay_ism, clk::SystemClock::instance(), relays[r].egress);
    EXPECT_TRUE(ism.is_ok()) << ism.status().to_string();
    if (!ism) return {};
    relays[r].ism = std::move(ism).value();
    relays[r].thread = std::thread([ism = relays[r].ism.get()] { (void)ism->run(); });
  }

  std::size_t index = 0;
  for (const auto& [node, records] : workload) {
    RelayNode& relay = relays[index++ % relay_count];
    relay.expected += records.size();
    play_node(relay.ism->port(), node, records);
  }
  for (RelayNode& relay : relays) {
    EXPECT_TRUE(wait_for_received(*relay.ism, relay.expected));
    relay.ism->stop();
    relay.thread.join();
    // The drain forces the aggregator's final flush and waits for the
    // root's acks, so everything shipped is admitted before we stop the
    // root.
    EXPECT_TRUE(relay.ism->drain().ok());
  }
  root.value()->stop();
  root_thread.join();
  EXPECT_TRUE(root.value()->drain().ok());
  return log->snapshot();
}

std::vector<sensors::Record> non_reserved(const std::vector<sensors::Record>& records) {
  std::vector<sensors::Record> out;
  for (const sensors::Record& record : records) {
    if (record.sensor < sensors::kReservedSensorIdBase) out.push_back(record);
  }
  return out;
}

TEST(RelayFederationAggregationTest, NonReservedOutputByteIdenticalWithAggregationOnAndOff) {
  const TimeMicros base = clk::SystemClock::instance().now();
  const auto workload = make_observability_workload(base);

  const auto passthrough = run_metrics_tree(workload, 2, {false, 0});
  const auto aggregated = run_metrics_tree(workload, 2, {true, 0});

  // The knob must be invisible to ordinary sensor output.
  const auto flat_bytes = encode_all(non_reserved(passthrough));
  const auto tree_bytes = encode_all(non_reserved(aggregated));
  ASSERT_EQ(flat_bytes.size(), tree_bytes.size());
  for (std::size_t i = 0; i < flat_bytes.size(); ++i) {
    ASSERT_EQ(flat_bytes[i], tree_bytes[i]) << "first divergence at record " << i;
  }

  // Pass-through ships every subtree snapshot record; aggregation absorbs
  // them all and forwards agg.* rows instead.
  std::size_t off_child_metrics = 0;
  for (const sensors::Record& record : passthrough) {
    if (sensors::is_metrics_record(record) && record.node <= 4) ++off_child_metrics;
  }
  EXPECT_EQ(off_child_metrics, 8u);  // 2 snapshot records x 4 nodes

  std::size_t on_child_metrics = 0;
  std::map<NodeId, std::uint64_t> agg_forwarded;
  for (const sensors::Record& record : aggregated) {
    if (!sensors::is_metrics_record(record)) continue;
    if (record.node <= 4) {
      ++on_child_metrics;
      continue;
    }
    auto point = sensors::decode_metrics_record(record);
    ASSERT_TRUE(point.is_ok());
    if (point.value().name == "agg.exs.records_forwarded") {
      agg_forwarded[record.node] = point.value().value;
    }
  }
  EXPECT_EQ(on_child_metrics, 0u);
  // Workload assignment alternates: relay 1000 gets nodes 1 and 3, relay
  // 1001 gets 2 and 4; the counters are 100+node, so the subtree sums pin
  // the merge.
  ASSERT_TRUE(agg_forwarded.count(1000));
  ASSERT_TRUE(agg_forwarded.count(1001));
  EXPECT_EQ(agg_forwarded[1000], 204u);
  EXPECT_EQ(agg_forwarded[1001], 206u);

  // 0xFF03 events are never absorbed: the sealed drain batch delivers them
  // in both modes.
  for (const auto* run : {&passthrough, &aggregated}) {
    std::size_t events = 0;
    for (const sensors::Record& record : *run) {
      if (sensors::is_event_record(record) && record.node <= 4) ++events;
    }
    EXPECT_EQ(events, 4u);
  }
}

TEST(RelayFederationAggregationTest, RootSeesRelayLocalAndAggregatedRows) {
  const TimeMicros base = clk::SystemClock::instance().now();
  const auto workload = make_observability_workload(base);
  // Fast relay self-snapshots: the relays' own 0xFF01 records (re-stamped to
  // the relay node id) must pass through the aggregator untouched and land
  // next to the subtree's agg.* rows.
  const auto output = run_metrics_tree(workload, 2, {true, 50'000});

  std::map<NodeId, std::size_t> local_rows;
  std::map<NodeId, std::size_t> agg_rows;
  std::map<NodeId, std::uint64_t> agg_nodes;
  for (const sensors::Record& record : output) {
    if (!sensors::is_metrics_record(record) || record.node < 1000) continue;
    auto point = sensors::decode_metrics_record(record);
    ASSERT_TRUE(point.is_ok());
    if (point.value().name.rfind("agg.", 0) == 0) {
      ++agg_rows[record.node];
      if (point.value().name == "agg.nodes") agg_nodes[record.node] = point.value().value;
    } else {
      ++local_rows[record.node];
    }
  }
  for (NodeId relay : {NodeId{1000}, NodeId{1001}}) {
    SCOPED_TRACE("relay " + std::to_string(relay));
    EXPECT_GT(local_rows[relay], 0u) << "relay-local snapshot rows missing";
    EXPECT_GT(agg_rows[relay], 0u) << "aggregated subtree rows missing";
    EXPECT_EQ(agg_nodes[relay], 2u);  // two children behind each relay
  }
}

class RelayFederationTest : public ::testing::TestWithParam<GridMode> {};

TEST_P(RelayFederationTest, TreeOutputByteIdenticalToFlat) {
  const TimeMicros base = clk::SystemClock::instance().now();
  const auto workload = make_workload(base);
  std::size_t total = 0;
  for (const auto& [node, records] : workload) total += records.size();

  const std::vector<sensors::Record> flat = run_flat(GetParam(), workload, total);
  ASSERT_EQ(flat.size(), total);
  for (std::size_t relay_count : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("relay_count=" + std::to_string(relay_count));
    const std::vector<sensors::Record> tree =
        run_tree(GetParam(), workload, total, relay_count);
    ASSERT_EQ(tree.size(), total);
    const std::vector<std::string> flat_bytes = encode_all(flat);
    const std::vector<std::string> tree_bytes = encode_all(tree);
    ASSERT_EQ(flat_bytes.size(), tree_bytes.size());
    for (std::size_t i = 0; i < flat_bytes.size(); ++i) {
      ASSERT_EQ(flat_bytes[i], tree_bytes[i])
          << "first divergence at record " << i << ":\n  flat: " << flat[i].to_string()
          << "\n  tree: " << tree[i].to_string();
    }
  }
}

// The relay→root link is lost after the relay shipped a batch the root
// never received: the relay reconnects, the root's HELLO_ACK names the
// missing batch, and the replay restores it — the tree output stays
// byte-identical to the flat run, with nothing lost or duplicated.
TEST_P(RelayFederationTest, RelayReconnectReplaysLostBatch) {
  const TimeMicros base = clk::SystemClock::instance().now();
  const auto workload = make_workload(base);
  std::size_t total = 0;
  for (const auto& [node, records] : workload) total += records.size();

  const std::vector<sensors::Record> flat = run_flat(GetParam(), workload, total);
  ASSERT_EQ(flat.size(), total);
  const std::vector<sensors::Record> tree =
      run_tree(GetParam(), workload, total, 2, /*cut_first_relay=*/true);
  ASSERT_EQ(tree.size(), total);
  const std::vector<std::string> flat_bytes = encode_all(flat);
  const std::vector<std::string> tree_bytes = encode_all(tree);
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_EQ(flat_bytes[i], tree_bytes[i])
        << "first divergence at record " << i << ":\n  flat: " << flat[i].to_string()
        << "\n  tree: " << tree[i].to_string();
  }
}

TEST_P(RelayFederationTest, CrossRelayTachyonRepairedAtRoot) {
  const TimeMicros base = clk::SystemClock::instance().now();
  const auto workload = make_workload(base);
  std::size_t total = 0;
  for (const auto& [node, records] : workload) total += records.size();

  const std::vector<sensors::Record> tree = run_tree(GetParam(), workload, total, 2);
  ASSERT_EQ(tree.size(), total);
  std::size_t reason_index = total;
  std::size_t conseq_index = total;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    if (tree[i].reason_id() == std::optional<CausalId>{kCausalPair}) reason_index = i;
    if (tree[i].conseq_id() == std::optional<CausalId>{kCausalPair}) conseq_index = i;
  }
  ASSERT_LT(reason_index, total);
  ASSERT_LT(conseq_index, total);
  // Reason precedes its consequence at the root even though the tachyonic
  // consequence's original timestamp was smaller, and the repair bumped the
  // consequence past the reason.
  EXPECT_LT(reason_index, conseq_index);
  EXPECT_GT(tree[conseq_index].timestamp, tree[reason_index].timestamp);
}

INSTANTIATE_TEST_SUITE_P(Grid, RelayFederationTest,
                         ::testing::Values(GridMode{0, 1}, GridMode{0, 4}, GridMode{2, 1},
                                           GridMode{2, 4}),
                         grid_mode_name);

// ---- reader-pool rebalancing decision ---------------------------------------

TEST(ReaderMigrationTest, NoMigrationWhenBalanced) {
  const auto plan = plan_reader_migration({100.0, 90.0}, {3, 3}, 2.0, 1.0);
  EXPECT_FALSE(plan.imbalanced);
}

TEST(ReaderMigrationTest, DetectsSustainedImbalanceSourceAndTarget) {
  const auto plan = plan_reader_migration({10.0, 500.0, 40.0}, {2, 4, 3}, 2.0, 1.0);
  ASSERT_TRUE(plan.imbalanced);
  EXPECT_EQ(plan.from, 1u);
  EXPECT_EQ(plan.to, 0u);
}

TEST(ReaderMigrationTest, NearZeroTrafficNeverTriggers) {
  // 0.4 vs 0.01 is a >2x ratio but under the min-rate floor: noise.
  const auto plan = plan_reader_migration({0.4, 0.01}, {4, 4}, 2.0, 1.0);
  EXPECT_FALSE(plan.imbalanced);
}

TEST(ReaderMigrationTest, SingleConnectionReaderIsNotStripped) {
  // Moving the busiest reader's only connection just relocates the hot spot.
  const auto plan = plan_reader_migration({500.0, 10.0}, {1, 4}, 2.0, 1.0);
  EXPECT_FALSE(plan.imbalanced);
}

TEST(ReaderMigrationTest, PicksConnectionClosestToHalfTheGap) {
  // Gap 400 → target 200: the 180-rate connection levels the pool best.
  const int fd = pick_connection_to_move({{7, 390.0}, {8, 180.0}, {9, 30.0}}, 400.0);
  EXPECT_EQ(fd, 8);
}

TEST(ReaderMigrationTest, IdleConnectionsAreNeverMoved) {
  EXPECT_EQ(pick_connection_to_move({{7, 0.0}, {8, 0.0}}, 400.0), -1);
  EXPECT_EQ(pick_connection_to_move({}, 400.0), -1);
}

}  // namespace
}  // namespace brisk::ism
