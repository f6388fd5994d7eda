// Consumer-gateway tests: filter parse/pushdown semantics, the new consumer
// wire messages, in-process subscription fan-out (failure isolation and
// mutation-vs-delivery safety), aggregation windows, and the TCP fan-out path
// with its slow-consumer (drop-oldest + eviction) policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/time_util.hpp"
#include "consumers/gateway_client.hpp"
#include "ism/filter.hpp"
#include "ism/gateway.hpp"
#include "ism/output.hpp"
#include "metrics/metrics.hpp"
#include "ring_memory.hpp"
#include "tp/wire.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace brisk {
namespace {

using ism::ConsumerGateway;
using ism::GatewayConfig;
using ism::SubscriptionFilter;
using sensors::Field;
using sensors::Record;

Record make_record(NodeId node, SensorId sensor, TimeMicros ts, SequenceNo seq = 0) {
  Record record;
  record.node = node;
  record.sensor = sensor;
  record.sequence = seq;
  record.timestamp = ts;
  record.fields = {Field::i32(7)};
  return record;
}

// ---- SubscriptionFilter ------------------------------------------------------

TEST(SubscriptionFilter, EmptySpecPassesEverything) {
  auto filter = SubscriptionFilter::parse("");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_TRUE(filter.value().pass_all());
  EXPECT_TRUE(filter.value().matches(make_record(9, 9, 9)));
  EXPECT_EQ(filter.value().describe(), "");
}

TEST(SubscriptionFilter, ParsesRangesAndContinuationValues) {
  auto filter = SubscriptionFilter::parse("node=1,2,5-8,sensor=100-199,sample=16");
  ASSERT_TRUE(filter.is_ok());
  const SubscriptionFilter& f = filter.value();
  ASSERT_EQ(f.nodes.size(), 3u);
  EXPECT_EQ(f.nodes[0], (SubscriptionFilter::Range{1, 1}));
  EXPECT_EQ(f.nodes[1], (SubscriptionFilter::Range{2, 2}));
  EXPECT_EQ(f.nodes[2], (SubscriptionFilter::Range{5, 8}));
  ASSERT_EQ(f.sensors.size(), 1u);
  EXPECT_EQ(f.sensors[0], (SubscriptionFilter::Range{100, 199}));
  EXPECT_EQ(f.sample_every, 16u);
}

TEST(SubscriptionFilter, DescribeRoundTrips) {
  auto filter = SubscriptionFilter::parse("node=5-8, 1,sensor=100-199,sample=4");
  ASSERT_TRUE(filter.is_ok());
  const std::string spec = filter.value().describe();
  EXPECT_EQ(spec, "node=1,5-8,sensor=100-199,sample=4");
  auto again = SubscriptionFilter::parse(spec);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value(), filter.value());
}

TEST(SubscriptionFilter, RejectsBadSpecs) {
  EXPECT_FALSE(SubscriptionFilter::parse("bogus=1").is_ok());
  EXPECT_FALSE(SubscriptionFilter::parse("17").is_ok());           // bare value, no key
  EXPECT_FALSE(SubscriptionFilter::parse("node=8-5").is_ok());     // inverted
  EXPECT_FALSE(SubscriptionFilter::parse("node=abc").is_ok());
  EXPECT_FALSE(SubscriptionFilter::parse("sample=0").is_ok());
  EXPECT_FALSE(SubscriptionFilter::parse("node=5000000000").is_ok());  // > uint32
}

TEST(SubscriptionFilter, MatchesConjunction) {
  auto filter = SubscriptionFilter::parse("node=1-2,sensor=10");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_TRUE(filter.value().matches(make_record(1, 10, 0)));
  EXPECT_TRUE(filter.value().matches(make_record(2, 10, 0)));
  EXPECT_FALSE(filter.value().matches(make_record(3, 10, 0)));
  EXPECT_FALSE(filter.value().matches(make_record(1, 11, 0)));
}

TEST(SubscriptionFilter, SamplingIsDeterministicAndRoughlyProportional) {
  auto filter = SubscriptionFilter::parse("sample=8");
  ASSERT_TRUE(filter.is_ok());
  int kept = 0;
  std::vector<bool> first_run;
  for (SequenceNo seq = 0; seq < 4096; ++seq) {
    const bool keep = filter.value().matches(make_record(3, 7, 0, seq));
    first_run.push_back(keep);
    if (keep) ++kept;
  }
  // 1-in-8 with hash jitter: accept a generous band around 512.
  EXPECT_GT(kept, 256);
  EXPECT_LT(kept, 1024);
  for (SequenceNo seq = 0; seq < 4096; ++seq) {
    EXPECT_EQ(filter.value().matches(make_record(3, 7, 0, seq)), first_run[seq]);
  }
}

// The TP wire carries no per-record sequence numbers: every EXS-originated
// record reaches the ISM with sequence == 0. Sampling must still thin such
// a stream proportionally (regression: a hash of the id triple alone kept
// or dropped whole streams).
TEST(SubscriptionFilter, SamplingThinsStreamsWithConstantSequence) {
  auto filter = SubscriptionFilter::parse("sample=8");
  ASSERT_TRUE(filter.is_ok());
  for (NodeId node = 1; node <= 2; ++node) {
    int kept = 0;
    for (TimeMicros ts = 1'000'000; ts < 1'000'000 + 4096; ++ts) {
      if (filter.value().matches(make_record(node, 1, ts, /*seq=*/0))) ++kept;
    }
    EXPECT_GT(kept, 256) << "node " << node;
    EXPECT_LT(kept, 1024) << "node " << node;
  }
}

// ---- consumer wire messages --------------------------------------------------

TEST(ConsumerWire, SubscribeRoundTrip) {
  tp::SubscribeRequest msg;
  msg.name = "dash";
  msg.filter = "node=1,sample=4";
  msg.kind = tp::SubscriptionKind::aggregate;
  msg.queue_records = 512;
  msg.agg_window_us = 250'000;
  ByteBuffer buf;
  xdr::Encoder enc(buf);
  tp::put_type(tp::MsgType::subscribe, enc);
  tp::encode_subscribe(msg, enc);
  xdr::Decoder dec(buf.view());
  auto type = tp::peek_type(dec);
  ASSERT_TRUE(type.is_ok());
  EXPECT_EQ(type.value(), tp::MsgType::subscribe);
  auto back = tp::decode_subscribe(dec);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().name, msg.name);
  EXPECT_EQ(back.value().filter, msg.filter);
  EXPECT_EQ(back.value().kind, msg.kind);
  EXPECT_EQ(back.value().queue_records, msg.queue_records);
  EXPECT_EQ(back.value().agg_window_us, msg.agg_window_us);
  EXPECT_TRUE(dec.exhausted());
}

TEST(ConsumerWire, AckAndUnsubscribeRoundTrip) {
  tp::SubscribeAck ack{true, 42, "ok"};
  ByteBuffer buf;
  xdr::Encoder enc(buf);
  tp::encode_subscribe_ack(ack, enc);
  xdr::Decoder dec(buf.view());
  auto back = tp::decode_subscribe_ack(dec);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().accepted, true);
  EXPECT_EQ(back.value().subscription_id, 42u);
  EXPECT_EQ(back.value().message, "ok");

  tp::Unsubscribe unsub{42};
  ByteBuffer buf2;
  xdr::Encoder enc2(buf2);
  tp::encode_unsubscribe(unsub, enc2);
  xdr::Decoder dec2(buf2.view());
  auto back2 = tp::decode_unsubscribe(dec2);
  ASSERT_TRUE(back2.is_ok());
  EXPECT_EQ(back2.value().subscription_id, 42u);
}

TEST(ConsumerWire, AggWindowRoundTrip) {
  tp::AggWindow window;
  window.window_start = 1'000'000;
  window.window_end = 2'000'000;
  tp::AggWindow::Key key;
  key.node = 3;
  key.sensor = 17;
  key.count = 120;
  key.gap_buckets = {{15, 40}, {31, 60}, {UINT64_MAX, 20}};
  window.keys.push_back(key);
  ByteBuffer buf;
  xdr::Encoder enc(buf);
  tp::encode_agg_window(window, enc);
  xdr::Decoder dec(buf.view());
  auto back = tp::decode_agg_window(dec);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), window);
}

// ---- in-process subscriptions ------------------------------------------------

class CountingSink final : public ism::Sink {
 public:
  Status accept(const sensors::Record&) override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return Status::ok();
  }
  [[nodiscard]] const char* name() const noexcept override { return "counting"; }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
};

std::shared_ptr<ConsumerGateway> make_local_gateway() {
  GatewayConfig config;  // tcp disabled
  auto gateway = ConsumerGateway::create(config);
  EXPECT_TRUE(gateway.is_ok());
  return gateway.value();
}

TEST(GatewayLocal, DuplicateNamesRejectedAndUnsubscribeWorks) {
  auto gateway = make_local_gateway();
  ASSERT_TRUE(gateway->subscribe("a", std::make_shared<CountingSink>()));
  EXPECT_EQ(gateway->subscribe("a", std::make_shared<CountingSink>()).code(),
            Errc::already_exists);
  EXPECT_NE(gateway->find("a"), nullptr);
  EXPECT_TRUE(gateway->unsubscribe("a"));
  EXPECT_FALSE(gateway->unsubscribe("a"));
  EXPECT_EQ(gateway->find("a"), nullptr);
  EXPECT_EQ(gateway->subscriber_count(), 0u);
}

TEST(GatewayLocal, FailingSubscriberDoesNotStopOthers) {
  // A stream subscriber whose sink rejects records (a full shm ring) reports
  // the error but must not starve the subscribers registered after it.
  test::RingMemory memory(shm::RingBuffer::region_size(128));
  auto tiny_ring = shm::RingBuffer::init(memory.data(), 128);
  ASSERT_TRUE(tiny_ring.is_ok());
  auto gateway = make_local_gateway();
  auto shm_sink = std::make_shared<ism::ShmSink>(tiny_ring.value());
  auto counting = std::make_shared<CountingSink>();
  ASSERT_TRUE(gateway->subscribe("shm", shm_sink));
  ASSERT_TRUE(gateway->subscribe("counting", counting));

  Status last = Status::ok();
  for (int i = 0; i < 20; ++i) last = gateway->accept(make_record(1, 1, i));
  EXPECT_EQ(last.code(), Errc::buffer_full) << "the first failure is reported";
  EXPECT_EQ(counting->count(), 20u) << "later subscriber must see every record";
  EXPECT_GT(shm_sink->dropped(), 0u);
  for (const auto& s : gateway->subscriber_stats()) {
    EXPECT_EQ(s.matched, 20u) << s.name;
    const std::uint64_t expected = s.name == "shm" ? shm_sink->delivered() : 20u;
    EXPECT_EQ(s.delivered, expected) << s.name;
  }
}

TEST(GatewayLocal, SubscribeChurnSafeAgainstConcurrentDelivery) {
  // subscribe()/unsubscribe() swap copy-on-write snapshots while accept()
  // and flush() iterate the current one on the merger thread: hammer
  // delivery while subscribers come and go.
  auto gateway = make_local_gateway();
  auto stable = std::make_shared<CountingSink>();
  ASSERT_TRUE(gateway->subscribe("stable", stable));

  std::atomic<bool> stop{false};
  std::thread delivery([&] {
    const Record record = make_record(1, 1, 1);
    while (!stop.load(std::memory_order_acquire)) {
      (void)gateway->accept(record);
      (void)gateway->flush();
    }
  });
  for (int round = 0; round < 2'000; ++round) {
    const std::string name = "churn-" + std::to_string(round % 7);
    (void)gateway->subscribe(name, std::make_shared<CountingSink>());
    (void)gateway->unsubscribe(name);
  }
  // Under load the delivery thread may not have been scheduled yet; make
  // sure it observed at least one snapshot before stopping.
  const TimeMicros deadline = monotonic_micros() + 10'000'000;
  while (stable->count() == 0 && monotonic_micros() < deadline) sleep_micros(100);
  stop.store(true, std::memory_order_release);
  delivery.join();
  EXPECT_GT(stable->count(), 0u);
  EXPECT_EQ(gateway->subscriber_count(), 1u);
  EXPECT_FALSE(gateway->unsubscribe("churn-0"));
}

TEST(GatewayLocal, FilterPushdownMatchesPostHocFiltering) {
  // The acceptance bar for pushdown: a node-filtered subscriber's stream
  // must equal filtering the full stream after the fact.
  auto gateway = make_local_gateway();
  std::vector<Record> full;
  std::vector<Record> filtered;
  ASSERT_TRUE(gateway->subscribe(
      "all", std::make_shared<ism::CallbackSink>([&](const Record& r) { full.push_back(r); })));
  ism::SubscriptionOptions options;
  auto filter = SubscriptionFilter::parse("node=2,sensor=10-19");
  ASSERT_TRUE(filter.is_ok());
  options.filter = filter.value();
  ASSERT_TRUE(gateway->subscribe(
      "narrow",
      std::make_shared<ism::CallbackSink>([&](const Record& r) { filtered.push_back(r); }),
      options));

  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(gateway->accept(
        make_record(static_cast<NodeId>(i % 4), static_cast<SensorId>(i % 25), i, i)));
  }

  std::vector<Record> post_hoc;
  for (const Record& r : full) {
    if (options.filter.matches(r)) post_hoc.push_back(r);
  }
  ASSERT_EQ(filtered.size(), post_hoc.size());
  for (std::size_t i = 0; i < filtered.size(); ++i) {
    EXPECT_EQ(filtered[i].node, post_hoc[i].node);
    EXPECT_EQ(filtered[i].sensor, post_hoc[i].sensor);
    EXPECT_EQ(filtered[i].timestamp, post_hoc[i].timestamp);
    EXPECT_EQ(filtered[i].sequence, post_hoc[i].sequence);
  }
  EXPECT_FALSE(filtered.empty());
  EXPECT_LT(filtered.size(), full.size());

  const auto stats = gateway->subscriber_stats();
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& s : stats) {
    if (s.name == "narrow") {
      EXPECT_EQ(s.matched, filtered.size());
      EXPECT_EQ(s.delivered, filtered.size());
    }
  }
}

TEST(GatewayLocal, AggregationWindowsCloseOnRecordTickAndDrain) {
  auto gateway = make_local_gateway();
  std::vector<tp::AggWindow> windows;
  ism::SubscriptionOptions options;
  options.agg_window_us = 1'000;
  ASSERT_TRUE(gateway->subscribe_aggregate(
      "agg", [&](const tp::AggWindow& w) { windows.push_back(w); }, options));

  // Two keys inside [0, 1000), then a record at 1500 closes that window.
  ASSERT_TRUE(gateway->accept(make_record(1, 5, 100)));
  ASSERT_TRUE(gateway->accept(make_record(1, 5, 300)));
  ASSERT_TRUE(gateway->accept(make_record(2, 6, 900)));
  EXPECT_TRUE(windows.empty());
  ASSERT_TRUE(gateway->accept(make_record(1, 5, 1'500)));
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].window_start, 0);
  EXPECT_EQ(windows[0].window_end, 1'000);
  ASSERT_EQ(windows[0].keys.size(), 2u);
  EXPECT_EQ(windows[0].keys[0].node, 1u);       // sorted by (node, sensor)
  EXPECT_EQ(windows[0].keys[0].sensor, 5u);
  EXPECT_EQ(windows[0].keys[0].count, 2u);
  ASSERT_FALSE(windows[0].keys[0].gap_buckets.empty());  // one 200us gap recorded
  EXPECT_EQ(windows[0].keys[1].node, 2u);
  EXPECT_EQ(windows[0].keys[1].count, 1u);

  // tick() below the open window's end must NOT close it; past it must.
  gateway->tick(1'900);
  EXPECT_EQ(windows.size(), 1u);
  gateway->tick(2'000);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[1].window_start, 1'000);
  EXPECT_EQ(windows[1].keys[0].count, 1u);

  // drain() seals whatever is open.
  ASSERT_TRUE(gateway->accept(make_record(3, 3, 2'100)));
  ASSERT_TRUE(gateway->drain());
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[2].keys[0].node, 3u);
  EXPECT_EQ(gateway->stats().agg_windows, 3u);
}

// The pipeline hands the gateway runs. A run must reach every subscriber
// exactly as the same records one accept() at a time would: the same
// deliveries in the same order, the same aggregation windows, and the same
// matched, delivered and records_in counts.
TEST(GatewayTest, AcceptRunMatchesAnAcceptLoop) {
  struct Subscribers {
    std::shared_ptr<ConsumerGateway> gateway = make_local_gateway();
    std::vector<std::vector<Record>> streams{4};
    std::vector<tp::AggWindow> windows;
  };
  const char* specs[] = {"", "sample=16", "node=1", "sensor=1-8"};
  auto subscribe = [&](Subscribers& subs) {
    for (std::size_t i = 0; i < 4; ++i) {
      ism::SubscriptionOptions options;
      auto filter = SubscriptionFilter::parse(specs[i]);
      ASSERT_TRUE(filter.is_ok());
      options.filter = filter.value();
      auto* stream = &subs.streams[i];
      ASSERT_TRUE(subs.gateway->subscribe(
          "s" + std::to_string(i),
          std::make_shared<ism::CallbackSink>([stream](const Record& r) { stream->push_back(r); }),
          options));
    }
    ism::SubscriptionOptions agg;
    agg.agg_window_us = 1'000;
    ASSERT_TRUE(subs.gateway->subscribe_aggregate(
        "agg", [&subs](const tp::AggWindow& w) { subs.windows.push_back(w); }, agg));
  };
  Subscribers loop;
  Subscribers runs;
  subscribe(loop);
  subscribe(runs);

  std::vector<Record> stream;
  for (int i = 0; i < 2'000; ++i) {
    stream.push_back(make_record(static_cast<NodeId>(i % 3), static_cast<SensorId>(i % 11),
                                 i * 7, static_cast<SequenceNo>(i)));
  }
  for (const Record& r : stream) ASSERT_TRUE(loop.gateway->accept(r));
  // Runs of uneven lengths, including single records and the pipeline's cap.
  const std::size_t lengths[] = {1, 7, 256, 3, 100, 256, 1, 64};
  std::size_t at = 0;
  for (std::size_t k = 0; at < stream.size(); ++k) {
    const std::size_t n = std::min(lengths[k % std::size(lengths)], stream.size() - at);
    const ism::RunResult result =
        runs.gateway->accept_run(std::span<const Record>(stream).subspan(at, n));
    ASSERT_TRUE(result.status.is_ok());
    EXPECT_EQ(result.accepted, n);
    at += n;
  }
  ASSERT_TRUE(loop.gateway->drain());
  ASSERT_TRUE(runs.gateway->drain());

  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(specs[i]);
    ASSERT_EQ(runs.streams[i].size(), loop.streams[i].size());
    for (std::size_t j = 0; j < loop.streams[i].size(); ++j) {
      EXPECT_EQ(runs.streams[i][j].sequence, loop.streams[i][j].sequence);
    }
  }
  EXPECT_FALSE(loop.streams[2].empty());
  EXPECT_LT(loop.streams[1].size(), stream.size());
  ASSERT_EQ(runs.windows.size(), loop.windows.size());
  for (std::size_t w = 0; w < loop.windows.size(); ++w) {
    EXPECT_EQ(runs.windows[w].window_start, loop.windows[w].window_start);
    ASSERT_EQ(runs.windows[w].keys.size(), loop.windows[w].keys.size());
    for (std::size_t k = 0; k < loop.windows[w].keys.size(); ++k) {
      EXPECT_EQ(runs.windows[w].keys[k].count, loop.windows[w].keys[k].count);
    }
  }
  EXPECT_EQ(runs.gateway->stats().records_in, stream.size());
  EXPECT_EQ(runs.gateway->stats().records_in, loop.gateway->stats().records_in);
  EXPECT_EQ(runs.gateway->stats().agg_windows, loop.gateway->stats().agg_windows);
  const auto loop_subs = loop.gateway->subscriber_stats();
  const auto run_subs = runs.gateway->subscriber_stats();
  ASSERT_EQ(run_subs.size(), loop_subs.size());
  for (std::size_t i = 0; i < loop_subs.size(); ++i) {
    SCOPED_TRACE(loop_subs[i].name);
    EXPECT_EQ(run_subs[i].name, loop_subs[i].name);
    EXPECT_EQ(run_subs[i].matched, loop_subs[i].matched);
    EXPECT_EQ(run_subs[i].delivered, loop_subs[i].delivered);
    EXPECT_EQ(run_subs[i].agg_windows, loop_subs[i].agg_windows);
  }
}

// A subscriber's sink takes each contiguous matched stretch of a run in one
// call, and what it refuses is not counted as delivered.
TEST(GatewayTest, AcceptRunHandsMatchedStretchesToTheSinkAndCountsRefusals) {
  test::RingMemory memory(shm::RingBuffer::region_size(256));
  auto ring = shm::RingBuffer::init(memory.data(), 256);
  ASSERT_TRUE(ring.is_ok());
  auto gateway = make_local_gateway();
  auto shm_sink = std::make_shared<ism::ShmSink>(ring.value());
  ASSERT_TRUE(gateway->subscribe("shm", shm_sink));
  std::vector<std::size_t> calls;
  class RunSizeSink final : public ism::Sink {
   public:
    explicit RunSizeSink(std::vector<std::size_t>& calls) : calls_(calls) {}
    Status accept(const Record&) override { return Status::ok(); }
    ism::RunResult accept_run(std::span<const Record> run) override {
      calls_.push_back(run.size());
      return {run.size(), Status::ok()};
    }
    [[nodiscard]] const char* name() const noexcept override { return "run-size"; }

   private:
    std::vector<std::size_t>& calls_;
  };
  ism::SubscriptionOptions node1;
  node1.filter = SubscriptionFilter::parse("node=1").value();
  ASSERT_TRUE(gateway->subscribe("node1", std::make_shared<RunSizeSink>(calls), node1));

  // Nodes 1 1 2 1 1 1 2 2 1, twice over: 20 records, 12 of them node 1.
  std::vector<Record> run;
  for (int round = 0; round < 2; ++round) {
    for (NodeId node : {1, 1, 2, 1, 1, 1, 2, 2, 1, 2}) {
      run.push_back(make_record(node, 1, static_cast<TimeMicros>(run.size())));
    }
  }
  const ism::RunResult result = gateway->accept_run(run);
  EXPECT_EQ(result.status.code(), Errc::buffer_full) << "the ring fills mid-run";
  EXPECT_EQ(result.accepted, run.size());
  const std::vector<std::size_t> stretches{2, 3, 1, 2, 3, 1};
  EXPECT_EQ(calls, stretches);
  for (const auto& s : gateway->subscriber_stats()) {
    SCOPED_TRACE(s.name);
    if (s.name == "shm") {
      EXPECT_EQ(s.matched, run.size());
      EXPECT_EQ(s.delivered, shm_sink->delivered());
      EXPECT_EQ(s.delivered + shm_sink->dropped(), run.size());
      EXPECT_GT(shm_sink->dropped(), 0u);
    } else {
      EXPECT_EQ(s.matched, 12u);
      EXPECT_EQ(s.delivered, 12u);
    }
  }
}

// ---- TCP fan-out -------------------------------------------------------------

std::shared_ptr<ConsumerGateway> make_tcp_gateway(GatewayConfig config = {}) {
  config.tcp_enabled = true;
  config.consumer_port = 0;
  config.poll_timeout_us = 2'000;
  auto gateway = ConsumerGateway::create(config);
  EXPECT_TRUE(gateway.is_ok());
  return gateway.value();
}

TEST(GatewayTcp, SubscribeStreamReceivesFilteredRecords) {
  auto gateway = make_tcp_gateway();
  ASSERT_GT(gateway->consumer_port(), 0);

  consumers::GatewayClient::Options options;
  options.name = "reader";
  options.filter = "node=1";
  auto client = consumers::GatewayClient::connect("127.0.0.1", gateway->consumer_port(), options);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  EXPECT_GT(client.value().subscription_id(), 0u);

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(gateway->accept(make_record(static_cast<NodeId>(i % 2), 7, i, i)));
  }

  std::vector<Record> got;
  const TimeMicros deadline = monotonic_micros() + 5'000'000;
  while (got.size() < 25 && monotonic_micros() < deadline) {
    auto polled = client.value().poll();
    ASSERT_TRUE(polled.is_ok()) << polled.status().to_string();
    if (polled.value().has_value()) {
      got.push_back(*polled.value());
    } else {
      sleep_micros(1'000);
    }
  }
  ASSERT_EQ(got.size(), 25u);  // node=1 half only, in order
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, 1u);
    EXPECT_EQ(got[i].timestamp, static_cast<TimeMicros>(2 * i + 1));
  }

  // Unsubscribe stops the stream (later records are not delivered).
  ASSERT_TRUE(client.value().unsubscribe());
  const TimeMicros quiesce = monotonic_micros() + 200'000;
  while (monotonic_micros() < quiesce) sleep_micros(5'000);
  ASSERT_TRUE(gateway->accept(make_record(1, 7, 999)));
  sleep_micros(50'000);
  auto after = client.value().poll();
  ASSERT_TRUE(after.is_ok());
  EXPECT_FALSE(after.value().has_value());
}

// The fan-out thread routes a lane backlog a slice at a time and services
// the subscribers in between. Routed whole, a burst several times a
// subscriber's queue depth overran the queue and dropped the oldest frames
// of a consumer that kept up.
TEST(GatewayTcp, BurstBeyondTheQueueDepthReachesAConsumerThatKeepsUp) {
  auto gateway = make_tcp_gateway();
  consumers::GatewayClient::Options options;
  options.name = "reader";
  options.queue_records = 1'024;
  auto client = consumers::GatewayClient::connect("127.0.0.1", gateway->consumer_port(), options);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  constexpr int kBurst = 3'000;
  std::vector<Record> burst;
  for (int i = 0; i < kBurst; ++i) burst.push_back(make_record(1, 7, i, i));
  ASSERT_TRUE(gateway->accept_run(burst).status.is_ok());

  int got = 0;
  const TimeMicros deadline = monotonic_micros() + 10'000'000;
  while (got < kBurst && monotonic_micros() < deadline) {
    auto polled = client.value().poll();
    ASSERT_TRUE(polled.is_ok()) << polled.status().to_string();
    if (!polled.value().has_value()) {
      sleep_micros(1'000);
      continue;
    }
    EXPECT_EQ(polled.value()->timestamp, static_cast<TimeMicros>(got));
    ++got;
  }
  EXPECT_EQ(got, kBurst);
  EXPECT_EQ(gateway->stats().lane_drops, 0u);
  for (const auto& s : gateway->subscriber_stats()) EXPECT_EQ(s.dropped, 0u) << s.name;
}

TEST(GatewayTcp, DuplicateActiveNameRejected) {
  auto gateway = make_tcp_gateway();
  consumers::GatewayClient::Options options;
  options.name = "dup";
  auto first = consumers::GatewayClient::connect("127.0.0.1", gateway->consumer_port(), options);
  ASSERT_TRUE(first.is_ok());
  auto second = consumers::GatewayClient::connect("127.0.0.1", gateway->consumer_port(), options);
  EXPECT_FALSE(second.is_ok());
}

TEST(GatewayTcp, AggregateSubscriptionStreamsWindows) {
  auto gateway = make_tcp_gateway();
  consumers::GatewayClient::Options options;
  options.name = "agg-reader";
  options.kind = tp::SubscriptionKind::aggregate;
  options.agg_window_us = 1'000;
  auto client = consumers::GatewayClient::connect("127.0.0.1", gateway->consumer_port(), options);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  ASSERT_TRUE(gateway->accept(make_record(1, 5, 100)));
  ASSERT_TRUE(gateway->accept(make_record(1, 5, 600)));
  ASSERT_TRUE(gateway->accept(make_record(1, 5, 1'700)));  // closes [0, 1000)

  std::optional<tp::AggWindow> window;
  const TimeMicros deadline = monotonic_micros() + 5'000'000;
  while (!window.has_value() && monotonic_micros() < deadline) {
    auto polled = client.value().poll_agg();
    ASSERT_TRUE(polled.is_ok()) << polled.status().to_string();
    if (polled.value().has_value()) {
      window = polled.value();
    } else {
      sleep_micros(1'000);
    }
  }
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->window_start, 0);
  EXPECT_EQ(window->window_end, 1'000);
  ASSERT_EQ(window->keys.size(), 1u);
  EXPECT_EQ(window->keys[0].count, 2u);
}

// A burst longer than one fan-out slice, then a tick past its window: the
// window may close only after every record of the burst was routed into it.
// Sealed by the tick while a backlog remains, a window reopens for the
// records routed after it and reaches the consumer twice, its count split.
TEST(GatewayTcp, TickDuringABurstClosesTheWindowOnceWithTheFullCount) {
  GatewayConfig config;
  config.lane_records = 16'384;  // all three bursts, however late the fan-out
  auto gateway = make_tcp_gateway(config);
  consumers::GatewayClient::Options options;
  options.name = "agg-burst";
  options.kind = tp::SubscriptionKind::aggregate;
  options.agg_window_us = 1'000;
  auto client = consumers::GatewayClient::connect("127.0.0.1", gateway->consumer_port(), options);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  constexpr int kInWindow = 4'000;  // many slices of the fan-out pump
  for (int round = 0; round < 3; ++round) {
    const TimeMicros base = round * 2'000;
    std::vector<Record> burst;
    for (int i = 0; i < kInWindow; ++i) {
      burst.push_back(make_record(1, 5, base + i * 1'000 / kInWindow));
    }
    burst.push_back(make_record(1, 5, base + 1'500));  // opens the next window
    ASSERT_TRUE(gateway->accept_run(burst).status.is_ok());
    gateway->tick(base + 1'000);
  }
  gateway->tick(6'000);

  // Windows reach the consumer in close order; the last one, [5000, 6000),
  // follows every window of the three bursts.
  std::vector<tp::AggWindow> windows;
  const TimeMicros deadline = monotonic_micros() + 10'000'000;
  while ((windows.empty() || windows.back().window_start != 5'000) &&
         monotonic_micros() < deadline) {
    auto polled = client.value().poll_agg();
    ASSERT_TRUE(polled.is_ok()) << polled.status().to_string();
    if (polled.value().has_value()) {
      windows.push_back(*polled.value());
    } else {
      sleep_micros(1'000);
    }
  }
  ASSERT_EQ(windows.size(), 6u);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(windows[w].window_start, static_cast<TimeMicros>(w * 1'000));
    ASSERT_EQ(windows[w].keys.size(), 1u);
    EXPECT_EQ(windows[w].keys[0].count, w % 2 == 0 ? kInWindow : 1u) << "window " << w;
  }
  EXPECT_EQ(gateway->stats().lane_drops, 0u);
}

TEST(GatewayTcp, SlowConsumerSeesDropOldestThenEvictionFastConsumerLosesNothing) {
  GatewayConfig config;
  config.outbox_bytes = 8'192;       // tiny outbox so back-pressure reaches the queue
  config.overrun_grace_us = 100'000; // evict after 100ms of sustained overrun
  auto gateway = make_tcp_gateway(config);

  consumers::GatewayClient::Options slow_options;
  slow_options.name = "slow";
  slow_options.queue_records = 8;
  auto slow = consumers::GatewayClient::connect("127.0.0.1", gateway->consumer_port(),
                                                slow_options);
  ASSERT_TRUE(slow.is_ok());

  consumers::GatewayClient::Options fast_options;
  fast_options.name = "fast";
  fast_options.queue_records = 65'536;
  auto fast = consumers::GatewayClient::connect("127.0.0.1", gateway->consumer_port(),
                                                fast_options);
  ASSERT_TRUE(fast.is_ok());

  // Fat records fill the slow reader's socket buffers quickly; it never
  // polls, so the gateway's outbox jams, its queue overruns (drop-oldest),
  // and after the grace period it is evicted. The fast reader drains
  // everything meanwhile and must not lose a record.
  Record fat = make_record(1, 1, 0);
  fat.fields.clear();
  for (int i = 0; i < 8; ++i) {
    fat.fields.push_back(Field::str(std::string(sensors::kMaxStringFieldBytes, 'x')));
  }

  std::uint64_t pushed = 0;
  std::uint64_t fast_got = 0;
  const TimeMicros deadline = monotonic_micros() + 20'000'000;
  while (gateway->stats().tcp_evicted == 0 && monotonic_micros() < deadline) {
    for (int i = 0; i < 32; ++i) {
      fat.timestamp = static_cast<TimeMicros>(pushed);
      fat.sequence = pushed;
      ASSERT_TRUE(gateway->accept(fat));
      ++pushed;
    }
    for (;;) {
      auto polled = fast.value().poll();
      ASSERT_TRUE(polled.is_ok()) << polled.status().to_string();
      if (!polled.value().has_value()) break;
      EXPECT_EQ(polled.value()->timestamp, static_cast<TimeMicros>(fast_got));
      ++fast_got;
    }
    sleep_micros(1'000);
  }
  EXPECT_EQ(gateway->stats().tcp_evicted, 1u);
  EXPECT_EQ(gateway->stats().lane_drops, 0u);

  // Drain the fast reader to completion: zero loss, strict order.
  const TimeMicros drain_deadline = monotonic_micros() + 10'000'000;
  while (fast_got < pushed && monotonic_micros() < drain_deadline) {
    auto polled = fast.value().poll();
    ASSERT_TRUE(polled.is_ok()) << polled.status().to_string();
    if (!polled.value().has_value()) {
      sleep_micros(1'000);
      continue;
    }
    EXPECT_EQ(polled.value()->timestamp, static_cast<TimeMicros>(fast_got));
    ++fast_got;
  }
  EXPECT_EQ(fast_got, pushed);

  // The slow subscriber's final counters survive its disconnection: records
  // were dropped oldest-first and the drop count is visible — the same
  // numbers register_metrics() exposes as ism.gateway.sub.slow.* in the
  // 0xFF01 stream.
  bool found_slow = false;
  std::uint64_t slow_dropped = 0;
  for (const auto& s : gateway->subscriber_stats()) {
    if (s.name != "slow") continue;
    found_slow = true;
    EXPECT_TRUE(s.tcp);
    EXPECT_FALSE(s.connected);
    EXPECT_GT(s.dropped, 0u);
    slow_dropped = s.dropped;
  }
  ASSERT_TRUE(found_slow);

  metrics::MetricsRegistry registry;
  gateway->register_metrics(registry);
  bool metric_seen = false;
  for (const auto& sample : registry.snapshot()) {
    if (sample.name == "ism.gateway.sub.slow.dropped") {
      metric_seen = true;
      EXPECT_EQ(sample.value, slow_dropped);
    }
  }
  EXPECT_TRUE(metric_seen);

  // The slow client's socket eventually reports the hangup.
  const TimeMicros close_deadline = monotonic_micros() + 5'000'000;
  bool saw_close = false;
  while (!saw_close && monotonic_micros() < close_deadline) {
    auto polled = slow.value().poll();
    if (!polled.is_ok()) {
      EXPECT_EQ(polled.status().code(), Errc::closed);
      saw_close = true;
    }
    // Keep draining queued frames; eviction already happened server-side.
  }
  EXPECT_TRUE(saw_close);
}

TEST(GatewayTcp, DrainFlushesQueuedFramesToConnectedConsumers) {
  auto gateway = make_tcp_gateway();
  consumers::GatewayClient::Options options;
  options.name = "drainer";
  auto client = consumers::GatewayClient::connect("127.0.0.1", gateway->consumer_port(), options);
  ASSERT_TRUE(client.is_ok());

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(gateway->accept(make_record(1, 1, i, i)));
  }
  ASSERT_TRUE(gateway->drain());

  std::uint64_t got = 0;
  const TimeMicros deadline = monotonic_micros() + 5'000'000;
  while (got < 200 && monotonic_micros() < deadline) {
    auto polled = client.value().poll();
    ASSERT_TRUE(polled.is_ok()) << polled.status().to_string();
    if (polled.value().has_value()) {
      ++got;
    } else {
      sleep_micros(1'000);
    }
  }
  EXPECT_EQ(got, 200u);
}

}  // namespace
}  // namespace brisk
