// brisk_replay: the in-process layer replay.
//
// Pushes a workload's record mix through each layer's public entry point in
// pipeline order, every layer consuming what the previous one produced:
//
//   sensors.notice   Sensor::notice into four node rings
//   lis.drain        ExsCore::drain_rings + flush into a capturing FrameSink
//   tp.decode        tp::decode_batch of the captured frames
//   ism.sort         OnlineSorter::push / service (+ flush_all)
//   ism.merge        2-shard OrderingPipeline::submit + drain
//   ism.cre          CreMatcher::process (+ service)
//   ism.gateway      ConsumerGateway::accept, tree's three filters as local
//                    subscribers (full stream, sample=16, node=1)
//   ism.relay        RelayBatchBuilder encode + tp::decode_relay_batch
//   consumers.shm    ShmSink::accept + ShmConsumer::poll
//
// Each layer is timed with steady_clock around its calls only, under the
// counting allocator (counting_alloc.cpp), and reports ns, heap allocations
// and allocated bytes per record. The chain is run kPasses times over about
// kRecords records; ns is the median over passes, allocations come from the
// median pass.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "clock/clock.hpp"
#include "consumers/shm_consumer.hpp"
#include "core/brisk_node.hpp"
#include "counting_alloc.hpp"
#include "ism/cre_matcher.hpp"
#include "ism/filter.hpp"
#include "ism/gateway.hpp"
#include "ism/online_sorter.hpp"
#include "ism/output.hpp"
#include "ism/pipeline.hpp"
#include "shm/ring_buffer.hpp"
#include "tp/batch.hpp"
#include "tp/wire.hpp"
#include "workload.hpp"
#include "xdr/xdr_decoder.hpp"

namespace {

using namespace perfbench;  // NOLINT
using brisk::ByteBuffer;
using brisk::ByteSpan;
using brisk::sensors::Record;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "brisk_replay: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T check(brisk::Result<T> result, const char* what) {
  if (!result) die(std::string(what) + ": " + result.status().to_string());
  return std::move(result).value();
}

void check(const brisk::Status& status, const char* what) {
  if (!status) die(std::string(what) + ": " + status.to_string());
}

/// One layer's measurement in one pass.
struct Sample {
  double ns = 0;
  alloc::Counts counts;
};

/// Times `body` under the counting allocator.
template <typename Fn>
Sample measure(Fn&& body) {
  alloc::start();
  const auto a = std::chrono::steady_clock::now();
  body();
  const auto b = std::chrono::steady_clock::now();
  Sample s;
  s.counts = alloc::stop();
  s.ns = static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  return s;
}

constexpr const char* kLayers[] = {"sensors.notice", "lis.drain",   "tp.decode",
                                   "ism.sort",       "ism.merge",   "ism.cre",
                                   "ism.gateway",    "ism.relay",   "consumers.shm"};
constexpr std::size_t kLayerCount = sizeof(kLayers) / sizeof(kLayers[0]);
constexpr std::size_t kRecords = 40'000;
constexpr int kPasses = 5;

struct PassResult {
  Sample layers[kLayerCount];
};

PassResult run_pass(const std::vector<Event>& events, std::uint64_t seed) {
  PassResult out;
  brisk::clk::Clock& clock = brisk::clk::SystemClock::instance();
  const std::size_t n = events.size();

  // --- sensors.notice ----------------------------------------------------------
  std::vector<std::unique_ptr<brisk::BriskNode>> nodes;
  std::vector<brisk::sensors::Sensor> sensors;
  for (std::uint32_t node = 1; node <= kNodes; ++node) {
    brisk::NodeConfig config;
    config.node = node;
    config.exs.node = node;
    config.ring_capacity = 16u << 20;  // holds the whole pass
    nodes.push_back(check(brisk::BriskNode::create(config), "node"));
    sensors.push_back(check(nodes.back()->make_sensor(), "sensor"));
  }
  out.layers[0] = measure([&] {
    for (const Event& e : events) {
      if (!notice(sensors[e.node - 1], seed, e)) die("replay ring full");
    }
  });

  // --- lis.drain ---------------------------------------------------------------
  std::vector<ByteBuffer> frames;
  std::vector<std::unique_ptr<brisk::lis::ExsCore>> cores;
  for (std::uint32_t node = 1; node <= kNodes; ++node) {
    brisk::lis::ExsConfig config = nodes[node - 1]->config().exs;
    cores.push_back(std::make_unique<brisk::lis::ExsCore>(
        config, nodes[node - 1]->rings(), clock, [&frames](ByteBuffer payload) {
          frames.push_back(std::move(payload));
          return brisk::Status::ok();
        }));
  }
  frames.reserve(n / 64 + 64);
  out.layers[1] = measure([&] {
    for (auto& core : cores) {
      for (;;) {
        auto drained = core->drain_rings();
        if (!drained) die("drain: " + drained.status().to_string());
        if (drained.value() == 0) break;
      }
      check(core->flush(), "flush");
    }
  });

  // --- tp.decode ---------------------------------------------------------------
  std::vector<Record> decoded;
  decoded.reserve(n);
  out.layers[2] = measure([&] {
    for (const ByteBuffer& frame : frames) {
      brisk::xdr::Decoder decoder(frame.view());
      auto type = check(brisk::tp::peek_type(decoder), "peek_type");
      if (type != brisk::tp::MsgType::data_batch) continue;
      auto batch = check(brisk::tp::decode_batch(decoder), "decode_batch");
      for (Record& r : batch.records) {
        r.node = batch.header.node;
        decoded.push_back(std::move(r));
      }
    }
  });
  if (decoded.size() != n) die("decoded " + std::to_string(decoded.size()) + " records");
  // The ISM admits records interleaved across connections; replay that
  // order (by timestamp) rather than node by node.
  std::stable_sort(decoded.begin(), decoded.end(),
                   [](const Record& a, const Record& b) { return a.timestamp < b.timestamp; });

  // --- ism.sort ------------------------------------------------------------------
  std::vector<Record> sorted;
  sorted.reserve(n);
  {
    brisk::ism::SorterConfig config;
    brisk::ism::OnlineSorter sorter(config, clock,
                                    [&sorted](Record r) { sorted.push_back(std::move(r)); });
    std::vector<Record> input = decoded;
    out.layers[3] = measure([&] {
      std::size_t i = 0;
      for (Record& r : input) {
        check(sorter.push(std::move(r)), "sorter push");
        if (++i % 256 == 0) sorter.service();
      }
      sorter.flush_all();
    });
  }

  // --- ism.merge -----------------------------------------------------------------
  std::vector<Record> merged;
  merged.reserve(n);
  {
    brisk::ism::PipelineConfig config;
    config.shards = 2;
    brisk::ism::OrderingPipeline pipeline(
        config, clock, [&merged](const Record& r) { merged.push_back(r); }, [] {}, [] {});
    std::vector<Record> input = decoded;
    out.layers[4] = measure([&] {
      for (Record& r : input) check(pipeline.submit(std::move(r)), "submit");
      check(pipeline.drain(), "pipeline drain");
    });
  }
  if (merged.size() != n) die("merged " + std::to_string(merged.size()) + " records");

  // --- ism.cre -------------------------------------------------------------------
  std::vector<Record> passed;
  passed.reserve(n);
  {
    brisk::ism::CreConfig config;
    brisk::ism::CreMatcher matcher(config, clock, [] {});
    std::vector<Record> input = sorted;
    out.layers[5] = measure([&] {
      for (Record& r : input) matcher.process(std::move(r), passed);
      matcher.service(passed);
    });
  }

  // --- ism.gateway ---------------------------------------------------------------
  {
    brisk::ism::GatewayConfig config;
    auto gateway = check(brisk::ism::ConsumerGateway::create(config), "gateway");
    std::uint64_t seen = 0;
    const char* specs[] = {"", "sample=16", "node=1"};
    for (int i = 0; i < 3; ++i) {
      brisk::ism::SubscriptionOptions options;
      options.filter = check(brisk::ism::SubscriptionFilter::parse(specs[i]), "filter");
      check(gateway->subscribe("sub" + std::to_string(i),
                               std::make_shared<brisk::ism::CallbackSink>(
                                   [&seen](const Record&) { ++seen; }),
                               options),
            "subscribe");
    }
    out.layers[6] = measure([&] {
      for (const Record& r : passed) check(gateway->accept(r), "gateway accept");
    });
    check(gateway->drain(), "gateway drain");
  }

  // --- ism.relay -----------------------------------------------------------------
  {
    std::size_t relayed = 0;
    out.layers[7] = measure([&] {
      brisk::tp::RelayBatchBuilder builder(101);
      std::vector<ByteBuffer> relay_frames;
      auto decode = [&relayed](const ByteBuffer& frame) {
        brisk::xdr::Decoder decoder(frame.view());
        (void)check(brisk::tp::peek_type(decoder), "peek_type");
        relayed += check(brisk::tp::decode_relay_batch(decoder), "decode_relay_batch").records.size();
      };
      for (const Record& r : passed) {
        check(builder.add_record(r), "relay add");
        if (builder.record_count() >= 512) {
          builder.set_watermark(r.timestamp);
          decode(builder.finish());
        }
      }
      if (!builder.empty()) decode(builder.finish());
    });
    if (relayed != n) die("relayed " + std::to_string(relayed) + " records");
  }

  // --- consumers.shm -------------------------------------------------------------
  {
    const std::size_t capacity = 1u << 20;
    std::vector<std::uint8_t> memory(brisk::shm::RingBuffer::region_size(capacity));
    auto ring = check(brisk::shm::RingBuffer::init(memory.data(), capacity), "ring");
    brisk::ism::ShmSink sink(ring);
    brisk::consumers::ShmConsumer consumer(ring);
    std::size_t consumed = 0;
    out.layers[8] = measure([&] {
      for (std::size_t i = 0; i < passed.size(); i += 1024) {
        const std::size_t end = std::min(passed.size(), i + 1024);
        for (std::size_t j = i; j < end; ++j) check(sink.accept(passed[j]), "shm accept");
        for (;;) {
          auto r = check(consumer.poll(), "shm poll");
          if (!r) break;
          ++consumed;
        }
      }
    });
    if (consumed != n) die("consumed " + std::to_string(consumed) + " records");
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_arg;
  std::uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--workload") workload_arg = argv[i + 1];
    if (key == "--seed") seed = std::strtoull(argv[i + 1], nullptr, 10);
  }
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) return alloc::self_test() ? 0 : 1;
  const auto workload = parse_workload(workload_arg);
  if (!workload) die("usage: brisk_replay --workload steady|firehose|tree [--seed N]");

  // The workload's record mix: the head of its paced schedule (with its
  // reason/consequence pairs), or firehose records, nodes interleaved.
  std::vector<Event> events;
  if (*workload == Workload::firehose) {
    for (std::uint32_t seq = 0; events.size() < kRecords; ++seq) {
      for (std::uint32_t node = 1; node <= kNodes && events.size() < kRecords; ++node) {
        events.push_back(firehose_event(node, seq));
      }
    }
  } else {
    // A whole schedule (never a cut one, which could orphan a consequence).
    events = paced_schedule(seed, static_cast<std::int64_t>(kRecords) * 1'000'000 /
                                      (kPacedRatePerNode * kNodes));
  }

  std::vector<PassResult> results;
  for (int p = 0; p < kPasses; ++p) results.push_back(run_pass(events, seed));

  const double n = static_cast<double>(events.size());
  std::printf("{\"replay\": {\"records\": %zu, \"passes\": %d", events.size(), kPasses);
  for (std::size_t layer = 0; layer < kLayerCount; ++layer) {
    std::vector<std::size_t> order(results.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return results[a].layers[layer].ns < results[b].layers[layer].ns;
    });
    const Sample& median = results[order[order.size() / 2]].layers[layer];
    std::printf(", \"%s.ns_per_rec\": %.6g, \"%s.allocs_per_rec\": %.6g, "
                "\"%s.alloc_bytes_per_rec\": %.6g",
                kLayers[layer], median.ns / n, kLayers[layer],
                static_cast<double>(median.counts.calls) / n, kLayers[layer],
                static_cast<double>(median.counts.bytes) / n);
  }
  std::printf("}}\n");
  return 0;
}
