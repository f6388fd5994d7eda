// brisk_loadgen: the benchmark's load generator, consumer and checker, one
// process with one producer thread (main) and one consumer thread.
//
// The producer attaches to each node's named shm region (BriskNode::attach)
// and NOTICEs the workload's records; the consumer reads the ISM's shm
// output ring (steady, firehose) or three subscriptions on the root
// gateway's TCP port (tree: full stream, sample=16, node=1). It never starts
// or stops a daemon: run.py does, and hands over their pids so CPU time and
// resident memory can be read from /proc over the measured window.
//
// Run protocol (stdout lines):
//   QUIESCED   every issued record has been delivered (or given up on);
//              run.py now stops the daemons leaf to root, then writes
//              STOPPED to our stdin; the consumer keeps reading meanwhile so
//              the root ISM's final 0xFF01 snapshot is collected.
//   {"loadgen": {...}}   the raw results, last line.
//
// Other modes: --probe (issue records until the first one is delivered and
// report the set-up time), --digest-only, --self-test, --describe-exs.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker.hpp"
#include "consumers/gateway_client.hpp"
#include "consumers/shm_consumer.hpp"
#include "core/brisk_node.hpp"
#include "core/knobs.hpp"
#include "metrics/latency.hpp"
#include "metrics/metrics.hpp"
#include "shm/shared_region.hpp"
#include "snapshot.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;  // NOLINT
using brisk::sensors::Record;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "brisk_loadgen: %s\n", message.c_str());
  std::exit(2);
}

// ---- arguments ----------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> values;

  [[nodiscard]] bool has(const std::string& key) const { return values.count(key) != 0; }
  [[nodiscard]] std::string str(const std::string& key, const std::string& fallback = "") const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  [[nodiscard]] long long num(const std::string& key, long long fallback = 0) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atoll(it->second.c_str());
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) die("unexpected argument " + key);
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.values[key] = argv[++i];
    } else {
      args.values[key] = "1";
    }
  }
  return args;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<int> parse_pids(const std::string& text) {
  std::vector<int> pids;
  for (const std::string& p : split(text, ',')) pids.push_back(std::atoi(p.c_str()));
  return pids;
}

// ---- /proc --------------------------------------------------------------------

/// user + system CPU of `pid` in microseconds (0 if it is gone).
double proc_cpu_us(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // Fields after the command: state is field 3; utime/stime are 14/15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (index == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double total_cpu_us(const std::vector<int>& pids) {
  double total = 0;
  for (int pid : pids) total += proc_cpu_us(pid);
  return total;
}

/// A kB field of /proc/<pid>/status ("VmRSS:", "VmHWM:") in MB.
double proc_status_mb(int pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) return std::atof(line.c_str() + field.size()) / 1024.0;
  }
  return 0;
}

// ---- statistics ----------------------------------------------------------------

/// Quantile of raw samples (linear interpolation between order statistics).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

/// Integer-valued samples counted per unit value; quantiles interpolate
/// within the unit bucket (the grouped-data median), so a 1 ns clock step
/// does not quantize the result.
class UnitHistogram {
 public:
  explicit UnitHistogram(std::size_t buckets) : counts_(buckets, 0) {}
  void add(std::int64_t value) {
    const auto v = static_cast<std::size_t>(std::max<std::int64_t>(value, 0));
    ++counts_[std::min(v, counts_.size() - 1)];
    ++total_;
  }
  [[nodiscard]] double quantile(double q) const {
    if (total_ == 0) return 0;
    const double target = q * static_cast<double>(total_);
    double below = 0;
    for (std::size_t v = 0; v < counts_.size(); ++v) {
      const auto c = static_cast<double>(counts_[v]);
      if (below + c >= target && c > 0) return static_cast<double>(v) + (target - below) / c;
      below += c;
    }
    return static_cast<double>(counts_.size());
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// ---- consumer -------------------------------------------------------------------

struct Source {
  std::optional<brisk::shm::SharedRegion> region;
  std::optional<brisk::consumers::ShmConsumer> shm;
  std::vector<brisk::consumers::GatewayClient> subs;  // [0] = full stream
  std::vector<bool> closed;
};

Source open_source(const Args& args) {
  Source source;
  const std::int64_t deadline = now_ns() + 10'000'000'000LL;
  if (args.has("gateway-port")) {
    const auto port = static_cast<std::uint16_t>(args.num("gateway-port"));
    const char* filters[] = {"", "sample=16", "node=1"};
    const char* names[] = {"bench-full", "bench-sample16", "bench-node1"};
    for (int i = 0; i < 3; ++i) {
      brisk::consumers::GatewayClient::Options options;
      options.name = names[i];
      options.filter = filters[i];
      options.queue_records = 65536;
      auto client = brisk::consumers::GatewayClient::connect("127.0.0.1", port, options);
      if (!client) die("gateway subscribe: " + client.status().to_string());
      source.subs.push_back(std::move(client).value());
      source.closed.push_back(false);
    }
    return source;
  }
  const std::string name = args.str("output-shm");
  for (;;) {
    auto region = brisk::shm::SharedRegion::open_named(name);
    if (region) {
      auto ring = brisk::shm::RingBuffer::attach(region.value().data(), region.value().size());
      if (ring) {
        source.region.emplace(std::move(region).value());
        source.shm.emplace(ring.value());
        return source;
      }
    }
    if (now_ns() > deadline) die("output ring " + name + " never appeared");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::vector<brisk::ism::SubscriptionFilter> tree_filters() {
  std::vector<brisk::ism::SubscriptionFilter> filters;
  for (const char* spec : {"sample=16", "node=1"}) {
    filters.push_back(brisk::ism::SubscriptionFilter::parse(spec).value());
  }
  return filters;
}

/// State shared between the producer and the consumer thread.
struct Shared {
  std::atomic<std::uint64_t> data_delivered{0};
  std::atomic<std::int64_t> first_data_ns{0};
  std::atomic<std::int64_t> last_data_ns{0};
  std::atomic<bool> stop{false};
  /// Firehose: records delivered per trial, and each trial's last arrival.
  std::vector<std::atomic<std::uint64_t>> trial_delivered;
  std::vector<std::atomic<std::int64_t>> trial_last_ns;
  /// Firehose: issue time of each 256-record block, per node.
  std::vector<std::vector<std::atomic<std::int64_t>>> block_issue_ns;
  Shared(std::size_t trials, std::size_t blocks_per_node)
      : trial_delivered(trials), trial_last_ns(trials), block_issue_ns(kNodes) {
    for (auto& node_blocks : block_issue_ns) {
      node_blocks = std::vector<std::atomic<std::int64_t>>(blocks_per_node);
    }
  }
};

constexpr std::size_t kMaxFirehoseTrials = 128;

/// CPU time of the daemons and records delivered so far, sampled by the
/// consumer thread every kCpuSampleNs while the producer's window is open.
struct CpuSample {
  double ism_us = 0;
  double exs_us = 0;
  std::uint64_t delivered = 0;
  double root_rss_mb = 0;  // root ISM VmRSS
};
constexpr std::int64_t kCpuSampleNs = 500'000'000;

/// Paced latency samples are grouped by due time into windows of this
/// length; e2e_p50_us / e2e_p99_us are the median over windows of each
/// window's quantile, so a host hiccup in one second does not set the run's
/// figure. Firehose samples (backlog) all fall in window 0.
constexpr std::int64_t kLatencyWindowUs = 1'000'000;

struct ConsumerResult {
  std::vector<std::vector<double>> latency_us;  // per window
  std::vector<CpuSample> cpu;
};

class Consumer {
 public:
  /// CPU sampling reads `ism_pids` / `exs_pids`, which must outlive run().
  Consumer(Source& source, Checker* checker, SnapshotBook& book, Shared& shared, Workload workload,
           const std::vector<int>& ism_pids, const std::vector<int>& exs_pids)
      : source_(source),
        checker_(checker),
        book_(book),
        shared_(shared),
        workload_(workload),
        ism_pids_(ism_pids),
        exs_pids_(exs_pids) {}

  /// Opens the latency window: records due in [kWarmupUs, end_us - kWarmupUs)
  /// after `t0_ns` are sampled.
  void set_t0(std::int64_t t0_ns, std::int64_t end_us) {
    end_us_.store(end_us - kWarmupUs, std::memory_order_relaxed);
    t0_ns_.store(t0_ns, std::memory_order_release);
  }
  /// Starts or stops sampling the daemons' CPU time.
  void sample_cpu(bool on) { sampling_.store(on, std::memory_order_release); }

  void run() {
    std::int64_t idle_since = 0;
    std::int64_t next_sample = 0;
    for (;;) {
      if (sampling_.load(std::memory_order_acquire)) {
        const std::int64_t now = now_ns();
        if (now >= next_sample) {
          next_sample = now + kCpuSampleNs;
          result_.cpu.push_back(CpuSample{total_cpu_us(ism_pids_), total_cpu_us(exs_pids_),
                                          shared_.data_delivered.load(std::memory_order_acquire),
                                          proc_status_mb(ism_pids_.front(), "VmRSS:")});
        }
      }
      std::size_t got = 0;
      if (source_.shm) {
        for (; got < 4096; ++got) {
          auto record = source_.shm->poll();
          if (!record) die("output ring: " + record.status().to_string());
          if (!record.value()) break;
          handle(0, *record.value());
        }
      } else {
        for (std::size_t i = 0; i < source_.subs.size(); ++i) {
          for (std::size_t n = 0; n < 4096 && !source_.closed[i]; ++n) {
            auto record = source_.subs[i].poll();
            if (!record) {
              if (record.status().code() != brisk::Errc::closed) {
                die("gateway: " + record.status().to_string());
              }
              source_.closed[i] = true;
              break;
            }
            if (!record.value()) break;
            handle(i, *record.value());
            ++got;
          }
        }
      }
      if (got > 0) {
        idle_since = 0;
        continue;
      }
      const std::int64_t now = now_ns();
      if (shared_.stop.load(std::memory_order_acquire)) {
        const bool all_closed =
            !source_.subs.empty() &&
            std::all_of(source_.closed.begin(), source_.closed.end(), [](bool c) { return c; });
        if (idle_since == 0) idle_since = now;
        if (all_closed || now - idle_since > 300'000'000) break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  ConsumerResult& result() { return result_; }

 private:
  void handle(std::size_t sub, const Record& record) {
    if (sub != 0) {
      if (checker_ != nullptr) checker_->observe_filtered(sub - 1, record);
      return;
    }
    if (book_.observe(record)) return;
    if (!is_data_sensor(record.sensor)) return;
    const std::int64_t now = now_ns();
    if (checker_ != nullptr) checker_->observe(record);
    std::int64_t expected = 0;
    shared_.first_data_ns.compare_exchange_strong(expected, now);
    shared_.last_data_ns.store(now, std::memory_order_release);
    shared_.data_delivered.fetch_add(1, std::memory_order_acq_rel);
    if (record.fields.size() < 3) return;
    const std::int64_t node = record.fields[0].as_signed();
    const std::int64_t seq = record.fields[1].as_signed();
    const std::int64_t due = record.fields[2].as_signed();
    if (workload_ == Workload::firehose) {
      if (due < 0 || static_cast<std::size_t>(due) >= shared_.trial_delivered.size()) return;
      shared_.trial_last_ns[static_cast<std::size_t>(due)].store(now, std::memory_order_release);
      shared_.trial_delivered[static_cast<std::size_t>(due)].fetch_add(1,
                                                                       std::memory_order_acq_rel);
      if (seq % 16 != 0 || node < 1 || node > static_cast<std::int64_t>(kNodes)) return;
      const auto block = static_cast<std::size_t>(seq / kBlock);
      auto& blocks = shared_.block_issue_ns[static_cast<std::size_t>(node - 1)];
      if (block >= blocks.size()) return;
      const std::int64_t issued = blocks[block].load(std::memory_order_acquire);
      if (issued > 0) add_latency(0, static_cast<double>(now - issued) / 1e3);
      return;
    }
    const std::int64_t t0 = t0_ns_.load(std::memory_order_acquire);
    if (due < kWarmupUs || due >= end_us_.load(std::memory_order_relaxed)) return;
    if (t0 > 0) {
      add_latency(static_cast<std::size_t>((due - kWarmupUs) / kLatencyWindowUs),
                  static_cast<double>(now - (t0 + due * 1000)) / 1e3);
    }
  }

  void add_latency(std::size_t window, double us) {
    auto& windows = result_.latency_us;
    if (windows.size() <= window) windows.resize(window + 1);
    if (windows[window].empty()) windows[window].reserve(1u << 17);
    windows[window].push_back(us);
  }

  Source& source_;
  Checker* checker_;
  SnapshotBook& book_;
  Shared& shared_;
  Workload workload_;
  const std::vector<int>& ism_pids_;
  const std::vector<int>& exs_pids_;
  std::atomic<std::int64_t> t0_ns_{0};
  std::atomic<std::int64_t> end_us_{0};
  std::atomic<bool> sampling_{false};
  ConsumerResult result_;
};

// ---- producer -------------------------------------------------------------------

struct Nodes {
  std::vector<std::unique_ptr<brisk::BriskNode>> nodes;
  std::vector<brisk::sensors::Sensor> sensors;  // index node - 1
};

Nodes attach_nodes(const Args& args) {
  Nodes out;
  const double trace_rate = std::atof(args.str("trace-rate", "0").c_str());
  const std::int64_t deadline = now_ns() + 10'000'000'000LL;
  for (const std::string& spec : split(args.str("nodes"), ',')) {
    const auto eq = spec.find('=');
    if (eq == std::string::npos) die("--nodes expects id=/shm,...");
    brisk::NodeConfig config;
    config.node = static_cast<brisk::NodeId>(std::atoi(spec.substr(0, eq).c_str()));
    config.shm_name = spec.substr(eq + 1);
    config.trace_sample_rate = trace_rate;
    for (;;) {
      auto node = brisk::BriskNode::attach(config);
      if (node) {
        auto sensor = node.value()->make_sensor();
        if (!sensor) die("make_sensor: " + sensor.status().to_string());
        out.sensors.push_back(std::move(sensor).value());
        out.nodes.push_back(std::move(node).value());
        break;
      }
      if (now_ns() > deadline) die("node region " + config.shm_name + " never appeared");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (out.sensors.size() != kNodes) die("expected 4 nodes");
  return out;
}

void sleep_until_ns(std::int64_t deadline) {
  timespec ts{};
  ts.tv_sec = deadline / 1'000'000'000;
  ts.tv_nsec = deadline % 1'000'000'000;
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

bool wait_for(const std::function<bool()>& done, std::int64_t timeout_ns) {
  const std::int64_t deadline = now_ns() + timeout_ns;
  while (!done()) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return true;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += (out.empty() ? "" : ", ") + json_number(v);
  return out;
}

// ---- modes ------------------------------------------------------------------------

/// brisk_exs prints no knob dump of its own: apply the brisk_exs flags run.py
/// passes to a default NodeConfig and describe() it. Flags left out keep the
/// config's own defaults, which brisk_exs's flag defaults equal.
int describe_exs(const Args& args) {
  brisk::NodeConfig config;
  config.node = static_cast<brisk::NodeId>(args.num("node"));
  config.shm_name = args.str("shm");
  config.ring_capacity =
      static_cast<std::uint32_t>(args.num("ring-bytes", config.ring_capacity));
  config.exs.node = config.node;
  config.exs.batch_max_records =
      static_cast<std::uint32_t>(args.num("batch-records", config.exs.batch_max_records));
  config.exs.batch_max_bytes =
      static_cast<std::uint32_t>(args.num("batch-bytes", config.exs.batch_max_bytes));
  config.exs.batch_max_age_us = args.num("batch-age-us", config.exs.batch_max_age_us);
  config.exs.select_timeout_us = args.num("select-timeout-us", config.exs.select_timeout_us);
  config.exs.replay_buffer_batches = static_cast<std::uint32_t>(
      args.num("replay-batches", config.exs.replay_buffer_batches));
  if (args.has("poller")) {
    auto backend = brisk::net::parse_poller_backend(args.str("poller"));
    if (!backend) die("--poller");
    config.exs.poller = backend.value();
  }
  config.exs.metrics_interval_us =
      args.num("metrics-interval", config.exs.metrics_interval_us / 1'000'000) * 1'000'000;
  if (args.has("trace-sample-rate")) {
    config.trace_sample_rate = std::atof(args.str("trace-sample-rate").c_str());
  }
  std::printf("%s", brisk::describe(config).c_str());
  return 0;
}

int probe(const Args& args, Workload workload) {
  const std::int64_t spawn_ns = args.num("spawn-ns");
  Source source = open_source(args);
  SnapshotBook book;
  Shared shared(1, 1);
  const std::vector<int> no_pids;
  Consumer consumer(source, nullptr, book, shared, workload, no_pids, no_pids);
  std::thread consumer_thread([&consumer] { consumer.run(); });
  Nodes nodes = attach_nodes(args);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.num("seed"));
  std::uint32_t seq = 0;
  const bool arrived = wait_for(
      [&] {
        if (shared.data_delivered.load(std::memory_order_acquire) > 0) return true;
        for (std::uint32_t n = 1; n <= kNodes; ++n) {
          (void)notice(nodes.sensors[n - 1], seed, firehose_event(n, seq));
        }
        ++seq;
        return false;
      },
      20'000'000'000LL);
  shared.stop.store(true, std::memory_order_release);
  consumer_thread.join();
  if (!arrived) die("probe: no record delivered");
  const double setup_s =
      static_cast<double>(shared.first_data_ns.load() - spawn_ns) / 1e9;
  std::printf("{\"loadgen\": {\"setup_s\": %s}}\n", json_number(setup_s).c_str());
  return 0;
}

int run(const Args& args, Workload workload) {
  const std::uint64_t seed = static_cast<std::uint64_t>(args.num("seed"));
  const std::int64_t seconds = args.num("seconds", 10);
  const std::vector<int> ism_pids = parse_pids(args.str("ism-pids"));
  const std::vector<int> exs_pids = parse_pids(args.str("exs-pids"));
  const bool traced = args.num("trace") != 0;
  if (ism_pids.empty() || exs_pids.empty()) die("--ism-pids and --exs-pids are required");

  // Inputs first: the schedule (paced) or the trial shape (firehose).
  const bool paced = workload != Workload::firehose;
  std::vector<Event> events;
  std::vector<std::vector<const Event*>> by_node(kNodes);
  std::uint64_t digest = 0;
  if (paced) {
    events = paced_schedule(seed, seconds * 1'000'000);
    for (const Event& e : events) by_node[e.node - 1].push_back(&e);
    digest = schedule_digest(seed, events);
  } else {
    digest = input_digest(workload, seed, seconds * 1'000'000);
  }
  Checker::Lookup lookup;
  if (paced) {
    lookup = [&by_node](std::uint32_t node, std::uint32_t seq, Event& out) {
      const auto& list = by_node[node - 1];
      if (seq >= list.size()) return false;
      out = *list[seq];
      return true;
    };
  } else {
    lookup = [](std::uint32_t node, std::uint32_t seq, Event& out) {
      if (seq >= kFirehoseTrialRecords * kMaxFirehoseTrials) return false;
      out = firehose_event(node, seq);
      return true;
    };
  }
  const bool tree = workload == Workload::tree;
  Checker checker(seed, lookup, tree ? tree_filters() : std::vector<brisk::ism::SubscriptionFilter>{});
  SnapshotBook book;
  Shared shared(paced ? 1 : kMaxFirehoseTrials,
                paced ? 1 : kFirehoseTrialRecords * kMaxFirehoseTrials / kBlock);

  Source source = open_source(args);
  Consumer consumer(source, &checker, book, shared, workload, ism_pids, exs_pids);
  std::thread consumer_thread([&consumer] { consumer.run(); });
  Nodes nodes = attach_nodes(args);

  UnitHistogram notice_ns(4096);
  UnitHistogram late_us(1 << 20);
  std::vector<std::uint64_t> issued(kNodes, 0);
  std::uint64_t rejected = 0;
  std::uint64_t ring_full_retries = 0;
  std::vector<double> trial_rps;

  consumer.sample_cpu(true);
  const std::int64_t window_start = now_ns();
  std::int64_t first_notice_ns = 0;

  if (paced) {
    const std::int64_t t0 = now_ns();
    consumer.set_t0(t0, seconds * 1'000'000);
    first_notice_ns = t0;
    for (const Event& e : events) {
      const std::int64_t due_ns = t0 + e.due_us * 1000;
      std::int64_t now = now_ns();
      if (now < due_ns) {
        sleep_until_ns(due_ns);
        now = now_ns();
      }
      late_us.add((now - due_ns) / 1000);
      const std::int64_t a = now_ns();
      const bool ok = notice(nodes.sensors[e.node - 1], seed, e);
      notice_ns.add(now_ns() - a);
      ++issued[e.node - 1];
      if (!ok) {
        ++rejected;
        checker.mark_rejected(e.node, e.seq);
      }
    }
    wait_for(
        [&] {
          if (shared.data_delivered.load(std::memory_order_acquire) + rejected >= events.size()) {
            return true;
          }
          for (auto& sensor : nodes.sensors) {
            (void)BRISK_NOTICE(sensor, kFillerSensor, brisk::sensors::x_i32(0));
          }
          return false;
        },
        5'000'000'000LL);
  } else {
    const std::int64_t budget_end = now_ns() + seconds * 1'000'000'000LL;
    for (std::size_t trial = 0; trial < kMaxFirehoseTrials && now_ns() < budget_end; ++trial) {
      const std::int64_t trial_start = now_ns();
      if (first_notice_ns == 0) first_notice_ns = trial_start;
      const auto base = static_cast<std::uint32_t>(trial * kFirehoseTrialRecords);
      for (std::uint32_t block = 0; block < kFirehoseTrialRecords; block += kBlock) {
        for (std::uint32_t n = 1; n <= kNodes; ++n) {
          auto& sensor = nodes.sensors[n - 1];
          const std::uint32_t first = base + block;
          shared.block_issue_ns[n - 1][first / kBlock].store(now_ns(), std::memory_order_release);
          const std::int64_t a = now_ns();
          bool retried = false;
          for (std::uint32_t seq = first; seq < first + kBlock; ++seq) {
            while (!notice(sensor, seed, firehose_event(n, seq))) {
              ++ring_full_retries;
              retried = true;
              std::this_thread::sleep_for(std::chrono::microseconds(20));
            }
          }
          if (!retried) notice_ns.add((now_ns() - a) / kBlock);
          issued[n - 1] += kBlock;
        }
      }
      const std::uint64_t want = std::uint64_t{kFirehoseTrialRecords} * kNodes;
      const bool complete = wait_for(
          [&] { return shared.trial_delivered[trial].load(std::memory_order_acquire) >= want; },
          10'000'000'000LL);
      if (!complete) break;
      const std::int64_t last = shared.trial_last_ns[trial].load(std::memory_order_acquire);
      trial_rps.push_back(static_cast<double>(want) * 1e9 / static_cast<double>(last - trial_start));
    }
  }
  const std::int64_t window_end = now_ns();
  consumer.sample_cpu(false);
  const double peak_rss_mb = proc_status_mb(ism_pids.front(), "VmHWM:");
  const std::uint64_t delivered_in_window = shared.data_delivered.load(std::memory_order_acquire);
  const std::int64_t last_delivery = shared.last_data_ns.load(std::memory_order_acquire);

  if (traced) {
    // Every daemon snapshots once per metrics interval; wait for one taken
    // after the last delivery so the counters cover the whole run.
    const auto before = book.snapshot_counts();
    wait_for(
        [&] {
          const auto now = book.snapshot_counts();
          for (const auto& [node, count] : before) {
            auto it = now.find(node);
            if (it == now.end() || it->second <= count) return false;
          }
          return true;
        },
        3'000'000'000LL);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  std::printf("QUIESCED\n");
  std::fflush(stdout);
  std::string line;
  while (std::getline(std::cin, line) && line != "STOPPED") {
  }
  shared.stop.store(true, std::memory_order_release);
  consumer_thread.join();

  // Losses the daemons themselves counted (only visible when snapshots flow).
  const std::uint64_t counted_loss = book.sum("ism.gateway.lane_drops") +
                                     book.sum("ism.sorter.overflow_drops") +
                                     book.sum("ism.flow_control_drops") +
                                     book.sum("exs.replay_evictions");
  const std::uint64_t counted_sub_drops = book.sum_matching("ism.gateway.sub.bench-", ".dropped");
  const CheckReport report = checker.finish(issued);
  const bool correct = report.ok(rejected + counted_loss, counted_sub_drops);
  std::fprintf(stderr, "brisk_loadgen: check: %s -> %s\n", report.describe().c_str(),
               correct ? "correct" : "WRONG");

  // Median over latency windows of each window's quantile.
  const auto& windows = consumer.result().latency_us;
  std::size_t latency_samples = 0;
  const auto per_window = [&windows](double q) {
    std::vector<double> out;
    for (const auto& w : windows) {
      if (!w.empty()) out.push_back(quantile(w, q));
    }
    return out;
  };
  const std::vector<double> p99_windows = per_window(0.99);
  for (const auto& w : windows) latency_samples += w.size();
  // CPU per 1000 delivered records: the median over the sampling intervals
  // that delivered at least 1000 records, so a clock-sync round or a start-up
  // burst in one interval does not swing the run's figure.
  std::vector<double> ism_per_krec;
  std::vector<double> exs_per_krec;
  std::vector<double> rss_mb;
  const std::vector<CpuSample>& cpu = consumer.result().cpu;
  for (const CpuSample& sample : cpu) rss_mb.push_back(sample.root_rss_mb);
  for (std::size_t i = 1; i < cpu.size(); ++i) {
    const double krec = static_cast<double>(cpu[i].delivered - cpu[i - 1].delivered) / 1e3;
    if (krec < 1) continue;
    ism_per_krec.push_back((cpu[i].ism_us - cpu[i - 1].ism_us) / krec);
    exs_per_krec.push_back((cpu[i].exs_us - cpu[i - 1].exs_us) / krec);
  }
  double delivered_rps = 0;
  if (paced) {
    delivered_rps = static_cast<double>(delivered_in_window) * 1e9 /
                    static_cast<double>(std::max<std::int64_t>(last_delivery - first_notice_ns, 1));
  } else {
    delivered_rps = quantile(trial_rps, 0.5);
  }

  // Per-layer view from the daemons' own snapshot.
  std::string lat_json;
  for (const auto& pair : brisk::metrics::kLatencyPairs) {
    const auto buckets = book.histogram(pair.name);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s.p50_us\": %llu, \"%s.p99_us\": %llu",
                  lat_json.empty() ? "" : ", ", pair.name,
                  static_cast<unsigned long long>(brisk::metrics::histogram_percentile(buckets, 0.5)),
                  pair.name,
                  static_cast<unsigned long long>(brisk::metrics::histogram_percentile(buckets, 0.99)));
    lat_json += buf;
  }
  const std::uint64_t batches = book.sum("exs.batches_sent");
  const std::uint64_t forwarded = book.sum("exs.records_forwarded");
  const std::uint64_t exs_bytes = book.sum("exs.bytes_sent");

  std::ostringstream out;
  out << "{\"loadgen\": {"
      << "\"workload\": \"" << workload_name(workload) << "\", \"seed\": " << seed
      << ", \"digest\": \"" << std::hex << digest << std::dec << "\""
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"issued\": " << report.issued << ", \"delivered\": " << report.delivered
      << ", \"lost\": " << report.lost << ", \"rejected\": " << report.rejected
      << ", \"duplicates\": " << report.duplicates << ", \"corrupt\": " << report.corrupt
      << ", \"misrouted\": " << report.misrouted << ", \"inversions\": " << report.inversions
      << ", \"cre_pairs\": " << report.cre_pairs
      << ", \"cre_violations\": " << report.cre_violations
      << ", \"check\": \"" << report.describe() << "\""
      << ", \"window_s\": " << json_number(static_cast<double>(window_end - window_start) / 1e9)
      << ", \"trial_rps\": [" << join(trial_rps) << "]"
      << ", \"delivered_rps\": " << json_number(delivered_rps)
      << ", \"e2e_p50_us\": " << json_number(quantile(per_window(0.5), 0.5))
      << ", \"e2e_p99_us\": " << json_number(quantile(p99_windows, 0.5))
      << ", \"e2e_p99_windows_us\": [" << join(p99_windows) << "]"
      << ", \"e2e_samples\": " << latency_samples
      << ", \"notice_ns_p50\": " << json_number(notice_ns.quantile(0.5))
      << ", \"notice_samples\": " << notice_ns.total()
      << ", \"lost_ratio\": "
      << json_number(static_cast<double>(report.lost) / static_cast<double>(std::max<std::uint64_t>(report.issued, 1)))
      << ", \"inversion_ratio\": "
      << json_number(static_cast<double>(report.inversions) /
                     static_cast<double>(std::max<std::uint64_t>(report.delivered, 1)))
      << ", \"ism_cpu_us_per_krec\": " << json_number(quantile(ism_per_krec, 0.5))
      << ", \"exs_cpu_us_per_krec\": " << json_number(quantile(exs_per_krec, 0.5))
      << ", \"cpu_intervals\": " << ism_per_krec.size()
      << ", \"ism_rss_mb\": " << json_number(quantile(rss_mb, 0.5))
      << ", \"ism_peak_rss_mb\": " << json_number(peak_rss_mb)
      << ", \"gen_late_p99_us\": " << json_number(late_us.quantile(0.99))
      << ", \"ring_full_retries\": " << ring_full_retries
      << ", \"snapshot_records\": " << book.records()
      << ", \"snapshot\": {" << lat_json
      << ", \"lis.records_per_batch\": "
      << json_number(batches == 0 ? 0 : static_cast<double>(forwarded) / static_cast<double>(batches))
      << ", \"lis.paced_batches\": " << book.sum("exs.paced_batches")
      << ", \"lis.credit_stalled_us\": " << book.sum("exs.credit_stalled_ms") * 1000
      << ", \"ism.ingest_stalls\": " << book.sum("ism.ingest_stalls")
      << ", \"ism.submit_stalls\": " << book.sum("ism.pipeline.submit_stalls")
      << ", \"ism.zero_window_grants\": " << book.sum("ism.zero_window_grants")
      << ", \"ism.merge_inversions\": " << book.sum("ism.pipeline.merge_inversions")
      << ", \"tp.wire_bytes_per_rec\": "
      << json_number(forwarded == 0 ? 0 : static_cast<double>(exs_bytes) / static_cast<double>(forwarded))
      << ", \"ism.gateway.lane_drops\": " << book.sum("ism.gateway.lane_drops")
      << ", \"ism.gateway.sub_drops\": " << book.sum_matching("ism.gateway.sub.", ".dropped")
      << ", \"traces_observed\": " << book.sum("lat.traces_observed") << "}"
      << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.has("self-test")) return checker_self_test() ? 0 : 1;
  if (args.has("describe-exs")) return describe_exs(args);
  const auto workload = parse_workload(args.str("workload"));
  if (!workload) die("--workload must be steady, firehose or tree");
  if (args.has("digest-only")) {
    const std::uint64_t digest = input_digest(*workload, static_cast<std::uint64_t>(args.num("seed")),
                                              args.num("seconds", 10) * 1'000'000);
    std::printf("%llx\n", static_cast<unsigned long long>(digest));
    return 0;
  }
  if (args.has("probe")) return probe(args, *workload);
  return run(args, *workload);
}
