#include "core/knobs.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <type_traits>
#include <vector>

#include "clock/clock.hpp"
#include "common/string_util.hpp"

namespace brisk {
namespace {

// Short names keep each table row to about two lines.
using M = ManagerConfig;
using I = ism::IsmConfig;
using S = ism::SorterConfig;
using C = ism::CreConfig;
using G = ism::GatewayConfig;
using R = ism::RelayConfig;
using Y = clk::SyncServiceConfig;
using B = clk::BriskSyncConfig;
using N = NodeConfig;
using E = lis::ExsConfig;
using F = sim::FaultPlan;

constexpr long long kU16 = 0xFFFF;
constexpr long long kU32 = 0xFFFF'FFFF;
/// Node 0xFFFFFFFF is reserved for ISM-originated metrics records.
constexpr long long kNodeMax = 0xFFFF'FFFE;
constexpr long long kMax = std::numeric_limits<long long>::max();
/// Time knobs stay within a day, so deadline arithmetic cannot overflow.
constexpr long long kDaySeconds = 86'400;
constexpr long long kDayUs = kDaySeconds * 1'000'000;

std::string number_text(const KnobValue& value) {
  char buf[64];
  if (const auto* real = std::get_if<double>(&value)) {
    std::snprintf(buf, sizeof buf, "%g", *real);
  } else {
    std::snprintf(buf, sizeof buf, "%lld", std::get<long long>(value));
  }
  return buf;
}

template <typename>
struct ClassOf;
template <typename Class, typename T>
struct ClassOf<T Class::*> {
  using type = Class;
};

/// Whether a field of type T is stored in a KnobValue as is.
template <typename T>
constexpr bool kAsIs = std::is_constructible_v<KnobValue, std::in_place_type_t<T>, const T&>;

// Enum knobs travel as their names.
KnobValue to_knob(net::PollerBackend backend) { return std::string(net::to_string(backend)); }
KnobValue to_knob(clk::SyncAlgorithm algorithm) {
  return std::string(algorithm == clk::SyncAlgorithm::brisk ? "brisk" : "cristian");
}
Status from_knob(const KnobValue& value, net::PollerBackend& backend) {
  auto parsed = net::parse_poller_backend(std::get<std::string>(value));
  if (parsed) backend = parsed.value();
  return parsed.status();
}
Status from_knob(const KnobValue& value, clk::SyncAlgorithm& algorithm) {
  const std::string& name = std::get<std::string>(value);
  if (name != "brisk" && name != "cristian") {
    return Status(Errc::invalid_argument, "unknown algorithm '" + name + "' (brisk|cristian)");
  }
  algorithm = name == "brisk" ? clk::SyncAlgorithm::brisk : clk::SyncAlgorithm::cristian;
  return Status::ok();
}

/// The knob stored in the field a member-pointer path names. Enums travel as
/// their names, integers as long long counted in `Unit`s (1'000'000 for a µs
/// field that a flag sets in whole seconds), everything else as itself.
template <long long Unit, auto First, auto... Rest>
struct FieldAt {
  using Config = typename ClassOf<decltype(First)>::type;

  template <typename Object>
  static auto& of(Object& config) {
    return ((config.*First) .* ... .* Rest);
  }
  static KnobValue get(const Config& config) {
    const auto& field = of(config);
    using T = std::remove_cvref_t<decltype(field)>;
    if constexpr (std::is_enum_v<T>) {
      return to_knob(field);
    } else if constexpr (kAsIs<T>) {
      return KnobValue(std::in_place_type<T>, field);
    } else {
      return static_cast<long long>(field / Unit);
    }
  }
  static Status set(Config& config, const KnobValue& value) {
    auto& field = of(config);
    using T = std::remove_cvref_t<decltype(field)>;
    if constexpr (std::is_enum_v<T>) {
      return from_knob(value, field);
    } else if constexpr (kAsIs<T>) {
      field = std::get<T>(value);
    } else {
      field = static_cast<T>(std::get<long long>(value) * Unit);
    }
    return Status::ok();
  }
};

template <long long Unit, auto... Path>
constexpr KnobField<typename FieldAt<Unit, Path...>::Config> kFieldAt{
    &FieldAt<Unit, Path...>::get, &FieldAt<Unit, Path...>::set};

/// The KnobField of a plain config field, named by its member-pointer path:
/// at<&M::ism, &I::port>.
template <auto... Path>
constexpr auto at = kFieldAt<1, Path...>;

/// The KnobField of a µs field that a flag sets in whole seconds.
template <auto... Path>
constexpr auto seconds = kFieldAt<1'000'000, Path...>;

// --- knobs that are not one plain field ----------------------------------------------

/// One --poller drives the ISM loop, the consumer gateway and the relay egress.
Status set_poller(M& c, const KnobValue& value) {
  Status parsed = from_knob(value, c.ism.poller);
  c.gateway.poller = c.relay.poller = c.ism.poller;
  return parsed;
}

/// A relay aggregating its subtree's metrics flushes once per metrics interval.
Status set_metrics_interval(M& c, const KnobValue& value) {
  Status parsed = seconds<&M::ism, &I::metrics_interval_us>.set(c, value);
  if (c.ism.metrics_interval_us > 0) c.relay.metrics_flush_period_us = c.ism.metrics_interval_us;
  return parsed;
}

/// --relay-to host:port makes this ISM a relay; empty keeps it a root.
KnobValue relay_parent(const M& c) {
  return c.relay_enabled ? c.relay.parent_host + ":" + std::to_string(c.relay.parent_port) : "";
}
Status set_relay_parent(M& c, const KnobValue& value) {
  const std::string& to = std::get<std::string>(value);
  c.relay_enabled = !to.empty();
  if (to.empty()) return Status::ok();
  const auto colon = to.rfind(':');
  const auto port = colon == std::string::npos ? std::nullopt : parse_int(to.substr(colon + 1));
  if (colon == 0 || !port || *port <= 0 || *port > kU16) {
    return Status(Errc::invalid_argument, "expects host:port, got '" + to + "'");
  }
  c.relay.parent_host = to.substr(0, colon);
  c.relay.parent_port = static_cast<std::uint16_t>(*port);
  return Status::ok();
}

/// --consumer-port -1 leaves the TCP consumer gateway off.
KnobValue consumer_port(const M& c) {
  return c.gateway.tcp_enabled ? static_cast<long long>(c.gateway.consumer_port) : -1LL;
}
Status set_consumer_port(M& c, const KnobValue& value) {
  const long long port = std::get<long long>(value);
  c.gateway.tcp_enabled = port >= 0;
  c.gateway.consumer_port = static_cast<std::uint16_t>(port < 0 ? 0 : port);
  return Status::ok();
}

/// Without --picl-utc, PICL timestamps count from the ISM's start.
KnobValue picl_utc(const M& c) { return c.picl_options.mode == picl::TimestampMode::utc_micros; }
Status set_picl_utc(M& c, const KnobValue& value) {
  if (std::get<bool>(value)) {
    c.picl_options.mode = picl::TimestampMode::utc_micros;
  } else {
    c.picl_options.epoch_us = clk::SystemClock::instance().now();
  }
  return Status::ok();
}

bool relaying(const M& c) { return c.relay_enabled; }
bool aggregating(const M& c) { return c.relay_enabled && c.relay.aggregate_metrics; }
bool serving_tcp(const M& c) { return c.gateway.tcp_enabled; }

// Flags brisk_exs reads itself: their rows give only the default.
KnobValue off(const N&) { return false; }
KnobValue zero(const N&) { return 0LL; }
KnobValue localhost(const N&) { return std::string("127.0.0.1"); }

// --- the tables, in --help order -----------------------------------------------------

constexpr Knob<M> kManagerKnobs[] = {
    {"port", "ism.port", 10, at<&M::ism, &I::port>, 0, kU16,
     "TCP port to listen on (0 = ephemeral)"},
    {"shm", "output_shm_name", 320, at<&M::output_shm_name>, 0, 0,
     "named shared-memory output ring (empty = anonymous)"},
    {"output-ring-bytes", "output_ring_capacity", 310, at<&M::output_ring_capacity>, 1024, kU32,
     "output ring capacity in bytes"},
    {"picl", "picl_trace_path", 330, at<&M::picl_trace_path>, 0, 0,
     "write a PICL trace file to this path"},
    {"picl-utc", nullptr, 0, {picl_utc, set_picl_utc}, 0, 1, "stamp PICL lines with UTC micros"},
    {"poller", "ism.poller", 30, {at<&M::ism, &I::poller>.get, set_poller}, 0, 0,
     "readiness backend: select or epoll"},
    {"ism-reader-threads", "ism.reader_threads", 50, at<&M::ism, &I::reader_threads>, 0, 64,
     "ingest reader threads (0 = single-threaded)"},
    {"ingest-queue-frames", "ism.ingest_queue_frames", 60, at<&M::ism, &I::ingest_queue_frames>, 0,
     kMax, "per-connection ingest queue depth (frames)"},
    {"ism-sorter-shards", "ism.sorter_shards", 70, at<&M::ism, &I::sorter_shards>, 1, 64,
     "ordering shards with a k-way merge (1 = inline)"},
    {"shard-queue-records", "ism.shard_queue_records", 80, at<&M::ism, &I::shard_queue_records>, 0,
     kMax, "per-shard ordering lane depth (records)"},
    {"stats-interval", nullptr, 0, seconds<&M::ism, &I::stats_interval_us>, 0, kDaySeconds,
     "log a one-line stats summary every N seconds (0 = off)"},
    {nullptr, "ism.stats_interval_us", 90, at<&M::ism, &I::stats_interval_us>, 0, kDayUs, nullptr},
    {"metrics-interval", nullptr, 0,
     {seconds<&M::ism, &I::metrics_interval_us>.get, set_metrics_interval}, 0, kDaySeconds,
     "emit self-instrumentation metrics records every N seconds (0 = off)"},
    {nullptr, "ism.metrics_interval_us", 100, at<&M::ism, &I::metrics_interval_us>, 0, kDayUs,
     nullptr},
    {"select-timeout-us", "ism.select_timeout_us", 20, at<&M::ism, &I::select_timeout_us>, 1,
     kDayUs, "longest poll wait (idle cap) in microseconds"},
    {nullptr, "ism.outbox_stall_timeout_us", 40, at<&M::ism, &I::outbox_stall_timeout_us>, 0,
     kDayUs, nullptr},
    {"frame-us", "sorter.initial_frame_us", 110, at<&M::ism, &I::sorter, &S::initial_frame_us>, 0,
     kDayUs, "initial sorter frame window"},
    {"min-frame-us", "sorter.min_frame_us", 120, at<&M::ism, &I::sorter, &S::min_frame_us>, 0,
     kDayUs, "adaptive sorter frame floor"},
    {"max-frame-us", "sorter.max_frame_us", 130, at<&M::ism, &I::sorter, &S::max_frame_us>, 0,
     kDayUs, "adaptive sorter frame ceiling"},
    {"decay-half-life-s", "sorter.decay_half_life_s", 140,
     at<&M::ism, &I::sorter, &S::decay_half_life_s>, 0, kDaySeconds,
     "sorter delay-estimate decay half-life"},
    {"adaptive", "sorter.adaptive", 150, at<&M::ism, &I::sorter, &S::adaptive>, 0, 1,
     "adapt the sorter frame to observed delays"},
    {nullptr, "sorter.max_pending", 160, at<&M::ism, &I::sorter, &S::max_pending>, 1, kMax,
     nullptr},
    {"cre-timeout-us", "cre.hold_timeout_us", 170, at<&M::ism, &I::cre, &C::hold_timeout_us>, 0,
     kDayUs, "causal-relation hold timeout"},
    {"peer-idle-us", "ism.peer_idle_timeout_us", 240, at<&M::ism, &I::peer_idle_timeout_us>, 0,
     kDayUs, "disconnect peers idle longer than this"},
    {"quarantine-us", "ism.quarantine_timeout_us", 250, at<&M::ism, &I::quarantine_timeout_us>, 0,
     kDayUs, "session quarantine after unclean close"},
    {"ack-period-us", "ism.ack_period_us", 260, at<&M::ism, &I::ack_period_us>, 1, kDayUs,
     "batch acknowledgement period (> 0)"},
    {"gap-skip-us", "ism.gap_skip_timeout_us", 270, at<&M::ism, &I::gap_skip_timeout_us>, 0, kDayUs,
     "give up on a batch-sequence gap after this"},
    {"ism-credit-records", "ism.credit_window_records", 280, at<&M::ism, &I::credit_window_records>,
     0, kU32, "per-connection credit window in records (0 = no credit grants)"},
    {"ism-credit-bytes", "ism.credit_window_bytes", 290, at<&M::ism, &I::credit_window_bytes>, 0,
     kMax, "per-connection credit window in bytes (0 = uncapped)"},
    {"credit-replenish-us", "ism.credit_replenish_us", 300, at<&M::ism, &I::credit_replenish_us>, 0,
     kDayUs, "ack cadence while a session's window is below the full grant"},
    {nullptr, "gateway.tcp_enabled", 430, at<&M::gateway, &G::tcp_enabled>, 0, 1, nullptr},
    {"consumer-port", "gateway.consumer_port", 440, {consumer_port, set_consumer_port}, -1, kU16,
     "TCP consumer gateway port (-1 = disabled, 0 = ephemeral)", serving_tcp},
    {nullptr, "gateway.poller", 450, at<&M::gateway, &G::poller>, 0, 0, nullptr, serving_tcp},
    {"consumer-queue-records", "gateway.queue_records", 470, at<&M::gateway, &G::queue_records>, 1,
     kMax, "default per-subscriber gateway queue depth (records)", serving_tcp},
    {"consumer-max-queue-records", "gateway.max_queue_records", 480,
     at<&M::gateway, &G::max_queue_records>, 1, kMax,
     "cap on the per-subscriber queue depth a SUBSCRIBE may request", serving_tcp},
    {"consumer-lane-records", "gateway.lane_records", 460, at<&M::gateway, &G::lane_records>, 2,
     kMax, "pipeline -> gateway fan-out lane depth", serving_tcp},
    {"consumer-outbox-bytes", "gateway.outbox_bytes", 490, at<&M::gateway, &G::outbox_bytes>, 4096,
     kMax, "per-subscriber socket send buffer cap", serving_tcp},
    {"consumer-overrun-grace-us", "gateway.overrun_grace_us", 500,
     at<&M::gateway, &G::overrun_grace_us>, 0, kDayUs,
     "evict a subscriber continuously overrunning its queue for this long", serving_tcp},
    {"consumer-agg-window-us", "gateway.agg_window_us", 510, at<&M::gateway, &G::agg_window_us>, 1,
     kDayUs, "default aggregation-subscription window", serving_tcp},
    {"consumer-max-subscribers", "gateway.max_subscribers", 520,
     at<&M::gateway, &G::max_subscribers>, 1, kMax, "max concurrent gateway connections",
     serving_tcp},
    {nullptr, "relay.enabled", 340, at<&M::relay_enabled>, 0, 1, nullptr},
    {"relay-to", "relay.parent", 350, {relay_parent, set_relay_parent}, 0, 0,
     "run as a relay tier: forward the ordered output to a parent ISM "
     "at host:port (empty = standalone root)",
     relaying},
    {"relay-node", "relay.node", 360, at<&M::relay, &R::relay_node>, 0, kNodeMax,
     "this relay's node identity toward its parent", relaying},
    {"relay-queue-records", "relay.queue_records", 370, at<&M::relay, &R::queue_records>, 2, kMax,
     "pipeline -> relay egress queue depth", relaying},
    {"relay-batch-records", "relay.batch_max_records", 380, at<&M::relay, &R::batch_max_records>, 1,
     kMax, "relay batch seal threshold (records)", relaying},
    {"relay-batch-age-us", "relay.batch_max_age_us", 390, at<&M::relay, &R::batch_max_age_us>, 0,
     kDayUs, "relay batch seal threshold (age)", relaying},
    {"relay-idle-wm-us", "relay.idle_watermark_period_us", 400,
     at<&M::relay, &R::idle_watermark_period_us>, 0, kDayUs,
     "idle RELAY_WATERMARK cadence toward the parent (0 = off)", relaying},
    {"relay-aggregate-metrics", "relay.aggregate_metrics", 410,
     at<&M::relay, &R::aggregate_metrics>, 0, 1,
     "merge the subtree's metrics snapshots at this relay and forward "
     "one agg.* snapshot per --metrics-interval instead of every record",
     relaying},
    {nullptr, "relay.metrics_flush_period_us", 420, at<&M::relay, &R::metrics_flush_period_us>, 1,
     kDayUs, nullptr, aggregating},
    {"sync", "sync.enable", 180, at<&M::ism, &I::enable_sync>, 0, 1,
     "run the clock synchronisation service"},
    {"sync-period-us", "sync.period_us", 190, at<&M::ism, &I::sync, &Y::period_us>, 1, kDayUs,
     "clock sync round period"},
    {"sync-algorithm", "sync.algorithm", 200, at<&M::ism, &I::sync, &Y::algorithm>, 0, 0,
     "clock sync algorithm: brisk or cristian"},
    {nullptr, "sync.brisk.polls_per_round", 210,
     at<&M::ism, &I::sync, &Y::brisk, &B::polls_per_round>, 1, kMax, nullptr},
    {nullptr, "sync.brisk.avg_threshold_us", 220,
     at<&M::ism, &I::sync, &Y::brisk, &B::avg_threshold_us>, 0, kDayUs, nullptr},
    {nullptr, "sync.brisk.conservative_fraction", 230,
     at<&M::ism, &I::sync, &Y::brisk, &B::conservative_fraction>, 0, 1, nullptr},
};

constexpr Knob<N> kNodeKnobs[] = {
    {"node", "node", 10, at<&N::node>, 0, kNodeMax, "node id reported to the ISM"},
    {"shm", "shm_name", 40, at<&N::shm_name>, 0, 0,
     "named shared-memory ring directory (required)"},
    {"attach", nullptr, 0, {off}, 0, 1, "attach to an existing ring instead of creating it"},
    {"slots", "sensor_slots", 20, at<&N::sensor_slots>, 1, kU32, "sensor ring slots"},
    {"ring-bytes", "ring_capacity", 30, at<&N::ring_capacity>, 1024, kU32,
     "per-ring capacity in bytes"},
    {"ism-host", nullptr, 0, {localhost}, 0, 0, "ISM host to connect to"},
    {"ism-port", nullptr, 0, {zero}, 0, kU16, "ISM port to connect to (required)"},
    {"poller", "exs.poller", 110, at<&N::exs, &E::poller>, 0, 0,
     "readiness backend: select or epoll"},
    {"batch-records", "exs.batch_max_records", 60, at<&N::exs, &E::batch_max_records>, 1, kU32,
     "flush a batch after this many records"},
    {"batch-bytes", "exs.batch_max_bytes", 70, at<&N::exs, &E::batch_max_bytes>, 64, kU32,
     "flush a batch after this many bytes"},
    {"batch-age-us", "exs.batch_max_age_us", 80, at<&N::exs, &E::batch_max_age_us>, 0, kDayUs,
     "flush a batch older than this"},
    {nullptr, "exs.drain_burst", 90, at<&N::exs, &E::drain_burst>, 1, kU32, nullptr},
    {"select-timeout-us", "exs.select_timeout_us", 100, at<&N::exs, &E::select_timeout_us>, 1,
     kDayUs, "longest poll wait (idle cap) in microseconds"},
    {"replay-batches", "exs.replay_buffer_batches", 120, at<&N::exs, &E::replay_buffer_batches>, 0,
     kU32, "replay buffer cap in batches"},
    {"replay-bytes", "exs.replay_buffer_bytes", 130, at<&N::exs, &E::replay_buffer_bytes>, 0, kMax,
     "replay buffer cap in bytes (0 = unlimited)"},
    {"backoff-base-us", "exs.reconnect_backoff_base_us", 150,
     at<&N::exs, &E::reconnect_backoff_base_us>, 1, kDayUs, "reconnect backoff base"},
    {"backoff-cap-us", "exs.reconnect_backoff_cap_us", 160,
     at<&N::exs, &E::reconnect_backoff_cap_us>, 1, kDayUs, "reconnect backoff ceiling"},
    {"backoff-jitter", "exs.reconnect_jitter", 170, at<&N::exs, &E::reconnect_jitter>, 0, 1,
     "reconnect backoff jitter fraction"},
    {"max-reconnects", "exs.max_reconnect_attempts", 180, at<&N::exs, &E::max_reconnect_attempts>,
     0, kU32, "give up after this many reconnects (0 = forever)"},
    {"heartbeat-us", "exs.heartbeat_period_us", 190, at<&N::exs, &E::heartbeat_period_us>, 0,
     kDayUs, "heartbeat period while idle"},
    {"ism-silence-us", "exs.ism_silence_timeout_us", 200, at<&N::exs, &E::ism_silence_timeout_us>,
     0, kDayUs, "reconnect if the ISM is silent this long (0 = off)"},
    {"metrics-interval", nullptr, 0, seconds<&N::exs, &E::metrics_interval_us>, 0, kDaySeconds,
     "emit self-instrumentation metrics records every N seconds (0 = off)"},
    {nullptr, "exs.metrics_interval_us", 210, at<&N::exs, &E::metrics_interval_us>, 0, kDayUs,
     nullptr},
    {"trace-sample-rate", "trace_sample_rate", 50, at<&N::trace_sample_rate>, 0, 1,
     "fraction of records carrying end-to-end trace annotations (0..1)"},
    {"workload-rate", nullptr, 0, {zero}, 0, kU32,
     "emit synthetic records at this rate per second (0 = off)"},
};

constexpr Knob<F> kFaultKnobs[] = {
    {"fault-seed", nullptr, 0, at<&F::seed>, 0, kMax, "RNG seed for outbound fault injection"},
    {"fault-drop", nullptr, 0, at<&F::drop_probability>, 0, 1,
     "probability of dropping an outbound frame"},
    {"fault-dup", nullptr, 0, at<&F::duplicate_probability>, 0, 1,
     "probability of duplicating an outbound frame"},
    {"fault-trunc", nullptr, 0, at<&F::truncate_probability>, 0, 1,
     "probability of truncating an outbound frame"},
    {"fault-stall", nullptr, 0, at<&F::stall_probability>, 0, 1,
     "probability of stalling before an outbound frame"},
    {"fault-stall-us", nullptr, 0, at<&F::stall_us>, 0, kDayUs, "stall duration in microseconds"},
    {"fault-stall-every", nullptr, 0, at<&F::stall_every>, 0, kU32,
     "stall deterministically every N frames (0 = off)"},
};

/// validate()'s single-field checks: every row's value within its range.
template <typename Config>
Status check_ranges(std::span<const Knob<Config>> knobs, const Config& config) {
  for (const Knob<Config>& knob : knobs) {
    const std::string error = knob_range_error(knob.field.get(config), knob.min, knob.max);
    if (!error.empty()) {
      return Status(Errc::invalid_argument,
                    std::string(knob.key != nullptr ? knob.key : knob.flag) + " " + error);
    }
  }
  return Status::ok();
}

template <typename Config>
std::string render(std::string out, std::span<const Knob<Config>> knobs, const Config& config) {
  std::vector<const Knob<Config>*> rows;
  for (const Knob<Config>& knob : knobs) {
    if (knob.key != nullptr && (knob.shown == nullptr || knob.shown(config))) {
      rows.push_back(&knob);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto* a, const auto* b) { return a->dump < b->dump; });
  for (const Knob<Config>* knob : rows) {
    const KnobValue value = knob->field.get(config);
    out += knob->key;
    out += " = ";
    if (const auto* text = std::get_if<std::string>(&value)) {
      out += "\"" + *text + "\"";
    } else if (const auto* flag = std::get_if<bool>(&value)) {
      out += *flag ? "1" : "0";
    } else {
      out += number_text(value);
    }
    out += "\n";
  }
  return out;
}

}  // namespace

std::string knob_range_error(const KnobValue& value, long long min, long long max) {
  bool in_range = true;
  if (const auto* integer = std::get_if<long long>(&value)) {
    in_range = *integer >= min && *integer <= max;
  } else if (const auto* real = std::get_if<double>(&value)) {
    in_range = *real >= static_cast<double>(min) && *real <= static_cast<double>(max);
  }
  if (in_range) return "";
  return "must be in [" + std::to_string(min) + ", " + std::to_string(max) + "], got " +
         number_text(value);
}

std::span<const Knob<ManagerConfig>> manager_knobs() { return kManagerKnobs; }
std::span<const Knob<NodeConfig>> node_knobs() { return kNodeKnobs; }
std::span<const Knob<sim::FaultPlan>> fault_knobs() { return kFaultKnobs; }

Status NodeConfig::validate() const {
  Status ranges = check_ranges(node_knobs(), *this);
  return ranges ? exs.validate() : ranges;
}

Status ManagerConfig::validate() const {
  Status ranges = check_ranges(manager_knobs(), *this);
  if (!ranges) return ranges;
  if (ism.sorter.max_frame_us < ism.sorter.min_frame_us) {
    return Status(Errc::invalid_argument, "sorter frame bounds inverted");
  }
  if (ism.reader_threads > 0 && ism.ingest_queue_frames < 2) {
    return Status(Errc::invalid_argument, "ism.ingest_queue_frames < 2");
  }
  if (ism.sorter_shards > 1 && ism.shard_queue_records < 2) {
    return Status(Errc::invalid_argument, "ism.shard_queue_records < 2");
  }
  Status gw = gateway.validate();
  if (!gw) return gw;
  if (relay_enabled && relay.parent_port == 0) {
    return Status(Errc::invalid_argument, "relay.parent_port == 0");
  }
  if (relay_enabled && relay.relay_node == 0) {
    return Status(Errc::invalid_argument, "relay.relay_node == 0");
  }
  return Status::ok();
}

std::string describe(const NodeConfig& config) {
  return render("[brisk.node]\n", node_knobs(), config);
}

std::string describe(const ManagerConfig& config) {
  return render("[brisk.manager]\n", manager_knobs(), config);
}

}  // namespace brisk
