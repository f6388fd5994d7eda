#include "core/knobs.hpp"

#include <cinttypes>
#include <cstdio>

namespace brisk {
namespace {

void line(std::string& out, const char* key, long long value) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s = %lld\n", key, value);
  out += buf;
}

void line(std::string& out, const char* key, double value) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s = %g\n", key, value);
  out += buf;
}

void line(std::string& out, const char* key, const std::string& value) {
  out += key;
  out += " = \"";
  out += value;
  out += "\"\n";
}

}  // namespace

Status NodeConfig::validate() const {
  if (sensor_slots == 0) return Status(Errc::invalid_argument, "sensor_slots == 0");
  if (ring_capacity < 1024) return Status(Errc::invalid_argument, "ring_capacity < 1024");
  if (trace_sample_rate < 0.0 || trace_sample_rate > 1.0) {
    return Status(Errc::invalid_argument, "trace_sample_rate outside [0, 1]");
  }
  return exs.validate();
}

Status ManagerConfig::validate() const {
  if (output_ring_capacity < 1024) {
    return Status(Errc::invalid_argument, "output_ring_capacity < 1024");
  }
  if (ism.select_timeout_us <= 0) {
    return Status(Errc::invalid_argument, "ism.select_timeout_us <= 0");
  }
  if (ism.sorter.min_frame_us < 0 || ism.sorter.max_frame_us < ism.sorter.min_frame_us) {
    return Status(Errc::invalid_argument, "sorter frame bounds inverted");
  }
  if (ism.peer_idle_timeout_us < 0) {
    return Status(Errc::invalid_argument, "negative ism.peer_idle_timeout_us");
  }
  if (ism.quarantine_timeout_us < 0) {
    return Status(Errc::invalid_argument, "negative ism.quarantine_timeout_us");
  }
  if (ism.ack_period_us <= 0) {
    return Status(Errc::invalid_argument,
                  "ism.ack_period_us must be > 0, got " + std::to_string(ism.ack_period_us));
  }
  if (ism.gap_skip_timeout_us < 0) {
    return Status(Errc::invalid_argument, "negative ism.gap_skip_timeout_us");
  }
  if (ism.reader_threads > 64) {
    return Status(Errc::invalid_argument, "ism.reader_threads > 64");
  }
  if (ism.reader_threads > 0 && ism.ingest_queue_frames < 2) {
    return Status(Errc::invalid_argument, "ism.ingest_queue_frames < 2");
  }
  if (ism.sorter_shards < 1 || ism.sorter_shards > 64) {
    return Status(Errc::invalid_argument, "ism.sorter_shards outside [1, 64]");
  }
  if (ism.sorter_shards > 1 && ism.shard_queue_records < 2) {
    return Status(Errc::invalid_argument, "ism.shard_queue_records < 2");
  }
  if (ism.stats_interval_us < 0) {
    return Status(Errc::invalid_argument, "negative ism.stats_interval_us");
  }
  Status gw = gateway.validate();
  if (!gw) return gw;
  if (relay_enabled) {
    if (relay.parent_port == 0) {
      return Status(Errc::invalid_argument, "relay.parent_port == 0");
    }
    if (relay.relay_node == 0) {
      return Status(Errc::invalid_argument, "relay.relay_node == 0");
    }
    if (relay.queue_records < 2 || relay.batch_max_records == 0) {
      return Status(Errc::invalid_argument, "relay queue/batch sizes too small");
    }
  }
  return Status::ok();
}

std::string describe(const NodeConfig& config) {
  std::string out = "[brisk.node]\n";
  line(out, "node", static_cast<long long>(config.node));
  line(out, "sensor_slots", static_cast<long long>(config.sensor_slots));
  line(out, "ring_capacity", static_cast<long long>(config.ring_capacity));
  line(out, "shm_name", config.shm_name);
  line(out, "trace_sample_rate", config.trace_sample_rate);
  line(out, "exs.batch_max_records", static_cast<long long>(config.exs.batch_max_records));
  line(out, "exs.batch_max_bytes", static_cast<long long>(config.exs.batch_max_bytes));
  line(out, "exs.batch_max_age_us", static_cast<long long>(config.exs.batch_max_age_us));
  line(out, "exs.drain_burst", static_cast<long long>(config.exs.drain_burst));
  line(out, "exs.select_timeout_us", static_cast<long long>(config.exs.select_timeout_us));
  line(out, "exs.poller", std::string(net::to_string(config.exs.poller)));
  line(out, "exs.replay_buffer_batches",
       static_cast<long long>(config.exs.replay_buffer_batches));
  line(out, "exs.replay_buffer_bytes",
       static_cast<long long>(config.exs.replay_buffer_bytes));
  line(out, "exs.reconnect_backoff_base_us",
       static_cast<long long>(config.exs.reconnect_backoff_base_us));
  line(out, "exs.reconnect_backoff_cap_us",
       static_cast<long long>(config.exs.reconnect_backoff_cap_us));
  line(out, "exs.reconnect_jitter", config.exs.reconnect_jitter);
  line(out, "exs.max_reconnect_attempts",
       static_cast<long long>(config.exs.max_reconnect_attempts));
  line(out, "exs.heartbeat_period_us", static_cast<long long>(config.exs.heartbeat_period_us));
  line(out, "exs.ism_silence_timeout_us",
       static_cast<long long>(config.exs.ism_silence_timeout_us));
  return out;
}

std::string describe(const ManagerConfig& config) {
  std::string out = "[brisk.manager]\n";
  line(out, "ism.port", static_cast<long long>(config.ism.port));
  line(out, "ism.select_timeout_us", static_cast<long long>(config.ism.select_timeout_us));
  line(out, "ism.poller", std::string(net::to_string(config.ism.poller)));
  line(out, "ism.outbox_stall_timeout_us",
       static_cast<long long>(config.ism.outbox_stall_timeout_us));
  line(out, "ism.reader_threads", static_cast<long long>(config.ism.reader_threads));
  line(out, "ism.ingest_queue_frames",
       static_cast<long long>(config.ism.ingest_queue_frames));
  line(out, "ism.sorter_shards", static_cast<long long>(config.ism.sorter_shards));
  line(out, "ism.shard_queue_records",
       static_cast<long long>(config.ism.shard_queue_records));
  line(out, "ism.stats_interval_us", static_cast<long long>(config.ism.stats_interval_us));
  line(out, "sorter.initial_frame_us", static_cast<long long>(config.ism.sorter.initial_frame_us));
  line(out, "sorter.min_frame_us", static_cast<long long>(config.ism.sorter.min_frame_us));
  line(out, "sorter.max_frame_us", static_cast<long long>(config.ism.sorter.max_frame_us));
  line(out, "sorter.decay_half_life_s", config.ism.sorter.decay_half_life_s);
  line(out, "sorter.adaptive", static_cast<long long>(config.ism.sorter.adaptive ? 1 : 0));
  line(out, "sorter.max_pending", static_cast<long long>(config.ism.sorter.max_pending));
  line(out, "cre.hold_timeout_us", static_cast<long long>(config.ism.cre.hold_timeout_us));
  line(out, "sync.enable", static_cast<long long>(config.ism.enable_sync ? 1 : 0));
  line(out, "sync.period_us", static_cast<long long>(config.ism.sync.period_us));
  line(out, "sync.algorithm",
       std::string(config.ism.sync.algorithm == clk::SyncAlgorithm::brisk ? "brisk" : "cristian"));
  line(out, "sync.brisk.polls_per_round",
       static_cast<long long>(config.ism.sync.brisk.polls_per_round));
  line(out, "sync.brisk.avg_threshold_us",
       static_cast<long long>(config.ism.sync.brisk.avg_threshold_us));
  line(out, "sync.brisk.conservative_fraction", config.ism.sync.brisk.conservative_fraction);
  line(out, "ism.peer_idle_timeout_us",
       static_cast<long long>(config.ism.peer_idle_timeout_us));
  line(out, "ism.quarantine_timeout_us",
       static_cast<long long>(config.ism.quarantine_timeout_us));
  line(out, "ism.ack_period_us", static_cast<long long>(config.ism.ack_period_us));
  line(out, "ism.gap_skip_timeout_us",
       static_cast<long long>(config.ism.gap_skip_timeout_us));
  line(out, "output_ring_capacity", static_cast<long long>(config.output_ring_capacity));
  line(out, "output_shm_name", config.output_shm_name);
  line(out, "picl_trace_path", config.picl_trace_path);
  line(out, "relay.enabled", static_cast<long long>(config.relay_enabled ? 1 : 0));
  if (config.relay_enabled) {
    line(out, "relay.parent", config.relay.parent_host + ":" +
                                  std::to_string(config.relay.parent_port));
    line(out, "relay.node", static_cast<long long>(config.relay.relay_node));
    line(out, "relay.queue_records", static_cast<long long>(config.relay.queue_records));
    line(out, "relay.batch_max_records",
         static_cast<long long>(config.relay.batch_max_records));
    line(out, "relay.batch_max_age_us",
         static_cast<long long>(config.relay.batch_max_age_us));
    line(out, "relay.idle_watermark_period_us",
         static_cast<long long>(config.relay.idle_watermark_period_us));
    line(out, "relay.aggregate_metrics",
         static_cast<long long>(config.relay.aggregate_metrics ? 1 : 0));
    if (config.relay.aggregate_metrics) {
      line(out, "relay.metrics_flush_period_us",
           static_cast<long long>(config.relay.metrics_flush_period_us));
    }
  }
  line(out, "gateway.tcp_enabled", static_cast<long long>(config.gateway.tcp_enabled ? 1 : 0));
  if (config.gateway.tcp_enabled) {
    line(out, "gateway.consumer_port", static_cast<long long>(config.gateway.consumer_port));
    line(out, "gateway.poller", std::string(net::to_string(config.gateway.poller)));
    line(out, "gateway.lane_records", static_cast<long long>(config.gateway.lane_records));
    line(out, "gateway.queue_records", static_cast<long long>(config.gateway.queue_records));
    line(out, "gateway.max_queue_records",
         static_cast<long long>(config.gateway.max_queue_records));
    line(out, "gateway.outbox_bytes", static_cast<long long>(config.gateway.outbox_bytes));
    line(out, "gateway.overrun_grace_us",
         static_cast<long long>(config.gateway.overrun_grace_us));
    line(out, "gateway.agg_window_us", static_cast<long long>(config.gateway.agg_window_us));
    line(out, "gateway.max_subscribers",
         static_cast<long long>(config.gateway.max_subscribers));
  }
  return out;
}

}  // namespace brisk
