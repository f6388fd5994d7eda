#include "ism/ism.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <string>

#include "common/logging.hpp"
#include "common/time_util.hpp"
#include "sensors/metrics_record.hpp"
#include "sensors/trace_record.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace brisk::ism {
namespace {

/// Paces a periodic task on monotonic time: true once per `interval`, the
/// first call only setting the baseline; never when `interval` <= 0.
bool interval_elapsed(TimeMicros& last, TimeMicros interval) {
  if (interval <= 0) return false;
  const TimeMicros now = monotonic_micros();
  const bool baseline = last == 0;
  if (!baseline && now - last < interval) return false;
  last = now;
  return !baseline;
}

}  // namespace

Ism::Ism(const IsmConfig& config, clk::Clock& clock, std::shared_ptr<Sink> output,
         net::TcpListener listener)
    : config_(config),
      clock_(clock),
      output_(std::move(output)),
      listener_(std::move(listener)),
      loop_(net::make_poller(config.poller)),
      sessions_(config_, clock_, flight_, [this] { regrant_wake_.signal(); }),
      sync_transport_(*this) {
  PipelineConfig pipeline_config;
  pipeline_config.shards = config_.sorter_shards;
  pipeline_config.shard_queue_records = config_.shard_queue_records;
  pipeline_config.poll_timeout_us = config_.select_timeout_us;
  pipeline_config.sorter = config_.sorter;
  pipeline_config.cre = config_.cre;
  latency_ = std::make_unique<metrics::LatencyRecorder>(metrics_);
  pipeline_ = std::make_unique<OrderingPipeline>(
      pipeline_config, clock_,
      [this](std::span<const sensors::Record> run) { deliver_run(run); },
      [this] { (void)output_->flush(); },
      // May fire on the merger thread; the sync service lives on the
      // ordering thread, so just raise a flag idle_work() consumes.
      [this] { extra_sync_requested_.store(true, std::memory_order_release); });
  if (config_.enable_sync) {
    sync_service_ = std::make_unique<clk::SyncService>(config_.sync, sync_transport_, clock_);
  }
  register_metrics();
}

void Ism::register_metrics() {
  // One collector bridges every existing stats struct into the registry —
  // the hot paths keep their own counters, the snapshot unifies the names.
  // Snapshots run on the ordering thread, so ordering-thread state
  // (sessions_, fault_) is safe to read here.
  metrics_.add_collector([this](metrics::SnapshotBuilder& b) {
    const IsmStats s = stats();
    b.counter("ism.connections_accepted", s.connections_accepted);
    b.gauge("ism.active_connections", s.active_connections);
    b.gauge("ism.sessions", sessions_.size());
    b.counter("ism.batches_received", s.batches_received);
    b.counter("ism.records_received", s.records_received);
    b.counter("ism.bytes_received", s.bytes_received);
    b.counter("ism.protocol_errors", s.protocol_errors);
    b.counter("ism.ring_drops_reported", s.ring_drops_reported);
    b.counter("ism.flow_control_drops", s.flow_control_drops);
    b.counter("ism.ingest_stalls", s.ingest_stalls);
    b.counter("ism.batch_seq_gaps", s.batch_seq_gaps);
    b.counter("ism.rejoins", s.rejoins);
    b.counter("ism.duplicate_batches_dropped", s.duplicate_batches_dropped);
    b.counter("ism.out_of_order_batches_dropped", s.out_of_order_batches_dropped);
    b.counter("ism.idle_disconnects", s.idle_disconnects);
    b.counter("ism.sessions_expired", s.sessions_expired);
    b.counter("ism.records_drained_on_expiry", s.records_drained_on_expiry);
    b.counter("ism.acks_sent", s.acks_sent);
    b.counter("ism.heartbeats_received", s.heartbeats_received);
    b.counter("ism.credit_grants_sent", s.credit_grants_sent);
    b.counter("ism.zero_window_grants", s.zero_window_grants);
    b.counter("ism.window_update_acks", s.window_update_acks);
    b.counter("ism.drain_window_updates", s.drain_window_updates);
    b.counter("ism.reader_migrations", s.reader_migrations);

    const PipelineStats p = pipeline_->stats();
    b.counter("ism.pipeline.submitted", p.submitted);
    b.counter("ism.pipeline.merged", p.merged);
    b.counter("ism.pipeline.merge_inversions", p.merge_inversions);
    b.counter("ism.pipeline.merge_runs", p.merge_runs);
    b.counter("ism.pipeline.sink_runs", p.sink_runs);
    b.counter("ism.pipeline.submit_stalls", p.submit_stalls);
    b.counter("ism.pipeline.oob_records", p.oob_records);

    const SorterStats so = pipeline_->sorter_stats();
    b.counter("ism.sorter.pushed", so.pushed);
    b.counter("ism.sorter.emitted", so.emitted);
    b.counter("ism.sorter.out_of_order_emissions", so.out_of_order_emissions);
    b.counter("ism.sorter.frame_raises", so.frame_raises);
    b.counter("ism.sorter.overflow_emits", so.overflow_emits);
    b.counter("ism.sorter.overflow_drops", so.overflow_drops);
    b.gauge("ism.sorter.max_lateness_us", static_cast<std::uint64_t>(so.max_lateness_us));
    const std::vector<std::size_t> depths = pipeline_->shard_depths();
    for (std::size_t i = 0; i < depths.size(); ++i) {
      b.gauge("ism.sorter.shard" + std::to_string(i) + ".depth", depths[i]);
    }
    // Each shard's current delay window T (adaptive: raised by observed
    // lateness, decayed over quiet periods).
    const std::vector<TimeMicros> frames = pipeline_->shard_frames();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      b.gauge("ism.sorter.shard" + std::to_string(i) + ".frame_us",
              static_cast<std::uint64_t>(frames[i]));
    }

    // The disorder substrate for adaptive delay-window policies: how far
    // behind the emitted frontier late records land, and how many there
    // were. Zero buckets are skipped — bucket samples are self-describing.
    b.counter("sort.late_records", so.late_records);
    auto emit_disorder = [&b](const std::string& base, const metrics::Histogram& h) {
      for (std::size_t i = 0; i < metrics::Histogram::kBucketCount; ++i) {
        const std::uint64_t count = h.bucket_count_at(i);
        if (count != 0) b.histogram_bucket(base, metrics::Histogram::bucket_bound(i), count);
      }
    };
    metrics::Histogram disorder;
    pipeline_->merge_disorder(disorder);
    emit_disorder("sort.disorder_us", disorder);
    if (pipeline_->shard_count() > 1) {
      for (std::size_t i = 0; i < pipeline_->shard_count(); ++i) {
        metrics::Histogram shard_disorder;
        pipeline_->merge_shard_disorder(i, shard_disorder);
        emit_disorder("sort.shard" + std::to_string(i) + ".disorder_us", shard_disorder);
      }
    }

    const CreStats c = pipeline_->cre_stats();
    b.counter("ism.cre.reasons_seen", c.reasons_seen);
    b.counter("ism.cre.conseqs_seen", c.conseqs_seen);
    b.counter("ism.cre.matched", c.matched);
    b.counter("ism.cre.tachyons_repaired", c.tachyons_repaired);
    b.counter("ism.cre.conseqs_held", c.conseqs_held);
    b.counter("ism.cre.hold_timeouts", c.hold_timeouts);
    b.counter("ism.cre.extra_sync_requests", c.extra_sync_requests);

    if (fault_.active()) {
      const net::FaultStats& f = fault_.stats();
      b.counter("ism.fault.frames", f.frames);
      b.counter("ism.fault.dropped", f.dropped);
      b.counter("ism.fault.stalled", f.stalled);
      b.counter("ism.fault.truncated", f.truncated);
      b.counter("ism.fault.duplicated", f.duplicated);
    }
  });
}

IsmStats Ism::stats() const noexcept {
  const SessionCounters& s = sessions_.counters();
  IsmStats out;
  out.connections_accepted = stats_.connections_accepted.load(std::memory_order_relaxed);
  out.active_connections = stats_.active_connections.load(std::memory_order_relaxed);
  out.batches_received = stats_.batches_received.load(std::memory_order_relaxed);
  out.records_received = stats_.records_received.load(std::memory_order_relaxed);
  out.bytes_received = stats_.bytes_received.load(std::memory_order_relaxed);
  out.protocol_errors = stats_.protocol_errors.load(std::memory_order_relaxed);
  out.ring_drops_reported = s.ring_drops_reported.load(std::memory_order_relaxed);
  out.flow_control_drops = stats_.flow_control_drops.load(std::memory_order_relaxed);
  out.ingest_stalls = stats_.ingest_stalls.load(std::memory_order_relaxed);
  out.batch_seq_gaps = s.batch_seq_gaps.load(std::memory_order_relaxed);
  out.rejoins = s.rejoins.load(std::memory_order_relaxed);
  out.duplicate_batches_dropped = s.duplicate_batches_dropped.load(std::memory_order_relaxed);
  out.out_of_order_batches_dropped =
      s.out_of_order_batches_dropped.load(std::memory_order_relaxed);
  out.idle_disconnects = stats_.idle_disconnects.load(std::memory_order_relaxed);
  out.sessions_expired = s.sessions_expired.load(std::memory_order_relaxed);
  out.records_drained_on_expiry = pipeline_->stats().oob_records;
  out.acks_sent = s.acks_sent.load(std::memory_order_relaxed);
  out.heartbeats_received = stats_.heartbeats_received.load(std::memory_order_relaxed);
  out.credit_grants_sent = s.credit_grants_sent.load(std::memory_order_relaxed);
  out.zero_window_grants = s.zero_window_grants.load(std::memory_order_relaxed);
  out.window_update_acks = s.window_update_acks.load(std::memory_order_relaxed);
  out.drain_window_updates = s.drain_window_updates.load(std::memory_order_relaxed);
  out.reader_migrations = stats_.reader_migrations.load(std::memory_order_relaxed);
  return out;
}

Ism::~Ism() {
  // Readers must die before connections_: they hold raw fds into it.
  for (auto& reader : readers_) reader->stop_and_join();
  // Pipeline threads call back into this object (sink delivery, drained
  // counters, latency histograms, flight recorder): join them before any
  // of those members is destroyed.
  pipeline_.reset();
}

Result<std::unique_ptr<Ism>> Ism::start(const IsmConfig& config, clk::Clock& clock,
                                        std::shared_ptr<Sink> output) {
  if (!output) return Status(Errc::invalid_argument, "null output sink");
  if (config.ack_period_us <= 0) {
    return Status(Errc::invalid_argument, "ack_period_us must be > 0");
  }
  auto listener = net::TcpListener::listen(config.port);
  if (!listener) return listener.status();
  Status st = listener.value().set_nonblocking(true);
  if (!st) return st;

  auto ism = std::unique_ptr<Ism>(
      new Ism(config, clock, std::move(output), std::move(listener).value()));
  Ism* raw = ism.get();
  st = ism->loop_->watch(ism->listener_.fd(), [raw](int, net::Readiness) {
    raw->on_listener_readable();
  });
  if (!st) return st;
  ism->loop_->set_idle([raw] { raw->idle_work(); });
  auto regrant_wake = net::WakeupPipe::create();
  if (!regrant_wake) return regrant_wake.status();
  ism->regrant_wake_ = std::move(regrant_wake).value();
  st = ism->loop_->watch(ism->regrant_wake_.fd(), [raw](int, net::Readiness) {
    raw->regrant_wake_.drain();
    raw->send_window_updates();
  });
  if (!st) return st;

  for (std::size_t i = 0; i < config.reader_threads; ++i) {
    ReaderConfig reader_config;
    reader_config.poller = config.poller;
    reader_config.lane_depth = config.ingest_queue_frames;
    reader_config.poll_timeout_us = config.select_timeout_us;
    auto reader = ReaderThread::start(reader_config);
    if (!reader) return reader.status();
    // A reader's wakeup means events are pending on some lane; drain them
    // all — lanes are cheap to check and this keeps the wiring simple.
    st = ism->loop_->watch(reader.value()->wakeup_fd(),
                           [raw, r = reader.value().get()](int, net::Readiness) {
                             r->drain_wakeup();
                             raw->drain_ingest();
                           });
    if (!st) return st;
    ism->readers_.push_back(std::move(reader).value());
  }
  ism->reader_loads_.assign(ism->readers_.size(), 0);
  ism->reader_rates_.assign(ism->readers_.size(), 0.0);
  return ism;
}

void Ism::on_listener_readable() {
  for (;;) {
    auto client = listener_.accept();
    if (!client) {
      if (client.status().code() != Errc::would_block) {
        BRISK_LOG_WARN << "accept failed: " << client.status().to_string();
      }
      return;
    }
    net::TcpSocket socket = std::move(client).value();
    (void)socket.set_nodelay(true);
    if (config_.sndbuf_bytes > 0) {
      (void)::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDBUF, &config_.sndbuf_bytes,
                         sizeof(config_.sndbuf_bytes));
    }
    if (!socket.set_nonblocking(true)) continue;
    const int fd = socket.fd();
    Connection conn;
    conn.socket = std::move(socket);
    conn.outbox = net::FrameSendBuffer(config_.outbox_bytes);
    conn.last_rx_us = monotonic_micros();
    if (threaded()) {
      conn.lane = std::make_shared<IngestLane>(config_.ingest_queue_frames);
      conn.reader_index = least_loaded_reader(reader_rates_, reader_loads_);
    }
    auto [it, inserted] = connections_.emplace(fd, std::move(conn));
    if (!inserted) continue;
    if (threaded()) {
      ++reader_loads_[it->second.reader_index];
      readers_[it->second.reader_index]->add_connection(fd, it->second.lane);
    } else {
      Status st = watch_connection(fd);
      if (!st) {
        connections_.erase(fd);
        continue;
      }
    }
    bump(stats_.connections_accepted);
    stats_.active_connections.store(connections_.size(), std::memory_order_relaxed);
  }
}

Status Ism::watch_connection(int fd) {
  // One combined callback serves both interests; only the interest mask
  // changes as want_writable toggles, so re-watching is a cheap upsert.
  auto it = connections_.find(fd);
  const bool want_writable = it != connections_.end() && it->second.want_writable;
  net::Readiness interest = net::Readiness::readable;
  if (want_writable) interest = interest | net::Readiness::writable;
  return loop_->watch(fd, interest, [this](int ready_fd, net::Readiness ready) {
    // Pump first: it is cheap, and the read side may close the connection.
    if (any(ready & net::Readiness::writable)) on_connection_writable(ready_fd);
    if (any(ready & net::Readiness::readable)) on_connection_readable(ready_fd);
  });
}

void Ism::on_connection_writable(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  if (conn.closing) return;
  Status st = conn.outbox.pump(conn.socket);
  if (!st && send_failure_is_fatal(conn, st)) {
    BRISK_LOG_WARN << "outbox to node " << conn.node << " failed: " << st.to_string();
    close_connection(fd);
    return;
  }
  if (conn.outbox.empty()) conn.outbox_full_since = 0;
  update_write_interest(fd, conn);
}

void Ism::update_write_interest(int fd, Connection& conn) {
  const bool want = !conn.outbox.empty() && !conn.closing;
  if (want == conn.want_writable) return;
  conn.want_writable = want;
  if (threaded()) {
    // Readable lives on a reader thread's poller; the ordering thread's
    // loop only ever holds a writable-only watch, and only while the
    // outbox has deferred bytes.
    if (want) {
      Status st = loop_->watch(fd, net::Readiness::writable,
                               [this](int ready_fd, net::Readiness) {
                                 on_connection_writable(ready_fd);
                               });
      if (!st) conn.want_writable = false;  // the next send_frame retries
    } else {
      (void)loop_->unwatch(fd);
    }
  } else {
    Status st = watch_connection(fd);
    if (!st && want) conn.want_writable = false;
  }
}

bool Ism::send_failure_is_fatal(Connection& conn, const Status& st) {
  if (st.code() != Errc::buffer_full) return true;  // genuine socket error
  // The outbox is at its cap: the peer is not reading fast enough, but the
  // socket is alive. Give it the stall grace period before reaping.
  const TimeMicros now = monotonic_micros();
  if (conn.outbox_full_since == 0) conn.outbox_full_since = now;
  if (config_.outbox_stall_timeout_us == 0) return true;  // legacy: reap now
  return now - conn.outbox_full_since >= config_.outbox_stall_timeout_us;
}

void Ism::on_connection_readable(int fd) {
  for (;;) {
    // Each event may close the connection: look it up again every time.
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    std::optional<IngestEvent> event = it->second.decoder.next(fd);
    if (!event) return;
    process_ingest_event(fd, std::move(*event));
  }
}

// ---- threaded ingest --------------------------------------------------------

void Ism::drain_ingest() {
  if (!threaded()) return;
  // Snapshot fds: processing an event may erase connections.
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) {
    if (conn.lane) fds.push_back(fd);
  }
  for (int fd : fds) {
    for (;;) {
      auto it = connections_.find(fd);
      if (it == connections_.end()) break;
      IngestEvent event;
      if (!it->second.lane->queue.try_pop(event)) {
        // Lane empty. If the reader stalled on it, there is room again now;
        // let it continue reading the socket.
        if (it->second.lane->stalled.load(std::memory_order_acquire) &&
            !it->second.reader_done) {
          bump(stats_.ingest_stalls);
          readers_[it->second.reader_index]->resume(fd);
        }
        break;
      }
      process_ingest_event(fd, std::move(event));
    }
  }
}

void Ism::process_ingest_event(int fd, IngestEvent event) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  // Inline mode never decodes past a close; a reader may have queued more
  // behind it. Of a closing connection only `closed`/`released` matter.
  if (conn.closing &&
      (event.kind == IngestEvent::Kind::batch || event.kind == IngestEvent::Kind::frame)) {
    return;
  }
  conn.last_rx_us = monotonic_micros();
  bump(stats_.bytes_received, event.wire_bytes);

  switch (event.kind) {
    case IngestEvent::Kind::closed:
      conn.reader_done = true;
      // An ok status is an orderly EOF and io_error a peer reset — only
      // frame-layer garbage (oversized frame, undecodable batch) counts
      // as a protocol violation.
      if (!event.error && event.error.code() != Errc::io_error && !conn.closing) {
        bump(stats_.protocol_errors);
        BRISK_LOG_WARN << "ingest error on fd " << fd << ": " << event.error.to_string();
      }
      close_connection(fd);
      return;
    case IngestEvent::Kind::batch: {
      if (!conn.hello_seen) {
        bump(stats_.protocol_errors);
        close_connection(fd);
        return;
      }
      handle_batch(conn, std::move(event.batch));
      return;
    }
    case IngestEvent::Kind::frame: {
      Status st = dispatch_frame(conn, event.payload.view());
      if (!st) {
        if (st.code() != Errc::closed) {
          bump(stats_.protocol_errors);
          BRISK_LOG_WARN << "frame dispatch failed: " << st.to_string();
        }
        close_connection(fd);
      }
      return;
    }
    case IngestEvent::Kind::released: {
      // The old reader is finished with the fd and everything it produced
      // has been consumed; complete the migration (or the close, if the
      // connection was torn down while the move was in flight).
      if (conn.closing) {
        conn.reader_done = true;
        conn.migrate_target = -1;
        finish_close(fd);
        return;
      }
      if (conn.migrate_target < 0) return;
      const auto to = static_cast<std::size_t>(conn.migrate_target);
      conn.migrate_target = -1;
      if (reader_loads_[conn.reader_index] > 0) --reader_loads_[conn.reader_index];
      // Carry the connection's decayed rate across so the imbalance signal
      // reflects the move now, not a decay period later.
      reader_rates_[conn.reader_index] -= conn.drained_rate;
      if (reader_rates_[conn.reader_index] < 0.0) reader_rates_[conn.reader_index] = 0.0;
      conn.reader_index = to;
      ++reader_loads_[to];
      reader_rates_[to] += conn.drained_rate;
      readers_[to]->add_connection(fd, conn.lane);
      return;
    }
  }
}

Status Ism::dispatch_frame(Connection& conn, ByteSpan payload) {
  xdr::Decoder decoder(payload);
  auto type = tp::peek_type(decoder);
  if (!type) return type.status();
  switch (type.value()) {
    case tp::MsgType::hello: {
      auto hello = tp::decode_hello(decoder);
      if (!hello) return hello.status();
      if (hello.value().version < tp::kMinProtocolVersion ||
          hello.value().version > tp::kProtocolVersion) {
        return Status(Errc::unsupported, "protocol version mismatch");
      }
      const bool ordered_stream =
          (hello.value().capabilities & tp::kCapabilityOrderedStream) != 0;
      if (ordered_stream && hello.value().version < tp::kCreditProtocolVersion) {
        // The ordered-stream fast path leans on the credit window for
        // boundedness; a relay that cannot pace has no business bypassing
        // the sorter shards.
        return Status(Errc::unsupported, "ordered-stream capability requires v3");
      }
      if (nodes_.count(hello.value().node) != 0) {
        // A live connection already owns this node id. Dead-but-unclosed
        // predecessors are reaped by the idle timeout, after which the
        // newcomer's reconnect loop gets through.
        return Status(Errc::already_exists, "node id already connected");
      }
      conn.node = hello.value().node;
      conn.hello_seen = true;
      if (config_.flow_control_rate_per_sec > 0.0) {
        conn.flow_control = std::make_unique<TokenBucket>(config_.flow_control_rate_per_sec,
                                                          config_.flow_control_burst);
      }
      nodes_[conn.node] = conn.socket.fd();
      const SessionTable::Hello joined = sessions_.hello(
          conn.node, hello.value().incarnation, hello.value().version, ordered_stream);
      if (ordered_stream) {
        conn.relay = true;
        conn.relay_lane =
            joined.relay_lane ? *joined.relay_lane : pipeline_->add_relay_lane(joined.drained);
        sessions_.bind_relay_lane(conn.node, conn.relay_lane);
        pipeline_->resume_relay_lane(conn.relay_lane);  // a rejoin reopens its flushed lane
        BRISK_LOG_INFO << "node " << conn.node << " is a relay (ordered-ingress lane "
                       << conn.relay_lane << ")";
      }
      // The HELLO_ACK cursor tells the EXS where to resume; it releases the
      // EXS's send gate, so it must go out before any BATCH_ACK.
      return send_ack(conn, tp::MsgType::hello_ack);
    }
    case tp::MsgType::relay_batch: {
      if (!conn.hello_seen) return Status(Errc::malformed, "relay batch before hello");
      if (!conn.relay) {
        return Status(Errc::malformed, "relay batch from non-relay peer");
      }
      auto batch = tp::decode_relay_batch(decoder);
      if (!batch) return batch.status();
      handle_relay_batch(conn, std::move(batch).value());
      return Status::ok();
    }
    case tp::MsgType::relay_watermark: {
      if (!conn.hello_seen || !conn.relay) {
        return Status(Errc::malformed, "relay watermark from non-relay peer");
      }
      auto wm = tp::decode_relay_watermark(decoder);
      if (!wm) return wm.status();
      pipeline_->advance_relay_watermark(conn.relay_lane, wm.value().watermark);
      return Status::ok();
    }
    case tp::MsgType::time_resp: {
      auto resp = tp::decode_time_resp(decoder);
      if (!resp) return resp.status();
      if (pending_poll_request_ != 0 && resp.value().request_id == pending_poll_request_) {
        pending_poll_answered_ = true;
        pending_poll_slave_time_ = resp.value().slave_time;
      } else {
        BRISK_LOG_DEBUG << "stale time_resp " << resp.value().request_id;
      }
      return Status::ok();
    }
    case tp::MsgType::heartbeat:
      bump(stats_.heartbeats_received);  // reception already refreshed last_rx_us
      return Status::ok();
    case tp::MsgType::bye:
      conn.saw_bye = true;
      return Status(Errc::closed, "EXS said bye");
    default:
      return Status(Errc::malformed, "unexpected message type at ISM");
  }
}

bool Ism::admit_batch(Connection& conn, std::uint32_t seq, std::uint64_t ring_dropped_total,
                      std::size_t records) {
  bump(stats_.batches_received);
  // Feed placement: the reader's load is the records it drains, not the
  // connections it happens to hold.
  if (conn.reader_index < reader_rates_.size()) {
    reader_rates_[conn.reader_index] += static_cast<double>(records);
    conn.drained_rate += static_cast<double>(records);
  }
  if (!sessions_.admit(conn.node, seq, ring_dropped_total, monotonic_micros())) return false;
  bump(stats_.records_received, records);
  return true;
}

void Ism::handle_batch(Connection& conn, tp::Batch batch) {
  if (!admit_batch(conn, batch.header.batch_seq, batch.header.ring_dropped_total,
                   batch.records.size())) {
    return;
  }
  // Token-bucket drops are compacted out in place; the admitted records
  // enter the pipeline as one run. Credits account only records that
  // actually enter the pipeline — flow-control drops never become backlog.
  std::vector<sensors::Record>& records = batch.records;
  std::size_t admitted = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (conn.flow_control && !conn.flow_control->admit(clock_.now())) {
      bump(stats_.flow_control_drops);
      continue;
    }
    sensors::Record& record = records[i];
    record.node = conn.node;
    if (record.trace) {
      // Ordering-thread stamp: the ingest side of the pipeline admitted the
      // decoded record (reader threads decode but do not stamp — the
      // ordering thread's clock keeps stamps coherent under ManualClock).
      record.trace->stamp(sensors::TraceStage::ism_ingest, clock_.now());
    }
    if (admitted != i) records[admitted] = std::move(record);
    ++admitted;
  }
  route_run(conn.node, std::span(records.data(), admitted));
  // A failed window update is left to the sweep's next ack, which
  // classifies it (transient buffer_full vs. dead peer).
  if (sessions_.admitted(conn.node, admitted)) (void)send_ack(conn, tp::MsgType::batch_ack);
}

void Ism::handle_relay_batch(Connection& conn, tp::RelayBatch batch) {
  const std::size_t records = batch.records.size();
  if (!admit_batch(conn, batch.header.batch_seq, 0, records)) return;
  // No token bucket and no per-record rerouting: the relay already paced
  // (its own credit window) and each record keeps the origin node id the
  // decoder restored. Dropping or reordering here would break the lane's
  // sorted-stream invariant.
  for (sensors::Record& record : batch.records) {
    if (record.trace) {
      record.trace->stamp(sensors::TraceStage::ism_ingest, clock_.now());
    }
  }
  Status st = pipeline_->submit_relay(conn.relay_lane, std::move(batch.records),
                                      batch.header.watermark);
  if (!st) {
    BRISK_LOG_WARN << "relay lane submit failed: " << st.to_string();
  }
  if (sessions_.admitted(conn.node, records)) (void)send_ack(conn, tp::MsgType::batch_ack);
}

void Ism::route_run(NodeId node, std::span<sensors::Record> records) {
  Status st = pipeline_->submit_run(node, records);
  if (!st) {
    BRISK_LOG_WARN << "pipeline submit failed: " << st.to_string();
  }
}

void Ism::deliver_run(std::span<const sensors::Record> run) {
  // Untraced stretches reach the output in one call; a traced record goes
  // alone, in its place, with its span record behind it.
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= run.size(); ++i) {
    if (i < run.size() && !run[i].trace) continue;
    if (i > begin) {
      const RunResult result = output_->accept_run(run.subspan(begin, i - begin));
      if (!result.status.is_ok() && result.status.code() != Errc::buffer_full) {
        BRISK_LOG_WARN << "output sink failed: " << result.status.to_string();
      }
    }
    if (i < run.size()) deliver_traced(run[i]);
    begin = i + 1;
  }
  // The drained count is what replenishes each node's credit window.
  sessions_.note_records_drained(run);
}

void Ism::deliver_traced(const sensors::Record& record) {
  sensors::Record stripped = record;
  stripped.trace->stamp(sensors::TraceStage::sink_delivery, clock_.now());
  latency_->observe(*stripped.trace);
  sensors::Record span = sensors::make_trace_record(
      stripped.node, trace_sequence_.fetch_add(1, std::memory_order_relaxed),
      stripped.timestamp, *stripped.trace);
  // The data record reaches the sinks without its annotation, so sink bytes
  // are identical with tracing on and off; the span list follows as its own
  // reserved-sensor record.
  stripped.trace.reset();
  Status st = output_->accept(stripped);
  if (!st && st.code() != Errc::buffer_full) {
    BRISK_LOG_WARN << "output sink failed: " << st.to_string();
  }
  st = output_->accept(span);
  if (!st && st.code() != Errc::buffer_full) {
    BRISK_LOG_WARN << "output sink failed (trace record): " << st.to_string();
  }
}

void Ism::idle_work() {
  drain_ingest();
  if (metrics::consume_flight_dump_request()) metrics::dump_flight_recorders(stderr);
  maybe_emit_metrics();
  const TimeMicros due = pipeline_->service();
  pipeline_due_at_ = due < 0 ? -1 : monotonic_micros() + due;
  session_sweep();
  // A tachyon asks for an extra sync round at once. The loop wakes whenever
  // a sorted record falls due, so each tachyon would get its own
  // synchronous polling round: run at most one extra round per
  // select_timeout_us. A deferred request runs within that cap.
  const TimeMicros now = monotonic_micros();
  if (sync_service_ && now - last_extra_sync_us_ >= config_.select_timeout_us &&
      extra_sync_requested_.exchange(false, std::memory_order_acq_rel)) {
    last_extra_sync_us_ = now;
    sync_service_->request_extra_round();
  }
  if (sync_service_) sync_service_->maybe_run_round();
  // Time-windowed sinks (gateway aggregation subscriptions) close windows
  // against the merge's release watermark during lulls.
  output_->tick(pipeline_->release_watermark());
  maybe_log_stats();
}

void Ism::maybe_log_stats() {
  if (!interval_elapsed(last_stats_log_us_, config_.stats_interval_us)) return;
  // The log line is just another consumer of the metrics snapshot — the
  // same samples the metrics records are rendered from.
  const std::vector<metrics::Sample> samples = metrics_.snapshot();
  auto value = [&samples](std::string_view name) -> std::uint64_t {
    for (const metrics::Sample& sample : samples) {
      if (sample.name == name) return sample.value;
    }
    return 0;
  };
  std::string depths;
  for (const metrics::Sample& sample : samples) {
    if (sample.name.rfind("ism.sorter.shard", 0) != 0) continue;
    if (sample.name.size() < 6 || sample.name.substr(sample.name.size() - 6) != ".depth") {
      continue;
    }
    if (!depths.empty()) depths += "/";
    depths += std::to_string(sample.value);
  }
  BRISK_LOG_INFO << "stats: sessions=" << value("ism.sessions")
                 << " conns=" << value("ism.active_connections")
                 << " batches=" << value("ism.batches_received")
                 << " records=" << value("ism.records_received")
                 << " dup_drops=" << value("ism.duplicate_batches_dropped")
                 << " replays=" << value("ism.rejoins")
                 << " gaps=" << value("ism.batch_seq_gaps")
                 << " drained=" << value("ism.records_drained_on_expiry")
                 << " sorter_depth=" << depths;
}

void Ism::maybe_emit_metrics() {
  if (interval_elapsed(last_metrics_emit_us_, config_.metrics_interval_us)) {
    emit_metrics_snapshot();
  }
}

void Ism::emit_metrics_snapshot() {
  const std::vector<metrics::Sample> samples = metrics_.snapshot();
  const TimeMicros timestamp = clock_.now();
  // Injected at the ordering stage: the records ride the sorter shard of the
  // reserved node and the k-way merge like any EXS's stream, so the merged
  // output stays timestamp-sorted and every registered sink sees them.
  std::vector<sensors::Record> records = metrics::snapshot_to_records(
      samples, sensors::kIsmMetricsNodeId, timestamp, metrics_sequence_);
  // Flight-recorder events sealed since the last snapshot follow as 0xFF03
  // records, stamped with the snapshot time (their event time rides in the
  // at_us field) so they merge cleanly with the stream they describe.
  for (const metrics::FlightEvent& event : flight_.drain_new(flight_cursor_)) {
    records.push_back(sensors::make_event_record(sensors::kIsmMetricsNodeId,
                                                 metrics_sequence_++, timestamp, event.kind,
                                                 event.subject, event.value, event.at));
  }
  route_run(sensors::kIsmMetricsNodeId, records);
}

Status Ism::send_frame(Connection& conn, ByteSpan payload) {
  // Through the per-connection outbox: a full kernel send buffer leaves the
  // unwritten tail queued (pumped on writable readiness) instead of tearing
  // the frame mid-write and desynchronizing the peer's stream.
  Status st = fault_.write_frame(conn.socket, conn.outbox, payload);
  if (st) conn.outbox_full_since = 0;  // the cap admitted the frame
  update_write_interest(conn.socket.fd(), conn);
  return st;
}

Status Ism::send_ack(Connection& conn, tp::MsgType type) {
  const std::optional<tp::HelloAck> ack = sessions_.ack(conn.node);
  if (!ack) return Status::ok();  // no session: nothing to acknowledge
  ByteBuffer out;
  xdr::Encoder enc(out);
  tp::put_type(type, enc);
  if (type == tp::MsgType::hello_ack) {
    tp::encode_hello_ack(*ack, enc);
  } else {
    tp::encode_batch_ack({ack->next_expected_seq, ack->credit}, enc);
  }
  const Status st = send_frame(conn, out.view());
  // Stamped after the write: a write that stalled past the ack period must
  // not be followed at once by a second ack naming the same cursor — the
  // EXS reads a repeated cursor as loss and resends.
  conn.last_ack_sent_us = monotonic_micros();
  return st;
}

void Ism::session_sweep() {
  const TimeMicros now = monotonic_micros();

  // Reap peers that have been silent past the idle timeout (an EXS that
  // heartbeats can never trip this while alive).
  if (config_.peer_idle_timeout_us > 0) {
    std::vector<int> idle_fds;
    for (const auto& [fd, conn] : connections_) {
      if (conn.closing) continue;  // already being torn down
      if (now - conn.last_rx_us >= config_.peer_idle_timeout_us) idle_fds.push_back(fd);
    }
    for (int fd : idle_fds) {
      BRISK_LOG_WARN << "reaping idle peer on fd " << fd;
      bump(stats_.idle_disconnects);
      const auto cit = connections_.find(fd);
      flight_.record(sensors::EventKind::session_reaped,
                     cit != connections_.end() ? cit->second.node : 0,
                     static_cast<std::uint64_t>(fd), clock_.now());
      close_connection(fd);
    }
  }

  // Periodic BATCH_ACKs to every live session: they trim the EXS replay
  // buffers, double as an ISM-is-alive signal, and a repeated cursor is
  // what triggers the EXS's go-back-N resend.
  std::vector<int> failed;
  for (auto& [fd, conn] : connections_) {
    if (!conn.hello_seen || conn.closing) continue;
    if (now - conn.last_ack_sent_us < sessions_.ack_period(conn.node)) continue;
    Status st = send_ack(conn, tp::MsgType::batch_ack);
    if (!st && send_failure_is_fatal(conn, st)) {
      // A genuine socket error, or the outbox has been wedged at its cap
      // past the stall grace period. Acks are cumulative, so a transient
      // buffer_full just skips this ack — the next sweep retries against
      // an outbox the writable pump has meanwhile drained. Only a peer
      // that stays wedged (or a dead socket) is dropped; the EXS's
      // reconnect + replay recovers cleanly.
      BRISK_LOG_WARN << "batch_ack to node " << conn.node
                     << " failed: " << st.to_string();
      failed.push_back(fd);
    }
  }
  for (int fd : failed) close_connection(fd);

  // Reader drained-record rates decay by half every period, so placement
  // follows recent traffic and an old burst cannot pin a reader forever.
  if (!reader_rates_.empty()) {
    constexpr TimeMicros kReaderRateDecayPeriod = 1'000'000;
    if (last_reader_decay_us_ == 0) {
      last_reader_decay_us_ = now;
    } else if (now - last_reader_decay_us_ >= kReaderRateDecayPeriod) {
      last_reader_decay_us_ = now;
      // Evaluate on pre-decay rates: a full period's traffic, not half.
      maybe_migrate_connection(now);
      for (double& rate : reader_rates_) rate *= 0.5;
      for (auto& [fd, conn] : connections_) conn.drained_rate *= 0.5;
    }
  }

  // Quarantine expiry: forget sessions whose node never came back.
  for (NodeId node : sessions_.expired(now)) expire_session(node);
}

void Ism::maybe_migrate_connection(TimeMicros now) {
  if (readers_.size() < 2) return;
  constexpr std::size_t kSustainedImbalancePeriods = 3;
  const ReaderImbalance plan =
      plan_reader_migration(reader_rates_, reader_loads_, /*ratio=*/2.0, /*min_rate=*/1.0);
  if (!plan.imbalanced) {
    imbalance_streak_ = 0;
    return;
  }
  if (++imbalance_streak_ < kSustainedImbalancePeriods) return;
  if (last_migration_us_ != 0 && now - last_migration_us_ < config_.ack_period_us) return;
  std::vector<std::pair<int, double>> candidates;
  for (const auto& [fd, conn] : connections_) {
    if (conn.reader_index != plan.from || !conn.lane || conn.closing ||
        conn.migrate_target >= 0) {
      continue;
    }
    candidates.emplace_back(fd, conn.drained_rate);
  }
  if (candidates.size() < 2) return;  // never strip a reader's last connection
  const int fd = pick_connection_to_move(
      candidates, reader_rates_[plan.from] - reader_rates_[plan.to]);
  if (fd < 0) return;
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  it->second.migrate_target = static_cast<int>(plan.to);
  readers_[plan.from]->remove_connection(fd);
  last_migration_us_ = now;
  imbalance_streak_ = 0;
  bump(stats_.reader_migrations);
  flight_.record(sensors::EventKind::reader_migration, it->second.node, plan.to,
                 clock_.now());
  BRISK_LOG_INFO << "migrating fd " << fd << " (node " << it->second.node
                 << ") from reader " << plan.from << " to reader " << plan.to;
}

void Ism::expire_session(NodeId node) {
  sessions_.expire(node, pipeline_->remove_node(node));
  BRISK_LOG_INFO << "session for node " << node << " expired; its pending records drain"
                 << " out of band through shard " << shard_of_node(node, pipeline_->shard_count());
}

void Ism::close_connection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = it->second;

  if (!conn.closing) {
    conn.closing = true;
    if (conn.relay) {
      // A dead relay's last watermark must not gate the merge forever:
      // flush the lane so its queued records drain as the other lanes'
      // watermarks advance. A rejoin resumes it.
      pipeline_->flush_relay_lane(conn.relay_lane);
    }
    if (conn.hello_seen) {
      nodes_.erase(conn.node);
      // Only crashed sessions get the out-of-band drain; a BYE's pending
      // records drain through the sorter, merged with the other nodes.
      if (sessions_.disconnect(conn.node, conn.saw_bye, monotonic_micros()) ==
          SessionTable::Departure::expire_now) {
        expire_session(conn.node);
      }
    }
  }

  if (threaded() && conn.lane && !conn.reader_done) {
    // A reader still polls this fd; closing it now would race. Shut the
    // socket down instead — the reader observes EOF, emits its `closed`
    // event, and the drain path re-enters here with reader_done set. The
    // ordering thread's writable-only watch (if any) goes now: a closing
    // connection's outbox is abandoned, not flushed.
    if (conn.want_writable) {
      (void)loop_->unwatch(fd);
      conn.want_writable = false;
    }
    ::shutdown(fd, SHUT_RDWR);
    return;
  }
  finish_close(fd);
}

void Ism::finish_close(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  // Threaded mode only registers the fd here for write readiness.
  if (!threaded() || it->second.want_writable) (void)loop_->unwatch(fd);
  if (it->second.lane && reader_loads_[it->second.reader_index] > 0) {
    --reader_loads_[it->second.reader_index];
  }
  connections_.erase(it);
  stats_.active_connections.store(connections_.size(), std::memory_order_relaxed);
}

Ism::Connection* Ism::slave(std::size_t index) {
  if (index >= nodes_.size()) return nullptr;
  const auto it = connections_.find(std::next(nodes_.begin(), index)->second);
  return it == connections_.end() ? nullptr : &it->second;
}

TimeMicros Ism::next_wait_us() {
  const TimeMicros now = monotonic_micros();
  TimeMicros due_at = pipeline_due_at_ < 0 ? now + config_.select_timeout_us : pipeline_due_at_;
  // session_sweep's ack cadence: an ack period below the select timeout
  // must not wait for something else to wake the loop.
  for (const auto& [fd, conn] : connections_) {
    if (!conn.hello_seen || conn.closing) continue;
    due_at = std::min(due_at, conn.last_ack_sent_us + sessions_.ack_period(conn.node));
  }
  const TimeMicros due = std::max<TimeMicros>(due_at - now, 0);
  if (due < config_.select_timeout_us) return std::max(due, kMinLoopWaitUs);
  return config_.select_timeout_us;
}

void Ism::send_window_updates() {
  for (auto& [fd, conn] : connections_) {
    if (!conn.hello_seen || conn.closing || !sessions_.regrant_due(conn.node)) continue;
    // A failed update is left to the sweep's next ack, which classifies it
    // (transient buffer_full vs. dead peer).
    (void)send_ack(conn, tp::MsgType::batch_ack);
  }
}

Status Ism::run() {
  Status st = Status::ok();
  while (st && !loop_->stopped()) st = cycle();
  return st;
}

Status Ism::run_for(TimeMicros duration) {
  const TimeMicros deadline = monotonic_micros() + duration;
  while (monotonic_micros() < deadline && !loop_->stopped()) {
    auto polled = loop_->poll_once(std::min(next_wait_us(), deadline - monotonic_micros()));
    if (!polled) return polled.status();
  }
  return Status::ok();
}

Status Ism::cycle() { return loop_->poll_once(next_wait_us()).status(); }

Status Ism::drain() {
  drain_ingest();
  // A final snapshot so short-lived runs (and tests) always observe at
  // least one set of metrics records, independent of interval timing.
  if (config_.metrics_interval_us > 0) emit_metrics_snapshot();
  Status st = pipeline_->drain();
  if (!st) return st;
  // drain(), not flush(): sinks with deferred work (the consumer gateway's
  // aggregation windows and TCP fan-out queues) complete it now.
  return output_->drain();
}

// ---- SocketSyncTransport ----------------------------------------------------

std::size_t Ism::SocketSyncTransport::slave_count() const noexcept {
  return ism_.nodes_.size();
}

Result<clk::PollSample> Ism::SocketSyncTransport::poll(std::size_t index) {
  Connection* conn = ism_.slave(index);
  if (!conn) return Status(Errc::not_found, "no such slave");
  const int fd = conn->socket.fd();

  const std::uint32_t request_id = ism_.next_request_id_++;
  if (ism_.next_request_id_ == 0) ism_.next_request_id_ = 1;

  ByteBuffer out;
  xdr::Encoder enc(out);
  tp::put_type(tp::MsgType::time_req, enc);
  tp::encode_time_req({request_id}, enc);

  clk::PollSample sample;
  sample.local_send = ism_.clock_.now();
  Status st = ism_.send_frame(*conn, out.view());
  if (!st) return st;

  // Wait for the matching TIME_RESP on this connection, dispatching any
  // data frames that precede it in the stream.
  ism_.pending_poll_request_ = request_id;
  ism_.pending_poll_answered_ = false;
  const TimeMicros deadline = monotonic_micros() + ism_.config_.sync_poll_timeout_us;
  Status wait_status = Status::ok();
  while (!ism_.pending_poll_answered_) {
    TimeMicros remaining = deadline - monotonic_micros();
    if (remaining <= 0) {
      wait_status = Status(Errc::timeout, "time poll timed out");
      break;
    }
    // The TIME_REQ (or part of it) may still sit in the outbox if the
    // socket was full; keep pumping, and keep the wait short until it is
    // fully on the wire.
    ism_.on_connection_writable(fd);
    if (auto pending = ism_.connections_.find(fd);
        pending != ism_.connections_.end() && !pending->second.outbox.empty()) {
      remaining = std::min<TimeMicros>(remaining, 10'000);
    }
    // One wait: on the connection itself inline, on the readers' wakeup
    // pipes when threaded (the response arrives through the fd's reader).
    std::vector<pollfd> wait_fds;
    if (ism_.threaded()) {
      for (auto& reader : ism_.readers_) wait_fds.push_back({reader->wakeup_fd(), POLLIN, 0});
    } else {
      wait_fds.push_back({fd, POLLIN, 0});
    }
    const int ready =
        ::poll(wait_fds.data(), wait_fds.size(), static_cast<int>((remaining + 999) / 1'000));
    if (ready < 0) {
      if (errno == EINTR) continue;
      wait_status = Status(Errc::io_error, "poll during time poll");
      break;
    }
    if (ism_.threaded()) {
      for (auto& reader : ism_.readers_) reader->drain_wakeup();
      ism_.drain_ingest();
    } else if (ready > 0) {
      ism_.on_connection_readable(fd);
    }
    auto alive = ism_.connections_.find(fd);
    if (alive == ism_.connections_.end() || alive->second.closing) {
      wait_status = Status(Errc::closed, "connection died during poll");
      break;
    }
  }
  ism_.pending_poll_request_ = 0;
  if (!wait_status) return wait_status;

  sample.local_recv = ism_.clock_.now();
  sample.remote_time = ism_.pending_poll_slave_time_;
  return sample;
}

Status Ism::SocketSyncTransport::adjust(std::size_t index, TimeMicros delta) {
  Connection* conn = ism_.slave(index);
  if (!conn) return Status(Errc::not_found, "no such slave");
  ByteBuffer out;
  xdr::Encoder enc(out);
  tp::put_type(tp::MsgType::adjust, enc);
  tp::encode_adjust({delta}, enc);
  return ism_.send_frame(*conn, out.view());
}

}  // namespace brisk::ism
