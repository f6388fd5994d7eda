#include "ism/session_table.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "ism/ism.hpp"

namespace brisk::ism {
namespace {

/// How far a grant must be able to widen before a drain triggers a window
/// update: a quarter window, at least one record.
std::uint64_t regrant_step(std::uint64_t window) { return std::max<std::uint64_t>(window / 4, 1); }

std::uint64_t backlog_of(std::uint64_t admitted, const SessionTable::DrainedCell& cell) {
  const std::uint64_t drained = cell ? cell->drained.load(std::memory_order_relaxed) : 0;
  return admitted > drained ? admitted - drained : 0;
}

bool node_less(const std::pair<NodeId, SessionTable::DrainedCell>& entry, NodeId node) {
  return entry.first < node;
}

}  // namespace

SessionTable::Hello SessionTable::hello(NodeId node, std::uint64_t incarnation,
                                        std::uint32_t version, bool relay) {
  auto [it, fresh] = sessions_.try_emplace(node);
  NodeSession& session = it->second;
  if (fresh || session.incarnation != incarnation) {
    // New node, or the EXS process restarted: its batch_seq starts over at
    // zero, so the cursor must too (the quarantined queue of a previous
    // incarnation, if any, stays and drains normally).
    session = NodeSession{};
    session.incarnation = incarnation;
    BRISK_LOG_INFO << "node " << node << " connected (incarnation " << incarnation << ")";
  } else {
    bump(counters_.rejoins);
    flight_.record(sensors::EventKind::session_rejoined, node, session.next_batch_seq,
                   clock_.now());
    BRISK_LOG_INFO << "node " << node << " rejoined at batch seq " << session.next_batch_seq;
  }
  session.disconnected_at.reset();
  session.hole_since.reset();
  session.credited =
      config_.credit_window_records > 0 && version >= tp::kCreditProtocolVersion;
  // A relay's cell is bumped by the merge as it releases lane records, which
  // carry origin node ids: the per-node map would never find it.
  if (relay ? !session.relay_lane : session.credited && !session.records_drained) {
    session.records_drained = std::make_shared<DrainCell>(on_regrant_);
    if (!relay) set_drained(node, session.records_drained);
  }
  return Hello{session.relay_lane, session.records_drained};
}

void SessionTable::bind_relay_lane(NodeId node, std::size_t lane) {
  if (auto it = sessions_.find(node); it != sessions_.end()) it->second.relay_lane = lane;
}

bool SessionTable::admit(NodeId node, std::uint32_t seq, std::uint64_t ring_dropped_total,
                         TimeMicros now) {
  const auto it = sessions_.find(node);
  if (it == sessions_.end()) return false;
  NodeSession& session = it->second;
  if (seq < session.next_batch_seq) {
    // Already applied — a replay after a reconnect, or a duplicated frame.
    bump(counters_.duplicate_batches_dropped);
    return false;
  }
  if (seq > session.next_batch_seq) {
    // A batch went missing in flight. Go-back-N: drop everything above the
    // hole and let the stuck ack cursor trigger the EXS's resend.
    if (!session.hole_since) {
      session.hole_since = now;
      session.lowest_pending_seq = seq;
    } else {
      session.lowest_pending_seq = std::min(session.lowest_pending_seq, seq);
    }
    bump(counters_.out_of_order_batches_dropped);
    if (config_.gap_skip_timeout_us <= 0 ||
        now - *session.hole_since < config_.gap_skip_timeout_us) {
      return false;
    }
    // The resend never came: the EXS evicted the missing batches from its
    // replay buffer. Jump to the lowest batch still on offer.
    bump(counters_.batch_seq_gaps);
    flight_.record(sensors::EventKind::batch_gap, node,
                   session.lowest_pending_seq - session.next_batch_seq, clock_.now());
    BRISK_LOG_WARN << "node " << node << " declaring batch gap: " << session.next_batch_seq
                   << ".." << session.lowest_pending_seq - 1;
    session.next_batch_seq = session.lowest_pending_seq;
    session.hole_since.reset();
    if (seq != session.next_batch_seq) return false;
  }
  session.next_batch_seq = seq + 1;
  session.hole_since.reset();
  if (ring_dropped_total >= session.ring_dropped_total) {
    bump(counters_.ring_drops_reported, ring_dropped_total - session.ring_dropped_total);
    session.ring_dropped_total = ring_dropped_total;
  }
  return true;
}

bool SessionTable::admitted(NodeId node, std::uint64_t records) {
  const auto it = sessions_.find(node);
  if (it == sessions_.end()) return false;
  NodeSession& session = it->second;
  session.records_admitted += records;
  const std::uint64_t threshold = std::max<std::uint64_t>(config_.credit_window_records / 2, 1);
  if (!session.credited) return false;
  arm(session);
  if (session.records_admitted - session.admitted_at_last_ack < threshold) return false;
  bump(counters_.window_update_acks);
  return true;
}

std::uint64_t SessionTable::backlog(NodeId node) const {
  const auto it = sessions_.find(node);
  if (it == sessions_.end()) return 0;
  return backlog_of(it->second.records_admitted, it->second.records_drained);
}

std::optional<tp::HelloAck> SessionTable::ack(NodeId node) {
  const auto it = sessions_.find(node);
  if (it == sessions_.end()) return std::nullopt;
  NodeSession& session = it->second;
  tp::HelloAck ack;
  ack.incarnation = session.incarnation;
  ack.next_expected_seq = session.next_batch_seq;
  if (session.credited) {
    const std::uint64_t window = config_.credit_window_records;
    const std::uint64_t backlog = backlog_of(session.records_admitted, session.records_drained);
    const auto granted = static_cast<std::uint32_t>(window - std::min(window, backlog));
    ack.credit = tp::CreditGrant{session.incarnation, granted, config_.credit_window_bytes};
    session.last_granted_records = granted;
    arm(session);
    bump(counters_.credit_grants_sent);
    if (granted == 0) {
      bump(counters_.zero_window_grants);
      flight_.record(sensors::EventKind::zero_window_grant, node, config_.credit_window_records,
                     clock_.now());
    }
  }
  bump(counters_.acks_sent);
  session.admitted_at_last_ack = session.records_admitted;
  return ack;
}

bool SessionTable::regrant_due(NodeId node) {
  const auto it = sessions_.find(node);
  if (it == sessions_.end() || !it->second.credited) return false;
  const NodeSession& session = it->second;
  const std::uint64_t window = config_.credit_window_records;
  const std::uint64_t headroom =
      window - std::min(window, backlog_of(session.records_admitted, session.records_drained));
  if (headroom < session.last_granted_records + regrant_step(window)) return false;
  bump(counters_.drain_window_updates);
  return true;
}

void SessionTable::arm(NodeSession& session) {
  if (!session.credited || !session.records_drained) return;
  DrainCell& cell = *session.records_drained;
  const std::uint64_t window = config_.credit_window_records;
  const std::uint64_t target = session.last_granted_records + regrant_step(window);
  // window − (admitted − drained) ≥ target  ⇔  drained ≥ admitted + target − window.
  std::uint64_t mark = DrainCell::kNever;
  if (target <= window) {
    const std::uint64_t reach = session.records_admitted + target;
    mark = reach > window ? reach - window : 0;
  }
  cell.regrant_at.store(mark);
  // The drain side may have passed the mark before it was stored.
  if (mark != DrainCell::kNever && cell.drained.load() >= mark && on_regrant_) on_regrant_();
}

TimeMicros SessionTable::ack_period(NodeId node) const {
  const auto it = sessions_.find(node);
  if (it != sessions_.end() && it->second.credited && config_.credit_replenish_us > 0 &&
      config_.credit_replenish_us < config_.ack_period_us &&
      it->second.last_granted_records < config_.credit_window_records) {
    return config_.credit_replenish_us;
  }
  return config_.ack_period_us;
}

SessionTable::Departure SessionTable::disconnect(NodeId node, bool bye, TimeMicros now) {
  const auto it = sessions_.find(node);
  if (it == sessions_.end()) return Departure::forgotten;
  if (bye) {
    sessions_.erase(it);
    set_drained(node, nullptr);
    return Departure::forgotten;
  }
  if (config_.quarantine_timeout_us == 0) return Departure::expire_now;
  it->second.disconnected_at = now;
  it->second.hole_since.reset();
  flight_.record(sensors::EventKind::session_quarantined, node, 0, clock_.now());
  return Departure::quarantined;
}

std::vector<NodeId> SessionTable::expired(TimeMicros now) const {
  std::vector<NodeId> out;
  for (const auto& [node, session] : sessions_) {
    const auto& gone_at = session.disconnected_at;
    if (gone_at && now - *gone_at >= config_.quarantine_timeout_us) out.push_back(node);
  }
  return out;
}

void SessionTable::expire(NodeId node, std::size_t drained) {
  bump(counters_.sessions_expired);
  flight_.record(sensors::EventKind::session_expired, node, drained, clock_.now());
  sessions_.erase(node);
  set_drained(node, nullptr);
}

void SessionTable::set_drained(NodeId node, DrainedCell cell) {
  const auto old = std::atomic_load_explicit(&drained_, std::memory_order_acquire);
  auto next = old ? std::make_shared<DrainedMap>(*old) : std::make_shared<DrainedMap>();
  const auto at = std::lower_bound(next->begin(), next->end(), node, node_less);
  const bool present = at != next->end() && at->first == node;
  if (!cell && !present) return;
  if (!cell) {
    next->erase(at);
  } else if (present) {
    at->second = std::move(cell);
  } else {
    next->emplace(at, node, std::move(cell));
  }
  std::atomic_store_explicit(&drained_, std::shared_ptr<const DrainedMap>(std::move(next)),
                             std::memory_order_release);
  drained_version_.fetch_add(1, std::memory_order_release);
}

void SessionTable::note_records_drained(std::span<const sensors::Record> run) {
  if (config_.credit_window_records == 0) return;
  const std::uint64_t version = drained_version_.load(std::memory_order_acquire);
  if (version != sink_version_) {
    sink_map_ = std::atomic_load_explicit(&drained_, std::memory_order_acquire);
    sink_version_ = version;
    sink_counts_.assign(sink_map_ ? sink_map_->size() : 0, 0);
  }
  if (!sink_map_ || sink_map_->empty()) return;
  const DrainedMap& cells = *sink_map_;
  for (const sensors::Record& record : run) {
    const auto at = std::lower_bound(cells.begin(), cells.end(), record.node, node_less);
    if (at != cells.end() && at->first == record.node) ++sink_counts_[at - cells.begin()];
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (sink_counts_[i] != 0) cells[i].second->note_drained(std::exchange(sink_counts_[i], 0));
  }
}

}  // namespace brisk::ism
