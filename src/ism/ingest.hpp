// ISM ingest: socket bytes → IngestEvents, and the reader threads that can
// take that work off the ordering thread.
//
// One IngestDecoder per connection reads the socket, reassembles frames and
// decodes DATA batches (the CPU-heavy XDR work). With reader_threads == 0
// the ordering thread runs it and handles each event at once; otherwise
// each ReaderThread owns a net::Poller, services a share of the accepted
// EXS connections and runs their decoders off the ordering thread. Decoded
// events flow to the ordering thread through one bounded SPSC lane per
// connection, so per-connection FIFO — the property the whole transfer
// protocol rests on ("the in-order arrival of these batches is guaranteed
// by the socket stream protocol") — is preserved by construction. The
// ordering thread keeps everything that defines ISM semantics: session
// state, batch admission, the CRE switch, the on-line sorter, clock sync,
// and the sinks.
//
// Backpressure instead of allocation: when a lane fills, the reader stops
// reading that one socket (TCP flow control pushes back to the EXS) and
// resumes when the ordering thread has drained the lane.
//
// Ownership protocol for a connection's fd:
//  * the ordering thread owns the socket (and all writes to it),
//  * the reader borrows the fd for reads between add_connection() and the
//    `closed` event it emits,
//  * the ordering thread closes the fd only after consuming that `closed`
//    event — to force one, it shutdown(2)s the socket and lets the reader
//    observe EOF. No fd is ever closed while the reader still polls it.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/spsc_queue.hpp"
#include "net/frame.hpp"
#include "net/poller.hpp"
#include "net/wakeup.hpp"
#include "tp/batch.hpp"

namespace brisk::ism {

/// One unit of work handed from a reader thread to the ordering thread.
struct IngestEvent {
  enum class Kind {
    frame,    // a non-batch frame payload, dispatched by the ordering thread
    batch,    // a DATA batch, already decoded on the reader thread
    closed,   // the connection is done (EOF, error, or malformed stream)
    released, // the reader gave the fd back (remove_connection); it emits
              // this *after* every earlier event, so re-adding the fd to
              // another reader cannot reorder the connection's stream
  };
  Kind kind = Kind::frame;
  int fd = -1;
  // No receive timestamp here: the ordering thread stamps events with its
  // own clock as it drains them, so ManualClock-driven tests stay coherent.
  std::size_t wire_bytes = 0;  // socket bytes consumed since the last event
  ByteBuffer payload;           // kind == frame
  tp::Batch batch;              // kind == batch
  Status error = Status::ok();  // kind == closed; ok = orderly EOF
};

/// One connection's inbound stream → IngestEvents: frame reassembly plus
/// DATA batch decoding. Control frames pass through as raw payloads; the
/// ordering thread owns their semantics.
class IngestDecoder {
 public:
  /// The next event on `fd`: a decoded batch, a raw frame, or — on EOF, a
  /// read error or a malformed stream — `closed`, the last event. Reads the
  /// socket only when no complete frame is buffered; nullopt once it would
  /// block.
  std::optional<IngestEvent> next(int fd);
  /// Socket bytes read but not yet carried by an event.
  std::size_t take_unattributed_bytes() noexcept { return std::exchange(unattributed_bytes_, 0); }

 private:
  net::FrameReader frames_;
  std::size_t unattributed_bytes_ = 0;
  /// The last read came back short, so the socket is empty: the next
  /// call reports would-block without another read(2).
  bool socket_drained_ = false;
};

/// Per-connection SPSC handoff lane. The assigned reader thread is the only
/// producer, the ordering thread the only consumer.
struct IngestLane {
  explicit IngestLane(std::size_t depth) : queue(depth) {}
  SpscQueue<IngestEvent> queue;
  /// Set by the reader when the lane filled and it paused reading the
  /// socket; cleared by the ordering thread, which then resume()s the fd.
  std::atomic<bool> stalled{false};
};

struct ReaderConfig {
  net::PollerBackend poller = net::PollerBackend::select;
  std::size_t lane_depth = 1024;        // IngestEvents buffered per connection
  TimeMicros poll_timeout_us = 10'000;  // reader poll cycle
};

/// Accept-time placement: the reader with the lowest drained-record rate
/// wins; connection counts only break rate ties (then lowest index, so
/// placement stays deterministic). Connection counts alone misplace badly
/// when traffic is skewed — one firehose node outweighs any number of idle
/// connections, and the decayed record rate is what measures that. Among
/// equally idle readers this is least-connections placement, which keeps
/// the pool balanced under churn where round-robin lets one reader end up
/// owning most of the long-lived survivors.
std::size_t least_loaded_reader(const std::vector<double>& rates,
                                const std::vector<std::size_t>& connections) noexcept;

/// One evaluation of the reader pool's balance (pure; unit-testable).
struct ReaderImbalance {
  bool imbalanced = false;  // one decay period's worth of >ratio skew
  std::size_t from = 0;     // busiest reader (valid when imbalanced)
  std::size_t to = 0;       // idlest reader
};

/// Detects a migration-worthy imbalance: the busiest reader's decayed
/// drained-record rate exceeds `ratio` times the idlest's, the busiest rate
/// is at least `min_rate` (near-zero noise must not trigger moves), and the
/// busiest reader has at least two connections (moving its only one would
/// just relocate the hot spot). Ties resolve to the lowest index, so the
/// decision is deterministic. The caller requires the imbalance to be
/// *sustained* — consecutive imbalanced evaluations across decay periods —
/// before acting, and moves at most one connection per ack period.
ReaderImbalance plan_reader_migration(const std::vector<double>& rates,
                                      const std::vector<std::size_t>& connections,
                                      double ratio, double min_rate) noexcept;

/// Picks which connection to move off the overloaded reader: the candidate
/// (fd, decayed rate) whose rate is closest to half the reader rate gap —
/// moving it levels the two readers as nearly as possible without
/// overshooting and oscillating. Candidates with zero rate are skipped
/// (moving an idle fd fixes nothing); returns -1 when none qualify.
int pick_connection_to_move(const std::vector<std::pair<int, double>>& candidates,
                            double rate_gap) noexcept;

class ReaderThread {
 public:
  /// Creates the wakeup plumbing and starts the thread.
  static Result<std::unique_ptr<ReaderThread>> start(const ReaderConfig& config);

  ~ReaderThread();
  ReaderThread(const ReaderThread&) = delete;
  ReaderThread& operator=(const ReaderThread&) = delete;

  // ---- ordering-thread side -------------------------------------------------

  /// Hands a non-blocking fd to this reader. Events appear on `lane`.
  void add_connection(int fd, std::shared_ptr<IngestLane> lane);
  /// Takes the fd away again (rebalancing): the reader stops polling it and
  /// emits a `released` event behind everything it already produced. The
  /// ordering thread re-adds the fd to the target reader only after it has
  /// consumed that event, so per-connection FIFO survives the move.
  void remove_connection(int fd);
  /// Un-stalls a connection whose lane has space again.
  void resume(int fd);
  /// Readable whenever events may be pending; watch it in the ordering
  /// thread's poller and drain_wakeup() + drain the lanes on readiness.
  [[nodiscard]] int wakeup_fd() const noexcept { return to_ordering_.fd(); }
  void drain_wakeup() noexcept { to_ordering_.drain(); }

  void stop_and_join();

 private:
  struct ConnState {
    std::shared_ptr<IngestLane> lane;
    IngestDecoder decoder;
    /// Events produced while the lane was full; drained before any new read.
    std::deque<IngestEvent> backlog;
    bool stalled = false;
    bool closed = false;    // closed event emitted; fd no longer polled
    bool released = false;  // released event emitted; never re-watch here
  };

  struct Command {
    enum class Kind { add, resume, remove } kind = Kind::add;
    int fd = -1;
    std::shared_ptr<IngestLane> lane;
  };

  ReaderThread(const ReaderConfig& config, net::WakeupPipe to_reader,
               net::WakeupPipe to_ordering);

  void run();
  void apply_commands();
  void on_readable(int fd);
  void emit(ConnState& conn, IngestEvent event);
  /// Moves backlog into the lane; false if the lane filled again.
  bool flush_backlog(ConnState& conn);
  void stall(ConnState& conn, int fd);
  /// Emits the decoder's `closed` event and stops polling the fd.
  void finish(ConnState& conn, int fd, IngestEvent closed);
  void erase_if_done(int fd);

  ReaderConfig config_;
  std::unique_ptr<net::Poller> poller_;
  net::WakeupPipe to_reader_;    // ordering → reader (commands, stop)
  net::WakeupPipe to_ordering_;  // reader → ordering (events pending)
  std::mutex command_mutex_;
  std::vector<Command> commands_;
  std::map<int, ConnState> conns_;
  bool pushed_events_ = false;  // events emitted this poll cycle
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace brisk::ism
