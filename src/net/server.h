// Copyright 2026 The vfps Authors.
// TCP server exposing a Broker over the line protocol of protocol.h. This
// reproduces the paper's deployment: "The publish/subscribe system runs as
// a process on this workstation waiting for subscriptions and events to
// process" (Section 6.1), with workload generators connecting as clients.
//
// Architecture (see docs/PROTOCOL.md and docs/CONCURRENCY.md):
//
//   event loop (RunOnce/RunUntilStopped caller)        match worker (1 thread)
//   ------------------------------------------        -----------------------
//   epoll wait, O(ready) dispatch                      owns the Broker and all
//   nonblocking accept + read                          per-connection protocol
//   frames complete lines    ── lines job ──────────▶  state; runs every verb
//   applies posted results  ◀── results + wake pipe ── in connection FIFO order
//   vectored writev flush, slow-consumer cap,          formats each fan-out
//   deadline-heap idle reap                            payload exactly once
//
// A lines job carries one buffer: every complete line a read round framed,
// '\n'-terminated, with the partial tail left in the connection's
// LineBuffer. The worker splits it into string_views and handles each in
// place; only PUBBATCH payload that spans jobs is copied again.
//
// The loop never parses or matches; the worker never touches a socket. The
// two meet at a small result queue (LockRank::kNetResults) plus the wake
// pipe. EVENT fan-out is zero-copy: the worker renders one refcounted
// payload per event and emits per-subscriber (header, payload-ref) pairs;
// the loop queues the shared buffer on every recipient and flushes with
// writev. Stop() is safe from any thread (release/acquire stop flag +
// self-pipe wakeup). Under VFPS_DEBUG_INVARIANTS, RunOnce and the worker
// jobs each open a VFPS_SERIAL_SCOPE (src/util/sync.h) on their own
// checker: two threads driving either side abort with both entry points
// named.
//
// The server runs on Linux only: readiness comes from a level-triggered
// epoll instance, and Start() fails if the kernel refuses one.

#ifndef VFPS_NET_SERVER_H_
#define VFPS_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/line_buffer.h"
#include "src/net/protocol.h"
#include "src/pubsub/broker.h"
#include "src/telemetry/metrics.h"
#include "src/util/status.h"
#include "src/util/sync.h"
#include "src/util/match_worker.h"
#include "src/util/timer.h"

namespace vfps {

namespace net_internal {
class Poller;
}  // namespace net_internal

/// Server configuration.
struct ServerOptions {
  /// Address to bind; loopback by default (the paper's co-located setup).
  std::string bind_address = "127.0.0.1";
  /// Port to bind; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Matching algorithm of the underlying broker.
  Algorithm algorithm = Algorithm::kDynamic;
  /// Store published events for late subscribers.
  bool store_events = true;
  /// Connections beyond this are refused.
  size_t max_connections = 64;
  /// Connections idle for longer than this (no bytes received) are reaped.
  /// 0 disables idle reaping. Expiry is tracked in a deadline heap, so the
  /// reap cost is O(expiring), not O(connections), and the loop's wait
  /// timeout is clamped to the next deadline.
  int idle_timeout_ms = 0;
  /// A connection whose queued outbound bytes exceed this is a slow
  /// consumer (it is not draining its EVENT pushes) and is disconnected
  /// rather than allowed to buffer without bound. 0 = unlimited.
  size_t max_write_queue_bytes = 8u << 20;
  /// Overload shedding: once the total queued outbound bytes across all
  /// connections (the publish backlog waiting to drain) pass this
  /// high-water mark, PUB/PUBBATCH requests are rejected with a structured
  /// "ERR BUSY ..." until the backlog drains below it. 0 disables
  /// shedding. Subscriptions and admin verbs are never shed.
  size_t busy_high_water_bytes = 0;
};

/// The publish/subscribe network server.
class PubSubServer {
 public:
  explicit PubSubServer(ServerOptions options = {});
  ~PubSubServer();

  PubSubServer(const PubSubServer&) = delete;
  PubSubServer& operator=(const PubSubServer&) = delete;

  /// Binds, listens and creates the epoll instance. Fails if the address
  /// is unavailable or epoll_create1 fails.
  Status Start();

  /// The bound port (valid after Start; useful with port 0).
  uint16_t port() const { return port_; }

  /// Processes pending I/O, waiting up to `timeout_ms` for activity.
  /// Returns the number of protocol requests whose results were applied
  /// this round (request execution completes asynchronously on the match
  /// worker, so a request read in round N is typically counted in N+1).
  Result<int> RunOnce(int timeout_ms);

  /// Loops RunOnce until Stop() is called, then quiesces the worker.
  void RunUntilStopped();

  /// Requests the loop to exit; safe from any thread.
  void Stop();

  /// Whether Stop() has been requested (for callers driving RunOnce
  /// themselves, e.g. to interleave periodic metric dumps).
  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// Blocks until every request handed to the match worker so far has
  /// finished executing. Callers that drive RunOnce themselves call this
  /// before reading broker state directly (the loop's own RunUntilStopped
  /// quiesces on exit).
  void Quiesce();

  /// The broker behind the wire (test/diagnostic access). The match worker
  /// owns it while the server runs: only touch it after Stop() + Quiesce()
  /// (or destruction of the serving thread).
  Broker& broker() { return broker_; }

  /// Live client connections.
  size_t connection_count() const {
    // sync-relaxed-ok: monotone-ish gauge read; no data is published
    // through this counter.
    return conn_count_.load(std::memory_order_relaxed);
  }

  /// The server's telemetry registry (matcher + broker + server
  /// instruments; see docs/OBSERVABILITY.md).
  MetricsRegistry& metrics() { return metrics_; }

  /// Renders the registry. These are what the METRICS verb answers with;
  /// exposed for in-process use (tools dumping periodic snapshots, tests).
  /// Thread-safe: the export runs as a job on the match worker (so its
  /// gauge callbacks never race request execution) and the caller blocks
  /// until it completes.
  std::string ExportMetricsJson();
  std::string ExportMetricsProm();

 private:
  /// One queued slice of outbound bytes. EVENT fan-out payloads are shared
  /// between every recipient's queue (formatted once, refcounted);
  /// response text is sealed from the connection's open tail.
  struct OutChunk {
    std::shared_ptr<const std::string> data;
    size_t offset = 0;
  };

  /// Loop-owned per-connection state: socket, inbound reassembly, and the
  /// outbound chunk queue. The protocol state (subscriptions, PUBBATCH
  /// collection) lives worker-side in WorkerConn.
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    LineBuffer in;
    /// Sealed outbound slices, flushed with writev.
    std::deque<OutChunk> chunks;
    /// Open text accumulation (responses, EVENT headers, small payloads);
    /// sealed into a chunk before each flush.
    std::string tail;
    /// tail + unsent chunk bytes (the slow-consumer cap input).
    size_t out_bytes = 0;
    /// Lines jobs submitted but not yet result-applied (backpressure).
    int inflight = 0;
    /// Read interest dropped while inflight is at the cap.
    bool stalled = false;
    /// Poller interest currently registered (to elide redundant Mods).
    bool want_read = true;
    bool want_write = false;
    /// Socket-level death (EOF, read error, POLLERR/HUP).
    bool io_dead = false;
    /// Worker asked for a close (failpoint close); applied end of round.
    bool doomed = false;
    /// Deduplicates this round's end-of-round processing list.
    bool touched = false;
    /// Reset whenever bytes arrive; drives idle reaping.
    Timer idle;
  };

  /// Worker-owned per-connection protocol state (only ever touched from
  /// match-worker jobs; scoped by worker_serial_).
  struct WorkerConn {
    uint64_t id = 0;
    std::vector<SubscriptionId> subs;  // owned subscriptions
    /// PUBBATCH collection state: when nonzero, the next lines on this
    /// connection are event texts, not requests.
    size_t batch_expected = 0;
    size_t batch_received = 0;
    /// Payload lines received in earlier jobs, '\n'-terminated as they
    /// arrived (empty while the whole batch sits in the running job).
    std::string batch_text;
    /// The in-flight PUBBATCH was accepted into collection while the
    /// server was shedding: its payload is drained (framing stays intact)
    /// but answered with ERR BUSY instead of being published.
    bool batch_shed = false;
    /// Set by handlers that must drop the connection (failpoint close).
    bool doomed = false;
    /// Index into the running job's ops of this connection's open text op,
    /// valid only while op_epoch matches the server's job_epoch_ (so no
    /// per-job reset sweep is needed). Fan-out appends resolve through
    /// this instead of a map lookup per delivery.
    size_t open_op = 0;
    uint64_t op_epoch = 0;
  };

  /// One outbound emission from the worker: raw text appended to the
  /// recipient's tail, plus an optional shared fan-out payload.
  struct OutputOp {
    uint64_t conn = 0;
    std::string text;
    std::shared_ptr<const std::string> payload;
  };

  /// What one lines job hands back to the loop.
  struct JobResult {
    uint64_t origin = 0;
    int handled = 0;
    bool doom_origin = false;
    std::vector<OutputOp> ops;
  };

  /// Cached instrument pointers (resolved once at construction).
  struct RequestInstruments {
    Counter* count = nullptr;
    Histogram* latency_ns = nullptr;
  };
  struct Telemetry {
    Counter* requests = nullptr;
    Counter* request_errors = nullptr;
    Counter* connections_accepted = nullptr;
    Counter* connections_refused = nullptr;
    Counter* connections_closed = nullptr;
    Counter* connections_reaped = nullptr;
    Counter* slow_consumer_disconnects = nullptr;
    Counter* shed_publishes = nullptr;
    // vfps_net_* event-loop instruments (docs/OBSERVABILITY.md).
    Histogram* wait_ns = nullptr;
    Histogram* dispatch_ns = nullptr;
    Histogram* writev_iovecs = nullptr;
    Histogram* flush_bytes = nullptr;
    Histogram* read_bytes = nullptr;
    Counter* payloads_formatted = nullptr;
    Counter* payload_refs = nullptr;
    Counter* jobs = nullptr;
    Counter* backpressure_stalls = nullptr;
    RequestInstruments per_kind[Request::kNumKinds];
  };

  // --- event-loop side (RunOnce caller thread; scoped by serial_) ------------

  void AcceptPending();
  /// Drains readable bytes into the line buffer and submits one lines job
  /// carrying every complete line. Sets io_dead on EOF/error.
  void ReadConnection(Connection* conn);
  void SubmitLines(Connection* conn, std::string block);
  /// Applies every posted JobResult: queues output, dooms connections,
  /// releases inflight slots. Accumulates into `handled` and touched_.
  void ApplyResults(int* handled);
  /// Seals the open tail into a chunk (no-op when empty).
  void SealTail(Connection* conn);
  /// Writes as much of the chunk queue as the socket accepts, batching up
  /// to kMaxFlushIovecs slices per writev. Returns false if the
  /// connection died.
  bool FlushWrites(Connection* conn);
  /// Re-registers poller interest to match the connection's state.
  void UpdateInterest(Connection* conn);
  void Touch(Connection* conn);
  void CloseConnection(uint64_t key);
  void ReapIdleConnections();
  /// The wait timeout clamped to the next idle-reap deadline.
  int EffectiveTimeout(int timeout_ms) const;
  void DrainWakePipe();

  // --- match-worker side (jobs on worker_; scoped by worker_serial_) ---------

  WorkerConn* WorkerConnFor(uint64_t id);
  /// Handles every line of `block` (see LineBuffer::TakeLines) in order.
  void RunLinesJob(uint64_t id, std::string block);
  void RunCloseJob(uint64_t id);
  /// Takes PUBBATCH payload lines off the front of `*block` for `wc`'s
  /// open batch, and publishes the batch once it is complete. Returns 1 if
  /// that finished a request.
  int CollectBatch(WorkerConn* wc, std::string_view* block);
  /// Handles one request line; returns 1 if a request was processed.
  int HandleLine(WorkerConn* wc, std::string_view line);
  /// Executes one parsed request (responses emitted as OutputOps).
  void DispatchRequest(WorkerConn* wc, const Request& request);
  /// Parses + publishes a completed PUBBATCH collection (`payload`: its
  /// batch_expected '\n'-terminated lines) and emits the "OK <n>" +
  /// per-event payload reply.
  int FinishPublishBatch(WorkerConn* wc, std::string_view payload);
  /// The open (payload-free) OutputOp text for `wc`, creating one if the
  /// connection's most recent op this job carries a payload (or none
  /// exists). Consecutive emissions for one connection coalesce into a
  /// single op — under fan-out this collapses per-delivery op overhead
  /// into one op per recipient per job.
  std::string& OpenTextFor(WorkerConn* wc);
  /// Emits `line` + '\n' for `wc` (tracking the global backlog).
  void EmitLine(WorkerConn* wc, std::string_view line);
  /// Emits raw pre-framed bytes (multi-line PROM export).
  void EmitRaw(WorkerConn* wc, std::string text);
  /// Emits an ERR response and counts it.
  void EmitErr(WorkerConn* wc, std::string_view message);
  /// Emits one EVENT push: per-subscriber header + the shared payload for
  /// this event (formatted once per event per job). Small payloads are
  /// appended into the recipient's open op; large ones ride as a
  /// refcounted chunk shared across all recipients. `wc` is the stable
  /// worker_conns_ node captured by the subscription handler.
  void EmitEvent(WorkerConn* wc, const Notification& n);
  /// Forgets the cached payload; called before every broker call that can
  /// notify (an address may be reused by a later call's event).
  void ResetPayloadCache();
  /// Executes the FAILPOINT admin verb (or reports it compiled out).
  void HandleFailPoint(WorkerConn* wc, std::string_view args);
  /// Bytes the PUBBATCH scratch holds: the kept events' storage, the
  /// slot outcomes, and every connection's payload copied across jobs.
  size_t BatchScratchBytes() const;
  /// Whether PUB/PUBBATCH should currently be shed with ERR BUSY. Reads
  /// the backlog ledger the worker itself advances at emit time, so a
  /// pipelined publish sees the bytes its predecessor queued even before
  /// the loop flushes them.
  bool ShedPublishes() const;
  /// Posts the finished result and wakes the loop.
  void PostResult(JobResult result);
  std::string ExportViaWorker(bool json);

  // --- shared byte ledger ----------------------------------------------------

  void AddOutBytes(size_t n) {
    // Byte ledger feeding the BUSY shed heuristic and a gauge; op
    // payloads are published through results_mu_, never through this
    // counter. sync-relaxed-ok: heuristic ledger, no data published.
    total_out_bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  void SubOutBytes(size_t n) {
    // sync-relaxed-ok: see AddOutBytes.
    total_out_bytes_.fetch_sub(n, std::memory_order_relaxed);
  }
  size_t OutBytes() const {
    // sync-relaxed-ok: heuristic/gauge read; see AddOutBytes.
    return total_out_bytes_.load(std::memory_order_relaxed);
  }

  ServerOptions options_;
  // Declared before broker_: the broker registers gauges on the registry at
  // construction, so the registry must outlive it.
  MetricsRegistry metrics_;
  Telemetry telemetry_;
  Broker broker_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  /// Cross-thread stop request (release store in Stop, acquire loads in
  /// the loop).
  std::atomic<bool> stop_{false};

  /// Debug-build guards: the event loop runs on one thread, worker jobs on
  /// another; each side is serial with itself.
  SerialChecker serial_;
  SerialChecker worker_serial_;

  // --- loop-owned state (only touched under serial_) -------------------------

  std::unique_ptr<net_internal::Poller> poller_;
  /// Live connections keyed by their (never reused) poller key.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_key_ = 2;  // 0 = listen socket, 1 = wake pipe
  /// Connections needing end-of-round processing (flush/close), in the
  /// order they were touched (deterministic failpoint accounting).
  std::vector<uint64_t> touched_;
  /// Min-heap of (deadline ms, connection key) driving idle reaping; lazy:
  /// stale entries re-push at the connection's true deadline.
  std::priority_queue<std::pair<int64_t, uint64_t>,
                      std::vector<std::pair<int64_t, uint64_t>>,
                      std::greater<std::pair<int64_t, uint64_t>>>
      idle_heap_;

  // --- worker-owned state (only touched under worker_serial_) ----------------

  std::unordered_map<uint64_t, WorkerConn> worker_conns_;
  /// Fan-out payload dedup. The broker notifies every recipient of one
  /// event before moving to the next, so a one-entry cache shares the
  /// rendered body across them. It is keyed by the event's address, which
  /// is unique among the events of one broker call, and cleared before
  /// each such call (ResetPayloadCache). Event ids are no key: without an
  /// event store every id is 0.
  const Event* last_event_ = nullptr;
  std::shared_ptr<const std::string> last_payload_;
  /// Monotone job counter validating WorkerConn::op_epoch (starts at 1 so
  /// a fresh WorkerConn's epoch 0 never matches).
  uint64_t job_epoch_ = 1;
  /// The result under construction for the running job.
  JobResult* cur_result_ = nullptr;
  /// PUBBATCH scratch kept across batches, so a steady stream of batches
  /// parses into events whose storage is already allocated: the parsed
  /// events (valid slots only, in order) and each slot's parse outcome.
  std::vector<Event> batch_events_;
  std::vector<Status> batch_status_;
  /// Backlog bytes and payload refs accumulated since the last flush into
  /// the shared atomics/counters (flushed per request line, so the BUSY
  /// shed check still sees a pipelined predecessor's bytes; spares the
  /// fan-out path an atomic RMW per delivery).
  size_t pending_out_bytes_ = 0;
  uint64_t pending_payload_refs_ = 0;

  // --- cross-thread handoff --------------------------------------------------

  Mutex results_mu_{LockRank::kNetResults, "net_results"};
  std::vector<JobResult> results_ VFPS_GUARDED_BY(results_mu_);

  // --- shared atomics --------------------------------------------------------

  /// Sum of queued outbound bytes across all connections: advanced by the
  /// worker at emit time, retired by the loop at write/close time. Feeds
  /// the vfps_server_out_queue_bytes gauge and the BUSY shedding decision.
  std::atomic<size_t> total_out_bytes_{0};
  /// Live connection count (loop writes, gauges read).
  std::atomic<size_t> conn_count_{0};

  /// The match worker. Declared last, after everything its jobs touch, and
  /// shut down first in the destructor.
  MatchWorker worker_;
};

}  // namespace vfps

#endif  // VFPS_NET_SERVER_H_
