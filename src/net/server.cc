// Copyright 2026 The vfps Authors.

#include "src/net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "src/lang/parser.h"
#include "src/net/protocol.h"
#include "src/util/failpoint.h"
#include "src/util/macros.h"
#include "src/util/timer.h"

namespace vfps {

namespace net_internal {

/// Level-triggered epoll readiness notification: O(ready) dispatch, with
/// the interest set kept in the kernel. Keys are caller-chosen u64s
/// carried back in Ready so the loop never maps fd -> connection itself.
class Poller {
 public:
  struct Ready {
    uint64_t key = 0;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

  /// nullptr (errno set) if the kernel refuses an epoll instance.
  static std::unique_ptr<Poller> Create() {
    int fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (fd < 0) return nullptr;
    return std::unique_ptr<Poller>(new Poller(fd));
  }

  ~Poller() { ::close(epfd_); }

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  bool Add(int fd, uint64_t key, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = Events(want_read, want_write);
    ev.data.u64 = key;
    return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  void Mod(int fd, uint64_t key, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = Events(want_read, want_write);
    ev.data.u64 = key;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
  }

  void Del(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

  /// Waits up to `timeout_ms` (negative = indefinitely) and fills `out`.
  /// Returns the ready count, or -1 with errno set (EINTR included).
  int Wait(int timeout_ms, std::vector<Ready>* out) {
    out->clear();
    epoll_event events[256];
    int n = ::epoll_wait(epfd_, events, 256, timeout_ms);
    if (n < 0) return -1;
    out->reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      Ready ready;
      ready.key = events[i].data.u64;
      ready.readable = (events[i].events & EPOLLIN) != 0;
      ready.writable = (events[i].events & EPOLLOUT) != 0;
      ready.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out->push_back(ready);
    }
    return n;
  }

 private:
  explicit Poller(int epfd) : epfd_(epfd) {}

  static uint32_t Events(bool want_read, bool want_write) {
    // Level-triggered: unconsumed readiness re-reports, so a round that
    // defers work (backpressure stall, dispatch failpoint) loses nothing.
    uint32_t events = 0;
    if (want_read) events |= EPOLLIN;
    if (want_write) events |= EPOLLOUT;
    return events;
  }

  const int epfd_;
};

}  // namespace net_internal

namespace {

constexpr uint64_t kListenKey = 0;
constexpr uint64_t kWakeKey = 1;

/// Slices batched into one writev/sendmsg call.
constexpr int kMaxFlushIovecs = 64;

/// Fan-out payloads smaller than this are copied into the recipient's
/// tail instead of queued as a shared chunk: the payload is still
/// formatted once per event (the zero-copy win), but tiny bodies coalesce
/// into one contiguous slice rather than paying per-chunk bookkeeping.
constexpr size_t kInlinePayloadBytes = 512;

/// The least room a recv gets in a connection's line buffer.
constexpr size_t kMinReadBytes = 4096;

/// The most one read round drains from a connection; level-triggered
/// readiness brings the loop back for the rest. Bounds the line buffer and
/// each job's block (under glibc's mmap threshold, so a pipelined burst
/// leaves no heap behind), and keeps one pipelining client from holding a
/// round.
constexpr size_t kMaxReadRoundBytes = 64 * 1024;

/// PUBBATCH scratch (the parsed events, the slot outcomes, a payload copied
/// across jobs) is kept for the next batch while batches stay this size;
/// a larger batch gives its scratch back when it ends, so one burst does
/// not pin its peak for the server's or the connection's lifetime.
constexpr size_t kKeptBatchPayloadBytes = 64 * 1024;

/// Lines jobs one connection may have in flight before the loop drops its
/// read interest (re-armed as results apply). Bounds per-connection memory
/// against a client that pipelines faster than matching drains.
constexpr int kMaxInflightJobs = 2;

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Lowercase metric-name fragment per request kind (indexed by Kind).
constexpr const char* kKindNames[Request::kNumKinds] = {
    "sub",  "unsub", "pub",      "time",     "stats",
    "metrics", "ping", "pubbatch", "failpoint"};

/// PUBBATCH sizes beyond this are refused (bounds server-side buffering).
constexpr int64_t kMaxPublishBatch = 65536;

/// The structured overload-shedding refusal (docs/ROBUSTNESS.md): clients
/// key retry behavior off the BUSY prefix.
constexpr const char* kBusyMessage =
    "BUSY publish backlog over high-water mark; retry later";

/// Stalls the calling thread for an armed delay failpoint.
void ApplyDelay(const FailPointAction& action) {
  if (action.kind == FailPointAction::Kind::kDelay && action.arg > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(action.arg));
  }
}

}  // namespace

PubSubServer::PubSubServer(ServerOptions options)
    : options_(std::move(options)),
      broker_(BrokerOptions{options_.algorithm, options_.store_events}) {
  broker_.AttachTelemetry(&metrics_);
  telemetry_.requests = metrics_.GetCounter("vfps_server_requests_total");
  telemetry_.request_errors =
      metrics_.GetCounter("vfps_server_request_errors_total");
  telemetry_.connections_accepted =
      metrics_.GetCounter("vfps_server_connections_accepted_total");
  telemetry_.connections_refused =
      metrics_.GetCounter("vfps_server_connections_refused_total");
  telemetry_.connections_closed =
      metrics_.GetCounter("vfps_server_connections_closed_total");
  telemetry_.connections_reaped =
      metrics_.GetCounter("vfps_server_connections_reaped_total");
  telemetry_.slow_consumer_disconnects =
      metrics_.GetCounter("vfps_server_slow_consumer_disconnects_total");
  telemetry_.shed_publishes =
      metrics_.GetCounter("vfps_server_shed_publishes_total");
  telemetry_.wait_ns = metrics_.GetHistogram("vfps_net_wait_ns");
  telemetry_.dispatch_ns = metrics_.GetHistogram("vfps_net_dispatch_ns");
  telemetry_.writev_iovecs =
      metrics_.GetHistogram("vfps_net_writev_iovecs");
  telemetry_.flush_bytes = metrics_.GetHistogram("vfps_net_flush_bytes");
  telemetry_.read_bytes = metrics_.GetHistogram("vfps_net_read_bytes");
  telemetry_.payloads_formatted =
      metrics_.GetCounter("vfps_net_payloads_formatted_total");
  telemetry_.payload_refs =
      metrics_.GetCounter("vfps_net_payload_refs_total");
  telemetry_.jobs = metrics_.GetCounter("vfps_net_jobs_total");
  telemetry_.backpressure_stalls =
      metrics_.GetCounter("vfps_net_backpressure_stalls_total");
  for (size_t k = 0; k < Request::kNumKinds; ++k) {
    const std::string verb = kKindNames[k];
    telemetry_.per_kind[k].count =
        metrics_.GetCounter("vfps_server_" + verb + "_requests_total");
    telemetry_.per_kind[k].latency_ns =
        metrics_.GetHistogram("vfps_server_" + verb + "_ns");
  }
  metrics_.RegisterGauge("vfps_server_connections", [this] {
    return static_cast<int64_t>(connection_count());
  });
  metrics_.RegisterGauge("vfps_server_out_queue_bytes", [this] {
    return static_cast<int64_t>(OutBytes());
  });
  // Exports run on the worker (ExportViaWorker, METRICS), so this reads
  // worker-owned state serially.
  metrics_.RegisterGauge("vfps_net_batch_scratch_bytes", [this] {
    return static_cast<int64_t>(BatchScratchBytes());
  });
  // Reads 0 in builds with failpoints compiled out.
  metrics_.RegisterGauge("vfps_server_failpoint_trips", [] {
    return static_cast<int64_t>(FailPoints::Global().trips());
  });
}

PubSubServer::~PubSubServer() {
  // Drain the worker first: every accepted job (lines, close, export) runs
  // against still-live members before anything below is torn down.
  worker_.Shutdown();
  // Whatever protocol state survived (connections open at destruction, or
  // close jobs rejected during shutdown) is cleaned up inline; the worker
  // is gone, so touching the broker from this thread is serial.
  for (auto& [id, wc] : worker_conns_) {
    for (SubscriptionId sub : wc.subs) (void)broker_.Unsubscribe(sub);
  }
  worker_conns_.clear();
  for (auto& [key, conn] : connections_) ::close(conn->fd);
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

Status PubSubServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) return Errno("listen");
  if (!SetNonBlocking(listen_fd_)) return Errno("fcntl");

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  if (::pipe(wake_pipe_) != 0) return Errno("pipe");
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);

  poller_ = net_internal::Poller::Create();
  if (poller_ == nullptr) return Errno("epoll_create1");
  if (!poller_->Add(listen_fd_, kListenKey, true, false)) {
    return Errno("poller add listen");
  }
  if (!poller_->Add(wake_pipe_[0], kWakeKey, true, false)) {
    return Errno("poller add wake pipe");
  }
  return Status::OK();
}

void PubSubServer::Stop() {
  // Release pairs with the acquire loads in RunUntilStopped and
  // stop_requested(): the write() below is a wakeup, not an ordering
  // mechanism, so the flag itself must carry the happens-before edge.
  stop_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    char byte = 'w';
    // Best effort: a full pipe already guarantees a wakeup.
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void PubSubServer::Quiesce() {
  worker_.Wait();
}

// --- event-loop side ---------------------------------------------------------

void PubSubServer::AcceptPending() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or real error: nothing more to accept now
    }
    const FailPointAction fp = VFPS_FAILPOINT("server.accept");
    if (!fp.off()) {
      ApplyDelay(fp);
      if (fp.kind == FailPointAction::Kind::kError ||
          fp.kind == FailPointAction::Kind::kClose) {
        ::close(fd);
        telemetry_.connections_refused->Inc();
        continue;
      }
    }
    if (connections_.size() >= options_.max_connections) {
      ::close(fd);
      telemetry_.connections_refused->Inc();
      continue;
    }
    SetNonBlocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_key_++;
    conn->fd = fd;
    poller_->Add(fd, conn->id, /*want_read=*/true, /*want_write=*/false);
    if (options_.idle_timeout_ms > 0) {
      idle_heap_.push({NowMs() + options_.idle_timeout_ms, conn->id});
    }
    connections_.emplace(conn->id, std::move(conn));
    // sync-relaxed-ok: gauge-only counter; see connection_count().
    conn_count_.fetch_add(1, std::memory_order_relaxed);
    telemetry_.connections_accepted->Inc();
  }
}

void PubSubServer::Touch(Connection* conn) {
  if (conn->touched) return;
  conn->touched = true;
  touched_.push_back(conn->id);
}

void PubSubServer::ReadConnection(Connection* conn) {
  size_t read_budget = kMaxReadRoundBytes;
  const FailPointAction fp = VFPS_FAILPOINT("server.read");
  if (!fp.off()) {
    ApplyDelay(fp);
    if (fp.kind == FailPointAction::Kind::kError ||
        fp.kind == FailPointAction::Kind::kClose) {
      conn->io_dead = true;
    } else if (fp.kind == FailPointAction::Kind::kPartial) {
      read_budget = static_cast<size_t>(fp.arg);
    }
  }
  size_t drained = 0;
  while (!conn->io_dead && read_budget > 0) {
    // Read into all the room the buffer has, at least kMinReadBytes: the
    // buffer doubles while a burst fills it, so reads grow with it.
    char* space = conn->in.WriteSpace(std::min(kMinReadBytes, read_budget));
    const size_t want = std::min(conn->in.writable(), read_budget);
    ssize_t n = ::recv(conn->fd, space, want, 0);
    if (n > 0) {
      conn->in.Commit(static_cast<size_t>(n));
      drained += static_cast<size_t>(n);
      read_budget -= static_cast<size_t>(n);
      conn->idle.Reset();
      continue;
    }
    if (n == 0) {
      conn->io_dead = true;  // orderly shutdown
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn->io_dead = true;
    break;
  }
  if (drained > 0) {
    telemetry_.read_bytes->Record(static_cast<int64_t>(drained));
  }
  // Lines completed by this read still execute (a publish sent just before
  // FIN is published); the close job the loop enqueues afterwards runs
  // behind them in worker FIFO order.
  std::string block;
  if (conn->in.TakeLines(&block)) SubmitLines(conn, std::move(block));
}

void PubSubServer::SubmitLines(Connection* conn, std::string block) {
  ++conn->inflight;
  if (conn->inflight >= kMaxInflightJobs && !conn->stalled) {
    conn->stalled = true;
    telemetry_.backpressure_stalls->Inc();
  }
  telemetry_.jobs->Inc();
  const uint64_t id = conn->id;
  const bool submitted =
      worker_.Submit([this, id, block = std::move(block)]() mutable {
        RunLinesJob(id, std::move(block));
      });
  if (!submitted) --conn->inflight;  // shutting down; destructor cleans up
}

void PubSubServer::ApplyResults(int* handled) {
  std::vector<JobResult> batch;
  {
    MutexLock lock(results_mu_);
    batch.swap(results_);
  }
  for (JobResult& result : batch) {
    *handled += result.handled;
    for (OutputOp& op : result.ops) {
      const size_t bytes =
          op.text.size() + (op.payload ? op.payload->size() : 0);
      auto it = connections_.find(op.conn);
      if (it == connections_.end()) {
        // Recipient already closed: the emitted bytes will never be
        // written, so retire them from the ledger here.
        SubOutBytes(bytes);
        continue;
      }
      Connection* conn = it->second.get();
      if (!op.text.empty()) {
        if (conn->tail.empty()) {
          conn->tail = std::move(op.text);  // steal the worker's buffer
        } else {
          conn->tail += op.text;
        }
      }
      if (op.payload) {
        if (op.payload->size() < kInlinePayloadBytes) {
          conn->tail += *op.payload;
        } else {
          SealTail(conn);
          conn->chunks.push_back(OutChunk{std::move(op.payload), 0});
        }
      }
      conn->out_bytes += bytes;
      Touch(conn);
    }
    auto it = connections_.find(result.origin);
    if (it != connections_.end()) {
      Connection* conn = it->second.get();
      --conn->inflight;
      if (conn->stalled && conn->inflight < kMaxInflightJobs) {
        conn->stalled = false;
      }
      if (result.doom_origin) conn->doomed = true;
      Touch(conn);
    }
  }
}

void PubSubServer::SealTail(Connection* conn) {
  if (conn->tail.empty()) return;
  conn->chunks.push_back(OutChunk{
      std::make_shared<const std::string>(std::move(conn->tail)), 0});
  conn->tail.clear();
}

bool PubSubServer::FlushWrites(Connection* conn) {
  if (conn->tail.empty() && conn->chunks.empty()) {
    return true;  // no-op flush: don't trip failpoints
  }
  size_t budget = std::numeric_limits<size_t>::max();
  const FailPointAction fp = VFPS_FAILPOINT("server.write");
  if (!fp.off()) {
    ApplyDelay(fp);
    if (fp.kind == FailPointAction::Kind::kError ||
        fp.kind == FailPointAction::Kind::kClose) {
      return false;
    }
    if (fp.kind == FailPointAction::Kind::kPartial) {
      // Write at most `arg` bytes this round; the rest stays queued (a
      // budget of 0 simulates a completely stalled socket).
      budget = static_cast<size_t>(fp.arg);
    }
  }
  SealTail(conn);
  size_t flushed = 0;
  bool alive = true;
  while (!conn->chunks.empty() && flushed < budget) {
    iovec iov[kMaxFlushIovecs];
    int iov_count = 0;
    size_t batch_bytes = 0;
    for (const OutChunk& chunk : conn->chunks) {
      if (iov_count == kMaxFlushIovecs || flushed + batch_bytes >= budget) {
        break;
      }
      size_t len = chunk.data->size() - chunk.offset;
      len = std::min(len, budget - flushed - batch_bytes);
      iov[iov_count].iov_base =
          const_cast<char*>(chunk.data->data() + chunk.offset);
      iov[iov_count].iov_len = len;
      ++iov_count;
      batch_bytes += len;
    }
    if (iov_count == 0) break;
    telemetry_.writev_iovecs->Record(iov_count);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iov_count);
    ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      alive = false;  // peer gone
      break;
    }
    size_t advance = static_cast<size_t>(n);
    flushed += advance;
    while (advance > 0) {
      OutChunk& front = conn->chunks.front();
      const size_t remaining = front.data->size() - front.offset;
      if (advance >= remaining) {
        advance -= remaining;
        conn->chunks.pop_front();
      } else {
        front.offset += advance;
        advance = 0;
      }
    }
    if (static_cast<size_t>(n) < batch_bytes) break;  // socket full
  }
  conn->out_bytes -= flushed;
  SubOutBytes(flushed);
  if (flushed > 0) {
    telemetry_.flush_bytes->Record(static_cast<int64_t>(flushed));
  }
  return alive;
}

void PubSubServer::UpdateInterest(Connection* conn) {
  const bool want_read = !conn->stalled;
  const bool want_write = conn->out_bytes > 0;
  if (want_read == conn->want_read && want_write == conn->want_write) {
    return;
  }
  conn->want_read = want_read;
  conn->want_write = want_write;
  poller_->Mod(conn->fd, conn->id, want_read, want_write);
}

void PubSubServer::CloseConnection(uint64_t key) {
  auto it = connections_.find(key);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  SubOutBytes(conn->out_bytes);
  poller_->Del(conn->fd);
  ::close(conn->fd);
  connections_.erase(it);
  // sync-relaxed-ok: gauge-only counter; see connection_count().
  conn_count_.fetch_sub(1, std::memory_order_relaxed);
  telemetry_.connections_closed->Inc();
  // Unsubscribe and drop protocol state on the worker, FIFO behind any
  // lines job still in flight for this connection.
  [[maybe_unused]] bool submitted =
      worker_.Submit([this, key] { RunCloseJob(key); });
  // Submit only fails during destruction, which cleans worker_conns_ up
  // inline.
}

void PubSubServer::ReapIdleConnections() {
  if (options_.idle_timeout_ms <= 0) return;
  const int64_t now = NowMs();
  while (!idle_heap_.empty() && idle_heap_.top().first <= now) {
    const uint64_t key = idle_heap_.top().second;
    idle_heap_.pop();
    auto it = connections_.find(key);
    if (it == connections_.end()) continue;  // closed; entry is stale
    Connection* conn = it->second.get();
    const double idle_ms = conn->idle.ElapsedMillis();
    if (idle_ms > static_cast<double>(options_.idle_timeout_ms)) {
      telemetry_.connections_reaped->Inc();
      CloseConnection(key);
    } else {
      // Activity since the entry was pushed: re-arm at the true deadline.
      idle_heap_.push(
          {now + options_.idle_timeout_ms - static_cast<int64_t>(idle_ms),
           key});
    }
  }
}

int PubSubServer::EffectiveTimeout(int timeout_ms) const {
  if (options_.idle_timeout_ms <= 0 || idle_heap_.empty()) {
    return timeout_ms;
  }
  int64_t until_deadline = idle_heap_.top().first - NowMs();
  if (until_deadline < 0) until_deadline = 0;
  if (until_deadline > std::numeric_limits<int>::max()) {
    return timeout_ms;
  }
  if (timeout_ms < 0) return static_cast<int>(until_deadline);
  return std::min(timeout_ms, static_cast<int>(until_deadline));
}

void PubSubServer::DrainWakePipe() {
  char buf[64];
  while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
  }
}

Result<int> PubSubServer::RunOnce(int timeout_ms) {
  VFPS_SERIAL_SCOPE(serial_);
  if (listen_fd_ < 0 || poller_ == nullptr) {
    return Status::Internal("server not started");
  }

  // server.wait models a faulty readiness notification: error/close skip
  // the round (like EINTR), partial:<n> caps the connection events
  // dispatched this round (level-triggering re-reports the rest).
  size_t ready_cap = std::numeric_limits<size_t>::max();
  {
    const FailPointAction fp = VFPS_FAILPOINT("server.wait");
    if (!fp.off()) {
      ApplyDelay(fp);
      if (fp.kind == FailPointAction::Kind::kError ||
          fp.kind == FailPointAction::Kind::kClose) {
        return 0;
      }
      if (fp.kind == FailPointAction::Kind::kPartial) {
        ready_cap = static_cast<size_t>(fp.arg);
      }
    }
  }

  Timer wait_timer;
  std::vector<net_internal::Poller::Ready> ready;
  int n = poller_->Wait(EffectiveTimeout(timeout_ms), &ready);
  telemetry_.wait_ns->Record(wait_timer.ElapsedNanos());
  if (n < 0) {
    if (errno == EINTR) return 0;
    return Errno("epoll_wait");
  }

  Timer dispatch_timer;
  int handled = 0;
  touched_.clear();
  size_t dispatched = 0;
  for (const auto& event : ready) {
    if (event.key == kListenKey) {
      AcceptPending();
      continue;
    }
    if (event.key == kWakeKey) {
      DrainWakePipe();
      continue;
    }
    if (dispatched >= ready_cap) continue;
    ++dispatched;
    auto it = connections_.find(event.key);
    if (it == connections_.end()) continue;
    Connection* conn = it->second.get();
    {
      const FailPointAction fp = VFPS_FAILPOINT("server.dispatch");
      if (!fp.off()) {
        ApplyDelay(fp);
        if (fp.kind == FailPointAction::Kind::kError) {
          continue;  // skip this event; level-triggering re-reports it
        }
        if (fp.kind == FailPointAction::Kind::kClose) {
          conn->doomed = true;
          Touch(conn);
          continue;
        }
      }
    }
    if (event.error) conn->io_dead = true;
    if (!conn->io_dead && event.readable && !conn->stalled) {
      ReadConnection(conn);
    }
    Touch(conn);  // flush/close processing below (writable events too)
  }

  ApplyResults(&handled);

  // End-of-round per-connection processing, in touch order: flush, then
  // the death checks (I/O death -> failed flush -> doomed -> write-queue
  // cap), then interest re-registration for the survivors.
  for (const uint64_t key : touched_) {
    auto it = connections_.find(key);
    if (it == connections_.end()) continue;
    Connection* conn = it->second.get();
    conn->touched = false;
    bool dead = conn->io_dead;
    if (!dead) dead = !FlushWrites(conn);
    if (!dead && conn->doomed) dead = true;
    if (!dead && options_.max_write_queue_bytes > 0 &&
        conn->out_bytes > options_.max_write_queue_bytes) {
      telemetry_.slow_consumer_disconnects->Inc();
      dead = true;
    }
    if (dead) {
      CloseConnection(key);
    } else {
      UpdateInterest(conn);
    }
  }
  ReapIdleConnections();
  telemetry_.dispatch_ns->Record(dispatch_timer.ElapsedNanos());
  return handled;
}

void PubSubServer::RunUntilStopped() {
  // Acquire pairs with the release store in Stop().
  while (!stop_.load(std::memory_order_acquire)) {
    Result<int> r = RunOnce(250);
    if (!r.ok()) break;
  }
  // Drain in-flight match work so a caller that joins this thread and then
  // reads broker state sees a settled system.
  Quiesce();
}

// --- match-worker side -------------------------------------------------------

PubSubServer::WorkerConn* PubSubServer::WorkerConnFor(uint64_t id) {
  WorkerConn& wc = worker_conns_[id];
  wc.id = id;
  return &wc;
}

void PubSubServer::RunLinesJob(uint64_t id, std::string block) {
  VFPS_SERIAL_SCOPE(worker_serial_);
  ++job_epoch_;
  JobResult result;
  result.origin = id;
  cur_result_ = &result;
  WorkerConn* wc = WorkerConnFor(id);
  std::string_view rest = block;
  std::string_view line;
  while (!rest.empty()) {
    if (wc->batch_expected > 0) {
      result.handled += CollectBatch(wc, &rest);
    } else {
      PopLine(&rest, &line);
      result.handled += HandleLine(wc, line);
    }
    // Flush the byte ledger at request granularity: the next pipelined
    // request's BUSY shed check must see this one's queued bytes.
    if (pending_out_bytes_ > 0) {
      AddOutBytes(pending_out_bytes_);
      pending_out_bytes_ = 0;
    }
  }
  if (pending_payload_refs_ > 0) {
    telemetry_.payload_refs->Inc(pending_payload_refs_);
    pending_payload_refs_ = 0;
  }
  if (wc->doomed) result.doom_origin = true;
  cur_result_ = nullptr;
  PostResult(std::move(result));
}

void PubSubServer::RunCloseJob(uint64_t id) {
  VFPS_SERIAL_SCOPE(worker_serial_);
  auto it = worker_conns_.find(id);
  if (it == worker_conns_.end()) return;
  for (SubscriptionId sub : it->second.subs) {
    (void)broker_.Unsubscribe(sub);
  }
  worker_conns_.erase(it);
}

void PubSubServer::PostResult(JobResult result) {
  {
    MutexLock lock(results_mu_);
    results_.push_back(std::move(result));
  }
  if (wake_pipe_[1] >= 0) {
    char byte = 'r';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

std::string& PubSubServer::OpenTextFor(WorkerConn* wc) {
  if (wc->op_epoch != job_epoch_) {
    wc->op_epoch = job_epoch_;
    wc->open_op = cur_result_->ops.size();
    cur_result_->ops.emplace_back();
    cur_result_->ops.back().conn = wc->id;
  }
  return cur_result_->ops[wc->open_op].text;
}

void PubSubServer::EmitLine(WorkerConn* wc, std::string_view line) {
  std::string& text = OpenTextFor(wc);
  text.append(line);
  text.push_back('\n');
  pending_out_bytes_ += line.size() + 1;
}

void PubSubServer::EmitRaw(WorkerConn* wc, std::string text) {
  pending_out_bytes_ += text.size();
  OpenTextFor(wc).append(text);
}

void PubSubServer::EmitErr(WorkerConn* wc, std::string_view message) {
  telemetry_.request_errors->Inc();
  EmitLine(wc, FormatErr(message));
}

void PubSubServer::ResetPayloadCache() {
  last_event_ = nullptr;
  last_payload_.reset();
}

void PubSubServer::EmitEvent(WorkerConn* wc, const Notification& n) {
  if (!last_payload_ || n.event != last_event_) {
    last_payload_ = std::make_shared<const std::string>(
        FormatEventText(*n.event, broker_.schema()) + "\n");
    last_event_ = n.event;
    telemetry_.payloads_formatted->Inc();
  }
  const std::string& body = *last_payload_;
  ++pending_payload_refs_;
  // "EVENT <sub> <eid> " formatted straight into a stack buffer: the
  // header is the only per-recipient bytes, so it must not allocate.
  char head[48];  // "EVENT " + two u64s + two spaces <= 48
  std::memcpy(head, "EVENT ", 6);
  char* p = std::to_chars(head + 6, head + 26, n.subscription).ptr;
  *p = ' ';
  p = std::to_chars(p + 1, p + 21, n.event_id).ptr;
  *p = ' ';
  const size_t head_len = static_cast<size_t>(p + 1 - head);
  pending_out_bytes_ += head_len + body.size();
  if (body.size() < kInlinePayloadBytes) {
    // Small event: the rendered body is shared within the job (formatted
    // once) but delivered by copy, coalesced into the recipient's open op.
    std::string& text = OpenTextFor(wc);
    text.append(head, head_len);
    text.append(body);
  } else {
    // Large event: one refcounted buffer rides every recipient's queue.
    OutputOp op;
    op.conn = wc->id;
    op.text.assign(head, head_len);
    op.payload = last_payload_;
    cur_result_->ops.push_back(std::move(op));
    // The payload op closes the coalescing run: later text for this
    // connection must order after the payload, so it opens a fresh op.
    wc->op_epoch = 0;
  }
}

bool PubSubServer::ShedPublishes() const {
  return options_.busy_high_water_bytes > 0 &&
         OutBytes() > options_.busy_high_water_bytes;
}

int PubSubServer::CollectBatch(WorkerConn* wc, std::string_view* block) {
  // PUBBATCH payload: every line (even an empty one) is an event slot, or
  // the framing would desynchronize. Slots are counted here and parsed
  // once the batch is complete.
  size_t end = 0;
  while (wc->batch_received < wc->batch_expected && end < block->size()) {
    const size_t nl = block->find('\n', end);
    end = nl == std::string_view::npos ? block->size() : nl + 1;
    ++wc->batch_received;
  }
  std::string_view payload = block->substr(0, end);
  block->remove_prefix(end);
  if (wc->batch_received < wc->batch_expected || !wc->batch_text.empty()) {
    // The batch spans jobs: its payload accumulates on the connection.
    wc->batch_text.append(payload);
    if (wc->batch_received < wc->batch_expected) return 0;
    payload = wc->batch_text;
  }
  const int handled = FinishPublishBatch(wc, payload);
  if (wc->batch_text.capacity() > kKeptBatchPayloadBytes) {
    std::string().swap(wc->batch_text);
  } else {
    wc->batch_text.clear();
  }
  return handled;
}

int PubSubServer::HandleLine(WorkerConn* wc, std::string_view line) {
  if (line.empty()) return 0;
  // FAILPOINT lines are exempt from the parse site: the admin channel that
  // disarms a wedged failpoint must keep working while it is armed.
  if (!line.starts_with("FAILPOINT")) {
    const FailPointAction fp = VFPS_FAILPOINT("server.parse");
    if (!fp.off()) {
      ApplyDelay(fp);
      if (fp.kind == FailPointAction::Kind::kError) {
        telemetry_.requests->Inc();
        EmitErr(wc, "failpoint server.parse");
        return 1;
      }
      if (fp.kind == FailPointAction::Kind::kClose) {
        wc->doomed = true;
        return 0;
      }
    }
  }
  Timer timer;
  telemetry_.requests->Inc();
  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    EmitErr(wc, parsed.status().message());
    return 1;
  }
  const Request& request = parsed.value();
  DispatchRequest(wc, request);
  if (request.kind == Request::Kind::kPublishBatch &&
      wc->batch_expected > 0) {
    // Per-kind count + latency are recorded when the batch completes.
    return 1;
  }
  const auto& rk = telemetry_.per_kind[static_cast<size_t>(request.kind)];
  rk.count->Inc();
  rk.latency_ns->Record(timer.ElapsedNanos());
  return 1;
}

int PubSubServer::FinishPublishBatch(WorkerConn* wc,
                                     std::string_view payload) {
  Timer timer;
  const size_t n = wc->batch_expected;
  const size_t payload_bytes = payload.size();
  wc->batch_expected = 0;
  wc->batch_received = 0;
  const auto record = [&] {
    const auto& rk = telemetry_.per_kind[static_cast<size_t>(
        Request::Kind::kPublishBatch)];
    rk.count->Inc();
    rk.latency_ns->Record(timer.ElapsedNanos());
  };
  if (wc->batch_shed) {
    wc->batch_shed = false;
    telemetry_.shed_publishes->Inc();
    EmitErr(wc, kBusyMessage);
    record();
    return 1;
  }
  const FailPointAction fp = VFPS_FAILPOINT("broker.publish");
  if (!fp.off()) {
    ApplyDelay(fp);
    if (fp.kind == FailPointAction::Kind::kError) {
      EmitErr(wc, "failpoint broker.publish");
      record();
      return 1;
    }
    if (fp.kind == FailPointAction::Kind::kClose) {
      wc->doomed = true;
      return 0;
    }
  }
  // Parse every slot into the reused events; valid ones are published as
  // one batch through Broker::PublishBatch, invalid ones answer ERR in
  // their payload slot.
  batch_status_.clear();
  size_t valid = 0;
  std::string_view line;
  while (PopLine(&payload, &line)) {
    if (valid == batch_events_.size()) batch_events_.emplace_back();
    Status status = ParseEvent(line, &broker_.schema(), &batch_events_[valid]);
    if (status.ok()) {
      ++valid;
    } else {
      telemetry_.request_errors->Inc();
    }
    batch_status_.push_back(std::move(status));
  }
  VFPS_DCHECK(batch_status_.size() == n);
  // Publish before emitting the reply: EVENT pushes onto this connection
  // land before "OK <n>", keeping the payload lines contiguous.
  ResetPayloadCache();
  const std::vector<PublishResult> results = broker_.PublishBatch(
      std::span<const Event>(batch_events_.data(), valid));
  EmitLine(wc, FormatOkDetail(std::to_string(n)));
  size_t next_result = 0;
  for (const Status& status : batch_status_) {
    if (!status.ok()) {
      EmitLine(wc, FormatErr(status.message()));
      continue;
    }
    const PublishResult& r = results[next_result++];
    char item[48];  // two u64s and a space
    char* p = std::to_chars(item, item + 20, r.event_id).ptr;
    *p = ' ';
    p = std::to_chars(p + 1, p + 21, r.matches).ptr;
    EmitLine(wc, std::string_view(item, static_cast<size_t>(p - item)));
  }
  if (payload_bytes > kKeptBatchPayloadBytes) {
    std::vector<Event>().swap(batch_events_);
    std::vector<Status>().swap(batch_status_);
  }
  record();
  return 1;
}

size_t PubSubServer::BatchScratchBytes() const {
  size_t bytes = batch_events_.capacity() * sizeof(Event) +
                 batch_status_.capacity() * sizeof(Status);
  for (const Event& event : batch_events_) {
    bytes += event.pairs().capacity() * sizeof(EventPair);
  }
  for (const auto& [id, wc] : worker_conns_) {
    bytes += wc.batch_text.capacity();
  }
  return bytes;
}

void PubSubServer::DispatchRequest(WorkerConn* wc, const Request& request) {
  switch (request.kind) {
    case Request::Kind::kSubscribe: {
      const Timestamp deadline = request.number == Request::kNoDeadline
                                     ? kNeverExpires
                                     : request.number;
      // The handler captures the WorkerConn node, which unordered_map
      // keeps at a stable address. It cannot dangle: handlers only fire
      // during publishes on this same worker thread, and RunCloseJob
      // unsubscribes every handler before erasing the node.
      ResetPayloadCache();  // a subscription may match stored events
      Result<SubscriptionId> sub = broker_.SubscribeExpression(
          request.body,
          [this, wc](const Notification& n) { EmitEvent(wc, n); },
          deadline);
      if (!sub.ok()) {
        EmitErr(wc, sub.status().message());
      } else {
        wc->subs.push_back(sub.value());
        EmitLine(wc, FormatOkDetail(std::to_string(sub.value())));
      }
      return;
    }
    case Request::Kind::kUnsubscribe: {
      const SubscriptionId id = static_cast<SubscriptionId>(request.number);
      auto it = std::find(wc->subs.begin(), wc->subs.end(), id);
      if (it == wc->subs.end()) {
        EmitErr(wc, "subscription " + std::to_string(id) +
                            " is not owned by this connection");
        return;
      }
      Status status = broker_.Unsubscribe(id);
      if (!status.ok()) {
        EmitErr(wc, status.message());
      } else {
        wc->subs.erase(it);
        EmitLine(wc, FormatOk());
      }
      return;
    }
    case Request::Kind::kPublish: {
      if (ShedPublishes()) {
        telemetry_.shed_publishes->Inc();
        EmitErr(wc, kBusyMessage);
        return;
      }
      const FailPointAction fp = VFPS_FAILPOINT("broker.publish");
      if (!fp.off()) {
        ApplyDelay(fp);
        if (fp.kind == FailPointAction::Kind::kError) {
          EmitErr(wc, "failpoint broker.publish");
          return;
        }
        if (fp.kind == FailPointAction::Kind::kClose) {
          wc->doomed = true;
          return;
        }
      }
      const Timestamp deadline = request.number == Request::kNoDeadline
                                     ? kNeverExpires
                                     : request.number;
      ResetPayloadCache();
      Result<PublishResult> result =
          broker_.PublishExpression(request.body, deadline);
      if (!result.ok()) {
        EmitErr(wc, result.status().message());
      } else {
        EmitLine(wc,
                 FormatOkDetail(std::to_string(result.value().event_id) +
                                " " +
                                std::to_string(result.value().matches)));
      }
      return;
    }
    case Request::Kind::kTime:
      broker_.AdvanceTime(request.number);
      EmitLine(wc, FormatOk());
      return;
    case Request::Kind::kStats:
      // Served from the telemetry registry's gauges; the output format
      // predates the registry and stays byte-identical.
      EmitLine(
          wc,
          FormatOkDetail(
              "subscriptions=" +
              std::to_string(metrics_.GaugeValue("vfps_broker_subscriptions")) +
              " stored_events=" +
              std::to_string(metrics_.GaugeValue("vfps_broker_stored_events")) +
              " connections=" +
              std::to_string(metrics_.GaugeValue("vfps_server_connections"))));
      return;
    case Request::Kind::kMetrics: {
      // Already on the match worker: export directly (the public
      // ExportMetrics* entry points submit a job and wait — calling them
      // here would self-deadlock the single worker).
      if (request.body == "PROM") {
        // Multi-line export: "OK <n>" then n raw text-format lines.
        std::string text = metrics_.ExportPrometheus();
        size_t lines = 0;
        for (char c : text) lines += c == '\n';
        EmitLine(wc, FormatOkDetail(std::to_string(lines)));
        EmitRaw(wc, std::move(text));  // every line ends in '\n'
      } else {
        EmitLine(wc, FormatOkDetail(metrics_.ExportJson()));
      }
      return;
    }
    case Request::Kind::kPublishBatch: {
      if (request.number > kMaxPublishBatch) {
        EmitErr(wc, "PUBBATCH size exceeds " +
                            std::to_string(kMaxPublishBatch));
        return;
      }
      if (request.number == 0) {
        EmitLine(wc, FormatOkDetail("0"));
        return;
      }
      wc->batch_expected = static_cast<size_t>(request.number);
      wc->batch_received = 0;
      wc->batch_text.clear();
      // Shed decision is made at header time, but the payload lines are
      // still drained so the framing stays intact; FinishPublishBatch
      // answers a single ERR BUSY instead of publishing.
      wc->batch_shed = ShedPublishes();
      return;
    }
    case Request::Kind::kPing:
      EmitLine(wc, FormatOk());
      return;
    case Request::Kind::kFailPoint:
      HandleFailPoint(wc, request.body);
      return;
  }
}

void PubSubServer::HandleFailPoint(WorkerConn* wc, std::string_view args) {
#if VFPS_FAILPOINTS
  const size_t space = args.find(' ');
  const std::string head(args.substr(0, space));
  if (head == "LIST" && space == std::string::npos) {
    EmitLine(wc, FormatOkDetail(FailPoints::Global().List()));
    return;
  }
  if (head == "CLEAR" && space == std::string::npos) {
    FailPoints::Global().ClearAll();
    EmitLine(wc, FormatOk());
    return;
  }
  if (space == std::string::npos) {
    EmitErr(wc, "FAILPOINT needs <name> <mode> (or LIST | CLEAR)");
    return;
  }
  std::string_view spec = args.substr(space + 1);
  const size_t start = spec.find_first_not_of(' ');
  spec = start == std::string_view::npos ? std::string_view{}
                                         : spec.substr(start);
  Status status = FailPoints::Global().Set(head, spec);
  if (!status.ok()) {
    EmitErr(wc, status.message());
  } else {
    EmitLine(wc, FormatOk());
  }
#else
  EmitErr(wc,
          "failpoints compiled out (configure with -DVFPS_FAILPOINTS=ON)");
  (void)args;
#endif
}

// --- metrics export ----------------------------------------------------------

std::string PubSubServer::ExportViaWorker(bool json) {
  struct ExportWait {
    Mutex mu{LockRank::kNetResults, "net_export"};
    CondVar cv;
    bool done VFPS_GUARDED_BY(mu) = false;
    std::string text VFPS_GUARDED_BY(mu);
  } wait;
  const bool submitted = worker_.Submit([this, &wait, json] {
    VFPS_SERIAL_SCOPE(worker_serial_);
    std::string text =
        json ? metrics_.ExportJson() : metrics_.ExportPrometheus();
    MutexLock lock(wait.mu);
    wait.text = std::move(text);
    wait.done = true;
    wait.cv.NotifyAll();
  });
  if (!submitted) {
    // Worker already shut down (destruction path): nothing else can be
    // executing, so a direct export is serial.
    return json ? metrics_.ExportJson() : metrics_.ExportPrometheus();
  }
  MutexLock lock(wait.mu);
  while (!wait.done) wait.cv.Wait(wait.mu);
  return std::move(wait.text);
}

std::string PubSubServer::ExportMetricsJson() {
  return ExportViaWorker(/*json=*/true);
}

std::string PubSubServer::ExportMetricsProm() {
  return ExportViaWorker(/*json=*/false);
}

}  // namespace vfps
