// Copyright 2026 The vfps Authors.

#include "servbench/wire.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <queue>
#include <set>
#include <string_view>

#include "src/util/rng.h"

namespace servbench {
namespace {

// Server instances per run (see RunWire), and each one's warm-up.
constexpr int kSetups = 8;
constexpr int64_t kWarmupNs = 1000000000;
// The paper's subscription batch n_S_b: set-up pipelines this many SUB
// lines per connection before waiting for their replies.
constexpr size_t kSubBatch = 10000;
// Event slots by sequence number. Far more than the events in flight plus
// the delivery lag a server's 8 MB write-queue cap allows.
constexpr size_t kRing = size_t{1} << 16;
// Every 16th event has the text of its first delivery compared with the
// sent event; every 64th's first delivery gets a span in a traced run.
constexpr uint64_t kTextSample = 16;
constexpr uint64_t kSpanSample = 64;
constexpr int64_t kNsPerS = 1000000000;
constexpr uint64_t kNoSeq = std::numeric_limits<uint64_t>::max();
constexpr int64_t kStartTimeoutNs = 20 * kNsPerS;
constexpr int64_t kDrainTimeoutNs = 30 * kNsPerS;

double ReadStatusMb(pid_t pid, const char* key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtod(line.c_str() + key_len + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

// CPU time the server's threads have run, from each thread's schedstat
// (nanosecond resolution, unlike the tick-based utime).
double ServerCpuSeconds(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  double total = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    double ns = 0;
    if (in >> ns) total += ns / 1e9;
  }
  ::closedir(d);
  return total;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// A free loopback port: bind port 0, read it back, release it. The server
// is then started on it; a lost race shows as a server that exits.
uint16_t PickPort() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  uint16_t port = 0;
  if (fd >= 0 && ::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  if (fd >= 0) ::close(fd);
  return port;
}

/// The server child process. The destructor stops it and waits for it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  bool Start(const std::string& path, uint16_t port, bool store_events) {
    const std::string port_flag = "--port=" + std::to_string(port);
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      std::vector<const char*> argv = {path.c_str(), port_flag.c_str()};
      if (!store_events) argv.push_back("--store-events=false");
      argv.push_back(nullptr);
      ::execv(path.c_str(), const_cast<char* const*>(argv.data()));
      ::_exit(127);
    }
    return true;
  }

  bool Exited() {
    if (pid_ <= 0) return true;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return false;
  }

  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 500; ++i) {
      if (Exited()) return;
      ::usleep(10000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

/// A reply the generator waits for, in request order per connection.
struct Pending {
  enum Kind : uint8_t {
    kSub, kChurnSub, kUnsub, kPub, kBatch, kTime, kPing, kMetrics
  };
  Kind kind = kPing;
  uint32_t index = 0;  // stable / churn subscription index
  uint32_t count = 0;  // events in a batch
  uint64_t seq = 0;    // first event of a publish
  int64_t t0 = 0;      // sent, or due (open loop)
  int64_t tick = 0;    // TIME value
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<Pending> pending;
  uint32_t payload_left = 0;  // PUBBATCH reply lines still to read
  bool want_out = false;
  /// Set-up: SUB texts still to send on this connection.
  std::vector<std::pair<Pending::Kind, uint32_t>> to_load;
  size_t loaded = 0;
};

struct Slot {
  uint64_t seq = kNoSeq;
  uint32_t pool = 0;
  uint32_t got = 0;
  uint64_t hash = 0;
  uint64_t request = 0;
  int64_t t0 = 0;
  int64_t ack = 0;
  int64_t deadline_tick = std::numeric_limits<int64_t>::max();
  bool rejected = false;
  bool text_checked = false;
  bool span_recorded = false;
};

struct ChurnState {
  enum State : uint8_t { kSubscribing, kLive, kUnsubscribing, kDead };
  ChurnSub cs;
  State state = kSubscribing;
  uint64_t server_id = 0;
  int64_t sent = 0;
  int64_t sub_tick = 0;
  int64_t deadline = std::numeric_limits<int64_t>::max();
  size_t live_pos = 0;
  /// First event not yet acknowledged when the SUB was sent: without a
  /// store, no earlier event can reach this subscription.
  uint64_t cursor = 0;
};

/// Owner of a server subscription id.
struct Owner {
  bool known = false;
  bool churn = false;
  uint32_t index = 0;
};

// Splits rendered event text into its "name = value" pairs, sorted, so
// that two renderings compare independently of attribute order.
std::vector<std::string_view> CanonicalPairs(std::string_view text) {
  std::vector<std::string_view> pairs;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t next = text.find(", ", pos);
    if (next == std::string_view::npos) next = text.size();
    pairs.push_back(text.substr(pos, next - pos));
    pos = next + 2;
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

class Generator {
 public:
  Generator(Workload* w, const WireOptions& o, WireResult* r)
      : w_(*w), o_(o), r_(*r), rng_(w->seed * 0x9e3779b97f4a7c15ULL + 5),
        slots_(kRing), stable_cursor_(w->stable_sub.size(), 0) {}

  ~Generator() { CloseAll(); }

  bool Run() {
    for (int i = 0; i < kSetups; ++i) {
      if (i > 0) Reset();
      const int64_t t0 = NowNs();
      if (!Setup()) return false;
      r_.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (!Measure()) return false;
    }
    return true;
  }

 private:
  // Warm-up, then one measured window of seconds / kSetups on the server
  // just set up, then a drain that completes every correctness check.
  bool Measure() {
    // Span ids stay unique across the measured servers.
    span_base_ = static_cast<uint64_t>(r_.setup_s.size()) << 40;
    const double seconds = o_.seconds / kSetups;
    const double rss_after_setup = ReadStatusMb(server_.pid(), "VmRSS");
    std::string info;
    if (!Scrape(&info)) return false;
    r_.kernel_isa = GaugeValue(info, "vfps_kernel_isa");

    loading_ = true;
    const int64_t warm_end = NowNs() + kWarmupNs;
    if (!Pump([&] { return NowNs() >= warm_end; }, true)) return false;
    std::string before;
    if (o_.traced && !Scrape(&before)) return false;
    const double cpu0 = CpuSeconds();
    const double server_cpu0 = ServerCpuSeconds(server_.pid());
    window_start_ = NowNs();
    window_end_ = window_start_ + static_cast<int64_t>(seconds * 1e9);
    const size_t slices =
        static_cast<size_t>(std::max(1.0, std::round(seconds)));
    slice_ns_ = (window_end_ - window_start_) / static_cast<int64_t>(slices);
    first_slice_ = r_.slices.size();
    r_.slices.resize(first_slice_ + slices);
    r_.slice_s = static_cast<double>(slice_ns_) / 1e9;
    if (!Pump([&] { return NowNs() >= window_end_; }, true)) return false;
    const double window_s = static_cast<double>(NowNs() - window_start_) / 1e9;
    r_.window_s += window_s;
    r_.cpu_util += (CpuSeconds() - cpu0) / window_s / kSetups;
    r_.server_cpu_s += ServerCpuSeconds(server_.pid()) - server_cpu0;
    if (o_.traced) {
      std::string after;
      if (!Scrape(&after)) return false;
      r_.metrics.emplace_back(std::move(before), std::move(after));
    }
    if (!Drain()) return false;
    for (Slot& s : slots_) Finalize(&s);
    r_.failed += static_cast<uint64_t>(unresolved_.size());
    const double rss_end = ReadStatusMb(server_.pid(), "VmRSS");
    r_.rss_growth_mb.push_back(rss_end - rss_after_setup);
    r_.rss_peak_mb.push_back(ReadStatusMb(server_.pid(), "VmHWM"));
    return true;
  }

  // --- connections -----------------------------------------------------------

  void CloseAll() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    conns_.clear();
    if (ep_ >= 0) ::close(ep_);
    ep_ = -1;
  }

  // Fresh server for the next set-up repetition; all client state goes.
  void Reset() {
    CloseAll();
    server_.Stop();
    slots_.assign(kRing, Slot{});
    id_owner_.clear();
    churn_.clear();
    live_.clear();
    subscribing_ = 0;
    expiry_ = {};
    unresolved_.clear();
    churn_delivered_.clear();
    next_seq_ = 0;
    first_unacked_ = 0;
    stable_cursor_.assign(w_.stable_sub.size(), 0);
    outstanding_ = 0;
    next_pub_ = 0;
    next_churn_ = 0;
    next_tick_ = 0;
    tick_sent_ = 0;
    window_start_ = 0;
    window_end_ = 0;
    loading_ = false;
    stop_load_ = false;
    w_.RestartChurn();
    rng_ = vfps::Rng(w_.seed * 0x9e3779b97f4a7c15ULL + 5);
  }

  bool Connect(uint16_t port, int64_t deadline) {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    conns_.resize(w_.num_conns);
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      for (;;) {
        c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
          break;
        }
        ::close(c.fd);
        c.fd = -1;
        if (server_.Exited() || NowNs() > deadline) return false;
        ::usleep(1000);
      }
      int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      ::epoll_ctl(ep_, EPOLL_CTL_ADD, c.fd, &ev);
    }
    return true;
  }

  bool Setup() {
    const int64_t deadline = NowNs() + kStartTimeoutNs;
    for (int attempt = 0;; ++attempt) {
      const uint16_t port = PickPort();
      if (port != 0 && server_.Start(o_.server_path, port, w_.store_events) &&
          Connect(port, deadline)) {
        break;
      }
      CloseAll();
      server_.Stop();
      if (attempt == 3 || NowNs() > deadline) {
        std::fprintf(stderr, "servbench: cannot start %s\n",
                     o_.server_path.c_str());
        return false;
      }
    }
    for (size_t c = 0; c < conns_.size(); ++c) {
      for (uint32_t idx : w_.conn_subs.size() > c ? w_.conn_subs[c]
                                                  : std::vector<uint32_t>{}) {
        conns_[c].to_load.emplace_back(Pending::kSub, idx);
      }
    }
    for (size_t i = 0; i < w_.initial_churn; ++i) {
      conns_[w_.churn.conn].to_load.emplace_back(Pending::kChurnSub,
                                                 NewChurn());
    }
    if (!Pump([&] { return LoadStep(); }, false)) return false;
    for (Conn& c : conns_) Send(&c, "PING\n", Pending{Pending::kPing});
    return Pump([&] { return AllIdle(); }, false);
  }

  // Sends the next n_S_b SUB lines on every connection whose previous
  // batch has been answered. True once everything is loaded and acked.
  bool LoadStep() {
    bool done = true;
    for (Conn& c : conns_) {
      if (!c.pending.empty()) {
        done = false;
        continue;
      }
      if (c.loaded == c.to_load.size()) continue;
      done = false;
      const size_t end = std::min(c.to_load.size(), c.loaded + kSubBatch);
      const int64_t now = NowNs();
      for (; c.loaded < end; ++c.loaded) {
        const auto [kind, idx] = c.to_load[c.loaded];
        Pending p{kind, idx};
        p.t0 = now;
        if (kind == Pending::kSub) {
          Send(&c, "SUB " + w_.stable_text[idx] + "\n", p);
        } else {
          SendChurnSub(&c, idx, now, /*initial=*/true);
        }
      }
    }
    return done;
  }

  bool AllIdle() const {
    for (const Conn& c : conns_) {
      if (!c.pending.empty()) return false;
    }
    return true;
  }

  void Send(Conn* c, std::string_view text, const Pending& p) {
    c->out.append(text);
    c->pending.push_back(p);
    ++r_.attempted;
  }

  // Writes as much queued output as the socket takes; arms EPOLLOUT for
  // the rest.
  bool Flush(size_t i) {
    Conn& c = conns_[i];
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        std::fprintf(stderr, "servbench: send failed: %s\n",
                     std::strerror(errno));
        return false;
      }
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    const bool want = !c.out.empty();
    if (want != c.want_out) {
      c.want_out = want;
      epoll_event ev{};
      ev.events = want ? EPOLLIN | EPOLLOUT : EPOLLIN;
      ev.data.u64 = i;
      ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
    }
    return true;
  }

  // Reads and handles what one connection has, at most a few buffers per
  // call so that a busy subscriber cannot starve the send schedule.
  bool ReadConn(size_t i) {
    Conn& c = conns_[i];
    char buf[1 << 16];
    for (int round = 0; round < 4; ++round) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n == 0) {
        std::fprintf(stderr, "servbench: server closed connection %zu\n", i);
        return false;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        std::fprintf(stderr, "servbench: recv failed: %s\n",
                     std::strerror(errno));
        return false;
      }
      c.in.append(buf, static_cast<size_t>(n));
      size_t start = 0;
      const int64_t now = NowNs();
      for (;;) {
        const size_t nl = c.in.find('\n', start);
        if (nl == std::string::npos) break;
        OnLine(&c, std::string_view(c.in).substr(start, nl - start), now);
        start = nl + 1;
      }
      c.in.erase(0, start);
      if (static_cast<size_t>(n) < sizeof(buf)) break;
    }
    return true;
  }

  // Runs the event loop until `done` holds. With `generate`, publishes
  // and churn requests are issued on their schedules.
  template <typename Done>
  bool Pump(Done done, bool generate) {
    const int64_t give_up = NowNs() + (generate ? 600 : 300) * kNsPerS;
    epoll_event events[16];
    while (!done()) {
      int64_t now = NowNs();
      if (now > give_up) {
        std::fprintf(stderr, "servbench: server stopped answering\n");
        return false;
      }
      int64_t wake = now + 1000000;  // at most 1 ms between checks
      if (generate) wake = std::min(wake, Generate(now));
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (!conns_[i].out.empty() && !conns_[i].want_out && !Flush(i)) {
          return false;
        }
      }
      // An open loop never sleeps through a send due within 2 ms: a vCPU
      // woken from idle can oversleep by several ms, which would show as
      // generator lateness, not server latency.
      int64_t wait = std::max<int64_t>(0, wake - NowNs());
      if (generate && w_.offered_rate > 0 && wait < 2000000) wait = 0;
      timespec ts{static_cast<time_t>(wait / kNsPerS),
                  static_cast<long>(wait % kNsPerS)};
      const int n = ::epoll_pwait2(ep_, events, 16, &ts, nullptr);
      for (int k = 0; k < n; ++k) {
        const size_t i = static_cast<size_t>(events[k].data.u64);
        if ((events[k].events & EPOLLOUT) && !Flush(i)) return false;
        if ((events[k].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) &&
            !ReadConn(i)) {
          return false;
        }
      }
    }
    return true;
  }

  bool Drain() {
    stop_load_ = true;
    const int64_t give_up = NowNs() + kDrainTimeoutNs;
    if (!Pump([&] { return AllIdle() || NowNs() > give_up; }, false)) {
      return false;
    }
    if (!AllIdle()) {
      for (Conn& c : conns_) r_.failed += c.pending.size();
      std::fprintf(stderr, "servbench: requests left unanswered\n");
      return false;
    }
    // A PING answered on every connection means every EVENT the server
    // produced before it has arrived.
    for (Conn& c : conns_) Send(&c, "PING\n", Pending{Pending::kPing});
    return Pump([&] { return AllIdle(); }, false);
  }

  bool Scrape(std::string* body) {
    metrics_target_ = body;
    Send(&conns_[0], "METRICS JSON\n", Pending{Pending::kMetrics});
    return Pump([&] { return metrics_target_ == nullptr; },
                loading_ && !stop_load_);
  }

  static int64_t GaugeValue(const std::string& json, const std::string& name) {
    const size_t at = json.find("\"" + name + "\":");
    if (at == std::string::npos) return -1;
    return std::strtoll(json.c_str() + at + name.size() + 3, nullptr, 10);
  }

  // --- load generation -------------------------------------------------------

  bool InWindow(int64_t t) const {
    return t >= window_start_ && t < window_end_;
  }

  WindowSlice* SliceAt(int64_t t) {
    return InWindow(t) ? &r_.slices[first_slice_ + static_cast<size_t>(
                                        (t - window_start_) / slice_ns_)]
                       : nullptr;
  }

  // Issues everything due at `now`; returns when the next thing is due.
  int64_t Generate(int64_t now) {
    if (stop_load_) return now + 1000000;
    int64_t wake = now + 1000000;
    Conn& pub = conns_[w_.publisher_conn];
    if (w_.offered_rate > 0) {
      if (next_pub_ == 0) next_pub_ = now;
      const int64_t gap = static_cast<int64_t>(1e9 / w_.offered_rate);
      for (; next_pub_ <= now; next_pub_ += gap) SendEvent(&pub, next_pub_, now);
      wake = std::min(wake, next_pub_);
    } else {
      while (outstanding_ < w_.window) SendBatch(&pub, now);
    }
    const ChurnPlan& plan = w_.churn;
    Conn& cc = conns_[plan.conn];
    if (plan.ticks_per_s > 0) {
      if (next_tick_ == 0) next_tick_ = now;
      while (next_tick_ <= now) {
        Pending p{Pending::kTime};
        p.tick = ++tick_sent_;
        p.t0 = next_tick_;
        Send(&cc, "TIME " + std::to_string(p.tick) + "\n", p);
        next_tick_ += kNsPerS / plan.ticks_per_s;
      }
      wake = std::min(wake, next_tick_);
    }
    if (plan.steps_per_s > 0) {
      if (next_churn_ == 0) next_churn_ = now;
      const int64_t gap = static_cast<int64_t>(1e9 / plan.steps_per_s);
      while (next_churn_ <= now) {
        ChurnStep(&cc, next_churn_, now);
        next_churn_ += gap;
      }
      wake = std::min(wake, next_churn_);
    }
    return wake;
  }

  Slot* StartEvent(uint64_t seq, int64_t t0, uint64_t request) {
    Slot& s = slots_[seq % kRing];
    Finalize(&s);
    s = Slot{};
    s.seq = seq;
    s.pool = static_cast<uint32_t>(seq % w_.pool_text.size());
    s.t0 = t0;
    s.request = request;
    return &s;
  }

  void SendBatch(Conn* c, int64_t now) {
    const uint64_t first = next_seq_;
    std::string text = "PUBBATCH " + std::to_string(w_.batch) + "\n";
    for (size_t i = 0; i < w_.batch; ++i) {
      StartEvent(next_seq_, now, first + 1);
      text += w_.EventText(next_seq_++);
      text += '\n';
    }
    Pending p{Pending::kBatch};
    p.count = static_cast<uint32_t>(w_.batch);
    p.seq = first;
    p.t0 = now;
    Send(c, text, p);
    r_.attempted += w_.batch - 1;
    ++outstanding_;
  }

  // One open-loop PUB (PUBUNTIL when the clock ticks), timed from when it
  // was due.
  void SendEvent(Conn* c, int64_t due, int64_t now) {
    const uint64_t seq = next_seq_++;
    Slot* s = StartEvent(seq, due, seq + 1);
    if (InWindow(due)) {
      r_.late_ms.push_back(static_cast<double>(now - due) / 1e6);
    }
    std::string text;
    if (w_.churn.ticks_per_s > 0) {
      s->deadline_tick = tick_sent_ + w_.churn.event_life_ticks;
      text = "PUBUNTIL " + std::to_string(s->deadline_tick) + " ";
    } else {
      text = "PUB ";
    }
    text += w_.EventText(seq);
    text += '\n';
    Pending p{Pending::kPub};
    p.count = 1;
    p.seq = seq;
    p.t0 = due;
    Send(c, text, p);
    ++outstanding_;
  }

  uint32_t NewChurn() {
    ChurnState st;
    st.cs = w_.NextChurnSub();
    churn_.push_back(std::move(st));
    return static_cast<uint32_t>(churn_.size() - 1);
  }

  // Initial subscriptions are loaded during set-up; later ones are churn
  // steps, counted in subscribing_ until answered (Pending::count = 1).
  void SendChurnSub(Conn* c, uint32_t idx, int64_t t0, bool initial) {
    ChurnState& st = churn_[idx];
    st.sent = t0;
    st.sub_tick = tick_sent_;
    st.cursor = first_unacked_;
    Pending p{Pending::kChurnSub, idx};
    p.count = initial ? 0 : 1;
    p.t0 = t0;
    if (w_.churn.ticks_per_s > 0) {
      // Initial subscriptions expire spread over the first lifetime so the
      // population turns over at a steady rate from the start.
      st.deadline = tick_sent_ + (initial
                                      ? rng_.Range(1, w_.churn.sub_life_ticks)
                                      : w_.churn.sub_life_ticks);
      Send(c, "SUBUNTIL " + std::to_string(st.deadline) + " " + st.cs.text +
                  "\n", p);
    } else {
      Send(c, "SUB " + st.cs.text + "\n", p);
    }
  }

  void ChurnStep(Conn* c, int64_t due, int64_t now) {
    if (InWindow(due)) {
      r_.late_ms.push_back(static_cast<double>(now - due) / 1e6);
    }
    if (live_.size() + subscribing_ >= w_.churn.population) {
      // UNSUB a random live subscription that no TIME already sent can
      // expire first (the server would answer ERR for it).
      for (int attempt = 0; attempt < 4 && !live_.empty(); ++attempt) {
        const uint32_t idx = live_[rng_.Below(live_.size())];
        ChurnState& st = churn_[idx];
        if (st.deadline <= tick_sent_ + 1) continue;
        RemoveLive(idx);
        st.state = ChurnState::kUnsubscribing;
        Pending p{Pending::kUnsub, idx};
        p.t0 = now;
        Send(c, "UNSUB " + std::to_string(st.server_id) + "\n", p);
        return;
      }
    }
    ++subscribing_;
    SendChurnSub(c, NewChurn(), now, /*initial=*/false);
  }

  void RemoveLive(uint32_t idx) {
    ChurnState& st = churn_[idx];
    const uint32_t last = live_.back();
    live_[st.live_pos] = last;
    churn_[last].live_pos = st.live_pos;
    live_.pop_back();
  }

  // --- replies and deliveries ------------------------------------------------

  void OnLine(Conn* c, std::string_view line, int64_t now) {
    if (c->payload_left > 0) {
      OnBatchPayload(c, line, now);
      return;
    }
    if (line.rfind("EVENT ", 0) == 0) {
      OnDelivery(line.substr(6), now);
      return;
    }
    if (c->pending.empty()) {
      std::fprintf(stderr, "servbench: unexpected line: %.*s\n",
                   static_cast<int>(std::min<size_t>(line.size(), 200)),
                   line.data());
      ++r_.failed;
      return;
    }
    const Pending p = c->pending.front();
    const bool ok = line.rfind("OK", 0) == 0;
    if (!ok) {
      ++r_.failed;
      if (r_.failed <= 5) {
        std::fprintf(stderr, "servbench: error reply: %.*s\n",
                     static_cast<int>(std::min<size_t>(line.size(), 200)),
                     line.data());
      }
    }
    std::string_view detail = line.size() > 3 ? line.substr(3) : "";
    switch (p.kind) {
      case Pending::kSub:
      case Pending::kChurnSub: {
        uint64_t id = 0;
        std::from_chars(detail.data(), detail.data() + detail.size(), id);
        if (ok) Own(id, p.kind == Pending::kChurnSub, p.index);
        if (p.kind == Pending::kChurnSub) OnChurnSubReply(p, ok, id, now);
        break;
      }
      case Pending::kUnsub:
        churn_[p.index].state = ChurnState::kDead;
        ChurnLatency(p, now);
        break;
      case Pending::kPub:
        AckEvents(p, now, !ok);
        break;
      case Pending::kBatch:
        if (ok) {
          c->payload_left = p.count;
          return;  // acked when the payload lines are in
        }
        AckEvents(p, now, true);
        r_.failed += p.count - 1;
        break;
      case Pending::kTime:
        OnTick(p.tick);
        break;
      case Pending::kMetrics:
        if (metrics_target_ != nullptr) *metrics_target_ = std::string(detail);
        metrics_target_ = nullptr;
        break;
      case Pending::kPing:
        break;
    }
    c->pending.pop_front();
  }

  void OnBatchPayload(Conn* c, std::string_view line, int64_t now) {
    const Pending& p = c->pending.front();
    const uint32_t slot_index = p.count - c->payload_left;
    if (line.rfind("ERR", 0) == 0) {
      ++r_.failed;
      slots_[(p.seq + slot_index) % kRing].rejected = true;
    }
    if (--c->payload_left > 0) return;
    AckEvents(p, now, false);
    c->pending.pop_front();
  }

  void AckEvents(const Pending& p, int64_t now, bool rejected) {
    first_unacked_ = p.seq + p.count;
    for (uint32_t i = 0; i < p.count; ++i) {
      Slot& s = slots_[(p.seq + i) % kRing];
      s.ack = now;
      s.rejected = s.rejected || rejected;
    }
    --outstanding_;
    if (WindowSlice* slice = SliceAt(now)) slice->events_acked += p.count;
    if (WindowSlice* slice = SliceAt(p.t0)) {
      slice->ack_ms.push_back(static_cast<double>(now - p.t0) / 1e6);
      if (o_.traced) {
        r_.spans.push_back(Span{span_base_ + p.seq + 1, 0,
                                span_base_ + p.seq + 1,
                                p.kind == Pending::kBatch ? "pubbatch" : "pub",
                                p.t0, now});
      }
    }
  }

  void Own(uint64_t id, bool churn, uint32_t index) {
    if (id_owner_.size() <= id) id_owner_.resize(id + 1 + id / 2);
    id_owner_[id] = Owner{true, churn, index};
  }

  void ChurnLatency(const Pending& p, int64_t now) {
    WindowSlice* slice = SliceAt(p.t0);
    if (slice == nullptr) return;
    slice->churn_ms.push_back(static_cast<double>(now - p.t0) / 1e6);
    if (o_.traced) {
      ++churn_ops_;
      r_.spans.push_back(Span{span_base_ + (uint64_t{1} << 32) + churn_ops_,
                              0, span_base_ + (uint64_t{1} << 32) + churn_ops_,
                              p.kind == Pending::kUnsub ? "unsub" : "sub",
                              p.t0, now});
    }
  }

  void OnChurnSubReply(const Pending& p, bool ok, uint64_t id, int64_t now) {
    ChurnState& st = churn_[p.index];
    if (p.count == 1) --subscribing_;
    ChurnLatency(p, now);
    if (!ok) {
      st.state = ChurnState::kDead;
      return;
    }
    st.server_id = id;
    st.state = ChurnState::kLive;
    st.live_pos = live_.size();
    live_.push_back(p.index);
    if (st.deadline != std::numeric_limits<int64_t>::max()) {
      expiry_.emplace(st.deadline, p.index);
    }
    // Replayed stored events are pushed before the SUB's reply.
    auto keep = unresolved_.begin();
    for (auto it = unresolved_.begin(); it != unresolved_.end(); ++it) {
      if (it->first == id) {
        CheckChurnDelivery(p.index, it->second);
      } else {
        *keep++ = *it;
      }
    }
    unresolved_.erase(keep, unresolved_.end());
  }

  void OnTick(int64_t tick) {
    while (!expiry_.empty() && expiry_.top().first <= tick) {
      const uint32_t idx = expiry_.top().second;
      expiry_.pop();
      ChurnState& st = churn_[idx];
      if (st.state == ChurnState::kLive) RemoveLive(idx);
      if (st.state != ChurnState::kUnsubscribing) st.state = ChurnState::kDead;
    }
  }

  // Pairs a delivery with the event it reports. The server sends one
  // subscriber's deliveries in publish order (one publisher connection,
  // one match worker, per-connection FIFO), so the k-th delivery to a
  // subscription is for the k-th sent event it matches: the cursor walks
  // the sent events with the subscription's own Matches. This does not
  // trust the EVENT text, which the server can render wrongly (see
  // net.payload_text_mismatches).
  uint64_t PairByOrder(const vfps::Subscription& sub, uint64_t* cursor) const {
    for (uint64_t seq = *cursor; seq < next_seq_; ++seq) {
      if (sub.Matches(w_.pool_event[seq % w_.pool_event.size()])) {
        *cursor = seq + 1;
        return seq;
      }
    }
    return kNoSeq;
  }

  // The pairing key in the EVENT text; kNoSeq if absent.
  static uint64_t ParseKey(std::string_view text) {
    const char* key = static_cast<const char*>(
        memmem(text.data(), text.size(), "seq = ", 6));
    uint64_t seq = 0;
    if (key == nullptr ||
        std::from_chars(key + 6, text.data() + text.size(), seq).ec !=
            std::errc() ||
        seq < Workload::kKeyBase) {
      return kNoSeq;
    }
    return seq - Workload::kKeyBase;
  }

  void OnDelivery(std::string_view rest, int64_t now) {
    ++r_.attempted;
    if (WindowSlice* slice = SliceAt(now)) ++slice->deliveries;
    // "<sub-id> <event-id> <event text>"
    const char* end = rest.data() + rest.size();
    uint64_t id = 0;
    const auto [after_id, ec] = std::from_chars(rest.data(), end, id);
    const char* eid_end =
        ec == std::errc() && after_id < end
            ? static_cast<const char*>(std::memchr(
                  after_id + 1, ' ', static_cast<size_t>(end - after_id - 1)))
            : nullptr;
    const std::string_view text =
        eid_end == nullptr
            ? std::string_view()
            : std::string_view(eid_end + 1,
                               static_cast<size_t>(end - eid_end - 1));
    const Owner owner = id < id_owner_.size() ? id_owner_[id] : Owner{};
    uint64_t seq = kNoSeq;
    if (owner.known && !owner.churn) {
      seq = PairByOrder(w_.stable_sub[owner.index],
                        &stable_cursor_[owner.index]);
    } else if (w_.store_events) {
      // Stored events have distinct ids, so the payload (and its key) is
      // the event's own; a replayed event may precede the SUB's reply.
      seq = ParseKey(text);
      if (seq != kNoSeq && !owner.known) {
        unresolved_.emplace_back(id, seq);
        return;
      }
    } else if (owner.known) {
      ChurnState& st = churn_[owner.index];
      seq = PairByOrder(st.cs.sub, &st.cursor);
    }
    if (seq == kNoSeq || slots_[seq % kRing].seq != seq) {
      ++r_.failed;  // unknown subscription, no matching event, or too late
      return;
    }
    Slot& s = slots_[seq % kRing];
    if (WindowSlice* slice = SliceAt(s.t0)) {
      slice->delivery_ns.Record(now - s.t0);
      if (o_.traced && seq % kSpanSample == 0 && !s.span_recorded) {
        s.span_recorded = true;
        r_.spans.push_back(
            Span{span_base_ + (uint64_t{1} << 33) + ++delivery_spans_,
                 span_base_ + s.request, span_base_ + s.request, "delivery",
                 s.t0, now});
      }
    }
    if (seq % kTextSample == 0 && !s.text_checked) {
      s.text_checked = true;
      ++r_.text_checked;
      if (CanonicalPairs(text) != CanonicalPairs(w_.EventText(seq))) {
        ++r_.text_mismatched;
      }
    }
    if (owner.churn) {
      CheckChurnDelivery(owner.index, seq);
      return;
    }
    s.got += 1;
    s.hash += MemberHash(owner.index);
  }

  // A delivery to a churned subscription must be a true match, arrive
  // while the subscription is live, and come from an event the server
  // processed after the subscription existed, or that it still stored.
  void CheckChurnDelivery(uint32_t idx, uint64_t seq) {
    const ChurnState& st = churn_[idx];
    const Slot& s = slots_[seq % kRing];
    if (s.seq != seq) {
      ++r_.failed;
      return;
    }
    const bool live = st.state == ChurnState::kLive ||
                      st.state == ChurnState::kUnsubscribing;
    const bool acked_before = s.ack != 0 && s.ack < st.sent;
    const bool stored = w_.store_events && s.deadline_tick > st.sub_tick;
    if (!live || (acked_before && !stored) ||
        !st.cs.sub.Matches(w_.pool_event[s.pool]) ||
        !churn_delivered_.emplace(idx, seq).second) {
      ++r_.failed;
    }
  }

  // Compares an event's stable-subscription deliveries with the oracle.
  void Finalize(Slot* s) {
    if (s->seq == kNoSeq || s->rejected || !w_.pool_checked[s->pool]) {
      s->seq = kNoSeq;
      return;
    }
    const uint32_t want = w_.expected_count[s->pool];
    r_.attempted += want > s->got ? want - s->got : 0;
    if (s->got != want || s->hash != w_.expected_hash[s->pool]) {
      const uint64_t diff = s->got > want ? s->got - want : want - s->got;
      r_.failed += std::max<uint64_t>(1, diff);
    }
    s->seq = kNoSeq;
  }

  Workload& w_;
  const WireOptions& o_;
  WireResult& r_;
  vfps::Rng rng_;
  ServerProcess server_;
  std::vector<Conn> conns_;
  int ep_ = -1;

  std::vector<Slot> slots_;
  std::vector<Owner> id_owner_;
  std::vector<ChurnState> churn_;
  std::vector<uint32_t> live_;
  size_t subscribing_ = 0;
  std::priority_queue<std::pair<int64_t, uint32_t>,
                      std::vector<std::pair<int64_t, uint32_t>>,
                      std::greater<>>
      expiry_;
  std::vector<std::pair<uint64_t, uint64_t>> unresolved_;
  std::set<std::pair<uint32_t, uint64_t>> churn_delivered_;

  uint64_t next_seq_ = 0;
  uint64_t first_unacked_ = 0;
  std::vector<uint64_t> stable_cursor_;
  size_t outstanding_ = 0;
  int64_t next_pub_ = 0;
  int64_t next_churn_ = 0;
  int64_t next_tick_ = 0;
  int64_t tick_sent_ = 0;
  int64_t window_start_ = 0;
  int64_t window_end_ = 0;
  int64_t slice_ns_ = 1;
  size_t first_slice_ = 0;
  bool loading_ = false;
  bool stop_load_ = false;
  uint64_t span_base_ = 0;
  uint64_t churn_ops_ = 0;
  uint64_t delivery_spans_ = 0;
  std::string* metrics_target_ = nullptr;
};

}  // namespace

WireTotals Totals(const WireResult& result) {
  WireTotals t;
  for (const WindowSlice& s : result.slices) {
    t.events_acked += s.events_acked;
    t.deliveries += s.deliveries;
    t.ack_ms.insert(t.ack_ms.end(), s.ack_ms.begin(), s.ack_ms.end());
    t.delivery_samples += s.delivery_ns.count();
    t.churn_samples += s.churn_ms.size();
  }
  return t;
}

namespace {

// Median over the slices of `value(slice)`, skipping slices for which it
// has no samples (negative).
template <typename Value>
double SliceMedian(const WireResult& wire, Value value) {
  std::vector<double> values;
  for (const WindowSlice& slice : wire.slices) {
    const double v = value(slice);
    if (v >= 0) values.push_back(v);
  }
  return Quantile(values, 0.5);
}

double SampleQuantile(const std::vector<double>& samples, double q) {
  return samples.empty() ? -1 : Quantile(samples, q);
}

double HistogramQuantileMs(const LatencyHistogram& h, double q) {
  return h.count() == 0 ? -1 : h.Quantile(q) / 1e6;
}

}  // namespace

std::vector<Metric> WireMetrics(const WireResult& r) {
  const WireTotals t = Totals(r);
  const auto ack = [&](double q) {
    return SliceMedian(r, [q](const WindowSlice& s) {
      return SampleQuantile(s.ack_ms, q);
    });
  };
  const auto delivery = [&](double q) {
    return SliceMedian(r, [q](const WindowSlice& s) {
      return HistogramQuantileMs(s.delivery_ns, q);
    });
  };
  const auto churn = [&](double q) {
    return SliceMedian(r, [q](const WindowSlice& s) {
      return SampleQuantile(s.churn_ms, q);
    });
  };
  const double events = static_cast<double>(t.events_acked);
  return {
      {"setup_s", Quantile(r.setup_s, 0.5), "s"},
      {"events_per_s", events / r.window_s, "1/s"},
      {"deliveries_per_s", static_cast<double>(t.deliveries) / r.window_s,
       "1/s"},
      {"ack_p50_ms", ack(0.5), "ms"},
      {"ack_p99_ms", ack(0.99), "ms"},
      {"delivery_p50_ms", delivery(0.5), "ms"},
      {"delivery_p99_ms", delivery(0.99), "ms"},
      {"churn_p50_ms", churn(0.5), "ms"},
      {"churn_p99_ms", churn(0.99), "ms"},
      {"server_rss_mb", Quantile(r.rss_peak_mb, 0.5), "MB"},
      {"server_cpu_us_per_event",
       events > 0 ? r.server_cpu_s * 1e6 / events : 0, "us"},
  };
}

bool RunWire(Workload* workload, const WireOptions& options,
             WireResult* result) {
  Generator generator(workload, options, result);
  return generator.Run();
}

}  // namespace servbench
