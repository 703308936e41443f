// Copyright 2026 The vfps Authors.
// Tests for the network layer: line buffering, protocol parsing/formatting,
// and end-to-end server/client exchanges over loopback (the paper's
// two-process deployment, here server thread + client thread).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

#include "src/net/client.h"
#include "src/net/line_buffer.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/telemetry/metrics.h"
#include "src/util/failpoint.h"

namespace vfps {
namespace {

// --- LineBuffer ----------------------------------------------------------------

TEST(LineBufferTest, ReassemblesFragmentedLines) {
  LineBuffer buf;
  buf.Feed("hel");
  EXPECT_FALSE(buf.NextLine().has_value());
  buf.Feed("lo\nwor");
  EXPECT_EQ(buf.NextLine(), "hello");
  EXPECT_FALSE(buf.NextLine().has_value());
  buf.Feed("ld\n\n");
  EXPECT_EQ(buf.NextLine(), "world");
  EXPECT_EQ(buf.NextLine(), "");
  EXPECT_FALSE(buf.NextLine().has_value());
}

TEST(LineBufferTest, StripsCarriageReturn) {
  LineBuffer buf;
  buf.Feed("PING\r\n");
  EXPECT_EQ(buf.NextLine(), "PING");
}

TEST(LineBufferTest, MultipleLinesInOneChunk) {
  LineBuffer buf;
  buf.Feed("a\nb\nc\n");
  EXPECT_EQ(buf.NextLine(), "a");
  EXPECT_EQ(buf.NextLine(), "b");
  EXPECT_EQ(buf.NextLine(), "c");
}

/// Every line of the blocks TakeLines hands out for `feeds`, in order.
std::vector<std::string> FramedLines(const std::vector<std::string>& feeds,
                                     size_t max_line_bytes = 1 << 20) {
  LineBuffer buf(max_line_bytes);
  std::vector<std::string> lines;
  std::string block;
  for (const std::string& feed : feeds) {
    buf.Feed(feed);
    if (!buf.TakeLines(&block)) continue;
    std::string_view rest = block;
    std::string_view line;
    while (PopLine(&rest, &line)) lines.emplace_back(line);
  }
  return lines;
}

TEST(LineBufferTest, SplitAtEveryByteBoundaryFramesTheSameLines) {
  // Includes a CRLF, so one split falls between '\r' and '\n'.
  const std::string script = "PING\r\nSUB a = 1\n\nPUB a = 1, b = 'x y'\n";
  const std::vector<std::string> whole = FramedLines({script});
  ASSERT_EQ(whole, (std::vector<std::string>{"PING", "SUB a = 1", "",
                                             "PUB a = 1, b = 'x y'"}));
  for (size_t cut = 0; cut <= script.size(); ++cut) {
    EXPECT_EQ(FramedLines({script.substr(0, cut), script.substr(cut)}), whole)
        << "cut at " << cut;
    // The same stream through NextLine.
    LineBuffer buf;
    std::vector<std::string> popped;
    buf.Feed(script.substr(0, cut));
    while (auto line = buf.NextLine()) popped.push_back(*line);
    buf.Feed(script.substr(cut));
    while (auto line = buf.NextLine()) popped.push_back(*line);
    EXPECT_EQ(popped, whole) << "cut at " << cut;
  }
  std::vector<std::string> bytes;
  for (char c : script) bytes.emplace_back(1, c);
  EXPECT_EQ(FramedLines(bytes), whole);
}

TEST(LineBufferTest, TenThousandLinesInOneFeedFrameInOneBlock) {
  std::string stream;
  for (int i = 0; i < 10000; ++i) {
    stream.append("SUB a0 = ").append(std::to_string(i)).append("\n");
  }
  stream.append("SUB partial");
  LineBuffer buf;
  buf.Feed(stream);
  std::string block;
  ASSERT_TRUE(buf.TakeLines(&block));
  EXPECT_EQ(block.size(), stream.size() - std::string("SUB partial").size());
  std::string_view rest = block;
  std::string_view line;
  int n = 0;
  while (PopLine(&rest, &line)) {
    EXPECT_EQ(line, std::string("SUB a0 = ").append(std::to_string(n)));
    ++n;
  }
  EXPECT_EQ(n, 10000);
  EXPECT_EQ(buf.pending_bytes(), std::string("SUB partial").size());
  EXPECT_FALSE(buf.TakeLines(&block));  // the tail waits for its '\n'
  buf.Feed("\n");
  ASSERT_TRUE(buf.TakeLines(&block));
  EXPECT_EQ(block, "SUB partial\n");
}

TEST(LineBufferTest, EmptyLinesAreLines) {
  EXPECT_EQ(FramedLines({"\n\r\n\n"}),
            (std::vector<std::string>{"", "", ""}));
  EXPECT_EQ(FramedLines({"\n", "\n", "a\n"}),
            (std::vector<std::string>{"", "", "a"}));
}

TEST(LineBufferTest, OverlongUnterminatedLineIsHandedOverWhole) {
  // Complete lines come first; the unterminated tail over the limit
  // follows as one more line, and the buffer starts over.
  EXPECT_EQ(FramedLines({"ok\n" + std::string(20, 'x')}, 16),
            (std::vector<std::string>{"ok", std::string(20, 'x')}));
  LineBuffer buf(16);
  buf.Feed(std::string(10, 'y'));
  std::string block;
  EXPECT_FALSE(buf.TakeLines(&block));  // under the limit: keep waiting
  buf.Feed(std::string(10, 'y'));
  ASSERT_TRUE(buf.TakeLines(&block));
  EXPECT_EQ(block, std::string(20, 'y') + "\n");
  EXPECT_EQ(buf.pending_bytes(), 0u);
  LineBuffer one_at_a_time(16);
  one_at_a_time.Feed(std::string(17, 'z'));
  EXPECT_EQ(one_at_a_time.NextLine(), std::string(17, 'z'));
  EXPECT_FALSE(one_at_a_time.NextLine().has_value());
}

// --- Protocol -------------------------------------------------------------------

TEST(ProtocolTest, ParsesAllVerbs) {
  auto sub = ParseRequest("SUB price <= 400 AND from = 'NYC'");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().kind, Request::Kind::kSubscribe);
  EXPECT_EQ(sub.value().body, "price <= 400 AND from = 'NYC'");
  EXPECT_EQ(sub.value().number, Request::kNoDeadline);

  auto subuntil = ParseRequest("SUBUNTIL 100 a = 1");
  ASSERT_TRUE(subuntil.ok());
  EXPECT_EQ(subuntil.value().number, 100);
  EXPECT_EQ(subuntil.value().body, "a = 1");

  auto unsub = ParseRequest("UNSUB 42");
  ASSERT_TRUE(unsub.ok());
  EXPECT_EQ(unsub.value().kind, Request::Kind::kUnsubscribe);
  EXPECT_EQ(unsub.value().number, 42);

  auto pub = ParseRequest("PUB a = 1, b = 2");
  ASSERT_TRUE(pub.ok());
  EXPECT_EQ(pub.value().kind, Request::Kind::kPublish);
  EXPECT_EQ(pub.value().body, "a = 1, b = 2");

  auto pubbatch = ParseRequest("PUBBATCH 3");
  ASSERT_TRUE(pubbatch.ok());
  EXPECT_EQ(pubbatch.value().kind, Request::Kind::kPublishBatch);
  EXPECT_EQ(pubbatch.value().number, 3);

  auto time = ParseRequest("TIME 12345");
  ASSERT_TRUE(time.ok());
  EXPECT_EQ(time.value().number, 12345);

  EXPECT_TRUE(ParseRequest("STATS").ok());
  EXPECT_TRUE(ParseRequest("PING").ok());

  auto metrics = ParseRequest("METRICS");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().kind, Request::Kind::kMetrics);
  EXPECT_EQ(metrics.value().body, "JSON");  // bare METRICS defaults to JSON
  auto metrics_prom = ParseRequest("METRICS PROM");
  ASSERT_TRUE(metrics_prom.ok());
  EXPECT_EQ(metrics_prom.value().kind, Request::Kind::kMetrics);
  EXPECT_EQ(metrics_prom.value().body, "PROM");
  EXPECT_EQ(ParseRequest("METRICS JSON").value().body, "JSON");
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("FROB x").ok());
  EXPECT_FALSE(ParseRequest("SUB").ok());
  EXPECT_FALSE(ParseRequest("UNSUB abc").ok());
  EXPECT_FALSE(ParseRequest("UNSUB 1 2").ok());
  EXPECT_FALSE(ParseRequest("TIME soon").ok());
  EXPECT_FALSE(ParseRequest("SUBUNTIL x a = 1").ok());
  EXPECT_FALSE(ParseRequest("METRICS XML").ok());
  EXPECT_FALSE(ParseRequest("METRICS JSON extra").ok());
  EXPECT_FALSE(ParseRequest("PUBBATCH").ok());
  EXPECT_FALSE(ParseRequest("PUBBATCH x").ok());
  EXPECT_FALSE(ParseRequest("PUBBATCH 1 2").ok());
}

TEST(ProtocolTest, ResponsesRoundTrip) {
  bool ok;
  std::string detail;
  ASSERT_TRUE(ParseResponse(FormatOk(), &ok, &detail).ok());
  EXPECT_TRUE(ok);
  EXPECT_EQ(detail, "");
  ASSERT_TRUE(ParseResponse(FormatOkDetail("7 3"), &ok, &detail).ok());
  EXPECT_TRUE(ok);
  EXPECT_EQ(detail, "7 3");
  ASSERT_TRUE(ParseResponse(FormatErr("bad\nthing"), &ok, &detail).ok());
  EXPECT_FALSE(ok);
  EXPECT_EQ(detail, "bad thing");
  EXPECT_FALSE(ParseResponse("HELLO", &ok, &detail).ok());
}

TEST(ProtocolTest, FormatsEventWithNames) {
  SchemaRegistry schema;
  AttributeId price = schema.InternAttribute("price");
  AttributeId movie = schema.InternAttribute("movie");
  Value film = schema.InternValue("alien");
  Event e = Event::CreateUnchecked({{price, 8}, {movie, film}});
  std::string text = FormatEventText(e, schema);
  EXPECT_EQ(text, "price = 8, movie = 'alien'");
  EXPECT_EQ(FormatEventPush(3, 9, e, schema),
            "EVENT 3 9 price = 8, movie = 'alien'");
}

// --- End-to-end over loopback ------------------------------------------------------

class ServerClientTest : public ::testing::Test {
 protected:
  void SetUp() override { StartServer({}); }

  void StartServer(ServerOptions options) {
    server_ = std::make_unique<PubSubServer>(std::move(options));
    ASSERT_TRUE(server_->Start().ok());
    thread_ = std::thread([this] { server_->RunUntilStopped(); });
  }

  void StopServer() {
    if (!server_) return;
    server_->Stop();
    thread_.join();
    server_.reset();
  }

  /// Stops the default server started by SetUp and starts one with custom
  /// options (on a fresh port unless options pin one).
  void RestartServer(ServerOptions options) {
    StopServer();
    StartServer(std::move(options));
  }

  void TearDown() override {
#if VFPS_FAILPOINTS
    // Failpoints are process-global; never leak an armed site into the
    // next test.
    FailPoints::Global().ClearAll();
#endif
    StopServer();
  }

  PubSubClient MustConnect() {
    auto client = PubSubClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  PubSubClient MustConnect(const ClientOptions& options) {
    auto client =
        PubSubClient::Connect("127.0.0.1", server_->port(), options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  /// A raw TCP connection to the server, for driving the wire protocol
  /// byte-by-byte (torn frames, pipelining, half-closed streams) below the
  /// PubSubClient abstraction.
  class RawConn {
   public:
    explicit RawConn(uint16_t port) {
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) == 0;
    }
    ~RawConn() {
      if (fd_ >= 0) ::close(fd_);
    }
    bool connected() const { return connected_; }

    void WriteAll(std::string_view data) {
      size_t sent = 0;
      while (sent < data.size()) {
        ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0 && errno != EINTR) return;
        if (n > 0) sent += static_cast<size_t>(n);
      }
    }

    /// Reads the next '\n'-terminated line, or nullopt on timeout/close.
    std::optional<std::string> ReadLine(int timeout_ms = 2000) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(timeout_ms);
      while (true) {
        if (auto line = in_.NextLine()) return line;
        if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
        char buf[4096];
        ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
          in_.Feed(std::string_view(buf, static_cast<size_t>(n)));
          continue;
        }
        if (n == 0) return std::nullopt;  // closed
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }

   private:
    int fd_ = -1;
    bool connected_ = false;
    LineBuffer in_;
  };

  std::unique_ptr<PubSubServer> server_;
  std::thread thread_;
};

TEST_F(ServerClientTest, PingStats) {
  PubSubClient client = MustConnect();
  EXPECT_TRUE(client.Ping().ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("subscriptions=0"), std::string::npos);
}

TEST_F(ServerClientTest, SubscribePublishNotify) {
  PubSubClient client = MustConnect();
  auto sub = client.Subscribe("price <= 400 AND from = 'NYC'");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();

  auto hit = client.Publish("price = 350, from = 'NYC'");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().matches, 1u);

  auto miss = client.Publish("price = 500, from = 'NYC'");
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss.value().matches, 0u);

  // The push for the first publish must arrive on this connection.
  auto pushed = client.PollEvent(2000);
  ASSERT_TRUE(pushed.ok());
  ASSERT_TRUE(pushed.value().has_value());
  EXPECT_EQ(pushed.value()->subscription_id, sub.value());
  EXPECT_NE(pushed.value()->event_text.find("price = 350"),
            std::string::npos);
  EXPECT_NE(pushed.value()->event_text.find("'NYC'"), std::string::npos);

  // No second push.
  auto none = client.PollEvent(100);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().has_value());
}

TEST_F(ServerClientTest, CrossClientDelivery) {
  PubSubClient subscriber = MustConnect();
  PubSubClient publisher = MustConnect();
  auto sub = subscriber.Subscribe("topic = 'sports'");
  ASSERT_TRUE(sub.ok());
  auto result = publisher.Publish("topic = 'sports', score = 3");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches, 1u);
  auto pushed = subscriber.PollEvent(2000);
  ASSERT_TRUE(pushed.ok());
  ASSERT_TRUE(pushed.value().has_value());
  EXPECT_EQ(pushed.value()->subscription_id, sub.value());
  // The publisher gets nothing.
  auto none = publisher.PollEvent(100);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().has_value());
}

TEST_F(ServerClientTest, UnsubscribeAndOwnership) {
  PubSubClient a = MustConnect();
  PubSubClient b = MustConnect();
  auto sub = a.Subscribe("x = 1");
  ASSERT_TRUE(sub.ok());
  // b cannot cancel a's subscription.
  EXPECT_FALSE(b.Unsubscribe(sub.value()).ok());
  EXPECT_TRUE(a.Unsubscribe(sub.value()).ok());
  EXPECT_FALSE(a.Unsubscribe(sub.value()).ok());
  auto result = b.Publish("x = 1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches, 0u);
}

TEST_F(ServerClientTest, BadInputYieldsErrNotDisconnect) {
  PubSubClient client = MustConnect();
  EXPECT_FALSE(client.Subscribe("price <=").ok());
  EXPECT_FALSE(client.Publish("price < 4").ok());
  // The connection stays usable.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerClientTest, ValidityAndLogicalTime) {
  PubSubClient client = MustConnect();
  auto sub = client.SubscribeUntil(100, "x = 1");
  ASSERT_TRUE(sub.ok());
  auto r1 = client.Publish("x = 1");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().matches, 1u);
  ASSERT_TRUE(client.AdvanceTime(100).ok());
  auto r2 = client.Publish("x = 1");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().matches, 0u);
  (void)client.PollEvent(100);  // drain the first push
}

TEST_F(ServerClientTest, DisconnectDropsSubscriptions) {
  {
    PubSubClient ephemeral = MustConnect();
    ASSERT_TRUE(ephemeral.Subscribe("y = 2").ok());
  }  // connection closes here
  PubSubClient client = MustConnect();
  // Give the server a moment to reap the closed connection.
  for (int i = 0; i < 50; ++i) {
    auto stats = client.Stats();
    ASSERT_TRUE(stats.ok());
    if (stats.value().find("subscriptions=0") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  auto result = client.Publish("y = 2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches, 0u);
}

TEST_F(ServerClientTest, ManySubscriptionsAndSelectiveDelivery) {
  PubSubClient client = MustConnect();
  std::vector<uint64_t> ids;
  for (int v = 0; v < 50; ++v) {
    auto sub = client.Subscribe("k = " + std::to_string(v));
    ASSERT_TRUE(sub.ok());
    ids.push_back(sub.value());
  }
  auto result = client.Publish("k = 17");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches, 1u);
  auto pushed = client.PollEvent(2000);
  ASSERT_TRUE(pushed.ok());
  ASSERT_TRUE(pushed.value().has_value());
  EXPECT_EQ(pushed.value()->subscription_id, ids[17]);
}


TEST_F(ServerClientTest, MetricsEndpoint) {
  PubSubClient client = MustConnect();
  ASSERT_TRUE(client.Subscribe("price <= 400").ok());
  auto hit = client.Publish("price = 100");
  ASSERT_TRUE(hit.ok());
  (void)client.PollEvent(2000);  // drain the push
  EXPECT_TRUE(client.Ping().ok());

  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string& json = metrics.value();
  // Single-line JSON object covering server, broker, and matcher series.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"vfps_server_pub_requests_total\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"vfps_server_sub_requests_total\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"vfps_server_connections\":1"), std::string::npos);
  EXPECT_NE(json.find("\"vfps_broker_publishes_total\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"vfps_broker_notifications_total\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"vfps_broker_publish_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"vfps_server_pub_ns\":"), std::string::npos);
  // Bytes drained per readable connection per read round.
  EXPECT_NE(json.find("\"vfps_net_read_bytes\":{\"count\":"),
            std::string::npos);
#if VFPS_TELEMETRY
  EXPECT_EQ(json.find("\"vfps_net_read_bytes\":{\"count\":0,"),
            std::string::npos);
  // Per-event matcher phase instrumentation is compiled in.
  EXPECT_NE(json.find("\"vfps_matcher_events_total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"vfps_matcher_phase1_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"vfps_matcher_phase2_ns\":"), std::string::npos);
  // The served dynamic matcher's maintenance: one subscription and one
  // event price nothing, so nothing was built or moved.
  EXPECT_NE(json.find("\"vfps_matcher_tables_created_total\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"vfps_matcher_tables_deleted_total\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"vfps_matcher_subscriptions_moved_total\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"vfps_matcher_sweeps_total\":0"), std::string::npos);
  EXPECT_NE(json.find("\"vfps_matcher_tables\":0"), std::string::npos);
#endif

  // STATS output stays in the exact legacy key=value format.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("subscriptions=1"), std::string::npos);
  EXPECT_NE(stats.value().find("connections=1"), std::string::npos);
}

TEST_F(ServerClientTest, MetricsPrometheusFraming) {
  PubSubClient client = MustConnect();
  ASSERT_TRUE(client.Ping().ok());
  auto prom = client.MetricsPrometheus();
  ASSERT_TRUE(prom.ok()) << prom.status().ToString();
  const std::string& text = prom.value();
  EXPECT_NE(text.find("# TYPE vfps_server_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("vfps_server_ping_requests_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vfps_server_connections 1\n"), std::string::npos);
  // The connection keeps framing correctly afterwards.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerClientTest, PipelinedBatchPublish) {
  PubSubClient client = MustConnect();
  ASSERT_TRUE(client.Subscribe("k = 3").ok());
  std::vector<std::string> batch;
  for (int v = 0; v < 20; ++v) {
    batch.push_back("k = " + std::to_string(v % 5));
  }
  auto replies = client.PublishBatch(batch);
  ASSERT_TRUE(replies.ok()) << replies.status().ToString();
  ASSERT_EQ(replies.value().size(), 20u);
  size_t total = 0;
  for (size_t i = 0; i < replies.value().size(); ++i) {
    total += replies.value()[i].matches;
    // Slot order is preserved: the broker assigns ascending event ids.
    if (i > 0) {
      EXPECT_GT(replies.value()[i].event_id,
                replies.value()[i - 1].event_id);
    }
  }
  EXPECT_EQ(total, 4u);  // k = 3 occurs 4 times in 20 events mod 5
  // Pushes for the 4 matches arrive too.
  int pushes = 0;
  while (true) {
    auto pushed = client.PollEvent(200);
    ASSERT_TRUE(pushed.ok());
    if (!pushed.value().has_value()) break;
    ++pushes;
  }
  EXPECT_EQ(pushes, 4);
  // A malformed event inside a batch surfaces as an error.
  auto bad = client.PublishBatch({"k = 1", "k <", "k = 2"});
  EXPECT_FALSE(bad.ok());
  // Connection remains usable (drain the stray replies via PING).
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerClientTest, EmptyBatchPublishIsLocal) {
  PubSubClient client = MustConnect();
  auto replies = client.PublishBatch({});
  ASSERT_TRUE(replies.ok());
  EXPECT_TRUE(replies.value().empty());
  // The client short-circuits: no PUBBATCH request ever reaches the server.
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("\"vfps_server_pubbatch_requests_total\":0"),
            std::string::npos);
}

// Bad slots answer per-slot ERR but the valid events around them are still
// published — batch publishing is per-event atomic, not all-or-nothing.
TEST_F(ServerClientTest, BatchPublishBadSlotStillPublishesGoodSlots) {
  PubSubClient subscriber = MustConnect();
  PubSubClient publisher = MustConnect();
  ASSERT_TRUE(subscriber.Subscribe("k = 2").ok());
  auto bad = publisher.PublishBatch({"k = 1", "k <", "k = 2"});
  EXPECT_FALSE(bad.ok());  // the malformed slot surfaces as the error
  // ...but slot 3's event was published and delivered.
  auto pushed = subscriber.PollEvent(2000);
  ASSERT_TRUE(pushed.ok());
  ASSERT_TRUE(pushed.value().has_value());
  EXPECT_NE(pushed.value()->event_text.find("k = 2"), std::string::npos);
  EXPECT_TRUE(publisher.Ping().ok());
}

TEST_F(ServerClientTest, OversizedBatchPublishRejectedLocally) {
  PubSubClient client = MustConnect();
  // One past the PUBBATCH cap (65536): the client rejects it before any
  // bytes hit the wire (sending first would leave the payload lines to be
  // misread as requests after the server refuses the header).
  std::vector<std::string> batch(65537, "k = 1");
  auto replies = client.PublishBatch(batch);
  EXPECT_FALSE(replies.ok());
  EXPECT_TRUE(client.Ping().ok());
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("\"vfps_server_pubbatch_requests_total\":0"),
            std::string::npos);
}

// --- Robustness: torn frames, overload, reconnect (docs/ROBUSTNESS.md) --------

TEST_F(ServerClientTest, TornFramesReassembleAcrossVerbs) {
  RawConn raw(server_->port());
  ASSERT_TRUE(raw.connected());
  // One byte per send: every verb must survive arbitrary fragmentation.
  const std::string script =
      "PING\n"
      "SUB k = 1\n"
      "PUB k = 1\n"
      "PUBBATCH 2\nk = 1\nk = 2\n"
      "UNSUB 1\n"
      "TIME 5\n"
      "STATS\n";
  for (char c : script) {
    raw.WriteAll(std::string_view(&c, 1));
  }
  EXPECT_EQ(raw.ReadLine(), "OK");                       // PING
  EXPECT_EQ(raw.ReadLine(), "OK 1");                     // SUB
  auto push = raw.ReadLine();                            // EVENT for PUB
  ASSERT_TRUE(push.has_value());
  EXPECT_EQ(push->rfind("EVENT 1 ", 0), 0u) << *push;
  auto pub = raw.ReadLine();                             // PUB reply
  ASSERT_TRUE(pub.has_value());
  EXPECT_EQ(pub->rfind("OK ", 0), 0u) << *pub;
  auto batch_push = raw.ReadLine();                      // EVENT for slot 1
  ASSERT_TRUE(batch_push.has_value());
  EXPECT_EQ(batch_push->rfind("EVENT 1 ", 0), 0u);
  EXPECT_EQ(raw.ReadLine(), "OK 2");                     // PUBBATCH header
  ASSERT_TRUE(raw.ReadLine().has_value());               // slot 1 payload
  ASSERT_TRUE(raw.ReadLine().has_value());               // slot 2 payload
  EXPECT_EQ(raw.ReadLine(), "OK");                       // UNSUB
  EXPECT_EQ(raw.ReadLine(), "OK");                       // TIME
  auto stats = raw.ReadLine();                           // STATS
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->rfind("OK subscriptions=", 0), 0u);
}

// Without an event store every event id is 0; a fan-out payload cache
// keyed by event id once handed every push of a job the first matched
// event's text.
// The loop frames whatever a read round drained and the worker resumes a
// PUBBATCH across jobs, so how the client cuts its writes must not show in
// the replies: one byte per send and 64 KiB per send answer exactly what a
// single send does, an empty and a malformed slot included.
TEST_F(ServerClientTest, ReplyStreamDoesNotDependOnWriteSizes) {
  const auto script = [](int slots) {
    std::string s = "SUB k >= 2\nPUBBATCH " + std::to_string(slots) + "\n";
    for (int i = 0; i < slots; ++i) {
      if (i == 1) {
        s += "\n";  // empty slot: a legal empty event
      } else if (i == 2) {
        s += "k = = 2\n";  // malformed slot: ERR in its payload line
      } else {
        s += "k = " + std::to_string(i) + "\r\n";
      }
    }
    return s + "PING\n";
  };
  const auto replies = [this](const std::string& input, size_t chunk) {
    RestartServer(ServerOptions{});
    RawConn raw(server_->port());
    EXPECT_TRUE(raw.connected());
    for (size_t at = 0; at < input.size(); at += chunk) {
      raw.WriteAll(std::string_view(input).substr(at, chunk));
    }
    std::string stream;
    while (auto line = raw.ReadLine(10000)) {
      stream.append(*line).push_back('\n');
      if (*line == "OK") break;  // the PING closes the stream
    }
    return stream;
  };
  const std::string small = script(6);
  const std::string small_whole = replies(small, small.size());
  EXPECT_NE(small_whole.find("\nERR "), std::string::npos) << small_whole;
  EXPECT_EQ(replies(small, 1), small_whole);
  // Over 64 KiB, so 64 KiB sends cut the batch payload between reads.
  const std::string big = script(12000);
  ASSERT_GT(big.size(), size_t{64} << 10);
  const std::string big_whole = replies(big, big.size());
  EXPECT_NE(big_whole.find("OK 12000\n"), std::string::npos);
  EXPECT_EQ(replies(big, 64 << 10), big_whole);
}

// The worker keeps PUBBATCH scratch for the next batch while batches stay
// small; a large one gives its scratch back when it ends, so small batches
// after a burst hold what they use, not the burst's peak.
TEST_F(ServerClientTest, LargeBatchDoesNotPinItsScratch) {
  PubSubClient client = MustConnect();
  const auto publish = [&client](int slots) {
    std::vector<std::string> batch;
    for (int i = 0; i < slots; ++i) {
      batch.push_back("k = " + std::to_string(i));
    }
    auto replies = client.PublishBatch(batch);
    ASSERT_TRUE(replies.ok()) << replies.status().ToString();
    ASSERT_EQ(replies.value().size(), static_cast<size_t>(slots));
  };
  const auto scratch_bytes = [this] {
    const std::string json = server_->ExportMetricsJson();
    const std::string key = "\"vfps_net_batch_scratch_bytes\":";
    const size_t at = json.find(key);
    EXPECT_NE(at, std::string::npos) << json;
    return at == std::string::npos
               ? int64_t{-1}
               : std::strtoll(json.c_str() + at + key.size(), nullptr, 10);
  };
  publish(100);
  EXPECT_GT(scratch_bytes(), 0);  // kept for the next batch
  publish(20000);  // ~200 KB of payload, parsed into 20000 events (~1 MB)
  publish(100);
  publish(100);
  EXPECT_GT(scratch_bytes(), 0);
  EXPECT_LT(scratch_bytes(), 64 << 10);
}

TEST_F(ServerClientTest, StorelessBatchPushesCarryTheirOwnEventText) {
  ServerOptions options;
  options.store_events = false;
  RestartServer(options);
  RawConn raw(server_->port());
  ASSERT_TRUE(raw.connected());
  raw.WriteAll("SUB x >= 1\nPUBBATCH 2\nx = 5\nx = 6\n");
  EXPECT_EQ(raw.ReadLine(), "OK 1");
  EXPECT_EQ(raw.ReadLine(), "EVENT 1 0 x = 5");
  EXPECT_EQ(raw.ReadLine(), "EVENT 1 0 x = 6");
  EXPECT_EQ(raw.ReadLine(), "OK 2");
  EXPECT_EQ(raw.ReadLine(), "0 1");
  EXPECT_EQ(raw.ReadLine(), "0 1");
}

TEST_F(ServerClientTest, TruncatedBatchThenCloseLeavesServerAlive) {
  // Abandon a PUBBATCH mid-payload at each interesting boundary; the
  // server must drop the connection's half-frame without corrupting state.
  const std::string fragments[] = {
      "PUBBATCH 3\n",               // header only
      "PUBBATCH 3\nk = 1\n",        // one of three slots
      "PUBBATCH 3\nk = 1\nk = ",    // torn mid-slot
      "PUBBATCH",                   // torn header
  };
  for (const std::string& fragment : fragments) {
    RawConn raw(server_->port());
    ASSERT_TRUE(raw.connected());
    raw.WriteAll(fragment);
  }  // destructor closes mid-frame
  PubSubClient client = MustConnect();
  EXPECT_TRUE(client.Ping().ok());
  auto result = client.Publish("k = 1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches, 0u);  // no half-batch leaked
}

TEST_F(ServerClientTest, OversizedLineAnsweredWithErrNotDisconnect) {
  RawConn raw(server_->port());
  ASSERT_TRUE(raw.connected());
  // Blow through the 1 MiB line cap without a newline, then recover.
  raw.WriteAll(std::string((1 << 20) + 64, 'A'));
  raw.WriteAll("\nPING\n");
  bool saw_err = false;
  bool saw_ok = false;
  for (int i = 0; i < 8 && !saw_ok; ++i) {
    auto line = raw.ReadLine();
    if (!line.has_value()) break;
    if (line->rfind("ERR", 0) == 0) saw_err = true;
    if (*line == "OK") saw_ok = true;
  }
  EXPECT_TRUE(saw_err);  // the oversized garbage was rejected
  EXPECT_TRUE(saw_ok);   // ...and the connection still answers PING
}

TEST_F(ServerClientTest, PipelinedPublishesShedWithErrBusyPastHighWater) {
  ServerOptions options;
  options.busy_high_water_bytes = 1;  // any backlog sheds the next publish
  RestartServer(options);
  PubSubClient subscriber = MustConnect();
  ASSERT_TRUE(subscriber.Subscribe("k = 1").ok());

  // Two pipelined publishes in one segment: handling the first queues the
  // EVENT push (backlog > high water), so the second must be shed before
  // any flush can run.
  RawConn publisher(server_->port());
  ASSERT_TRUE(publisher.connected());
  publisher.WriteAll("PUB k = 1\nPUB k = 1\n");
  auto first = publisher.ReadLine();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->rfind("OK ", 0), 0u) << *first;
  auto second = publisher.ReadLine();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->rfind("ERR BUSY", 0), 0u) << *second;

  // Shedding is publish-only: admin verbs still work, and the counter is
  // visible via METRICS.
  auto metrics = subscriber.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(
      metrics.value().find("\"vfps_server_shed_publishes_total\":1"),
      std::string::npos)
      << metrics.value();
}

TEST_F(ServerClientTest, ShedBatchDrainsPayloadAndKeepsFraming) {
  ServerOptions options;
  options.busy_high_water_bytes = 1;
  RestartServer(options);
  PubSubClient subscriber = MustConnect();
  ASSERT_TRUE(subscriber.Subscribe("k = 1").ok());

  RawConn publisher(server_->port());
  ASSERT_TRUE(publisher.connected());
  // First PUB raises the backlog; the pipelined PUBBATCH is then shed at
  // header time but its payload must still be drained as payload — if the
  // framing broke, "PING" would be swallowed as a batch slot.
  publisher.WriteAll("PUB k = 1\nPUBBATCH 2\nk = 1\nk = 1\nPING\n");
  auto first = publisher.ReadLine();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->rfind("OK ", 0), 0u);
  auto shed = publisher.ReadLine();
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->rfind("ERR BUSY", 0), 0u) << *shed;
  EXPECT_EQ(publisher.ReadLine(), "OK");  // PING survived the framing
}

TEST_F(ServerClientTest, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 50;
  RestartServer(options);
  RawConn idle(server_->port());
  ASSERT_TRUE(idle.connected());
  // Poll METRICS faster than the idle timeout so this connection survives
  // while the silent one is reaped.
  PubSubClient client = MustConnect();
  bool reaped = false;
  for (int i = 0; i < 100 && !reaped; ++i) {
    auto metrics = client.Metrics();
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    reaped = metrics.value().find(
                 "\"vfps_server_connections_reaped_total\":1") !=
             std::string::npos;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(reaped);
}

TEST_F(ServerClientTest, MidResponseCloseYieldsRetryableStatusNotHang) {
  // A scripted one-shot server: reads the request, writes half a response
  // ("OK 12" without the newline), and closes mid-stream.
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);

  std::thread scripted([listen_fd] {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    char buf[256];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);  // the PUB line
    (void)n;
    ::send(fd, "OK 12", 5, MSG_NOSIGNAL);  // torn response, no '\n'
    ::close(fd);
  });

  ClientOptions options;
  options.auto_reconnect = false;  // observe the raw typed failure
  options.io_timeout_ms = 2000;
  auto client = PubSubClient::Connect("127.0.0.1", port, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = client.value().Publish("k = 1");
  scripted.join();
  ::close(listen_fd);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(IsRetryable(result.status())) << result.status().ToString();
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

// The acceptance scenario: kill the server mid-stream, restart it on the
// same port, and watch one client ride through — bounded backoff
// reconnect, subscription replay under the original id, resumed delivery.
TEST_F(ServerClientTest, KillMidStreamReconnectReplayResume) {
  MetricsRegistry client_metrics;
  ClientOptions options;
  options.backoff_base_ms = 10;
  options.backoff_cap_ms = 100;
  options.max_retries = 5;
  options.metrics = &client_metrics;
  PubSubClient client = MustConnect(options);
  auto sub = client.Subscribe("k = 1");
  ASSERT_TRUE(sub.ok());
  auto before = client.Publish("k = 1");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().matches, 1u);
  auto pushed = client.PollEvent(2000);
  ASSERT_TRUE(pushed.ok());
  ASSERT_TRUE(pushed.value().has_value());

  // Kill the server under the live connection, then bring one back on the
  // same port.
  const uint16_t port = server_->port();
  StopServer();
  ServerOptions reborn;
  reborn.port = port;
  StartServer(reborn);

  // The next request detects the loss, reconnects with backoff, and
  // replays the subscription set before retrying.
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_GE(client.stats().reconnects, 1u);
  EXPECT_GE(client.stats().replayed_subscriptions, 1u);
  EXPECT_GE(client.stats().disconnects, 1u);

  // Delivery resumes under the id the caller has held all along, even
  // though the new server assigned a fresh one.
  PubSubClient publisher = MustConnect();
  auto after = publisher.Publish("k = 1");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().matches, 1u);
  auto resumed = client.PollEvent(2000);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed.value().has_value());
  EXPECT_EQ(resumed.value()->subscription_id, sub.value());

  // The same counters are visible through the attached registry.
  const std::string exported = client_metrics.ExportJson();
  EXPECT_NE(exported.find("\"vfps_client_reconnects_total\":"),
            std::string::npos);
  EXPECT_EQ(exported.find("\"vfps_client_reconnects_total\":0"),
            std::string::npos);
}

TEST_F(ServerClientTest, BusyErrIsRetryableAndRetriedWithBackoff) {
  // Scripted server: answer the PUB with two ERR BUSY refusals, then
  // accept it — the client must absorb both with backoff, never dropping
  // the connection (stats stay at zero reconnects).
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);

  std::thread scripted([listen_fd] {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    LineBuffer in;
    char buf[512];
    for (int request = 0; request < 3;) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      in.Feed(std::string_view(buf, static_cast<size_t>(n)));
      while (in.NextLine()) {
        ++request;
        const char* reply = request < 3
                                ? "ERR BUSY backlog over high-water mark\n"
                                : "OK 5 1\n";
        ::send(fd, reply, std::strlen(reply), MSG_NOSIGNAL);
      }
    }
    ::close(fd);
  });

  ClientOptions options;
  options.max_retries = 3;
  options.backoff_base_ms = 5;
  options.backoff_cap_ms = 20;
  auto client = PubSubClient::Connect("127.0.0.1", port, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = client.value().Publish("k = 1");
  scripted.join();
  ::close(listen_fd);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().event_id, 5u);
  EXPECT_EQ(client.value().stats().retries, 2u);
  EXPECT_EQ(client.value().stats().reconnects, 0u);
}

TEST_F(ServerClientTest, FailPointVerb) {
  PubSubClient client = MustConnect();
  auto list = client.FailPoint("LIST");
#if VFPS_FAILPOINTS
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list.value(), "");

  // Arm the parse site for exactly one trip: the next request errors, the
  // one after sails through (%1 auto-disarm) — and FAILPOINT itself is
  // exempt so the admin channel can never be wedged.
  ASSERT_TRUE(client.FailPoint("server.parse error%1").ok());
  auto armed = client.FailPoint("LIST");
  ASSERT_TRUE(armed.ok());
  EXPECT_EQ(armed.value(), "server.parse=error%1");
  EXPECT_FALSE(client.Ping().ok());  // trips the failpoint
  EXPECT_TRUE(client.Ping().ok());   // auto-disarmed

  EXPECT_FALSE(client.FailPoint("server.read frobnicate").ok());
  ASSERT_TRUE(client.FailPoint("broker.publish delay:1").ok());
  ASSERT_TRUE(client.FailPoint("CLEAR").ok());
  auto cleared = client.FailPoint("LIST");
  ASSERT_TRUE(cleared.ok());
  EXPECT_EQ(cleared.value(), "");

  // The trip gauge surfaced through METRICS.
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("\"vfps_server_failpoint_trips\":"),
            std::string::npos);
#else
  ASSERT_FALSE(list.ok());
  EXPECT_NE(list.status().message().find("compiled out"), std::string::npos);
#endif
}

#if VFPS_FAILPOINTS
TEST_F(ServerClientTest, SlowConsumerDisconnectedAtWriteQueueCap) {
  ServerOptions options;
  options.max_write_queue_bytes = 1024;
  RestartServer(options);
  ClientOptions no_reconnect;
  no_reconnect.auto_reconnect = false;
  PubSubClient subscriber = MustConnect(no_reconnect);
  ASSERT_TRUE(subscriber.Subscribe("k = 1").ok());
  PubSubClient publisher = MustConnect();

  // Stall the write path for exactly two flushes (publisher's replies,
  // then the subscriber's pushes): the subscriber's queued EVENT backlog
  // blows the cap while it cannot drain, so the server disconnects it.
  ASSERT_TRUE(FailPoints::Global()
                  .Set("server.write", "partial:0%2")
                  .ok());
  std::vector<std::string> batch(
      64, "k = 1, pad = 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'");
  auto replies = publisher.PublishBatch(batch);
  ASSERT_TRUE(replies.ok()) << replies.status().ToString();

  // The subscriber's connection is gone; without auto_reconnect the next
  // poll reports the loss as a typed, retryable status.
  auto lost = subscriber.PollEvent(2000);
  ASSERT_FALSE(lost.ok());
  EXPECT_TRUE(IsRetryable(lost.status()));

  auto metrics = publisher.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find(
                "\"vfps_server_slow_consumer_disconnects_total\":1"),
            std::string::npos)
      << metrics.value();
}

TEST_F(ServerClientTest, VectoredShortWritesResumeMidFrameWithoutTearing) {
  RawConn subscriber(server_->port());
  ASSERT_TRUE(subscriber.connected());
  subscriber.WriteAll("SUB k = 1\n");
  auto sub_ok = subscriber.ReadLine();
  ASSERT_TRUE(sub_ok.has_value());
  EXPECT_EQ(sub_ok->rfind("OK ", 0), 0u);
  RawConn publisher(server_->port());
  ASSERT_TRUE(publisher.connected());

  // Alternate small and large payloads: small bodies coalesce into the
  // recipient's contiguous tail, large ones ride shared refcounted chunks,
  // so the flush queue interleaves both slice kinds. A 150-byte write
  // budget then cuts sendmsg mid-iovec (inside a large payload and across
  // slice boundaries) for eight consecutive flushes; every frame must
  // still arrive exactly once, intact and in order.
  const std::string pad(600, 'x');
  std::vector<std::string> bodies;
  for (int i = 0; i < 16; ++i) {
    bodies.push_back(i % 2 == 0 ? "k = 1, pad = '" + pad + "'" : "k = 1");
  }
  ASSERT_TRUE(FailPoints::Global().Set("server.write", "partial:150%8").ok());
  std::string request = "PUBBATCH 16\n";
  for (const std::string& body : bodies) request += body + "\n";
  publisher.WriteAll(request);

  auto header = publisher.ReadLine(5000);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(*header, "OK 16");
  std::vector<std::string> eids;
  for (int i = 0; i < 16; ++i) {
    auto line = publisher.ReadLine(5000);
    ASSERT_TRUE(line.has_value()) << "missing batch reply " << i;
    eids.push_back(line->substr(0, line->find(' ')));
  }
  for (int i = 0; i < 16; ++i) {
    auto line = subscriber.ReadLine(5000);
    ASSERT_TRUE(line.has_value()) << "missing EVENT " << i;
    EXPECT_EQ(*line, "EVENT 1 " + eids[static_cast<size_t>(i)] + " " +
                         bodies[static_cast<size_t>(i)]);
  }
  // No duplicated frames after the resumed writes.
  EXPECT_FALSE(subscriber.ReadLine(200).has_value());
}

TEST_F(ServerClientTest, SlowConsumerDisconnectLeavesHealthySubscriberDelivering) {
  ServerOptions options;
  options.max_write_queue_bytes = 1024;
  RestartServer(options);
  ClientOptions no_reconnect;
  no_reconnect.auto_reconnect = false;
  PubSubClient slow = MustConnect(no_reconnect);
  ASSERT_TRUE(slow.Subscribe("k = 1").ok());
  PubSubClient healthy = MustConnect();
  ASSERT_TRUE(healthy.Subscribe("k = 2").ok());
  PubSubClient publisher = MustConnect();

  // Two stalled flushes: the slow subscriber's EVENT backlog blows the cap
  // while it cannot drain (disconnect), the publisher's small reply queue
  // survives. The healthy subscriber has no traffic queued, so it burns no
  // trips and must keep receiving once the fan-out path resumes.
  ASSERT_TRUE(FailPoints::Global().Set("server.write", "partial:0%2").ok());
  std::vector<std::string> batch(
      64, "k = 1, pad = 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'");
  auto replies = publisher.PublishBatch(batch);
  ASSERT_TRUE(replies.ok()) << replies.status().ToString();

  auto lost = slow.PollEvent(2000);
  ASSERT_FALSE(lost.ok());
  EXPECT_TRUE(IsRetryable(lost.status()));

  auto hit = publisher.Publish("k = 2");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().matches, 1u);
  auto event = healthy.PollEvent(2000);
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  ASSERT_TRUE(event.value().has_value());
  EXPECT_NE(event.value()->event_text.find("k = 2"), std::string::npos);

  auto metrics = publisher.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find(
                "\"vfps_server_slow_consumer_disconnects_total\":1"),
            std::string::npos)
      << metrics.value();
}

TEST_F(ServerClientTest, ReadFailPointDropsConnectionClientRecovers) {
  MetricsRegistry client_metrics;
  ClientOptions options;
  options.backoff_base_ms = 5;
  options.backoff_cap_ms = 50;
  options.metrics = &client_metrics;
  PubSubClient client = MustConnect(options);
  ASSERT_TRUE(client.Subscribe("k = 1").ok());

  // One read on any connection errors out server-side; the client's next
  // request hits the dropped connection and rides the reconnect path.
  ASSERT_TRUE(FailPoints::Global().Set("server.read", "error%1").ok());
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_GE(client.stats().reconnects, 1u);
  EXPECT_GE(client.stats().replayed_subscriptions, 1u);

  // Delivery still works through the replayed subscription.
  auto result = client.Publish("k = 1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches, 1u);
}
#endif  // VFPS_FAILPOINTS

}  // namespace
}  // namespace vfps
