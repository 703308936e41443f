// Copyright 2026 The vfps Authors.
// The wire protocol between the publish/subscribe server and its clients:
// newline-delimited text, one request or response per line. This mirrors
// the paper's experimental setup, where the matching engine runs as one
// process and the workload generator feeds it from another (Section 6.1).
//
// Requests:
//   SUB <condition>              register a subscription (expression
//                                language; arbitrary AND/OR/NOT)
//   SUBUNTIL <t> <condition>     subscription valid until logical time t
//   UNSUB <id>                   cancel a subscription
//   PUB <event>                  publish "attr = value, ..." pairs
//   PUBUNTIL <t> <event>         event stored until logical time t
//   PUBBATCH <n>                 publish the n event-text lines that
//                                follow the request line as one batch;
//                                reply is "OK <n>" followed by n raw
//                                per-event lines "<event-id> <matches>"
//                                or "ERR <message>"
//   TIME <t>                     advance the server's logical clock
//   STATS                        report live counters
//   METRICS [JSON|PROM]          export the telemetry registry (default
//                                JSON: one OK line carrying a JSON object;
//                                PROM: "OK <n>" followed by n raw
//                                Prometheus text-format lines)
//   PING                         liveness check
//   FAILPOINT <name> <mode>      arm/disarm a fault-injection site (admin;
//                                only in VFPS_FAILPOINTS=ON builds — see
//                                docs/ROBUSTNESS.md). FAILPOINT LIST
//                                reports armed sites, FAILPOINT CLEAR
//                                disarms everything.
//
// Responses (synchronous, one per request, in order):
//   OK [detail...]
//   ERR <message>
//
// Asynchronous notifications (pushed to the subscribing connection):
//   EVENT <subscription-id> <event-id> <event-text>

#ifndef VFPS_NET_PROTOCOL_H_
#define VFPS_NET_PROTOCOL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "src/core/event.h"
#include "src/core/schema_registry.h"
#include "src/util/status.h"

namespace vfps {

/// A parsed client request.
struct Request {
  enum class Kind {
    kSubscribe,
    kUnsubscribe,
    kPublish,
    kTime,
    kStats,
    kMetrics,
    kPing,
    kPublishBatch,
    kFailPoint,
  };
  /// Number of Kind values (for per-kind instrument tables).
  static constexpr size_t kNumKinds = 9;
  Kind kind = Kind::kPing;
  /// Condition text (kSubscribe), event text (kPublish), export format
  /// (kMetrics: "JSON" or "PROM"), or failpoint arguments (kFailPoint:
  /// "<name> <mode>" | "LIST" | "CLEAR"). Views the parsed line, so the
  /// request must not outlive it.
  std::string_view body;
  /// Subscription id (kUnsubscribe), logical time (kTime), validity
  /// deadline (SUBUNTIL / PUBUNTIL; kNoDeadline when absent), or batch
  /// size (kPublishBatch).
  int64_t number = 0;
  static constexpr int64_t kNoDeadline =
      std::numeric_limits<int64_t>::max();
};

/// Parses one request line. Fails with InvalidArgument on unknown verbs or
/// malformed arguments.
Result<Request> ParseRequest(std::string_view line);

/// Response formatting helpers; each returns a full line without '\n'.
std::string FormatOk();
std::string FormatOkDetail(std::string_view detail);
std::string FormatErr(std::string_view message);

/// Formats an EVENT push line. The event is rendered with attribute names
/// (and string values where the value was interned from text).
std::string FormatEventPush(uint64_t subscription_id, uint64_t event_id,
                            const Event& event, const SchemaRegistry& schema);

/// The per-subscriber prefix of an EVENT push ("EVENT <sub> <eid> "): the
/// server's zero-copy fan-out formats the event text once into a shared
/// payload and prepends this small header per recipient.
std::string FormatEventPushHeader(uint64_t subscription_id,
                                  uint64_t event_id);

/// Renders an event as "name = value, ..." using the registry's names.
std::string FormatEventText(const Event& event, const SchemaRegistry& schema);

/// Parses a server response line. `ok` reports OK vs ERR; `detail` gets
/// the remainder. Fails if the line is neither.
Status ParseResponse(std::string_view line, bool* ok, std::string* detail);

}  // namespace vfps

#endif  // VFPS_NET_PROTOCOL_H_
