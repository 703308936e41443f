// Copyright 2026 The vfps Authors.
// Fuzzes the server-side wire path: byte stream → LineBuffer framing into
// blocks of complete lines → PopLine →
// ParseRequest → per-verb body parsing, including the stateful PUBBATCH
// collection (count-prefixed frames whose payload lines are events, not
// requests). Lines that fail request parsing are retried as responses,
// covering the client-side framing too. The harness mirrors
// PubSubServer::HandleLine without sockets so a crash is a parser bug,
// not an I/O artifact.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/core/schema_registry.h"
#include "src/lang/parser.h"
#include "src/net/line_buffer.h"
#include "src/net/protocol.h"

namespace {

/// Caps work per input so the fuzzer spends its budget on new coverage,
/// not on one degenerate many-line document.
constexpr size_t kMaxLines = 4096;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  // Small line cap so the overlong-line truncation path is reachable;
  // feeding in two chunks exercises reassembly of split lines.
  vfps::LineBuffer buffer(1 << 12);
  std::string blocks;
  std::string block;
  for (const std::string_view half : {input.substr(0, size / 2),
                                      input.substr(size / 2)}) {
    buffer.Feed(half);
    if (buffer.TakeLines(&block)) blocks += block;
  }

  vfps::SchemaRegistry schema;
  vfps::Event slot_event;
  size_t batch_expected = 0;
  size_t lines = 0;
  std::string_view rest = blocks;
  std::string_view line;
  while (vfps::PopLine(&rest, &line)) {
    if (++lines > kMaxLines) break;
    if (batch_expected > 0) {
      // PUBBATCH payload slot: always an event text, never a request.
      --batch_expected;
      // Into one reused event, as the server parses batch slots.
      if (vfps::ParseEvent(line, &schema, &slot_event).ok()) {
        // Round-trip: a formatted event must re-parse without crashing.
        (void)vfps::ParseEvent(vfps::FormatEventText(slot_event, schema),
                               &schema);
      }
      continue;
    }
    if (line.empty()) continue;
    vfps::Result<vfps::Request> request = vfps::ParseRequest(line);
    if (!request.ok()) {
      // Not a request: cover the response/push side of the framing.
      bool ok = false;
      std::string detail;
      (void)vfps::ParseResponse(line, &ok, &detail);
      continue;
    }
    switch (request.value().kind) {
      case vfps::Request::Kind::kSubscribe:
        (void)vfps::ParseCondition(request.value().body, &schema);
        break;
      case vfps::Request::Kind::kPublish:
        (void)vfps::ParseEvent(request.value().body, &schema);
        break;
      case vfps::Request::Kind::kPublishBatch:
        batch_expected = static_cast<size_t>(std::min<int64_t>(
            request.value().number, 65536));
        break;
      default:
        break;
    }
  }
  return 0;
}
