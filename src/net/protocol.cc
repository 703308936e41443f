// Copyright 2026 The vfps Authors.

#include "src/net/protocol.h"

#include <charconv>

namespace vfps {

namespace {

/// Splits the first whitespace-delimited word off `line`.
std::string_view TakeWord(std::string_view* line) {
  size_t start = line->find_first_not_of(' ');
  if (start == std::string_view::npos) {
    *line = {};
    return {};
  }
  size_t end = line->find(' ', start);
  std::string_view word;
  if (end == std::string_view::npos) {
    word = line->substr(start);
    *line = {};
  } else {
    word = line->substr(start, end - start);
    *line = line->substr(end + 1);
  }
  return word;
}

std::string_view TrimLeft(std::string_view s) {
  size_t start = s.find_first_not_of(' ');
  return start == std::string_view::npos ? std::string_view{}
                                         : s.substr(start);
}

bool ParseInt(std::string_view word, int64_t* out) {
  auto [ptr, ec] =
      std::from_chars(word.data(), word.data() + word.size(), *out);
  return ec == std::errc() && ptr == word.data() + word.size();
}

}  // namespace

Result<Request> ParseRequest(std::string_view line) {
  std::string_view rest = line;
  std::string_view verb = TakeWord(&rest);
  if (verb.empty()) return Status::InvalidArgument("empty request");

  Request request;
  request.number = Request::kNoDeadline;
  if (verb == "SUB") {
    request.kind = Request::Kind::kSubscribe;
    request.body = TrimLeft(rest);
    if (request.body.empty()) {
      return Status::InvalidArgument("SUB needs a condition");
    }
    return request;
  }
  if (verb == "SUBUNTIL") {
    request.kind = Request::Kind::kSubscribe;
    std::string_view deadline = TakeWord(&rest);
    if (!ParseInt(deadline, &request.number)) {
      return Status::InvalidArgument("SUBUNTIL needs a numeric deadline");
    }
    request.body = TrimLeft(rest);
    if (request.body.empty()) {
      return Status::InvalidArgument("SUBUNTIL needs a condition");
    }
    return request;
  }
  if (verb == "UNSUB") {
    request.kind = Request::Kind::kUnsubscribe;
    std::string_view id = TakeWord(&rest);
    if (!ParseInt(id, &request.number) || request.number < 0) {
      return Status::InvalidArgument("UNSUB needs a subscription id");
    }
    if (!TrimLeft(rest).empty()) {
      return Status::InvalidArgument("UNSUB takes one argument");
    }
    return request;
  }
  if (verb == "PUB") {
    request.kind = Request::Kind::kPublish;
    request.body = TrimLeft(rest);
    return request;
  }
  if (verb == "PUBUNTIL") {
    request.kind = Request::Kind::kPublish;
    std::string_view deadline = TakeWord(&rest);
    if (!ParseInt(deadline, &request.number)) {
      return Status::InvalidArgument("PUBUNTIL needs a numeric deadline");
    }
    request.body = TrimLeft(rest);
    return request;
  }
  if (verb == "PUBBATCH") {
    request.kind = Request::Kind::kPublishBatch;
    std::string_view count = TakeWord(&rest);
    if (!ParseInt(count, &request.number) || request.number < 0) {
      return Status::InvalidArgument("PUBBATCH needs an event count");
    }
    if (!TrimLeft(rest).empty()) {
      return Status::InvalidArgument("PUBBATCH takes one argument");
    }
    return request;
  }
  if (verb == "TIME") {
    request.kind = Request::Kind::kTime;
    std::string_view t = TakeWord(&rest);
    if (!ParseInt(t, &request.number)) {
      return Status::InvalidArgument("TIME needs a numeric timestamp");
    }
    return request;
  }
  if (verb == "STATS") {
    request.kind = Request::Kind::kStats;
    return request;
  }
  if (verb == "METRICS") {
    request.kind = Request::Kind::kMetrics;
    std::string_view format = TakeWord(&rest);
    if (format.empty()) format = "JSON";
    if (format != "JSON" && format != "PROM") {
      return Status::InvalidArgument("METRICS takes JSON or PROM");
    }
    if (!TrimLeft(rest).empty()) {
      return Status::InvalidArgument("METRICS takes one optional argument");
    }
    request.body = format;
    return request;
  }
  if (verb == "PING") {
    request.kind = Request::Kind::kPing;
    return request;
  }
  if (verb == "FAILPOINT") {
    request.kind = Request::Kind::kFailPoint;
    request.body = TrimLeft(rest);
    if (request.body.empty()) {
      return Status::InvalidArgument(
          "FAILPOINT needs arguments: <name> <mode> | LIST | CLEAR");
    }
    return request;
  }
  return Status::InvalidArgument("unknown verb: " + std::string(verb));
}

std::string FormatOk() { return "OK"; }

std::string FormatOkDetail(std::string_view detail) {
  return "OK " + std::string(detail);
}

std::string FormatErr(std::string_view message) {
  std::string out = "ERR ";
  // Newlines would break the framing.
  for (char c : message) out += (c == '\n' || c == '\r') ? ' ' : c;
  return out;
}

std::string FormatEventText(const Event& event,
                            const SchemaRegistry& schema) {
  std::string out;
  for (size_t i = 0; i < event.pairs().size(); ++i) {
    const EventPair& pair = event.pairs()[i];
    if (i > 0) out += ", ";
    out += schema.AttributeName(pair.attribute);
    out += " = ";
    const std::string& text = schema.ValueText(pair.value);
    if (!text.empty()) {
      // Literals have no escapes; a parsed string never holds both quote
      // kinds, so one of them always delimits it.
      const char quote =
          text.find('\'') == std::string::npos ? '\'' : '"';
      out += quote;
      out += text;
      out += quote;
    } else {
      out += std::to_string(pair.value);
    }
  }
  return out;
}

std::string FormatEventPushHeader(uint64_t subscription_id,
                                  uint64_t event_id) {
  return "EVENT " + std::to_string(subscription_id) + " " +
         std::to_string(event_id) + " ";
}

std::string FormatEventPush(uint64_t subscription_id, uint64_t event_id,
                            const Event& event,
                            const SchemaRegistry& schema) {
  return FormatEventPushHeader(subscription_id, event_id) +
         FormatEventText(event, schema);
}

Status ParseResponse(std::string_view line, bool* ok, std::string* detail) {
  std::string_view rest = line;
  std::string_view verb = TakeWord(&rest);
  if (verb == "OK") {
    *ok = true;
    *detail = std::string(TrimLeft(rest));
    return Status::OK();
  }
  if (verb == "ERR") {
    *ok = false;
    *detail = std::string(TrimLeft(rest));
    return Status::OK();
  }
  return Status::InvalidArgument("malformed response: " + std::string(line));
}

}  // namespace vfps
