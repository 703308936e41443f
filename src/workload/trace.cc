// Copyright 2026 The vfps Authors.

#include "src/workload/trace.h"

#include <charconv>
#include <fstream>
#include <sstream>

namespace vfps {

namespace {

constexpr const char* kHeader = "# vfps-trace v1";

/// Parses one integer token, advancing `s` past it. Returns false if the
/// next non-space run is not a valid integer.
template <typename Int>
bool TakeInt(std::string_view* s, Int* out) {
  size_t start = s->find_first_not_of(' ');
  if (start == std::string_view::npos) return false;
  *s = s->substr(start);
  auto [ptr, ec] = std::from_chars(s->data(), s->data() + s->size(), *out);
  if (ec != std::errc() || ptr == s->data()) return false;
  *s = s->substr(static_cast<size_t>(ptr - s->data()));
  return true;
}

/// Parses one operator token.
bool TakeOp(std::string_view* s, RelOp* out) {
  size_t start = s->find_first_not_of(' ');
  if (start == std::string_view::npos) return false;
  std::string_view trimmed = s->substr(start);
  size_t end = trimmed.find(' ');
  std::string_view word =
      end == std::string_view::npos ? trimmed : trimmed.substr(0, end);
  if (word == "<") {
    *out = RelOp::kLt;
  } else if (word == "<=") {
    *out = RelOp::kLe;
  } else if (word == "=") {
    *out = RelOp::kEq;
  } else if (word == "!=") {
    *out = RelOp::kNe;
  } else if (word == ">=") {
    *out = RelOp::kGe;
  } else if (word == ">") {
    *out = RelOp::kGt;
  } else {
    return false;
  }
  *s = trimmed.substr(word.size());
  return true;
}

bool SkipSemicolon(std::string_view* s) {
  size_t start = s->find_first_not_of(' ');
  if (start == std::string_view::npos || (*s)[start] != ';') return false;
  *s = s->substr(start + 1);
  return true;
}

bool AtEnd(std::string_view s) {
  return s.find_first_not_of(' ') == std::string_view::npos;
}

}  // namespace

std::string FormatTraceLine(const Subscription& subscription) {
  std::string out = "S " + std::to_string(subscription.id());
  for (size_t i = 0; i < subscription.predicates().size(); ++i) {
    const Predicate& p = subscription.predicates()[i];
    out += (i == 0) ? " " : " ; ";
    out += std::to_string(p.attribute);
    out += " ";
    out += RelOpToString(p.op);
    out += " ";
    out += std::to_string(p.value);
  }
  return out;
}

std::string FormatTraceLine(const Event& event) {
  std::string out = "E";
  for (const EventPair& pair : event.pairs()) {
    out.append(" ").append(std::to_string(pair.attribute));
    out.append("=").append(std::to_string(pair.value));
  }
  return out;
}

Result<Subscription> ParseTraceSubscription(const std::string& line) {
  if (line.rfind("S ", 0) != 0) {
    return Status::InvalidArgument("not a subscription line: " + line);
  }
  std::string_view rest(line);
  rest.remove_prefix(2);
  SubscriptionId id;
  if (!TakeInt(&rest, &id)) {
    return Status::InvalidArgument("bad subscription id: " + line);
  }
  std::vector<Predicate> preds;
  while (!AtEnd(rest)) {
    if (!preds.empty() && !SkipSemicolon(&rest)) {
      return Status::InvalidArgument("expected ';' in: " + line);
    }
    Predicate p;
    if (!TakeInt(&rest, &p.attribute) || !TakeOp(&rest, &p.op) ||
        !TakeInt(&rest, &p.value)) {
      return Status::InvalidArgument("bad predicate in: " + line);
    }
    preds.push_back(p);
  }
  return Subscription::Create(id, std::move(preds));
}

Result<Event> ParseTraceEvent(const std::string& line) {
  if (line != "E" && line.rfind("E ", 0) != 0) {
    return Status::InvalidArgument("not an event line: " + line);
  }
  std::string_view rest(line);
  rest.remove_prefix(1);
  std::vector<EventPair> pairs;
  while (!AtEnd(rest)) {
    EventPair pair;
    if (!TakeInt(&rest, &pair.attribute)) {
      return Status::InvalidArgument("bad attribute in: " + line);
    }
    if (rest.empty() || rest[0] != '=') {
      return Status::InvalidArgument("expected '=' in: " + line);
    }
    rest.remove_prefix(1);
    if (!TakeInt(&rest, &pair.value)) {
      return Status::InvalidArgument("bad value in: " + line);
    }
    pairs.push_back(pair);
  }
  return Event::Create(std::move(pairs));
}

Status WriteTrace(std::ostream& out, const Trace& trace) {
  out << kHeader << "\n";
  for (const Subscription& s : trace.subscriptions) {
    out << FormatTraceLine(s) << "\n";
  }
  for (const Event& e : trace.events) {
    out << FormatTraceLine(e) << "\n";
  }
  if (!out.good()) return Status::Internal("trace write failed");
  return Status::OK();
}

Status WriteTrace(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  return WriteTrace(out, trace);
}

Result<Trace> ReadTrace(std::istream& in) {
  Trace trace;
  std::string line;
  bool saw_header = false;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (!saw_header) {
        if (line != kHeader) {
          return Status::InvalidArgument("unsupported trace header: " + line);
        }
        saw_header = true;
      }
      continue;
    }
    if (!saw_header) {
      return Status::InvalidArgument("missing trace header");
    }
    if (line.rfind("S", 0) == 0) {
      Result<Subscription> s = ParseTraceSubscription(line);
      if (!s.ok()) return s.status();
      trace.subscriptions.push_back(std::move(s).value());
    } else if (line.rfind("E", 0) == 0) {
      Result<Event> e = ParseTraceEvent(line);
      if (!e.ok()) return e.status();
      trace.events.push_back(std::move(e).value());
    } else {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": unknown record: " + line);
    }
  }
  return trace;
}

Result<Trace> ReadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open trace: " + path);
  }
  return ReadTrace(in);
}

}  // namespace vfps
