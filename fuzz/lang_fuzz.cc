// Copyright 2026 The vfps Authors.
// Fuzzes the subscription-language front end: the same text is tried as a
// condition (lexer + recursive-descent parser + DNF expansion, the
// server's SUB path) and as an event (the PUB path), each against a fresh
// SchemaRegistry so interning starts cold. Both lex with the same token
// rules, and a lex error outranks any parse error, so they must fail with
// a lex error together and with the same status, or the run aborts.
// Accepted events are formatted and re-parsed: the printer and parser must
// agree, so the re-parse must succeed and yield the same pairs, or the run
// aborts.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "src/core/schema_registry.h"
#include "src/lang/parser.h"
#include "src/net/protocol.h"

namespace {

bool IsLexError(const vfps::Status& status) {
  return status.message().rfind("lex error", 0) == 0;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  vfps::Status condition_status;
  {
    vfps::SchemaRegistry schema;
    // Tight DNF limits keep pathological OR-of-AND inputs from turning one
    // iteration into an exponential expansion.
    vfps::ParseOptions options;
    options.max_disjuncts = 16;
    options.max_conjunction_size = 16;
    condition_status = vfps::ParseCondition(text, &schema, options).status();
  }
  {
    vfps::SchemaRegistry schema;
    vfps::Result<vfps::Event> event = vfps::ParseEvent(text, &schema);
    if ((IsLexError(event.status()) || IsLexError(condition_status)) &&
        event.status().ToString() != condition_status.ToString()) {
      std::fprintf(stderr, "lex errors disagree on [%.*s]: event %s, "
                   "condition %s\n",
                   static_cast<int>(text.size()), text.data(),
                   event.status().ToString().c_str(),
                   condition_status.ToString().c_str());
      std::abort();
    }
    if (event.ok()) {
      const std::string formatted =
          vfps::FormatEventText(event.value(), schema);
      vfps::Result<vfps::Event> again = vfps::ParseEvent(formatted, &schema);
      if (!again.ok() || again.value().pairs() != event.value().pairs()) {
        std::fprintf(stderr, "round trip broke: [%.*s] -> [%s]: %s\n",
                     static_cast<int>(text.size()), text.data(),
                     formatted.c_str(), again.status().ToString().c_str());
        std::abort();
      }
    }
  }
  return 0;
}
