// Copyright 2026 The vfps Authors.
// Hand-written pull lexer for the subscription expression language. The
// parser asks for one token at a time; tokens point into the input, so
// lexing allocates nothing.

#ifndef VFPS_LANG_LEXER_H_
#define VFPS_LANG_LEXER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace vfps {

/// Token kinds produced by the Lexer.
enum class TokenKind : uint8_t {
  kIdentifier,  // attribute names: letters, digits, '_', '.', '-'
  kInteger,     // [-]digits
  kString,      // 'single' or "double" quoted
  kLt,          // <
  kLe,          // <=
  kEq,          // = or ==
  kNe,          // != or <>
  kGe,          // >=
  kGt,          // >
  kAnd,         // AND / and / &&
  kOr,          // OR / or / ||
  kNot,         // NOT / not / !
  kLParen,      // (
  kRParen,      // )
  kComma,       // ,
  kEnd,         // end of input
  kError,       // malformed input; Lexer::status() says why
};

/// Human-readable name of a token kind (for error messages).
const char* TokenKindToString(TokenKind kind);

/// One lexed token. `text` views the identifier or the unquoted string
/// body inside the lexer's input (string literals have no escapes, so the
/// body is always a substring); `integer` holds the value for kInteger.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  int64_t integer = 0;
  size_t offset = 0;  // byte offset in the input, for error messages
};

/// Splits `input` into tokens on demand. Next() returns kEnd at the end of
/// the input and keeps returning it. On malformed input (unterminated
/// string, stray character, integer overflow) Next() returns kError, and
/// keeps returning it, and status() holds the InvalidArgument error.
class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Token Next();

  /// OK unless Next() has returned kError.
  const Status& status() const { return status_; }

 private:
  Token Fail(size_t offset, std::string what);

  std::string_view input_;
  size_t pos_ = 0;
  Status status_;
};

/// Lexes all of `input`. The returned vector always ends with a kEnd token
/// on success; the tokens view `input`.
Result<std::vector<Token>> Lex(std::string_view input);

}  // namespace vfps

#endif  // VFPS_LANG_LEXER_H_
