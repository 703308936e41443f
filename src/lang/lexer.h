// Copyright 2026 The vfps Authors.
// Hand-written pull lexer for the subscription expression language. The
// parser asks for one token at a time; tokens point into the input, so
// lexing allocates nothing.

#ifndef VFPS_LANG_LEXER_H_
#define VFPS_LANG_LEXER_H_

#include <array>
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

/// The token rules' character classes, shared by the Lexer and the event
/// scanner in parser.cc. They are the "C" locale's, so bytes >= 0x80 are
/// in none.
namespace lex {

enum : uint8_t {
  kSpace = 1,       // ' ' \t \n \v \f \r
  kDigit = 2,       // 0-9
  kIdentStart = 4,  // letters and '_'
  kIdentBody = 8,   // letters, digits, '_', '.', '-'
};

constexpr std::array<uint8_t, 256> MakeClasses() {
  std::array<uint8_t, 256> classes{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    classes[c] = kSpace;
  }
  for (int c = '0'; c <= '9'; ++c) classes[c] = kDigit | kIdentBody;
  for (int c = 'a'; c <= 'z'; ++c) {
    classes[c] = kIdentStart | kIdentBody;
    classes[c - 'a' + 'A'] = kIdentStart | kIdentBody;
  }
  classes['_'] = kIdentStart | kIdentBody;
  classes['.'] = kIdentBody;
  classes['-'] = kIdentBody;
  return classes;
}

inline constexpr std::array<uint8_t, 256> kClasses = MakeClasses();

inline bool Is(char c, uint8_t cls) {
  return (kClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

/// Case-insensitive match of an identifier-shaped `word` against a
/// lowercase keyword. OR-ing 0x20 lowers ASCII letters and maps no other
/// identifier character onto a letter.
inline bool IsKeyword(std::string_view word, std::string_view keyword) {
  if (word.size() != keyword.size()) return false;
  for (size_t i = 0; i < word.size(); ++i) {
    if ((word[i] | 0x20) != keyword[i]) return false;
  }
  return true;
}

}  // namespace lex

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
  /// Starts lexing at byte `pos` of `input`; offsets stay relative to the
  /// whole input.
  Lexer(std::string_view input, size_t pos) : input_(input), pos_(pos) {}

  Token Next();

  /// OK unless Next() has returned kError.
  const Status& status() const { return status_; }

  /// Byte offset just past the last token returned.
  size_t position() const { return pos_; }

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
