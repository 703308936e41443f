// Copyright 2026 The vfps Authors.
// Hand-written pull lexer for the subscription expression language. The
// parser asks for one token at a time; tokens point into the input, so
// lexing allocates nothing. The token rules themselves are the inline
// scanners in namespace lex, which the event parser also calls in place.

#ifndef VFPS_LANG_LEXER_H_
#define VFPS_LANG_LEXER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
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

/// The token rules, in one place: the Lexer builds its tokens from these
/// scanners, and ParseEvent calls them in place. Each scanner reads the
/// token at `p` in [p, end) and returns the byte past it, `p` if no token
/// of its kind starts there, or nullptr if one starts there but is
/// malformed. The character classes are the "C" locale's, so bytes >= 0x80
/// are in none and start no token.
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

/// The first byte at or after `p` that is not space.
inline const char* SkipSpace(const char* p, const char* end) {
  while (p != end && Is(*p, kSpace)) ++p;
  return p;
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

/// A word: a letter or '_', then letters, digits, '_', '.' and '-'.
/// `*kind` is kAnd, kOr or kNot for those keywords in any case, else
/// kIdentifier.
inline const char* ScanWord(const char* p, const char* end, TokenKind* kind) {
  if (p == end || !Is(*p, kIdentStart)) return p;
  const char* q = p + 1;
  while (q != end && Is(*q, kIdentBody)) ++q;
  const std::string_view word(p, static_cast<size_t>(q - p));
  *kind = IsKeyword(word, "and")   ? TokenKind::kAnd
          : IsKeyword(word, "or")  ? TokenKind::kOr
          : IsKeyword(word, "not") ? TokenKind::kNot
                                   : TokenKind::kIdentifier;
  return q;
}

/// An integer, [-]digits, into `*value`; malformed if it overflows int64.
inline const char* ScanInteger(const char* p, const char* end,
                               int64_t* value) {
  const bool negative = p != end && *p == '-';
  const char* q = p + (negative ? 1 : 0);
  if (q == end || !Is(*q, kDigit)) return p;
  // Eighteen digits cannot overflow; only longer runs are checked.
  const char* const unchecked = end - q > 18 ? q + 18 : end;
  uint64_t magnitude = 0;
  for (; q != unchecked && Is(*q, kDigit); ++q) {
    magnitude = magnitude * 10 + static_cast<uint64_t>(*q - '0');
  }
  const uint64_t limit =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) +
      (negative ? 1 : 0);
  for (; q != end && Is(*q, kDigit); ++q) {
    const uint64_t digit = static_cast<uint64_t>(*q - '0');
    if (magnitude > (limit - digit) / 10) return nullptr;
    magnitude = magnitude * 10 + digit;
  }
  // Two's-complement wrap is the one way to negate 2^63 into INT64_MIN.
  *value = static_cast<int64_t>(negative ? 0 - magnitude : magnitude);
  return q;
}

/// A 'single' or "double" quoted string without escapes; `*body` views
/// the text between the quotes. Malformed if unterminated.
inline const char* ScanString(const char* p, const char* end,
                              std::string_view* body) {
  if (p == end || (*p != '\'' && *p != '"')) return p;
  const void* close = std::memchr(p + 1, *p, static_cast<size_t>(end - p - 1));
  if (close == nullptr) return nullptr;
  const char* q = static_cast<const char*>(close);
  *body = std::string_view(p + 1, static_cast<size_t>(q - p - 1));
  return q + 1;
}

/// Punctuation or an operator: ( ) , < <= <> = == != ! > >= && ||.
/// A lone '&' or '|' is malformed.
inline const char* ScanPunct(const char* p, const char* end, TokenKind* kind) {
  if (p == end) return p;
  const char next = p + 1 != end ? p[1] : '\0';
  switch (*p) {
    case '(':
      *kind = TokenKind::kLParen;
      return p + 1;
    case ')':
      *kind = TokenKind::kRParen;
      return p + 1;
    case ',':
      *kind = TokenKind::kComma;
      return p + 1;
    case '<':
      *kind = next == '=' ? TokenKind::kLe
              : next == '>' ? TokenKind::kNe
                            : TokenKind::kLt;
      return p + (*kind == TokenKind::kLt ? 1 : 2);
    case '>':
      *kind = next == '=' ? TokenKind::kGe : TokenKind::kGt;
      return p + (next == '=' ? 2 : 1);
    case '=':
      *kind = TokenKind::kEq;
      return p + (next == '=' ? 2 : 1);
    case '!':
      *kind = next == '=' ? TokenKind::kNe : TokenKind::kNot;
      return p + (next == '=' ? 2 : 1);
    case '&':
      *kind = TokenKind::kAnd;
      return next == '&' ? p + 2 : nullptr;
    case '|':
      *kind = TokenKind::kOr;
      return next == '|' ? p + 2 : nullptr;
    default:
      return p;
  }
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

  /// Lexes the rest of the input, dropping the tokens; status() after.
  /// A parser that stops at a parse error calls it, since a lex error
  /// anywhere in the input outranks the parse error.
  const Status& Finish();

 private:
  Token Fail(std::string what);

  std::string_view input_;
  size_t pos_ = 0;
  Status status_;
};

/// Lexes all of `input`. The returned vector always ends with a kEnd token
/// on success; the tokens view `input`.
Result<std::vector<Token>> Lex(std::string_view input);

}  // namespace vfps

#endif  // VFPS_LANG_LEXER_H_
