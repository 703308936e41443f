// Copyright 2026 The vfps Authors.

#include "src/lang/lexer.h"

#include <cstring>
#include <limits>
#include <string>
#include <utility>

namespace vfps {

const char* TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdentifier:
      return "identifier";
    case TokenKind::kInteger:
      return "integer";
    case TokenKind::kString:
      return "string";
    case TokenKind::kLt:
      return "'<'";
    case TokenKind::kLe:
      return "'<='";
    case TokenKind::kEq:
      return "'='";
    case TokenKind::kNe:
      return "'!='";
    case TokenKind::kGe:
      return "'>='";
    case TokenKind::kGt:
      return "'>'";
    case TokenKind::kAnd:
      return "AND";
    case TokenKind::kOr:
      return "OR";
    case TokenKind::kNot:
      return "NOT";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kEnd:
      return "end of input";
    case TokenKind::kError:
      return "malformed input";
  }
  return "?";
}

namespace {

using lex::Is;
using lex::IsKeyword;
using lex::kDigit;
using lex::kIdentBody;
using lex::kIdentStart;
using lex::kSpace;

}  // namespace

Token Lexer::Fail(size_t offset, std::string what) {
  status_ = Status::InvalidArgument("lex error at offset " +
                                    std::to_string(offset) + ": " +
                                    std::move(what));
  Token token;
  token.kind = TokenKind::kError;
  token.offset = offset;
  return token;
}

Token Lexer::Next() {
  const char* const begin = input_.data();
  const char* const end = begin + input_.size();
  const char* p = begin + pos_;
  while (p != end && Is(*p, kSpace)) ++p;
  Token token;
  token.offset = static_cast<size_t>(p - begin);
  pos_ = token.offset;
  if (!status_.ok()) {
    token.kind = TokenKind::kError;
    return token;
  }
  if (p == end) return token;  // kEnd
  const char c = *p;
  const char next = p + 1 != end ? p[1] : '\0';
  switch (c) {
    case '(':
      token.kind = TokenKind::kLParen;
      ++pos_;
      return token;
    case ')':
      token.kind = TokenKind::kRParen;
      ++pos_;
      return token;
    case ',':
      token.kind = TokenKind::kComma;
      ++pos_;
      return token;
    case '<':
      token.kind = next == '=' ? TokenKind::kLe
                   : next == '>' ? TokenKind::kNe
                                 : TokenKind::kLt;
      pos_ += token.kind == TokenKind::kLt ? 1 : 2;
      return token;
    case '>':
      token.kind = next == '=' ? TokenKind::kGe : TokenKind::kGt;
      pos_ += next == '=' ? 2 : 1;
      return token;
    case '=':
      token.kind = TokenKind::kEq;
      pos_ += next == '=' ? 2 : 1;
      return token;
    case '!':
      token.kind = next == '=' ? TokenKind::kNe : TokenKind::kNot;
      pos_ += next == '=' ? 2 : 1;
      return token;
    case '&':
      if (next != '&') return Fail(pos_, "stray '&' (use && or AND)");
      token.kind = TokenKind::kAnd;
      pos_ += 2;
      return token;
    case '|':
      if (next != '|') return Fail(pos_, "stray '|' (use || or OR)");
      token.kind = TokenKind::kOr;
      pos_ += 2;
      return token;
    case '\'':
    case '"': {
      const void* close =
          std::memchr(p + 1, c, static_cast<size_t>(end - p - 1));
      if (close == nullptr) return Fail(pos_, "unterminated string literal");
      const char* q = static_cast<const char*>(close);
      token.kind = TokenKind::kString;
      token.text = std::string_view(p + 1, static_cast<size_t>(q - p - 1));
      pos_ = static_cast<size_t>(q + 1 - begin);
      return token;
    }
    default:
      break;
  }
  if (Is(c, kDigit) || (c == '-' && Is(next, kDigit))) {
    const bool negative = (c == '-');
    const uint64_t limit =
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) +
        (negative ? 1 : 0);
    const char* q = p + (negative ? 1 : 0);
    uint64_t magnitude = 0;
    for (; q != end && Is(*q, kDigit); ++q) {
      const uint64_t digit = static_cast<uint64_t>(*q - '0');
      if (magnitude > (limit - digit) / 10) {
        return Fail(pos_, "integer overflow");
      }
      magnitude = magnitude * 10 + digit;
    }
    token.kind = TokenKind::kInteger;
    // Two's-complement wrap is the one way to negate 2^63 into INT64_MIN.
    token.integer = static_cast<int64_t>(negative ? 0 - magnitude : magnitude);
    pos_ = static_cast<size_t>(q - begin);
    return token;
  }
  if (Is(c, kIdentStart)) {
    const char* q = p + 1;
    while (q != end && Is(*q, kIdentBody)) ++q;
    const std::string_view word(p, static_cast<size_t>(q - p));
    pos_ = static_cast<size_t>(q - begin);
    if (IsKeyword(word, "and")) {
      token.kind = TokenKind::kAnd;
    } else if (IsKeyword(word, "or")) {
      token.kind = TokenKind::kOr;
    } else if (IsKeyword(word, "not")) {
      token.kind = TokenKind::kNot;
    } else {
      token.kind = TokenKind::kIdentifier;
      token.text = word;
    }
    return token;
  }
  return Fail(pos_, std::string("unexpected character '") + c + "'");
}

Result<std::vector<Token>> Lex(std::string_view input) {
  Lexer lexer(input);
  std::vector<Token> tokens;
  do {
    tokens.push_back(lexer.Next());
    if (tokens.back().kind == TokenKind::kError) return lexer.status();
  } while (tokens.back().kind != TokenKind::kEnd);
  return tokens;
}

}  // namespace vfps
