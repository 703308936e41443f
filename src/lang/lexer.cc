// Copyright 2026 The vfps Authors.

#include "src/lang/lexer.h"

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

Token Lexer::Fail(std::string what) {
  status_ = Status::InvalidArgument("lex error at offset " +
                                    std::to_string(pos_) + ": " +
                                    std::move(what));
  Token token;
  token.kind = TokenKind::kError;
  token.offset = pos_;
  return token;
}

Token Lexer::Next() {
  const char* const begin = input_.data();
  const char* const end = begin + input_.size();
  const char* const p = lex::SkipSpace(begin + pos_, end);
  Token token;
  token.offset = pos_ = static_cast<size_t>(p - begin);
  if (!status_.ok()) {
    token.kind = TokenKind::kError;
    return token;
  }
  if (p == end) return token;  // kEnd
  const char* q;
  if ((q = lex::ScanWord(p, end, &token.kind)) != p) {
    if (token.kind == TokenKind::kIdentifier) {
      token.text = std::string_view(p, static_cast<size_t>(q - p));
    }
  } else if ((q = lex::ScanPunct(p, end, &token.kind)) != p) {
    if (q == nullptr) {
      return Fail(*p == '&' ? "stray '&' (use && or AND)"
                            : "stray '|' (use || or OR)");
    }
  } else if ((q = lex::ScanInteger(p, end, &token.integer)) != p) {
    if (q == nullptr) return Fail("integer overflow");
    token.kind = TokenKind::kInteger;
  } else if ((q = lex::ScanString(p, end, &token.text)) != p) {
    if (q == nullptr) return Fail("unterminated string literal");
    token.kind = TokenKind::kString;
  } else {
    return Fail(std::string("unexpected character '") + *p + "'");
  }
  pos_ = static_cast<size_t>(q - begin);
  return token;
}

const Status& Lexer::Finish() {
  TokenKind kind;
  do {
    kind = Next().kind;
  } while (kind != TokenKind::kEnd && kind != TokenKind::kError);
  return status_;
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
