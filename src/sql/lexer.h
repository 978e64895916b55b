// SQL lexer for SamzaSQL's streaming SQL dialect (paper §3): standard SQL
// plus the STREAM keyword and the TUMBLE/HOP group-window functions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace sqs::sql {

enum class TokenType {
  kEnd,
  kIdentifier,   // possibly-quoted identifier
  kKeyword,      // upper-cased match against the keyword set
  kIntLiteral,
  kDoubleLiteral,
  kStringLiteral,
  // punctuation / operators
  kComma, kLParen, kRParen, kDot, kStar, kSemicolon,
  kPlus, kMinus, kSlash, kPercent,
  kEq, kNeq, kLt, kLe, kGt, kGe,
  kConcat,  // ||
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;     // identifier/keyword (keywords upper-cased) or literal text
  int64_t int_value = 0;
  double double_value = 0;
  size_t position = 0;  // byte offset in the input, for error messages

  bool IsKeyword(const char* kw) const {
    return type == TokenType::kKeyword && text == kw;
  }
};

// Tokenizes the whole input. Keywords are recognized case-insensitively and
// normalized to upper case; non-keyword identifiers keep their case.
Result<std::vector<Token>> Lex(const std::string& input);

// True if `word` (already upper-cased) is a reserved keyword.
bool IsReservedKeyword(const std::string& word);

// ASCII upper case: keywords, function names and the shell's SHOW views
// match case-insensitively through it.
std::string ToUpper(std::string s);

}  // namespace sqs::sql
