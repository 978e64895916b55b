#include "sql/lexer.h"

#include <cctype>
#include <cstdlib>
#include <unordered_set>

namespace sqs::sql {

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kw = {
      "SELECT", "STREAM", "FROM", "WHERE", "GROUP", "BY", "HAVING", "AS",
      "JOIN", "INNER", "LEFT", "ON", "AND", "OR", "NOT", "BETWEEN",
      "INTERVAL", "YEAR", "MONTH", "DAY", "HOUR", "MINUTE", "SECOND", "TO",
      "CREATE", "VIEW", "INSERT", "INTO", "OVER", "PARTITION", "ORDER",
      "RANGE", "ROWS", "PRECEDING", "FOLLOWING", "CURRENT", "ROW", "UNBOUNDED",
      "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "NULL", "TRUE", "FALSE",
      "IS", "IN", "LIKE", "DISTINCT", "TIME", "DATE", "TIMESTAMP", "ASC",
      "DESC", "EXPLAIN", "VALUES", "UNION", "ALL", "LIMIT", "DROP", "SHOW",
  };
  return kw;
}

}  // namespace

std::string ToUpper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

bool IsReservedKeyword(const std::string& word) { return Keywords().count(word) > 0; }

Result<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();

  auto error = [&](const std::string& what) {
    return Status::ParseError(what + " at offset " + std::to_string(i));
  };

  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- line comments
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    // /* block comments */
    if (c == '/' && i + 1 < n && input[i + 1] == '*') {
      size_t close = input.find("*/", i + 2);
      if (close == std::string::npos) return error("unterminated block comment");
      i = close + 2;
      continue;
    }

    Token tok;
    tok.position = i;

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) || input[i] == '_')) {
        ++i;
      }
      std::string word = input.substr(start, i - start);
      std::string upper = ToUpper(word);
      if (Keywords().count(upper)) {
        tok.type = TokenType::kKeyword;
        tok.text = upper;
      } else {
        tok.type = TokenType::kIdentifier;
        tok.text = word;
      }
      tokens.push_back(std::move(tok));
      continue;
    }

    if (c == '"') {  // quoted identifier
      ++i;
      std::string word;
      while (i < n && input[i] != '"') word += input[i++];
      if (i >= n) return error("unterminated quoted identifier");
      ++i;
      tok.type = TokenType::kIdentifier;
      tok.text = std::move(word);
      tokens.push_back(std::move(tok));
      continue;
    }

    if (c == '\'') {  // string literal ('' escapes a quote)
      ++i;
      std::string text;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {
            text += '\'';
            i += 2;
            continue;
          }
          break;
        }
        text += input[i++];
      }
      if (i >= n) return error("unterminated string literal");
      ++i;
      tok.type = TokenType::kStringLiteral;
      tok.text = std::move(text);
      tokens.push_back(std::move(tok));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t start = i;
      bool is_double = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      if (i < n && input[i] == '.') {
        is_double = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      }
      if (i < n && (input[i] == 'e' || input[i] == 'E')) {
        is_double = true;
        ++i;
        if (i < n && (input[i] == '+' || input[i] == '-')) ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      }
      std::string num = input.substr(start, i - start);
      if (is_double) {
        tok.type = TokenType::kDoubleLiteral;
        tok.double_value = std::strtod(num.c_str(), nullptr);
      } else {
        tok.type = TokenType::kIntLiteral;
        tok.int_value = std::strtoll(num.c_str(), nullptr, 10);
      }
      tok.text = std::move(num);
      tokens.push_back(std::move(tok));
      continue;
    }

    switch (c) {
      case ',': tok.type = TokenType::kComma; ++i; break;
      case '(': tok.type = TokenType::kLParen; ++i; break;
      case ')': tok.type = TokenType::kRParen; ++i; break;
      case '.': tok.type = TokenType::kDot; ++i; break;
      case '*': tok.type = TokenType::kStar; ++i; break;
      case ';': tok.type = TokenType::kSemicolon; ++i; break;
      case '+': tok.type = TokenType::kPlus; ++i; break;
      case '-': tok.type = TokenType::kMinus; ++i; break;
      case '/': tok.type = TokenType::kSlash; ++i; break;
      case '%': tok.type = TokenType::kPercent; ++i; break;
      case '=': tok.type = TokenType::kEq; ++i; break;
      case '<':
        if (i + 1 < n && input[i + 1] == '=') {
          tok.type = TokenType::kLe;
          i += 2;
        } else if (i + 1 < n && input[i + 1] == '>') {
          tok.type = TokenType::kNeq;
          i += 2;
        } else {
          tok.type = TokenType::kLt;
          ++i;
        }
        break;
      case '>':
        if (i + 1 < n && input[i + 1] == '=') {
          tok.type = TokenType::kGe;
          i += 2;
        } else {
          tok.type = TokenType::kGt;
          ++i;
        }
        break;
      case '!':
        if (i + 1 < n && input[i + 1] == '=') {
          tok.type = TokenType::kNeq;
          i += 2;
        } else {
          return error("unexpected '!'");
        }
        break;
      case '|':
        if (i + 1 < n && input[i + 1] == '|') {
          tok.type = TokenType::kConcat;
          i += 2;
        } else {
          return error("unexpected '|'");
        }
        break;
      default:
        return error(std::string("unexpected character '") + c + "'");
    }
    tokens.push_back(std::move(tok));
  }

  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace sqs::sql
