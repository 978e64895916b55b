#include "sql/parser.h"

#include <cctype>
#include <cstdlib>

namespace sqs::sql {

namespace {

bool IsAnalyze(const std::string& text) {
  if (text.size() != 7) return false;
  const char* kw = "ANALYZE";
  for (size_t i = 0; i < text.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(text[i])) != kw[i]) return false;
  }
  return true;
}

// Millisecond multipliers for interval units.
Result<int64_t> UnitMillis(const std::string& unit) {
  if (unit == "SECOND") return int64_t{1000};
  if (unit == "MINUTE") return int64_t{60 * 1000};
  if (unit == "HOUR") return int64_t{60 * 60 * 1000};
  if (unit == "DAY") return int64_t{24 * 60 * 60 * 1000};
  return Status::ParseError("unsupported interval unit: " + unit);
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseOneStatement() {
    SQS_ASSIGN_OR_RETURN(stmt, ParseStatementInternal());
    Eat(TokenType::kSemicolon);
    if (!AtEnd()) return Err("trailing tokens after statement");
    return stmt;
  }

  Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> out;
    while (!AtEnd()) {
      SQS_ASSIGN_OR_RETURN(stmt, ParseStatementInternal());
      out.push_back(std::move(stmt));
      if (!Eat(TokenType::kSemicolon)) break;
    }
    if (!AtEnd()) return Err("trailing tokens after statements");
    return out;
  }

  Result<ExprPtr> ParseOneExpression() {
    SQS_ASSIGN_OR_RETURN(e, ParseExpr());
    if (!AtEnd()) return Err("trailing tokens after expression");
    return e;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  bool Check(TokenType t) const { return Peek().type == t; }
  bool CheckKw(const char* kw) const { return Peek().IsKeyword(kw); }

  bool Eat(TokenType t) {
    if (Check(t)) {
      Advance();
      return true;
    }
    return false;
  }
  bool EatKw(const char* kw) {
    if (CheckKw(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status Err(const std::string& what) const {
    return Status::ParseError(what + " near offset " + std::to_string(Peek().position) +
                              (Peek().text.empty() ? "" : " ('" + Peek().text + "')"));
  }

  Status Expect(TokenType t, const char* what) {
    if (!Eat(t)) return Err(std::string("expected ") + what);
    return Status::Ok();
  }
  Status ExpectKw(const char* kw) {
    if (!EatKw(kw)) return Err(std::string("expected ") + kw);
    return Status::Ok();
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (!Check(TokenType::kIdentifier)) return Err(std::string("expected ") + what);
    return Advance().text;
  }

  // ---- statements ----

  Result<Statement> ParseStatementInternal() {
    Statement stmt;
    if (CheckKw("SELECT")) {
      SQS_ASSIGN_OR_RETURN(sel, ParseSelect());
      stmt.select = std::move(sel);
      return stmt;
    }
    if (EatKw("CREATE")) {
      SQS_RETURN_IF_ERROR(ExpectKw("VIEW"));
      auto view = std::make_unique<CreateViewStmt>();
      SQS_ASSIGN_OR_RETURN(name, ExpectIdentifier("view name"));
      view->name = std::move(name);
      if (Eat(TokenType::kLParen)) {
        do {
          SQS_ASSIGN_OR_RETURN(col, ExpectIdentifier("column name"));
          view->column_names.push_back(std::move(col));
        } while (Eat(TokenType::kComma));
        SQS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
      }
      SQS_RETURN_IF_ERROR(ExpectKw("AS"));
      SQS_ASSIGN_OR_RETURN(sel, ParseSelect());
      view->select = std::move(sel);
      stmt.create_view = std::move(view);
      return stmt;
    }
    if (EatKw("INSERT")) {
      SQS_RETURN_IF_ERROR(ExpectKw("INTO"));
      auto insert = std::make_unique<InsertStmt>();
      SQS_ASSIGN_OR_RETURN(target, ExpectIdentifier("target stream"));
      insert->target = std::move(target);
      SQS_ASSIGN_OR_RETURN(sel, ParseSelect());
      insert->select = std::move(sel);
      stmt.insert = std::move(insert);
      return stmt;
    }
    if (EatKw("EXPLAIN")) {
      auto explain = std::make_unique<ExplainStmt>();
      // ANALYZE is not a reserved keyword; it lexes as an identifier.
      if (Check(TokenType::kIdentifier) && IsAnalyze(Peek().text)) {
        Advance();
        explain->analyze = true;
      }
      SQS_ASSIGN_OR_RETURN(sel, ParseSelect());
      explain->select = std::move(sel);
      stmt.explain = std::move(explain);
      return stmt;
    }
    return Err("expected SELECT, CREATE VIEW, INSERT INTO or EXPLAIN");
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    SQS_RETURN_IF_ERROR(ExpectKw("SELECT"));
    auto sel = std::make_unique<SelectStmt>();
    sel->stream = EatKw("STREAM");

    do {
      SelectItem item;
      if (Check(TokenType::kStar)) {
        Advance();
        item.expr = std::make_unique<Expr>();
        item.expr->kind = ExprKind::kStar;
      } else {
        SQS_ASSIGN_OR_RETURN(e, ParseExpr());
        item.expr = std::move(e);
        if (EatKw("AS")) {
          SQS_ASSIGN_OR_RETURN(alias, ExpectIdentifier("alias"));
          item.alias = std::move(alias);
        } else if (Check(TokenType::kIdentifier)) {
          // bare alias: SELECT x y
          item.alias = Advance().text;
        }
      }
      sel->items.push_back(std::move(item));
    } while (Eat(TokenType::kComma));

    SQS_RETURN_IF_ERROR(ExpectKw("FROM"));
    SQS_ASSIGN_OR_RETURN(from, ParseTableRef());
    sel->from = std::move(from);

    while (true) {
      bool inner = EatKw("INNER");
      if (!EatKw("JOIN")) {
        if (inner) return Err("expected JOIN after INNER");
        break;
      }
      JoinClause join;
      SQS_ASSIGN_OR_RETURN(table, ParseTableRef());
      join.table = std::move(table);
      SQS_RETURN_IF_ERROR(ExpectKw("ON"));
      SQS_ASSIGN_OR_RETURN(cond, ParseExpr());
      join.condition = std::move(cond);
      sel->joins.push_back(std::move(join));
    }

    if (EatKw("WHERE")) {
      SQS_ASSIGN_OR_RETURN(w, ParseExpr());
      sel->where = std::move(w);
    }
    if (EatKw("GROUP")) {
      SQS_RETURN_IF_ERROR(ExpectKw("BY"));
      do {
        SQS_ASSIGN_OR_RETURN(g, ParseExpr());
        sel->group_by.push_back(std::move(g));
      } while (Eat(TokenType::kComma));
    }
    if (EatKw("HAVING")) {
      SQS_ASSIGN_OR_RETURN(h, ParseExpr());
      sel->having = std::move(h);
    }
    return sel;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (Eat(TokenType::kLParen)) {
      SQS_ASSIGN_OR_RETURN(sub, ParseSelect());
      ref.subquery = std::move(sub);
      SQS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
    } else {
      SQS_ASSIGN_OR_RETURN(name, ExpectIdentifier("stream or table name"));
      ref.name = std::move(name);
    }
    if (EatKw("AS")) {
      SQS_ASSIGN_OR_RETURN(alias, ExpectIdentifier("alias"));
      ref.alias = std::move(alias);
    } else if (Check(TokenType::kIdentifier)) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  // ---- expressions (precedence climbing) ----

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    SQS_ASSIGN_OR_RETURN(lhs, ParseAnd());
    while (EatKw("OR")) {
      SQS_ASSIGN_OR_RETURN(rhs, ParseAnd());
      lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    SQS_ASSIGN_OR_RETURN(lhs, ParseNot());
    while (EatKw("AND")) {
      SQS_ASSIGN_OR_RETURN(rhs, ParseNot());
      lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (EatKw("NOT")) {
      SQS_ASSIGN_OR_RETURN(operand, ParseNot());
      return MakeUnary(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    SQS_ASSIGN_OR_RETURN(lhs, ParseAdditive());

    if (EatKw("BETWEEN")) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kBetween;
      e->children.push_back(std::move(lhs));
      SQS_ASSIGN_OR_RETURN(lo, ParseAdditive());
      e->children.push_back(std::move(lo));
      SQS_RETURN_IF_ERROR(ExpectKw("AND"));
      SQS_ASSIGN_OR_RETURN(hi, ParseAdditive());
      e->children.push_back(std::move(hi));
      return e;
    }
    if (EatKw("IS")) {
      bool negated = EatKw("NOT");
      SQS_RETURN_IF_ERROR(ExpectKw("NULL"));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIsNull;
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      return e;
    }
    if (EatKw("IN")) {
      SQS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "("));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIn;
      e->children.push_back(std::move(lhs));
      do {
        SQS_ASSIGN_OR_RETURN(item, ParseAdditive());
        e->children.push_back(std::move(item));
      } while (Eat(TokenType::kComma));
      SQS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
      return e;
    }

    BinaryOp op;
    if (Eat(TokenType::kEq)) {
      op = BinaryOp::kEq;
    } else if (Eat(TokenType::kNeq)) {
      op = BinaryOp::kNeq;
    } else if (Eat(TokenType::kLe)) {
      op = BinaryOp::kLe;
    } else if (Eat(TokenType::kLt)) {
      op = BinaryOp::kLt;
    } else if (Eat(TokenType::kGe)) {
      op = BinaryOp::kGe;
    } else if (Eat(TokenType::kGt)) {
      op = BinaryOp::kGt;
    } else {
      return lhs;
    }
    SQS_ASSIGN_OR_RETURN(rhs, ParseAdditive());
    return MakeBinary(op, std::move(lhs), std::move(rhs));
  }

  Result<ExprPtr> ParseAdditive() {
    SQS_ASSIGN_OR_RETURN(lhs, ParseMultiplicative());
    while (true) {
      BinaryOp op;
      if (Eat(TokenType::kPlus)) {
        op = BinaryOp::kAdd;
      } else if (Eat(TokenType::kMinus)) {
        op = BinaryOp::kSub;
      } else if (Eat(TokenType::kConcat)) {
        op = BinaryOp::kConcat;
      } else {
        break;
      }
      SQS_ASSIGN_OR_RETURN(rhs, ParseMultiplicative());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    SQS_ASSIGN_OR_RETURN(lhs, ParseUnary());
    while (true) {
      BinaryOp op;
      if (Eat(TokenType::kStar)) {
        op = BinaryOp::kMul;
      } else if (Eat(TokenType::kSlash)) {
        op = BinaryOp::kDiv;
      } else if (Eat(TokenType::kPercent)) {
        op = BinaryOp::kMod;
      } else {
        break;
      }
      SQS_ASSIGN_OR_RETURN(rhs, ParseUnary());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Eat(TokenType::kMinus)) {
      SQS_ASSIGN_OR_RETURN(operand, ParseUnary());
      return MakeUnary(UnaryOp::kNeg, std::move(operand));
    }
    if (Eat(TokenType::kPlus)) return ParseUnary();
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kIntLiteral:
        Advance();
        return MakeLiteral(Value(tok.int_value));
      case TokenType::kDoubleLiteral:
        Advance();
        return MakeLiteral(Value(tok.double_value));
      case TokenType::kStringLiteral:
        Advance();
        return MakeLiteral(Value(tok.text));
      case TokenType::kLParen: {
        Advance();
        SQS_ASSIGN_OR_RETURN(inner, ParseExpr());
        SQS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
        return inner;
      }
      case TokenType::kKeyword:
        if (tok.text == "NULL") {
          Advance();
          return MakeLiteral(Value::Null());
        }
        if (tok.text == "TRUE") {
          Advance();
          return MakeLiteral(Value(true));
        }
        if (tok.text == "FALSE") {
          Advance();
          return MakeLiteral(Value(false));
        }
        // END is reserved for CASE...END but is also the window-bound
        // aggregate END(ts) (paper §3.6); disambiguate by the '('.
        if (tok.text == "END" && Peek(1).type == TokenType::kLParen) {
          Advance();
          return ParseFunctionCall("END");
        }
        if (tok.text == "INTERVAL") return ParseIntervalLiteral();
        if (tok.text == "TIME") return ParseTimeLiteral();
        if (tok.text == "CASE") return ParseCase();
        if (tok.text == "CAST") return ParseCast();
        return Err("unexpected keyword " + tok.text + " in expression");
      case TokenType::kIdentifier:
        return ParseIdentifierExpr();
      default:
        return Err("unexpected token in expression");
    }
  }

  // INTERVAL 'text' unit [TO unit]. '2' HOUR -> 2h; '1:30' HOUR TO MINUTE ->
  // 1h30m (fields split on ':' map onto the unit range, most significant
  // first, matching SQL day-time interval literals).
  Result<ExprPtr> ParseIntervalLiteral() {
    SQS_RETURN_IF_ERROR(ExpectKw("INTERVAL"));
    if (!Check(TokenType::kStringLiteral)) return Err("expected interval string");
    std::string text = Advance().text;
    if (!Check(TokenType::kKeyword)) return Err("expected interval unit");
    std::string unit1 = Advance().text;
    std::string unit2;
    if (EatKw("TO")) {
      if (!Check(TokenType::kKeyword)) return Err("expected interval end unit");
      unit2 = Advance().text;
    }
    SQS_ASSIGN_OR_RETURN(millis, ParseIntervalValue(text, unit1, unit2));
    return MakeLiteral(Value(millis));
  }

  static Result<int64_t> ParseIntervalValue(const std::string& text,
                                            const std::string& unit1,
                                            const std::string& unit2) {
    // Split the text on ':'.
    std::vector<int64_t> parts;
    std::string cur;
    for (char c : text + ":") {
      if (c == ':') {
        if (cur.empty()) return Status::ParseError("bad interval literal: " + text);
        parts.push_back(std::strtoll(cur.c_str(), nullptr, 10));
        cur.clear();
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        cur += c;
      } else {
        return Status::ParseError("bad interval literal: " + text);
      }
    }
    static const std::vector<std::string> kUnits = {"DAY", "HOUR", "MINUTE", "SECOND"};
    auto index_of = [&](const std::string& u) -> int {
      for (size_t i = 0; i < kUnits.size(); ++i) {
        if (kUnits[i] == u) return static_cast<int>(i);
      }
      return -1;
    };
    int i1 = index_of(unit1);
    if (i1 < 0) return Status::ParseError("unsupported interval unit: " + unit1);
    int i2 = unit2.empty() ? i1 : index_of(unit2);
    if (i2 < 0) return Status::ParseError("unsupported interval unit: " + unit2);
    if (i2 < i1) return Status::ParseError("interval units out of order");
    if (static_cast<int>(parts.size()) != i2 - i1 + 1) {
      return Status::ParseError("interval literal '" + text + "' does not match " +
                                unit1 + (unit2.empty() ? "" : " TO " + unit2));
    }
    int64_t millis = 0;
    for (int u = i1; u <= i2; ++u) {
      SQS_ASSIGN_OR_RETURN(mult, UnitMillis(kUnits[u]));
      millis += parts[u - i1] * mult;
    }
    return millis;
  }

  // TIME 'h:m[:s]' -> milliseconds since midnight (used by HOP align).
  Result<ExprPtr> ParseTimeLiteral() {
    SQS_RETURN_IF_ERROR(ExpectKw("TIME"));
    if (!Check(TokenType::kStringLiteral)) return Err("expected time string");
    std::string text = Advance().text;
    std::vector<int64_t> parts;
    std::string cur;
    for (char c : text + ":") {
      if (c == ':') {
        if (cur.empty()) return Err("bad time literal: " + text);
        parts.push_back(std::strtoll(cur.c_str(), nullptr, 10));
        cur.clear();
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        cur += c;
      } else {
        return Err("bad time literal: " + text);
      }
    }
    if (parts.size() < 2 || parts.size() > 3) return Err("bad time literal: " + text);
    int64_t millis = parts[0] * 3600000 + parts[1] * 60000;
    if (parts.size() == 3) millis += parts[2] * 1000;
    return MakeLiteral(Value(millis));
  }

  Result<ExprPtr> ParseCase() {
    SQS_RETURN_IF_ERROR(ExpectKw("CASE"));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCase;
    while (EatKw("WHEN")) {
      SQS_ASSIGN_OR_RETURN(cond, ParseExpr());
      e->children.push_back(std::move(cond));
      SQS_RETURN_IF_ERROR(ExpectKw("THEN"));
      SQS_ASSIGN_OR_RETURN(val, ParseExpr());
      e->children.push_back(std::move(val));
    }
    if (e->children.empty()) return Err("CASE requires at least one WHEN");
    if (EatKw("ELSE")) {
      SQS_ASSIGN_OR_RETURN(val, ParseExpr());
      e->children.push_back(std::move(val));
      e->has_else = true;
    }
    SQS_RETURN_IF_ERROR(ExpectKw("END"));
    return e;
  }

  Result<ExprPtr> ParseCast() {
    SQS_RETURN_IF_ERROR(ExpectKw("CAST"));
    SQS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "("));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCast;
    SQS_ASSIGN_OR_RETURN(operand, ParseExpr());
    e->children.push_back(std::move(operand));
    SQS_RETURN_IF_ERROR(ExpectKw("AS"));
    if (!Check(TokenType::kIdentifier) && !Check(TokenType::kKeyword)) {
      return Err("expected type name");
    }
    std::string type_name = ToUpper(Advance().text);
    if (type_name == "INTEGER" || type_name == "INT") {
      e->cast_type = FieldType::Int32();
    } else if (type_name == "BIGINT") {
      e->cast_type = FieldType::Int64();
    } else if (type_name == "DOUBLE" || type_name == "FLOAT") {
      e->cast_type = FieldType::Double();
    } else if (type_name == "VARCHAR" || type_name == "CHAR") {
      e->cast_type = FieldType::String();
      // optional (n)
      if (Eat(TokenType::kLParen)) {
        if (!Eat(TokenType::kIntLiteral)) return Err("expected length");
        SQS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
      }
    } else if (type_name == "BOOLEAN") {
      e->cast_type = FieldType::Bool();
    } else {
      return Err("unsupported cast type " + type_name);
    }
    SQS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
    return e;
  }

  // identifier: column ref "a", qualified "t.a", or function call "f(...)"
  // possibly with an OVER clause.
  Result<ExprPtr> ParseIdentifierExpr() {
    std::string first = Advance().text;

    if (Check(TokenType::kLParen)) {
      return ParseFunctionCall(std::move(first));
    }
    if (Eat(TokenType::kDot)) {
      SQS_ASSIGN_OR_RETURN(second, ExpectIdentifier("column name"));
      return MakeColumnRef(std::move(first), std::move(second));
    }
    return MakeColumnRef("", std::move(first));
  }

  Result<ExprPtr> ParseFunctionCall(std::string name) {
    name = ToUpper(std::move(name));
    SQS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "("));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kFuncCall;
    e->func_name = std::move(name);

    if (Check(TokenType::kStar)) {
      Advance();
      e->star_arg = true;
      SQS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
    } else if (Eat(TokenType::kRParen)) {
      // zero-arg call
    } else {
      do {
        SQS_ASSIGN_OR_RETURN(arg, ParseExpr());
        e->children.push_back(std::move(arg));
        // FLOOR(x TO HOUR): the TO unit becomes a trailing string literal arg.
        if (EatKw("TO")) {
          if (!Check(TokenType::kKeyword)) return Err("expected unit after TO");
          e->children.push_back(MakeLiteral(Value(Advance().text)));
        }
      } while (Eat(TokenType::kComma));
      SQS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
    }

    if (EatKw("OVER")) {
      SQS_ASSIGN_OR_RETURN(spec, ParseWindowSpec());
      e->kind = ExprKind::kWindowCall;
      e->window = std::move(spec);
    }
    return e;
  }

  Result<std::unique_ptr<WindowSpec>> ParseWindowSpec() {
    SQS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "("));
    auto spec = std::make_unique<WindowSpec>();
    if (EatKw("PARTITION")) {
      SQS_RETURN_IF_ERROR(ExpectKw("BY"));
      do {
        SQS_ASSIGN_OR_RETURN(p, ParseExpr());
        spec->partition_by.push_back(std::move(p));
      } while (Eat(TokenType::kComma));
    }
    SQS_RETURN_IF_ERROR(ExpectKw("ORDER"));
    SQS_RETURN_IF_ERROR(ExpectKw("BY"));
    SQS_ASSIGN_OR_RETURN(order_col, ExpectIdentifier("order column"));
    spec->order_by = std::move(order_col);
    EatKw("ASC");

    if (EatKw("RANGE")) {
      spec->range_based = true;
      SQS_ASSIGN_OR_RETURN(width, ParseIntervalLiteral());
      spec->preceding_millis = width->literal.as_int64();
      SQS_RETURN_IF_ERROR(ExpectKw("PRECEDING"));
    } else if (EatKw("ROWS")) {
      spec->range_based = false;
      if (!Check(TokenType::kIntLiteral)) return Err("expected row count");
      spec->preceding_rows = Advance().int_value;
      SQS_RETURN_IF_ERROR(ExpectKw("PRECEDING"));
    } else {
      return Err("expected RANGE or ROWS in window spec");
    }
    SQS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
    return spec;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(const std::string& input) {
  SQS_ASSIGN_OR_RETURN(tokens, Lex(input));
  return Parser(std::move(tokens)).ParseOneStatement();
}

Result<std::vector<Statement>> ParseScript(const std::string& input) {
  SQS_ASSIGN_OR_RETURN(tokens, Lex(input));
  return Parser(std::move(tokens)).ParseAll();
}

Result<ExprPtr> ParseExpression(const std::string& input) {
  SQS_ASSIGN_OR_RETURN(tokens, Lex(input));
  return Parser(std::move(tokens)).ParseOneExpression();
}

}  // namespace sqs::sql
