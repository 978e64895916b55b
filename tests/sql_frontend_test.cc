// Lexer, parser and expression-layer tests.
#include <gtest/gtest.h>

#include <random>

#include "sql/expr.h"
#include "sql/functions.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace sqs::sql {
namespace {

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto tokens = Lex("select Stream FROM where").value();
  ASSERT_EQ(tokens.size(), 5u);  // incl. end
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens[1].IsKeyword("STREAM"));
  EXPECT_TRUE(tokens[2].IsKeyword("FROM"));
  EXPECT_TRUE(tokens[3].IsKeyword("WHERE"));
}

TEST(LexerTest, IdentifiersKeepCase) {
  auto tokens = Lex("productId \"Quoted Name\"").value();
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "productId");
  EXPECT_EQ(tokens[1].text, "Quoted Name");
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Lex("42 3.25 1e3 'it''s'").value();
  EXPECT_EQ(tokens[0].type, TokenType::kIntLiteral);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].type, TokenType::kDoubleLiteral);
  EXPECT_EQ(tokens[1].double_value, 3.25);
  EXPECT_EQ(tokens[2].type, TokenType::kDoubleLiteral);
  EXPECT_EQ(tokens[2].double_value, 1000.0);
  EXPECT_EQ(tokens[3].type, TokenType::kStringLiteral);
  EXPECT_EQ(tokens[3].text, "it's");
}

TEST(LexerTest, OperatorsAndComments) {
  auto tokens = Lex("a <= b -- comment\n <> c /* block */ || d != e").value();
  std::vector<TokenType> types;
  for (const auto& t : tokens) types.push_back(t.type);
  EXPECT_EQ(types[1], TokenType::kLe);
  EXPECT_EQ(types[3], TokenType::kNeq);
  EXPECT_EQ(types[5], TokenType::kConcat);
  EXPECT_EQ(types[7], TokenType::kNeq);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("'unterminated").ok());
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("/* unterminated").ok());
  EXPECT_FALSE(Lex("a ! b").ok());
  EXPECT_FALSE(Lex("a | b").ok());
  EXPECT_FALSE(Lex("a # b").ok());
}

TEST(ParserTest, SelectStarStream) {
  auto stmt = ParseStatement("SELECT STREAM * FROM Orders").value();
  ASSERT_TRUE(stmt.select);
  EXPECT_TRUE(stmt.select->stream);
  ASSERT_EQ(stmt.select->items.size(), 1u);
  EXPECT_EQ(stmt.select->items[0].expr->kind, ExprKind::kStar);
  EXPECT_EQ(stmt.select->from.name, "Orders");
}

TEST(ParserTest, FilterQueryFromPaper) {
  // Listing 2.
  auto stmt = ParseStatement(
                  "SELECT STREAM rowtime, productId, units FROM Orders WHERE units > 25;")
                  .value();
  ASSERT_TRUE(stmt.select);
  EXPECT_EQ(stmt.select->items.size(), 3u);
  ASSERT_TRUE(stmt.select->where);
  EXPECT_EQ(stmt.select->where->ToString(), "(units > 25)");
}

TEST(ParserTest, SelectWithoutStreamIsRelational) {
  auto stmt = ParseStatement("SELECT * FROM Orders").value();
  EXPECT_FALSE(stmt.select->stream);
}

TEST(ParserTest, AliasForms) {
  auto stmt = ParseStatement("SELECT a AS x, b y FROM T t").value();
  EXPECT_EQ(stmt.select->items[0].alias, "x");
  EXPECT_EQ(stmt.select->items[1].alias, "y");
  EXPECT_EQ(stmt.select->from.alias, "t");
}

TEST(ParserTest, TumbleWindowFromPaper) {
  // Listing 4.
  auto stmt = ParseStatement(
                  "SELECT STREAM START(rowtime), COUNT(*) FROM Orders "
                  "GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)")
                  .value();
  ASSERT_EQ(stmt.select->group_by.size(), 1u);
  const Expr& g = *stmt.select->group_by[0];
  EXPECT_EQ(g.func_name, "TUMBLE");
  ASSERT_EQ(g.children.size(), 2u);
  EXPECT_EQ(g.children[1]->literal.as_int64(), 3600000);
  EXPECT_TRUE(stmt.select->items[1].expr->star_arg);
}

TEST(ParserTest, HopWindowFromPaper) {
  // Listing 5: HOP(rowtime, INTERVAL '1:30' HOUR TO MINUTE, INTERVAL '2'
  // HOUR, TIME '0:30').
  auto stmt = ParseStatement(
                  "SELECT STREAM START(rowtime), COUNT(*) FROM Orders GROUP BY "
                  "HOP(rowtime, INTERVAL '1:30' HOUR TO MINUTE, INTERVAL '2' HOUR, "
                  "TIME '0:30')")
                  .value();
  const Expr& g = *stmt.select->group_by[0];
  EXPECT_EQ(g.func_name, "HOP");
  ASSERT_EQ(g.children.size(), 4u);
  EXPECT_EQ(g.children[1]->literal.as_int64(), 90 * 60 * 1000);
  EXPECT_EQ(g.children[2]->literal.as_int64(), 2 * 3600 * 1000);
  EXPECT_EQ(g.children[3]->literal.as_int64(), 30 * 60 * 1000);
}

TEST(ParserTest, FloorToHourInGroupBy) {
  // Listing 3 core.
  auto stmt = ParseStatement(
                  "SELECT FLOOR(rowtime TO HOUR), productId, COUNT(*), SUM(units) "
                  "FROM Orders GROUP BY FLOOR(rowtime TO HOUR), productId")
                  .value();
  ASSERT_EQ(stmt.select->group_by.size(), 2u);
  const Expr& g = *stmt.select->group_by[0];
  EXPECT_EQ(g.func_name, "FLOOR");
  ASSERT_EQ(g.children.size(), 2u);
  EXPECT_EQ(g.children[1]->literal.as_string(), "HOUR");
}

TEST(ParserTest, SlidingWindowFromPaper) {
  // Listing 6.
  auto stmt = ParseStatement(
                  "SELECT STREAM rowtime, productId, units, SUM(units) OVER "
                  "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '1' HOUR "
                  "PRECEDING) unitsLastHour FROM Orders")
                  .value();
  const Expr& w = *stmt.select->items[3].expr;
  EXPECT_EQ(w.kind, ExprKind::kWindowCall);
  EXPECT_EQ(w.func_name, "SUM");
  ASSERT_TRUE(w.window);
  EXPECT_TRUE(w.window->range_based);
  EXPECT_EQ(w.window->preceding_millis, 3600000);
  EXPECT_EQ(w.window->order_by, "rowtime");
  ASSERT_EQ(w.window->partition_by.size(), 1u);
  EXPECT_EQ(stmt.select->items[3].alias, "unitsLastHour");
}

TEST(ParserTest, RowsWindow) {
  auto stmt = ParseStatement(
                  "SELECT STREAM AVG(price) OVER (PARTITION BY ticker ORDER BY rowtime "
                  "ROWS 10 PRECEDING) FROM Bids")
                  .value();
  const Expr& w = *stmt.select->items[0].expr;
  EXPECT_FALSE(w.window->range_based);
  EXPECT_EQ(w.window->preceding_rows, 10);
}

TEST(ParserTest, StreamToStreamJoinFromPaper) {
  // Listing 7 (with the paper's typos fixed).
  auto stmt = ParseStatement(
                  "SELECT STREAM GREATEST(PacketsR1.rowtime, PacketsR2.rowtime) AS rowtime, "
                  "PacketsR1.sourcetime, PacketsR1.packetId, "
                  "PacketsR2.rowtime - PacketsR1.rowtime AS timeToTravel "
                  "FROM PacketsR1 JOIN PacketsR2 ON "
                  "PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND "
                  "AND PacketsR2.rowtime + INTERVAL '2' SECOND "
                  "AND PacketsR1.packetId = PacketsR2.packetId")
                  .value();
  ASSERT_EQ(stmt.select->joins.size(), 1u);
  EXPECT_EQ(stmt.select->joins[0].table.name, "PacketsR2");
  // The ON condition is a conjunction containing a BETWEEN.
  const Expr& cond = *stmt.select->joins[0].condition;
  EXPECT_EQ(cond.kind, ExprKind::kBinary);
  EXPECT_EQ(cond.binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, StreamToRelationJoinFromPaper) {
  // Listing 8.
  auto stmt = ParseStatement(
                  "SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, "
                  "Orders.units, Products.supplierId FROM Orders "
                  "JOIN Products ON Orders.productId = Products.productId")
                  .value();
  ASSERT_EQ(stmt.select->joins.size(), 1u);
  const Expr& cond = *stmt.select->joins[0].condition;
  EXPECT_EQ(cond.binary_op, BinaryOp::kEq);
  EXPECT_EQ(cond.children[0]->qualifier, "Orders");
  EXPECT_EQ(cond.children[1]->qualifier, "Products");
}

TEST(ParserTest, CreateViewFromPaper) {
  // Listing 3.
  auto stmts = ParseScript(
                   "CREATE VIEW HourlyOrderTotals (rowtime, productId, c, su) AS "
                   "SELECT FLOOR(rowtime TO HOUR), productId, COUNT(*), SUM(units) "
                   "FROM Orders GROUP BY FLOOR(rowtime TO HOUR), productId; "
                   "SELECT STREAM rowtime, productId FROM HourlyOrderTotals "
                   "WHERE c > 2 OR su > 10;")
                   .value();
  ASSERT_EQ(stmts.size(), 2u);
  ASSERT_TRUE(stmts[0].create_view);
  EXPECT_EQ(stmts[0].create_view->name, "HourlyOrderTotals");
  ASSERT_EQ(stmts[0].create_view->column_names.size(), 4u);
  ASSERT_TRUE(stmts[1].select);
}

TEST(ParserTest, SubqueryInFrom) {
  auto stmt = ParseStatement(
                  "SELECT STREAM rowtime, productId FROM ("
                  "SELECT FLOOR(rowtime TO HOUR) AS rowtime, productId, COUNT(*) AS c "
                  "FROM Orders GROUP BY FLOOR(rowtime TO HOUR), productId) "
                  "WHERE c > 2")
                  .value();
  ASSERT_TRUE(stmt.select->from.subquery);
  EXPECT_EQ(stmt.select->from.subquery->items.size(), 3u);
}

TEST(ParserTest, InsertInto) {
  auto stmt = ParseStatement("INSERT INTO BigOrders SELECT STREAM * FROM Orders "
                             "WHERE units > 100")
                  .value();
  ASSERT_TRUE(stmt.insert);
  EXPECT_EQ(stmt.insert->target, "BigOrders");
  EXPECT_TRUE(stmt.insert->select->stream);
}

TEST(ParserTest, Explain) {
  auto stmt = ParseStatement("EXPLAIN SELECT * FROM Orders").value();
  ASSERT_TRUE(stmt.explain);
}

TEST(ParserTest, OperatorPrecedence) {
  auto e = ParseExpression("1 + 2 * 3 - 4").value();
  EXPECT_EQ(e->ToString(), "((1 + (2 * 3)) - 4)");
  auto logical = ParseExpression("a OR b AND NOT c = 1").value();
  EXPECT_EQ(logical->ToString(), "(a OR (b AND NOT (c = 1)))");
}

TEST(ParserTest, CaseExpression) {
  auto e = ParseExpression(
               "CASE WHEN units > 100 THEN 'big' WHEN units > 10 THEN 'mid' "
               "ELSE 'small' END")
               .value();
  EXPECT_EQ(e->kind, ExprKind::kCase);
  EXPECT_TRUE(e->has_else);
  EXPECT_EQ(e->children.size(), 5u);
}

TEST(ParserTest, CastParses) {
  auto e = ParseExpression("CAST(units AS BIGINT)").value();
  EXPECT_EQ(e->kind, ExprKind::kCast);
  EXPECT_EQ(e->cast_type.kind, TypeKind::kInt64);
  EXPECT_FALSE(ParseExpression("CAST(units AS BLOB)").ok());
}

TEST(ParserTest, IntervalLiterals) {
  EXPECT_EQ(ParseExpression("INTERVAL '5' MINUTE").value()->literal.as_int64(), 300000);
  EXPECT_EQ(ParseExpression("INTERVAL '2' SECOND").value()->literal.as_int64(), 2000);
  EXPECT_EQ(ParseExpression("INTERVAL '1' DAY").value()->literal.as_int64(), 86400000);
  EXPECT_EQ(ParseExpression("INTERVAL '1:30' HOUR TO MINUTE").value()->literal.as_int64(),
            5400000);
  EXPECT_EQ(
      ParseExpression("INTERVAL '1:2:3' HOUR TO SECOND").value()->literal.as_int64(),
      3723000);
  EXPECT_FALSE(ParseExpression("INTERVAL '1:30' HOUR").ok());
  EXPECT_FALSE(ParseExpression("INTERVAL 'abc' HOUR").ok());
  EXPECT_FALSE(ParseExpression("INTERVAL '1' MINUTE TO HOUR").ok());
}

TEST(ParserTest, ParseErrors) {
  EXPECT_FALSE(ParseStatement("SELECT FROM Orders").ok());
  EXPECT_FALSE(ParseStatement("SELECT * Orders").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM").ok());
  EXPECT_FALSE(ParseStatement("FROB * FROM Orders").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM Orders JOIN").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM Orders JOIN P").ok());  // missing ON
  EXPECT_FALSE(ParseStatement("SELECT * FROM Orders trailing garbage !").ok());
  EXPECT_FALSE(ParseStatement("SELECT CASE END FROM T").ok());
}

// --- expression evaluation ---

Row NoRow() { return {}; }

Value EvalConst(const std::string& text) {
  auto e = ParseExpression(text).value();
  // Constant expressions need no resolution.
  auto resolver = [](const std::string&,
                     const std::string& c) -> Result<std::pair<int, FieldType>> {
    return Status::NotFound("no columns: " + c);
  };
  auto st = ResolveExpr(*e, resolver, false);
  if (!st.ok()) throw std::runtime_error(st.ToString());
  return EvalExpr(*e, NoRow());
}

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(EvalConst("1 + 2 * 3"), Value(int64_t{7}));
  EXPECT_EQ(EvalConst("10 / 4"), Value(int64_t{2}));       // integer division
  EXPECT_EQ(EvalConst("10.0 / 4"), Value(2.5));
  EXPECT_EQ(EvalConst("10 % 3"), Value(int64_t{1}));
  EXPECT_EQ(EvalConst("-(5)"), Value(int64_t{-5}));
  EXPECT_TRUE(EvalConst("1 / 0").is_null());
  EXPECT_TRUE(EvalConst("1 % 0").is_null());
}

TEST(ExprEvalTest, Comparisons) {
  EXPECT_EQ(EvalConst("1 < 2"), Value(true));
  EXPECT_EQ(EvalConst("2 <= 2"), Value(true));
  EXPECT_EQ(EvalConst("3 <> 3"), Value(false));
  EXPECT_EQ(EvalConst("'abc' < 'abd'"), Value(true));
  EXPECT_EQ(EvalConst("1.5 > 1"), Value(true));
  // NULL comparisons are FALSE (documented simplification).
  EXPECT_EQ(EvalConst("NULL = NULL"), Value(false));
}

TEST(ExprEvalTest, Logical) {
  EXPECT_EQ(EvalConst("TRUE AND FALSE"), Value(false));
  EXPECT_EQ(EvalConst("TRUE OR FALSE"), Value(true));
  EXPECT_EQ(EvalConst("NOT TRUE"), Value(false));
  EXPECT_EQ(EvalConst("NOT NULL IS NULL"), Value(false));
}

TEST(ExprEvalTest, BetweenInCase) {
  EXPECT_EQ(EvalConst("5 BETWEEN 1 AND 10"), Value(true));
  EXPECT_EQ(EvalConst("0 BETWEEN 1 AND 10"), Value(false));
  EXPECT_EQ(EvalConst("3 IN (1, 2, 3)"), Value(true));
  EXPECT_EQ(EvalConst("4 IN (1, 2, 3)"), Value(false));
  EXPECT_EQ(EvalConst("CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END"), Value("b"));
  EXPECT_TRUE(EvalConst("CASE WHEN 1 > 2 THEN 'a' END").is_null());
}

TEST(ExprEvalTest, ScalarFunctions) {
  EXPECT_EQ(EvalConst("ABS(-7)"), Value(int64_t{7}));
  EXPECT_EQ(EvalConst("GREATEST(3, 9, 5)"), Value(int64_t{9}));
  EXPECT_EQ(EvalConst("LEAST(3, 9, 5)"), Value(int64_t{3}));
  EXPECT_EQ(EvalConst("UPPER('abc')"), Value("ABC"));
  EXPECT_EQ(EvalConst("LOWER('ABC')"), Value("abc"));
  EXPECT_EQ(EvalConst("CHAR_LENGTH('hello')"), Value(int32_t{5}));
  EXPECT_EQ(EvalConst("SUBSTRING('hello', 2, 3)"), Value("ell"));
  EXPECT_EQ(EvalConst("COALESCE(NULL, NULL, 5)"), Value(int64_t{5}));
  EXPECT_EQ(EvalConst("MOD(10, 3)"), Value(int64_t{1}));
  EXPECT_EQ(EvalConst("'a' || 'b'"), Value("ab"));
  EXPECT_EQ(EvalConst("SQRT(16)"), Value(4.0));
  EXPECT_EQ(EvalConst("POWER(2, 10)"), Value(1024.0));
  EXPECT_EQ(EvalConst("FLOOR(3.7)"), Value(3.0));
  EXPECT_EQ(EvalConst("CEIL(3.2)"), Value(4.0));
}

TEST(ExprEvalTest, FloorTimestampToUnits) {
  // 2015-08-30T18:27:41.500Z = 1440959261500
  int64_t ts = 1440959261500;
  EXPECT_EQ(FloorTimestampTo(ts, "SECOND").value(), 1440959261000);
  EXPECT_EQ(FloorTimestampTo(ts, "MINUTE").value(), 1440959220000);
  EXPECT_EQ(FloorTimestampTo(ts, "HOUR").value(), 1440957600000);
  EXPECT_EQ(FloorTimestampTo(ts, "DAY").value(), 1440892800000);
  EXPECT_FALSE(FloorTimestampTo(ts, "FORTNIGHT").ok());
  // Negative timestamps floor toward -infinity.
  EXPECT_EQ(FloorTimestampTo(-1, "SECOND").value(), -1000);
}

TEST(ExprEvalTest, Cast) {
  EXPECT_EQ(EvalConst("CAST(3.9 AS INTEGER)"), Value(int32_t{3}));
  EXPECT_EQ(EvalConst("CAST(3 AS DOUBLE)"), Value(3.0));
  EXPECT_EQ(EvalConst("CAST(42 AS VARCHAR)"), Value("42"));
  EXPECT_EQ(EvalConst("CAST(0 AS BOOLEAN)"), Value(false));
}

// Property: compiled evaluation == interpreted evaluation on randomized rows.
TEST(CompiledExprTest, MatchesInterpreterOnRandomRows) {
  auto resolver = [](const std::string&,
                     const std::string& c) -> Result<std::pair<int, FieldType>> {
    if (c == "a") return std::make_pair(0, FieldType::Int64());
    if (c == "b") return std::make_pair(1, FieldType::Int64());
    if (c == "d") return std::make_pair(2, FieldType::Double());
    if (c == "s") return std::make_pair(3, FieldType::String());
    return Status::NotFound("no column " + c);
  };
  const char* exprs[] = {
      "a + b * 2 - 3",
      "a > b AND d < 100.0",
      "a BETWEEN b - 10 AND b + 10",
      "CASE WHEN a > b THEN a ELSE b END",
      "GREATEST(a, b) + LEAST(a, b)",
      "a IN (1, 2, 3, b)",
      "s || '-' || CAST(a AS VARCHAR)",
      "COALESCE(NULL, a) % 7",
      "ABS(a - b) + FLOOR(d)",
      "NOT (a = b) OR s IS NULL",
      "CEIL(d) + CEIL(a)",
      "MOD(a, b)",
      "UPPER(s) || LOWER(UPPER(s))",
      "CHAR_LENGTH(s || s)",
      "SUBSTRING(s || 'xyz', 2) || SUBSTRING(s, 1, 1)",
      "CONCAT(s, a, NULL)",
      "SQRT(d) + POWER(d, 2)",
      "FLOOR(a TO SECOND)",
  };
  // Every built-in scalar function is covered above.
  auto& table = FunctionRegistry::Instance();
  for (int32_t id = 0; id < table.size(); ++id) {
    const Function* fn = table.Get(id);
    if (fn->user_defined || fn->is_aggregate()) continue;
    bool listed = false;
    for (const char* text : exprs) {
      listed = listed || std::string(text).find(fn->name + "(") != std::string::npos;
    }
    EXPECT_TRUE(listed) << fn->name << " missing from the expression list";
  }
  std::mt19937_64 rng(99);
  for (const char* text : exprs) {
    auto e = ParseExpression(text).value();
    ASSERT_TRUE(ResolveExpr(*e, resolver, false).ok()) << text;
    auto compiled = CompiledExpr::Compile(*e);
    ASSERT_TRUE(compiled.ok()) << text;
    for (int i = 0; i < 200; ++i) {
      Row row = {Value(static_cast<int64_t>(rng() % 200) - 100),
                 Value(static_cast<int64_t>(rng() % 200) - 100),
                 Value(static_cast<double>(rng() % 1000) / 4.0),
                 Value(std::string(1, static_cast<char>('a' + rng() % 26)))};
      Value interpreted = EvalExpr(*e, row);
      Value compiled_result = compiled.value().Eval(row);
      ASSERT_EQ(interpreted, compiled_result)
          << text << " on " << RowToString(row);
    }
  }
}

TEST(CompiledExprTest, RejectsUnresolved) {
  auto e = ParseExpression("x + 1").value();
  EXPECT_FALSE(CompiledExpr::Compile(*e).ok());
}

}  // namespace
}  // namespace sqs::sql
