// Abstract syntax tree for SamzaSQL's streaming SQL dialect (paper §3).
// Expressions carry optional resolution annotations (column index, result
// type) that the validator fills in; the parser leaves them empty.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"
#include "serde/schema.h"

namespace sqs::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,     // value
  kColumnRef,   // [qualifier.]name  -> resolved to input column index
  kStar,        // * (select list only)
  kBinary,      // op, children[0], children[1]
  kUnary,       // op, children[0]
  kFuncCall,    // scalar function: name(children...)
  kAggCall,     // aggregate: name(children...) — COUNT/SUM/MIN/MAX/AVG/START/END
  kWindowCall,  // aggregate over an OVER clause (sliding window)
  kCase,        // CASE WHEN c1 THEN v1 [WHEN...] [ELSE e] END; children =
                // [c1, v1, c2, v2, ..., else?]; has_else marks the trailing else
  kCast,        // CAST(children[0] AS target_type)
  kBetween,     // children[0] BETWEEN children[1] AND children[2]
  kIsNull,      // children[0] IS [NOT] NULL (negated -> IS NOT NULL)
  kIn,          // children[0] IN (children[1..])
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNeq, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kConcat,
};

enum class UnaryOp { kNeg, kNot };

const char* BinaryOpName(BinaryOp op);

// Bounds of an OVER window (sliding windows, paper §3.7):
//   RANGE INTERVAL 'n' unit PRECEDING  -> time-based, preceding_millis
//   ROWS n PRECEDING                   -> tuple-based, preceding_rows
struct WindowSpec {
  std::vector<std::unique_ptr<struct Expr>> partition_by;
  std::string order_by;    // column name; must be the timestamp for RANGE
  bool range_based = true;
  int64_t preceding_millis = 0;  // RANGE window width
  int64_t preceding_rows = 0;    // ROWS window width
};

struct Expr {
  ExprKind kind;

  // kLiteral
  Value literal;

  // kColumnRef
  std::string qualifier;  // optional "stream." prefix
  std::string column;

  // kBinary / kUnary
  BinaryOp binary_op = BinaryOp::kAdd;
  UnaryOp unary_op = UnaryOp::kNeg;

  // kFuncCall / kAggCall / kWindowCall
  std::string func_name;  // upper-cased
  bool star_arg = false;  // COUNT(*)
  std::unique_ptr<WindowSpec> window;  // kWindowCall only

  // kCase
  bool has_else = false;

  // kCast
  FieldType cast_type;

  // kIsNull
  bool negated = false;

  std::vector<std::unique_ptr<Expr>> children;

  // --- validator annotations ---
  int resolved_index = -1;        // kColumnRef: index into the input row;
                                  // calls: function table id
  FieldType resolved_type;        // result type after validation

  std::string ToString() const;
  std::unique_ptr<Expr> Clone() const;
};

using ExprPtr = std::unique_ptr<Expr>;

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string qualifier, std::string column);
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
ExprPtr MakeFuncCall(std::string name, std::vector<ExprPtr> args);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct SelectStmt;

// FROM-clause item: a named relation/stream, or a subquery.
struct TableRef {
  std::string name;                   // named source (empty for subqueries)
  std::unique_ptr<SelectStmt> subquery;
  std::string alias;                  // optional

  std::string EffectiveName() const {
    if (!alias.empty()) return alias;
    return name;
  }
};

struct JoinClause {
  TableRef table;
  ExprPtr condition;  // ON expression
};

struct SelectItem {
  ExprPtr expr;        // kStar for "*"
  std::string alias;   // optional AS alias
};

struct SelectStmt {
  bool stream = false;  // SELECT STREAM ...
  std::vector<SelectItem> items;
  TableRef from;
  std::vector<JoinClause> joins;
  ExprPtr where;                 // nullable
  std::vector<ExprPtr> group_by; // may contain TUMBLE/HOP/FLOOR calls
  ExprPtr having;                // nullable

  std::string ToString() const;
};

struct CreateViewStmt {
  std::string name;
  std::vector<std::string> column_names;  // optional rename list
  std::unique_ptr<SelectStmt> select;
};

struct InsertStmt {
  std::string target;  // output stream name
  std::unique_ptr<SelectStmt> select;
};

struct ExplainStmt {
  std::unique_ptr<SelectStmt> select;
  bool analyze = false;  // EXPLAIN ANALYZE: run sampled, annotate with spans
};

// A parsed statement: exactly one member is set.
struct Statement {
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<CreateViewStmt> create_view;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<ExplainStmt> explain;
};

}  // namespace sqs::sql
