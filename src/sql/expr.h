// Resolved-expression services:
//  - type inference / column resolution (used by the planner),
//  - a tree-walking interpreter,
//  - a compiler to a flat register program over the tuple-as-array row
//    representation. This is the stand-in for the paper's Janino/Linq4j
//    code generation (§4.2): generated operators evaluate filter conditions
//    and projection expressions against a Row (array), which is why the
//    scan/insert operators must convert records to arrays and back (Fig. 4).
//
// NULL semantics (documented deviation, see README): comparisons involving
// NULL evaluate to FALSE rather than UNKNOWN; AND/OR treat NULL as FALSE;
// arithmetic on NULL yields NULL; aggregates skip NULLs. Division by zero
// yields NULL.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/value.h"
#include "sql/ast.h"

namespace sqs::sql {

struct Function;

// Resolves column refs / infers types for `expr` in place. `resolver` maps
// (qualifier, column) -> (input row index, type); it returns NotFound for
// unknown columns. Each function call is looked up once in the function
// table (sql/functions.h) and the entry's id stored in `resolved_index`.
// Aggregate/window calls are rejected unless `allow_aggregates` (the planner
// handles those contexts specially).
using ColumnResolver =
    std::function<Result<std::pair<int, FieldType>>(const std::string& qualifier,
                                                    const std::string& column)>;

Status ResolveExpr(Expr& expr, const ColumnResolver& resolver,
                   bool allow_aggregates = false);

// Interprets a resolved expression against a row.
Value EvalExpr(const Expr& expr, const Row& input);

// Structural equality of (resolved or unresolved) expressions; used to match
// select-list expressions against GROUP BY expressions.
bool ExprEquals(const Expr& a, const Expr& b);

// True if the (sub)expression contains any kAggCall / kWindowCall.
bool ContainsAggregate(const Expr& expr);

// Rewrite `expr` so every resolved column ref i is replaced by a clone of
// bindings[i] (composition of projections onto an earlier schema). Refs with
// no binding are cloned unchanged.
ExprPtr SubstituteColumns(const Expr& expr,
                          const std::vector<const Expr*>& bindings);

// Append the resolved input-row index of every column ref in `expr`.
void CollectColumnIndices(const Expr& expr, std::vector<int>& indices);

// ---------------------------------------------------------------------------
// Compiled expressions: a flat postfix program evaluated on a value stack.
// One-time compilation per operator instance at task init (like the paper's
// generated Java), then cheap per-tuple evaluation with no tree walking.
// ---------------------------------------------------------------------------

class CompiledExpr {
 public:
  // `expr` must be fully resolved. Aggregate/window calls cannot be
  // compiled (they are evaluated by the window/aggregate operators).
  static Result<CompiledExpr> Compile(const Expr& expr);

  Value Eval(const Row& input) const;

  size_t num_instructions() const { return code_.size(); }

 private:
  enum class OpCode : uint8_t {
    kLoadColumn,   // push input[a]
    kLoadConst,    // push constants[a]
    kBinary,       // pop rhs, lhs; push lhs <a:BinaryOp> rhs
    kUnary,        // pop v; push <a:UnaryOp> v
    kCall,         // pop a args; push functions_[b] applied to them
    kJumpIfFalse,  // pop cond; if !true jump to a   (CASE / AND short-circuit)
    kJump,         // jump to a
    kIsNull,       // pop v; push v.is_null() (a: negated)
    kCast,         // pop v; push cast to kind a
    kPop,          // discard top
  };
  struct Insn {
    OpCode op;
    int32_t a = 0;
    int32_t b = 0;
  };

  Status Emit(const Expr& expr);
  int32_t AddConst(Value v);

  std::vector<Insn> code_;
  std::vector<Value> constants_;
  // Entries of the function table this program calls (entries never move).
  std::vector<const Function*> functions_;
  friend class CompiledExprTestPeer;
};

// Floor a timestamp (epoch millis) to the unit ("HOUR", "MINUTE", ...).
Result<int64_t> FloorTimestampTo(int64_t ts_millis, const std::string& unit);

// Binary operator semantics shared by the interpreter, the compiled
// programs and the built-in functions (MOD).
Value EvalBinaryOp(BinaryOp op, const Value& l, const Value& r);

// Result type of arithmetic over two numeric types.
FieldType NumericResultType(const FieldType& a, const FieldType& b);

}  // namespace sqs::sql
