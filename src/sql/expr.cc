#include "sql/expr.h"

#include "sql/functions.h"

namespace sqs::sql {

namespace {

bool IsTruthy(const Value& v) {
  return v.kind() == TypeKind::kBool && v.as_bool();
}

Value NumericBinary(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  bool use_double = l.kind() == TypeKind::kDouble || r.kind() == TypeKind::kDouble;
  if (op == BinaryOp::kDiv) {
    // Integer division stays integral (SQL semantics); x/0 -> NULL.
    if (use_double) {
      double d = r.ToDouble();
      if (d == 0) return Value::Null();
      return Value(l.ToDouble() / d);
    }
    int64_t d = r.ToInt64();
    if (d == 0) return Value::Null();
    return Value(l.ToInt64() / d);
  }
  if (op == BinaryOp::kMod) {
    int64_t d = r.ToInt64();
    if (d == 0) return Value::Null();
    return Value(l.ToInt64() % d);
  }
  if (use_double) {
    double a = l.ToDouble(), b = r.ToDouble();
    switch (op) {
      case BinaryOp::kAdd: return Value(a + b);
      case BinaryOp::kSub: return Value(a - b);
      case BinaryOp::kMul: return Value(a * b);
      default: break;
    }
  } else {
    int64_t a = l.ToInt64(), b = r.ToInt64();
    int64_t out = 0;
    switch (op) {
      case BinaryOp::kAdd: out = a + b; break;
      case BinaryOp::kSub: out = a - b; break;
      case BinaryOp::kMul: out = a * b; break;
      default: return Value::Null();
    }
    // Keep int32 results int32 when both inputs were int32.
    if (l.kind() == TypeKind::kInt32 && r.kind() == TypeKind::kInt32) {
      return Value(static_cast<int32_t>(out));
    }
    return Value(out);
  }
  return Value::Null();
}

}  // namespace

FieldType NumericResultType(const FieldType& a, const FieldType& b) {
  if (a.kind == TypeKind::kDouble || b.kind == TypeKind::kDouble) {
    return FieldType::Double();
  }
  if (a.kind == TypeKind::kInt64 || b.kind == TypeKind::kInt64) {
    return FieldType::Int64();
  }
  return FieldType::Int32();
}

Value EvalBinaryOp(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return NumericBinary(op, l, r);
    case BinaryOp::kEq:
      if (l.is_null() || r.is_null()) return Value(false);
      return Value(l.Compare(r) == 0);
    case BinaryOp::kNeq:
      if (l.is_null() || r.is_null()) return Value(false);
      return Value(l.Compare(r) != 0);
    case BinaryOp::kLt:
      if (l.is_null() || r.is_null()) return Value(false);
      return Value(l.Compare(r) < 0);
    case BinaryOp::kLe:
      if (l.is_null() || r.is_null()) return Value(false);
      return Value(l.Compare(r) <= 0);
    case BinaryOp::kGt:
      if (l.is_null() || r.is_null()) return Value(false);
      return Value(l.Compare(r) > 0);
    case BinaryOp::kGe:
      if (l.is_null() || r.is_null()) return Value(false);
      return Value(l.Compare(r) >= 0);
    case BinaryOp::kAnd:
      return Value(IsTruthy(l) && IsTruthy(r));
    case BinaryOp::kOr:
      return Value(IsTruthy(l) || IsTruthy(r));
    case BinaryOp::kConcat: {
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value(l.ToString() + r.ToString());
    }
  }
  return Value::Null();
}

Result<int64_t> FloorTimestampTo(int64_t ts_millis, const std::string& unit) {
  int64_t m;
  if (unit == "SECOND") {
    m = 1000;
  } else if (unit == "MINUTE") {
    m = 60 * 1000;
  } else if (unit == "HOUR") {
    m = 60 * 60 * 1000;
  } else if (unit == "DAY") {
    m = 24LL * 60 * 60 * 1000;
  } else {
    return Status::ValidationError("unsupported FLOOR unit: " + unit);
  }
  int64_t q = ts_millis / m;
  if (ts_millis < 0 && ts_millis % m != 0) --q;  // floor toward -inf
  return q * m;
}

// ---------------------------------------------------------------------------
// Resolution / type inference
// ---------------------------------------------------------------------------

Status ResolveExpr(Expr& expr, const ColumnResolver& resolver, bool allow_aggregates) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      switch (expr.literal.kind()) {
        case TypeKind::kNull: expr.resolved_type = {TypeKind::kNull, TypeKind::kNull}; break;
        case TypeKind::kBool: expr.resolved_type = FieldType::Bool(); break;
        case TypeKind::kInt32: expr.resolved_type = FieldType::Int32(); break;
        case TypeKind::kInt64: expr.resolved_type = FieldType::Int64(); break;
        case TypeKind::kDouble: expr.resolved_type = FieldType::Double(); break;
        case TypeKind::kString: expr.resolved_type = FieldType::String(); break;
        default: return Status::ValidationError("unsupported literal kind");
      }
      return Status::Ok();

    case ExprKind::kColumnRef: {
      // Planner-synthesized references (e.g. rewrites against an aggregate's
      // output schema) carry an index but no name; trust them as-is.
      if (expr.column.empty() && expr.resolved_index >= 0) return Status::Ok();
      SQS_ASSIGN_OR_RETURN(hit, resolver(expr.qualifier, expr.column));
      expr.resolved_index = hit.first;
      expr.resolved_type = hit.second;
      return Status::Ok();
    }

    case ExprKind::kStar:
      return Status::ValidationError("'*' is only allowed as a whole select item");

    case ExprKind::kBinary: {
      SQS_RETURN_IF_ERROR(ResolveExpr(*expr.children[0], resolver, allow_aggregates));
      SQS_RETURN_IF_ERROR(ResolveExpr(*expr.children[1], resolver, allow_aggregates));
      const FieldType& lt = expr.children[0]->resolved_type;
      const FieldType& rt = expr.children[1]->resolved_type;
      auto numeric = [](const FieldType& t) {
        return t.kind == TypeKind::kInt32 || t.kind == TypeKind::kInt64 ||
               t.kind == TypeKind::kDouble || t.kind == TypeKind::kNull;
      };
      switch (expr.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          if (!numeric(lt) || !numeric(rt)) {
            return Status::ValidationError("arithmetic needs numeric operands, got " +
                                           lt.ToString() + " and " + rt.ToString());
          }
          expr.resolved_type = NumericResultType(lt, rt);
          return Status::Ok();
        case BinaryOp::kEq:
        case BinaryOp::kNeq:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          bool comparable = (numeric(lt) && numeric(rt)) || lt.kind == rt.kind ||
                            lt.kind == TypeKind::kNull || rt.kind == TypeKind::kNull;
          if (!comparable) {
            return Status::ValidationError("cannot compare " + lt.ToString() + " and " +
                                           rt.ToString());
          }
          expr.resolved_type = FieldType::Bool();
          return Status::Ok();
        }
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          if ((lt.kind != TypeKind::kBool && lt.kind != TypeKind::kNull) ||
              (rt.kind != TypeKind::kBool && rt.kind != TypeKind::kNull)) {
            return Status::ValidationError("AND/OR need boolean operands");
          }
          expr.resolved_type = FieldType::Bool();
          return Status::Ok();
        case BinaryOp::kConcat:
          expr.resolved_type = FieldType::String();
          return Status::Ok();
      }
      return Status::Internal("unhandled binary op");
    }

    case ExprKind::kUnary:
      SQS_RETURN_IF_ERROR(ResolveExpr(*expr.children[0], resolver, allow_aggregates));
      if (expr.unary_op == UnaryOp::kNeg) {
        const FieldType& t = expr.children[0]->resolved_type;
        if (t.kind != TypeKind::kInt32 && t.kind != TypeKind::kInt64 &&
            t.kind != TypeKind::kDouble) {
          return Status::ValidationError("negation needs a numeric operand");
        }
        expr.resolved_type = t;
      } else {
        expr.resolved_type = FieldType::Bool();
      }
      return Status::Ok();

    case ExprKind::kFuncCall:
    case ExprKind::kAggCall: {
      const Function* fn = FunctionRegistry::Instance().Find(expr.func_name);
      if (fn && fn->is_aggregate()) {
        // Aggregates parsed as plain calls become kAggCall here.
        if (!allow_aggregates) {
          return Status::ValidationError("aggregate " + expr.func_name +
                                         " not allowed in this context");
        }
        if (fn->user_defined && (expr.star_arg || expr.children.size() != 1)) {
          return Status::ValidationError("user-defined aggregate " + expr.func_name +
                                         " takes exactly one argument");
        }
        FieldType arg = FieldType::Int64();
        if (!expr.star_arg) {
          if (expr.children.size() != 1) {
            return Status::ValidationError(expr.func_name + " takes one argument");
          }
          SQS_RETURN_IF_ERROR(ResolveExpr(*expr.children[0], resolver, false));
          arg = expr.children[0]->resolved_type;
        } else if (fn->builtin_agg != AggKind::kCount) {
          return Status::ValidationError("'*' argument only valid for COUNT");
        }
        SQS_ASSIGN_OR_RETURN(rt, fn->type_fn({arg}));
        expr.kind = ExprKind::kAggCall;
        expr.resolved_index = fn->id;
        expr.resolved_type = rt;
        return Status::Ok();
      }
      std::vector<FieldType> arg_types;
      for (auto& child : expr.children) {
        SQS_RETURN_IF_ERROR(ResolveExpr(*child, resolver, allow_aggregates));
        arg_types.push_back(child->resolved_type);
      }
      const size_t arity = arg_types.size();
      if (fn && fn->user_defined && (arity < fn->min_arity || arity > fn->max_arity)) {
        return Status::ValidationError(
            "UDF " + fn->name + " takes " + std::to_string(fn->min_arity) + ".." +
            std::to_string(fn->max_arity) + " arguments, got " + std::to_string(arity));
      }
      if (!fn || arity < fn->min_arity || arity > fn->max_arity) {
        return Status::ValidationError("unknown function " + expr.func_name + "/" +
                                       std::to_string(arity));
      }
      SQS_ASSIGN_OR_RETURN(rt, fn->type_fn(arg_types));
      expr.resolved_index = fn->id;
      expr.resolved_type = rt;
      return Status::Ok();
    }

    case ExprKind::kWindowCall: {
      if (!allow_aggregates) {
        return Status::ValidationError(
            "windowed aggregate not allowed in this context");
      }
      const Function* fn = FunctionRegistry::Instance().Find(expr.func_name);
      if (!fn || !fn->builtin_agg) {
        return Status::ValidationError("unknown aggregate " + expr.func_name);
      }
      FieldType arg = FieldType::Int64();
      if (!expr.children.empty()) {
        SQS_RETURN_IF_ERROR(ResolveExpr(*expr.children[0], resolver, false));
        arg = expr.children[0]->resolved_type;
      } else if (fn->builtin_agg != AggKind::kCount && !expr.star_arg) {
        return Status::ValidationError(expr.func_name + " needs an argument");
      }
      for (auto& p : expr.window->partition_by) {
        SQS_RETURN_IF_ERROR(ResolveExpr(*p, resolver, false));
      }
      SQS_ASSIGN_OR_RETURN(rt, fn->type_fn({arg}));
      expr.resolved_index = fn->id;
      expr.resolved_type = rt;
      return Status::Ok();
    }

    case ExprKind::kCase: {
      size_t pairs = (expr.children.size() - (expr.has_else ? 1 : 0)) / 2;
      FieldType result{TypeKind::kNull, TypeKind::kNull};
      for (size_t i = 0; i < pairs; ++i) {
        SQS_RETURN_IF_ERROR(ResolveExpr(*expr.children[2 * i], resolver, allow_aggregates));
        if (expr.children[2 * i]->resolved_type.kind != TypeKind::kBool) {
          return Status::ValidationError("CASE WHEN condition must be boolean");
        }
        SQS_RETURN_IF_ERROR(
            ResolveExpr(*expr.children[2 * i + 1], resolver, allow_aggregates));
        if (result.kind == TypeKind::kNull) {
          result = expr.children[2 * i + 1]->resolved_type;
        }
      }
      if (expr.has_else) {
        SQS_RETURN_IF_ERROR(ResolveExpr(*expr.children.back(), resolver, allow_aggregates));
        if (result.kind == TypeKind::kNull) {
          result = expr.children.back()->resolved_type;
        }
      }
      expr.resolved_type = result;
      return Status::Ok();
    }

    case ExprKind::kCast:
      SQS_RETURN_IF_ERROR(ResolveExpr(*expr.children[0], resolver, allow_aggregates));
      expr.resolved_type = expr.cast_type;
      return Status::Ok();

    case ExprKind::kBetween:
      for (auto& child : expr.children) {
        SQS_RETURN_IF_ERROR(ResolveExpr(*child, resolver, allow_aggregates));
      }
      expr.resolved_type = FieldType::Bool();
      return Status::Ok();

    case ExprKind::kIsNull:
      SQS_RETURN_IF_ERROR(ResolveExpr(*expr.children[0], resolver, allow_aggregates));
      expr.resolved_type = FieldType::Bool();
      return Status::Ok();

    case ExprKind::kIn:
      for (auto& child : expr.children) {
        SQS_RETURN_IF_ERROR(ResolveExpr(*child, resolver, allow_aggregates));
      }
      expr.resolved_type = FieldType::Bool();
      return Status::Ok();
  }
  return Status::Internal("unhandled expression kind");
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

Value EvalExpr(const Expr& expr, const Row& input) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef:
      return input[static_cast<size_t>(expr.resolved_index)];
    case ExprKind::kBinary: {
      // Short-circuit logical operators.
      if (expr.binary_op == BinaryOp::kAnd) {
        Value l = EvalExpr(*expr.children[0], input);
        if (!IsTruthy(l)) return Value(false);
        return Value(IsTruthy(EvalExpr(*expr.children[1], input)));
      }
      if (expr.binary_op == BinaryOp::kOr) {
        Value l = EvalExpr(*expr.children[0], input);
        if (IsTruthy(l)) return Value(true);
        return Value(IsTruthy(EvalExpr(*expr.children[1], input)));
      }
      return EvalBinaryOp(expr.binary_op, EvalExpr(*expr.children[0], input),
                          EvalExpr(*expr.children[1], input));
    }
    case ExprKind::kUnary: {
      Value v = EvalExpr(*expr.children[0], input);
      if (expr.unary_op == UnaryOp::kNot) return Value(!IsTruthy(v));
      if (v.is_null()) return v;
      if (v.kind() == TypeKind::kDouble) return Value(-v.as_double());
      if (v.kind() == TypeKind::kInt32) return Value(-v.as_int32());
      return Value(-v.ToInt64());
    }
    case ExprKind::kFuncCall: {
      const Function* fn = FunctionRegistry::Instance().Get(expr.resolved_index);
      if (!fn || !fn->eval_fn) return Value::Null();
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const auto& child : expr.children) args.push_back(EvalExpr(*child, input));
      return fn->eval_fn(args);
    }
    case ExprKind::kCase: {
      size_t pairs = (expr.children.size() - (expr.has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        if (IsTruthy(EvalExpr(*expr.children[2 * i], input))) {
          return EvalExpr(*expr.children[2 * i + 1], input);
        }
      }
      if (expr.has_else) return EvalExpr(*expr.children.back(), input);
      return Value::Null();
    }
    case ExprKind::kCast: {
      Value v = EvalExpr(*expr.children[0], input);
      if (v.is_null()) return v;
      switch (expr.cast_type.kind) {
        case TypeKind::kInt32: return Value(static_cast<int32_t>(v.ToInt64()));
        case TypeKind::kInt64: return Value(v.ToInt64());
        case TypeKind::kDouble: return Value(v.ToDouble());
        case TypeKind::kString: return Value(v.ToString());
        case TypeKind::kBool: return Value(v.ToInt64() != 0);
        default: return Value::Null();
      }
    }
    case ExprKind::kBetween: {
      Value v = EvalExpr(*expr.children[0], input);
      Value lo = EvalExpr(*expr.children[1], input);
      Value hi = EvalExpr(*expr.children[2], input);
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value(false);
      return Value(v.Compare(lo) >= 0 && v.Compare(hi) <= 0);
    }
    case ExprKind::kIsNull: {
      bool isnull = EvalExpr(*expr.children[0], input).is_null();
      return Value(expr.negated ? !isnull : isnull);
    }
    case ExprKind::kIn: {
      Value v = EvalExpr(*expr.children[0], input);
      if (v.is_null()) return Value(false);
      for (size_t i = 1; i < expr.children.size(); ++i) {
        Value item = EvalExpr(*expr.children[i], input);
        if (!item.is_null() && v.Compare(item) == 0) return Value(true);
      }
      return Value(false);
    }
    case ExprKind::kStar:
    case ExprKind::kAggCall:
    case ExprKind::kWindowCall:
      // Handled by dedicated operators; reaching here is a planner bug.
      return Value::Null();
  }
  return Value::Null();
}

bool ExprEquals(const Expr& a, const Expr& b) {
  // Structural comparison via the canonical printer (adequate for matching
  // GROUP BY expressions against select items).
  return a.ToString() == b.ToString();
}

ExprPtr SubstituteColumns(const Expr& expr,
                          const std::vector<const Expr*>& bindings) {
  if (expr.kind == ExprKind::kColumnRef) {
    if (expr.resolved_index >= 0 &&
        static_cast<size_t>(expr.resolved_index) < bindings.size() &&
        bindings[expr.resolved_index] != nullptr) {
      return bindings[expr.resolved_index]->Clone();
    }
    return expr.Clone();
  }
  ExprPtr out = expr.Clone();
  for (size_t i = 0; i < out->children.size(); ++i) {
    out->children[i] = SubstituteColumns(*expr.children[i], bindings);
  }
  return out;
}

void CollectColumnIndices(const Expr& expr, std::vector<int>& indices) {
  if (expr.kind == ExprKind::kColumnRef && expr.resolved_index >= 0) {
    indices.push_back(expr.resolved_index);
  }
  for (const auto& child : expr.children) CollectColumnIndices(*child, indices);
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kAggCall || expr.kind == ExprKind::kWindowCall) return true;
  // A FuncCall with an aggregate name is an unresolved aggregate.
  if (expr.kind == ExprKind::kFuncCall) {
    const Function* fn = FunctionRegistry::Instance().Find(expr.func_name);
    if (fn && fn->is_aggregate()) return true;
  }
  for (const auto& child : expr.children) {
    if (ContainsAggregate(*child)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

int32_t CompiledExpr::AddConst(Value v) {
  constants_.push_back(std::move(v));
  return static_cast<int32_t>(constants_.size() - 1);
}

Status CompiledExpr::Emit(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      code_.push_back({OpCode::kLoadConst, AddConst(expr.literal), 0});
      return Status::Ok();
    case ExprKind::kColumnRef:
      if (expr.resolved_index < 0) {
        return Status::Internal("compiling unresolved column " + expr.column);
      }
      code_.push_back({OpCode::kLoadColumn, expr.resolved_index, 0});
      return Status::Ok();
    case ExprKind::kBinary:
      // (Logical short-circuiting is handled by the stack machine's kBinary
      // for simplicity; both operands are evaluated.)
      SQS_RETURN_IF_ERROR(Emit(*expr.children[0]));
      SQS_RETURN_IF_ERROR(Emit(*expr.children[1]));
      code_.push_back({OpCode::kBinary, static_cast<int32_t>(expr.binary_op), 0});
      return Status::Ok();
    case ExprKind::kUnary:
      SQS_RETURN_IF_ERROR(Emit(*expr.children[0]));
      code_.push_back({OpCode::kUnary, static_cast<int32_t>(expr.unary_op), 0});
      return Status::Ok();
    case ExprKind::kFuncCall: {
      const Function* fn = FunctionRegistry::Instance().Get(expr.resolved_index);
      if (!fn || !fn->eval_fn) {
        return Status::Internal("compiling unresolved function " + expr.func_name);
      }
      for (const auto& child : expr.children) SQS_RETURN_IF_ERROR(Emit(*child));
      functions_.push_back(fn);
      code_.push_back({OpCode::kCall, static_cast<int32_t>(expr.children.size()),
                       static_cast<int32_t>(functions_.size() - 1)});
      return Status::Ok();
    }
    case ExprKind::kCase: {
      size_t pairs = (expr.children.size() - (expr.has_else ? 1 : 0)) / 2;
      std::vector<size_t> end_jumps;
      for (size_t i = 0; i < pairs; ++i) {
        SQS_RETURN_IF_ERROR(Emit(*expr.children[2 * i]));
        size_t jf = code_.size();
        code_.push_back({OpCode::kJumpIfFalse, 0, 0});
        SQS_RETURN_IF_ERROR(Emit(*expr.children[2 * i + 1]));
        end_jumps.push_back(code_.size());
        code_.push_back({OpCode::kJump, 0, 0});
        code_[jf].a = static_cast<int32_t>(code_.size());
      }
      if (expr.has_else) {
        SQS_RETURN_IF_ERROR(Emit(*expr.children.back()));
      } else {
        code_.push_back({OpCode::kLoadConst, AddConst(Value::Null()), 0});
      }
      for (size_t j : end_jumps) code_[j].a = static_cast<int32_t>(code_.size());
      return Status::Ok();
    }
    case ExprKind::kCast:
      SQS_RETURN_IF_ERROR(Emit(*expr.children[0]));
      code_.push_back({OpCode::kCast, static_cast<int32_t>(expr.cast_type.kind), 0});
      return Status::Ok();
    case ExprKind::kBetween:
      // v BETWEEN lo AND hi  =>  v >= lo AND v <= hi (v evaluated twice;
      // column loads are cheap in the array representation).
      SQS_RETURN_IF_ERROR(Emit(*expr.children[0]));
      SQS_RETURN_IF_ERROR(Emit(*expr.children[1]));
      code_.push_back({OpCode::kBinary, static_cast<int32_t>(BinaryOp::kGe), 0});
      SQS_RETURN_IF_ERROR(Emit(*expr.children[0]));
      SQS_RETURN_IF_ERROR(Emit(*expr.children[2]));
      code_.push_back({OpCode::kBinary, static_cast<int32_t>(BinaryOp::kLe), 0});
      code_.push_back({OpCode::kBinary, static_cast<int32_t>(BinaryOp::kAnd), 0});
      return Status::Ok();
    case ExprKind::kIsNull:
      SQS_RETURN_IF_ERROR(Emit(*expr.children[0]));
      code_.push_back({OpCode::kIsNull, expr.negated ? 1 : 0, 0});
      return Status::Ok();
    case ExprKind::kIn: {
      // v IN (a, b, ...) => (v = a) OR (v = b) OR ...
      SQS_RETURN_IF_ERROR(Emit(*expr.children[0]));
      SQS_RETURN_IF_ERROR(Emit(*expr.children[1]));
      code_.push_back({OpCode::kBinary, static_cast<int32_t>(BinaryOp::kEq), 0});
      for (size_t i = 2; i < expr.children.size(); ++i) {
        SQS_RETURN_IF_ERROR(Emit(*expr.children[0]));
        SQS_RETURN_IF_ERROR(Emit(*expr.children[i]));
        code_.push_back({OpCode::kBinary, static_cast<int32_t>(BinaryOp::kEq), 0});
        code_.push_back({OpCode::kBinary, static_cast<int32_t>(BinaryOp::kOr), 0});
      }
      return Status::Ok();
    }
    case ExprKind::kStar:
      return Status::Internal("cannot compile '*'");
    case ExprKind::kAggCall:
    case ExprKind::kWindowCall:
      return Status::Internal("aggregates are not compiled as scalar expressions");
  }
  return Status::Internal("unhandled expression kind in compiler");
}

Result<CompiledExpr> CompiledExpr::Compile(const Expr& expr) {
  CompiledExpr compiled;
  SQS_RETURN_IF_ERROR(compiled.Emit(expr));
  return compiled;
}

Value CompiledExpr::Eval(const Row& input) const {
  // Small fixed-capacity stack; expression depth is bounded by compilation.
  std::vector<Value> stack;
  stack.reserve(8);
  size_t pc = 0;
  const size_t n = code_.size();
  while (pc < n) {
    const Insn& insn = code_[pc];
    switch (insn.op) {
      case OpCode::kLoadColumn:
        stack.push_back(input[static_cast<size_t>(insn.a)]);
        ++pc;
        break;
      case OpCode::kLoadConst:
        stack.push_back(constants_[static_cast<size_t>(insn.a)]);
        ++pc;
        break;
      case OpCode::kBinary: {
        Value r = std::move(stack.back());
        stack.pop_back();
        Value l = std::move(stack.back());
        stack.pop_back();
        stack.push_back(EvalBinaryOp(static_cast<BinaryOp>(insn.a), l, r));
        ++pc;
        break;
      }
      case OpCode::kUnary: {
        Value v = std::move(stack.back());
        stack.pop_back();
        if (static_cast<UnaryOp>(insn.a) == UnaryOp::kNot) {
          stack.push_back(Value(!IsTruthy(v)));
        } else if (v.is_null()) {
          stack.push_back(v);
        } else if (v.kind() == TypeKind::kDouble) {
          stack.push_back(Value(-v.as_double()));
        } else if (v.kind() == TypeKind::kInt32) {
          stack.push_back(Value(-v.as_int32()));
        } else {
          stack.push_back(Value(-v.ToInt64()));
        }
        ++pc;
        break;
      }
      case OpCode::kCall: {
        size_t argc = static_cast<size_t>(insn.a);
        std::vector<Value> args(argc);
        for (size_t i = argc; i > 0; --i) {
          args[i - 1] = std::move(stack.back());
          stack.pop_back();
        }
        stack.push_back(functions_[static_cast<size_t>(insn.b)]->eval_fn(args));
        ++pc;
        break;
      }
      case OpCode::kJumpIfFalse: {
        Value v = std::move(stack.back());
        stack.pop_back();
        pc = IsTruthy(v) ? pc + 1 : static_cast<size_t>(insn.a);
        break;
      }
      case OpCode::kJump:
        pc = static_cast<size_t>(insn.a);
        break;
      case OpCode::kIsNull: {
        Value v = std::move(stack.back());
        stack.pop_back();
        bool isnull = v.is_null();
        stack.push_back(Value(insn.a ? !isnull : isnull));
        ++pc;
        break;
      }
      case OpCode::kCast: {
        Value v = std::move(stack.back());
        stack.pop_back();
        if (v.is_null()) {
          stack.push_back(v);
        } else {
          switch (static_cast<TypeKind>(insn.a)) {
            case TypeKind::kInt32: stack.push_back(Value(static_cast<int32_t>(v.ToInt64()))); break;
            case TypeKind::kInt64: stack.push_back(Value(v.ToInt64())); break;
            case TypeKind::kDouble: stack.push_back(Value(v.ToDouble())); break;
            case TypeKind::kString: stack.push_back(Value(v.ToString())); break;
            case TypeKind::kBool: stack.push_back(Value(v.ToInt64() != 0)); break;
            default: stack.push_back(Value::Null());
          }
        }
        ++pc;
        break;
      }
      case OpCode::kPop:
        stack.pop_back();
        ++pc;
        break;
    }
  }
  return stack.empty() ? Value::Null() : std::move(stack.back());
}

}  // namespace sqs::sql
