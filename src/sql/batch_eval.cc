#include "sql/batch_eval.h"

#include <algorithm>
#include <map>

#include "sql/functions.h"

namespace sqs::sql {

namespace {

bool Truthy(const Value& v) { return v.kind() == TypeKind::kBool && v.as_bool(); }

// Window start for a timestamp under a hopping/tumbling spec: the aligned
// multiple of emit_ms at or below ts.
int64_t AlignedWindowStart(int64_t ts, int64_t emit_ms, int64_t align_ms) {
  int64_t shifted = ts - align_ms;
  int64_t q = shifted / emit_ms;
  if (shifted < 0 && shifted % emit_ms != 0) --q;
  return q * emit_ms + align_ms;
}

struct GroupKey {
  Row values;  // group expr values + window start (if windowed)
  bool operator<(const GroupKey& o) const {
    size_t n = std::min(values.size(), o.values.size());
    for (size_t i = 0; i < n; ++i) {
      int c = values[i].Compare(o.values[i]);
      if (c != 0) return c < 0;
    }
    return values.size() < o.values.size();
  }
};

Result<std::vector<Row>> EvalAggregate(const LogicalNode& node,
                                       const std::vector<Row>& input) {
  const bool windowed = node.group_window.type != GroupWindowSpec::Type::kNone;
  const GroupWindowSpec& win = node.group_window;

  std::vector<const Function*> fns;
  for (const AggCallSpec& spec : node.aggs) {
    SQS_ASSIGN_OR_RETURN(fn, FunctionRegistry::Instance().GetAggregate(spec.func_id));
    fns.push_back(fn);
  }
  struct GroupAgg {
    std::vector<std::unique_ptr<Accumulator>> states;
    int64_t window_start = 0;
  };
  std::map<GroupKey, GroupAgg> groups;

  for (const Row& row : input) {
    // The set of windows this row falls into (one for tumble; several for
    // hop when retain > emit).
    std::vector<int64_t> starts;
    if (windowed) {
      int64_t ts = row[static_cast<size_t>(win.ts_index)].ToInt64();
      int64_t newest = AlignedWindowStart(ts, win.emit_ms, win.align_ms);
      // Every window [start, start+retain) with start <= ts < start+retain
      // and start aligned to emit.
      for (int64_t start = newest; start > ts - win.retain_ms; start -= win.emit_ms) {
        starts.push_back(start);
      }
    } else {
      starts.push_back(0);
    }
    for (int64_t start : starts) {
      GroupKey key;
      for (const auto& g : node.group_exprs) key.values.push_back(EvalExpr(*g, row));
      if (windowed) key.values.push_back(Value(start));
      auto it = groups.find(key);
      if (it == groups.end()) {
        GroupAgg agg;
        for (const Function* fn : fns) agg.states.push_back(fn->factory());
        agg.window_start = start;
        it = groups.emplace(std::move(key), std::move(agg)).first;
      }
      for (size_t i = 0; i < node.aggs.size(); ++i) {
        const AggCallSpec& spec = node.aggs[i];
        if (spec.arg) {
          it->second.states[i]->Add(EvalExpr(*spec.arg, row));
        } else {
          it->second.states[i]->Add(Value(int64_t{1}));  // COUNT(*)
        }
      }
    }
  }

  std::vector<Row> out;
  out.reserve(groups.size());
  for (const auto& [key, agg] : groups) {
    Row row;
    for (size_t i = 0; i < node.group_exprs.size(); ++i) row.push_back(key.values[i]);
    if (windowed) {
      row.push_back(Value(agg.window_start));
      row.push_back(Value(agg.window_start + win.retain_ms));
    }
    for (const auto& st : agg.states) row.push_back(st->Result());
    out.push_back(std::move(row));
  }
  return out;
}

Result<std::vector<Row>> EvalSlidingWindow(const LogicalNode& node,
                                           const std::vector<Row>& input) {
  // Naive O(n^2)-per-partition reference implementation.
  std::vector<AggKind> kinds;
  for (const WindowCallSpec& call : node.window_calls) {
    SQS_ASSIGN_OR_RETURN(kind, FunctionRegistry::Instance().GetBuiltinAggregate(call.func_id));
    kinds.push_back(kind);
  }
  std::vector<Row> out;
  out.reserve(input.size());
  for (const Row& row : input) {
    Row extended = row;
    for (size_t c = 0; c < node.window_calls.size(); ++c) {
      const WindowCallSpec& call = node.window_calls[c];
      Row pkey;
      for (const auto& p : call.partition_by) pkey.push_back(EvalExpr(*p, row));
      AggState state(kinds[c]);

      if (call.range_based) {
        int64_t ts = row[static_cast<size_t>(call.ts_index)].ToInt64();
        for (const Row& other : input) {
          Row okey;
          for (const auto& p : call.partition_by) okey.push_back(EvalExpr(*p, other));
          if (okey != pkey) continue;
          int64_t ots = other[static_cast<size_t>(call.ts_index)].ToInt64();
          if (ots > ts || ots < ts - call.preceding_ms) continue;
          state.Add(call.arg ? EvalExpr(*call.arg, other) : Value(int64_t{1}));
        }
      } else {
        // ROWS n PRECEDING over rows sorted by ts within the partition;
        // current row included. Collect the partition in input order of ts.
        std::vector<const Row*> partition;
        for (const Row& other : input) {
          Row okey;
          for (const auto& p : call.partition_by) okey.push_back(EvalExpr(*p, other));
          if (okey == pkey) partition.push_back(&other);
        }
        std::stable_sort(partition.begin(), partition.end(),
                         [&](const Row* a, const Row* b) {
                           return (*a)[static_cast<size_t>(call.ts_index)]
                                      .Compare((*b)[static_cast<size_t>(call.ts_index)]) < 0;
                         });
        // Find this row's position (pointer identity).
        size_t pos = 0;
        for (size_t i = 0; i < partition.size(); ++i) {
          if (partition[i] == &row) {
            pos = i;
            break;
          }
        }
        size_t first = pos >= static_cast<size_t>(call.preceding_rows)
                           ? pos - static_cast<size_t>(call.preceding_rows)
                           : 0;
        for (size_t i = first; i <= pos; ++i) {
          state.Add(call.arg ? EvalExpr(*call.arg, *partition[i]) : Value(int64_t{1}));
        }
      }
      extended.push_back(state.Result());
    }
    out.push_back(std::move(extended));
  }
  return out;
}

Result<std::vector<Row>> EvalJoin(const LogicalNode& node,
                                  const std::vector<Row>& left,
                                  const std::vector<Row>& right) {
  std::vector<Row> out;
  for (const Row& l : left) {
    for (const Row& r : right) {
      bool match = true;
      for (const auto& [li, ri] : node.equi_keys) {
        const Value& lv = l[static_cast<size_t>(li)];
        const Value& rv = r[static_cast<size_t>(ri)];
        if (lv.is_null() || rv.is_null() || lv.Compare(rv) != 0) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      if (node.join_type == JoinType::kStreamStream) {
        int64_t lts = l[static_cast<size_t>(node.left_ts_index)].ToInt64();
        int64_t rts = r[static_cast<size_t>(node.right_ts_index)].ToInt64();
        int64_t delta = lts - rts;
        if (delta < -node.window_before_ms || delta > node.window_after_ms) continue;
      }
      Row combined = l;
      combined.insert(combined.end(), r.begin(), r.end());
      if (node.residual && !Truthy(EvalExpr(*node.residual, combined))) continue;
      out.push_back(std::move(combined));
    }
  }
  return out;
}

}  // namespace

Result<std::vector<Row>> EvaluatePlan(const LogicalNode& plan,
                                      const TableProvider& provider) {
  switch (plan.kind) {
    case LogicalKind::kScan:
      return provider(plan.source);

    case LogicalKind::kFilter: {
      SQS_ASSIGN_OR_RETURN(input, EvaluatePlan(*plan.inputs[0], provider));
      std::vector<Row> out;
      out.reserve(input.size());
      for (Row& row : input) {
        if (Truthy(EvalExpr(*plan.predicate, row))) out.push_back(std::move(row));
      }
      return out;
    }

    case LogicalKind::kProject: {
      SQS_ASSIGN_OR_RETURN(input, EvaluatePlan(*plan.inputs[0], provider));
      std::vector<Row> out;
      out.reserve(input.size());
      for (const Row& row : input) {
        Row projected;
        projected.reserve(plan.exprs.size());
        for (const auto& e : plan.exprs) projected.push_back(EvalExpr(*e, row));
        out.push_back(std::move(projected));
      }
      return out;
    }

    case LogicalKind::kAggregate: {
      SQS_ASSIGN_OR_RETURN(input, EvaluatePlan(*plan.inputs[0], provider));
      return EvalAggregate(plan, input);
    }

    case LogicalKind::kSlidingWindow: {
      SQS_ASSIGN_OR_RETURN(input, EvaluatePlan(*plan.inputs[0], provider));
      return EvalSlidingWindow(plan, input);
    }

    case LogicalKind::kJoin: {
      SQS_ASSIGN_OR_RETURN(left, EvaluatePlan(*plan.inputs[0], provider));
      SQS_ASSIGN_OR_RETURN(right, EvaluatePlan(*plan.inputs[1], provider));
      return EvalJoin(plan, left, right);
    }
  }
  return Status::Internal("unhandled plan node");
}

// ---------------------------------------------------------------------------
// FusedStageKernel
// ---------------------------------------------------------------------------

namespace {

// Mirrors Value::Compare's numeric branch for NaN behavior.
inline int CompareDoubleRaw(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

inline bool CmpResult(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq: return c == 0;
    case BinaryOp::kNeq: return c != 0;
    case BinaryOp::kLt: return c < 0;
    case BinaryOp::kLe: return c <= 0;
    case BinaryOp::kGt: return c > 0;
    case BinaryOp::kGe: return c >= 0;
    default: return false;
  }
}

inline bool IsComparison(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNeq || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

inline BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // Eq/Neq are symmetric
  }
}

inline bool IsIntKind(TypeKind k) {
  return k == TypeKind::kInt32 || k == TypeKind::kInt64;
}

}  // namespace

bool FusedStageKernel::ClassifyRawPred(const Expr& conjunct, const Schema& schema,
                                       RawPred* out) {
  if (conjunct.kind != ExprKind::kBinary || !IsComparison(conjunct.binary_op) ||
      conjunct.children.size() != 2) {
    return false;
  }
  const Expr* col = conjunct.children[0].get();
  const Expr* lit = conjunct.children[1].get();
  BinaryOp op = conjunct.binary_op;
  if (col->kind == ExprKind::kLiteral && lit->kind == ExprKind::kColumnRef) {
    std::swap(col, lit);
    op = FlipComparison(op);
  }
  if (col->kind != ExprKind::kColumnRef || lit->kind != ExprKind::kLiteral) {
    return false;
  }
  if (col->resolved_index < 0 ||
      static_cast<size_t>(col->resolved_index) >= schema.num_fields()) {
    return false;
  }
  const Value& v = lit->literal;
  if (v.is_null()) return false;  // NULL comparisons stay on the compiled path
  const TypeKind col_kind = schema.field(col->resolved_index).type.kind;
  RawPred pred;
  pred.column = col->resolved_index;
  pred.op = op;
  if (IsIntKind(col_kind) && IsIntKind(v.kind())) {
    pred.mode = RawPred::Mode::kInt;
    pred.i = v.ToInt64();
  } else if ((col_kind == TypeKind::kDouble && v.is_numeric()) ||
             (IsIntKind(col_kind) && v.kind() == TypeKind::kDouble)) {
    pred.mode = RawPred::Mode::kDouble;
    pred.d = v.ToDouble();
  } else if (col_kind == TypeKind::kString && v.kind() == TypeKind::kString) {
    pred.mode = RawPred::Mode::kString;
    pred.s = v.as_string();
  } else if (col_kind == TypeKind::kBool && v.kind() == TypeKind::kBool) {
    pred.mode = RawPred::Mode::kBool;
    pred.b = v.as_bool();
  } else {
    return false;  // mixed-kind comparison: defer to EvalBinaryOp semantics
  }
  *out = std::move(pred);
  return true;
}

Result<FusedStageKernel> FusedStageKernel::Compile(const FusedStageSpec& spec,
                                                   RowSerdePtr input_serde,
                                                   bool passthrough,
                                                   const std::vector<int>& extra_columns) {
  FusedStageKernel k;
  k.input_serde_ = std::move(input_serde);
  k.scan_schema_ = spec.scan_schema;
  k.rowtime_index_ = spec.scan_rowtime_index;
  k.passthrough_ = passthrough;
  k.avro_ = dynamic_cast<const AvroRowSerde*>(k.input_serde_.get()) != nullptr;
  if (passthrough && !spec.projections.empty()) {
    return Status::Internal("passthrough requires the identity projection");
  }

  const size_t n = k.scan_schema_->num_fields();
  k.wanted_ = passthrough ? spec.predicate_columns : spec.referenced;
  k.wanted_.resize(n, false);
  if (passthrough && k.rowtime_index_ >= 0) k.wanted_[k.rowtime_index_] = true;
  for (int c : extra_columns) {
    if (c >= 0 && static_cast<size_t>(c) < n) k.wanted_[c] = true;
  }

  for (const ExprPtr& p : spec.predicates) {
    RawPred raw;
    if (k.avro_ && ClassifyRawPred(*p, *k.scan_schema_, &raw)) {
      k.raw_preds_.push_back(std::move(raw));
    } else {
      SQS_ASSIGN_OR_RETURN(compiled, CompiledExpr::Compile(*p));
      k.residual_preds_.push_back(std::move(compiled));
    }
  }
  if (!passthrough) {
    for (const ExprPtr& e : spec.projections) {
      Projection proj;
      if (e->kind == ExprKind::kColumnRef && e->resolved_index >= 0) {
        proj.column = e->resolved_index;
      } else {
        SQS_ASSIGN_OR_RETURN(compiled, CompiledExpr::Compile(*e));
        proj.expr = std::move(compiled);
      }
      k.projections_.push_back(std::move(proj));
    }
  }

  if (k.avro_) {
    // Field-walk plan: stop after the last field that must be decoded.
    std::vector<std::vector<int>> preds_by_field(n);
    for (size_t i = 0; i < k.raw_preds_.size(); ++i) {
      preds_by_field[k.raw_preds_[i].column].push_back(static_cast<int>(i));
    }
    size_t last_needed = 0;
    bool any = false;
    for (size_t i = 0; i < n; ++i) {
      if (k.wanted_[i] || !preds_by_field[i].empty()) {
        last_needed = i;
        any = true;
      }
    }
    if (any) {
      k.steps_.reserve(last_needed + 1);
      for (size_t i = 0; i <= last_needed; ++i) {
        FieldStep step;
        const Field& f = k.scan_schema_->field(i);
        step.nullable = f.nullable;
        step.type = f.type;
        step.materialize = k.wanted_[i];
        step.raw_preds = std::move(preds_by_field[i]);
        k.steps_.push_back(std::move(step));
      }
    }
  }
  return k;
}

bool FusedStageKernel::EvalPredsInt(const FieldStep& step, int64_t v) const {
  for (int idx : step.raw_preds) {
    const RawPred& p = raw_preds_[idx];
    int c = p.mode == RawPred::Mode::kDouble
                ? CompareDoubleRaw(static_cast<double>(v), p.d)
                : (v < p.i ? -1 : (v > p.i ? 1 : 0));
    if (!CmpResult(p.op, c)) return false;
  }
  return true;
}

bool FusedStageKernel::EvalPredsDouble(const FieldStep& step, double v) const {
  for (int idx : step.raw_preds) {
    const RawPred& p = raw_preds_[idx];
    if (!CmpResult(p.op, CompareDoubleRaw(v, p.d))) return false;
  }
  return true;
}

bool FusedStageKernel::EvalPredsString(const FieldStep& step,
                                       const std::string& v) const {
  for (int idx : step.raw_preds) {
    const RawPred& p = raw_preds_[idx];
    int c = v.compare(p.s);
    if (!CmpResult(p.op, c < 0 ? -1 : (c > 0 ? 1 : 0))) return false;
  }
  return true;
}

bool FusedStageKernel::EvalPredsBool(const FieldStep& step, bool v) const {
  for (int idx : step.raw_preds) {
    const RawPred& p = raw_preds_[idx];
    if (!CmpResult(p.op, static_cast<int>(v) - static_cast<int>(p.b))) return false;
  }
  return true;
}

void FusedStageKernel::BuildOutput(Row& scratch, Output& out) const {
  out.pass = true;
  if (rowtime_index_ >= 0) out.rowtime = scratch[rowtime_index_];
  if (passthrough_) return;
  if (projections_.empty()) {
    out.row = std::move(scratch);
    return;
  }
  out.row.reserve(projections_.size());
  for (const Projection& proj : projections_) {
    out.row.push_back(proj.column >= 0 ? scratch[proj.column]
                                       : proj.expr.Eval(scratch));
  }
}

Result<FusedStageKernel::Output> FusedStageKernel::ApplyAvro(const Bytes& raw) const {
  BytesReader in(raw);
  Output out;
  Row scratch(scan_schema_->num_fields(), Value::Null());
  for (size_t i = 0; i < steps_.size(); ++i) {
    const FieldStep& step = steps_[i];
    if (step.nullable) {
      SQS_ASSIGN_OR_RETURN(tag, in.ReadByte());
      if (tag == 0) {
        // NULL: every comparison predicate on this column is false.
        if (!step.raw_preds.empty()) return out;
        continue;
      }
    }
    if (!step.materialize && step.raw_preds.empty()) {
      SQS_RETURN_IF_ERROR(SkipTypedValue(step.type, in));
      continue;
    }
    switch (step.type.kind) {
      case TypeKind::kInt32: {
        SQS_ASSIGN_OR_RETURN(v, in.ReadVarint());
        if (!EvalPredsInt(step, v)) return out;
        if (step.materialize) scratch[i] = Value(static_cast<int32_t>(v));
        break;
      }
      case TypeKind::kInt64: {
        SQS_ASSIGN_OR_RETURN(v, in.ReadVarint());
        if (!EvalPredsInt(step, v)) return out;
        if (step.materialize) scratch[i] = Value(v);
        break;
      }
      case TypeKind::kDouble: {
        SQS_ASSIGN_OR_RETURN(v, in.ReadDouble());
        if (!EvalPredsDouble(step, v)) return out;
        if (step.materialize) scratch[i] = Value(v);
        break;
      }
      case TypeKind::kString: {
        SQS_ASSIGN_OR_RETURN(v, in.ReadString());
        if (!EvalPredsString(step, v)) return out;
        if (step.materialize) scratch[i] = Value(std::move(v));
        break;
      }
      case TypeKind::kBool: {
        SQS_ASSIGN_OR_RETURN(v, in.ReadBool());
        if (!EvalPredsBool(step, v)) return out;
        if (step.materialize) scratch[i] = Value(v);
        break;
      }
      default: {
        SQS_ASSIGN_OR_RETURN(v, DeserializeTypedValue(step.type, in));
        scratch[i] = std::move(v);
        break;
      }
    }
  }
  // Fields past the last needed one are never read (lazy decode).
  for (const CompiledExpr& pred : residual_preds_) {
    if (!Truthy(pred.Eval(scratch))) return out;
  }
  BuildOutput(scratch, out);
  return out;
}

Result<FusedStageKernel::Output> FusedStageKernel::ApplyGeneric(const Bytes& raw) const {
  BytesReader in(raw);
  Output out;
  SQS_ASSIGN_OR_RETURN(scratch, input_serde_->DeserializeProjected(in, wanted_));
  for (const CompiledExpr& pred : residual_preds_) {
    if (!Truthy(pred.Eval(scratch))) return out;
  }
  BuildOutput(scratch, out);
  return out;
}

Result<FusedStageKernel::Output> FusedStageKernel::Apply(const Bytes& raw) const {
  return avro_ ? ApplyAvro(raw) : ApplyGeneric(raw);
}

}  // namespace sqs::sql
