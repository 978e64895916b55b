#include "sql/planner.h"

#include <algorithm>
#include <optional>
#include <set>

#include "sql/functions.h"

namespace sqs::sql {

namespace {

// Resolution scope: the fields visible to expressions over a node's output,
// with the qualifier (stream/table alias) each field came from.
struct ScopeField {
  std::string qualifier;
  std::string name;
  FieldType type;
};

struct Scope {
  std::vector<ScopeField> fields;

  ColumnResolver Resolver() const {
    return [this](const std::string& qualifier,
                  const std::string& column) -> Result<std::pair<int, FieldType>> {
      int found = -1;
      for (size_t i = 0; i < fields.size(); ++i) {
        const ScopeField& f = fields[i];
        if (f.name != column) continue;
        if (!qualifier.empty() && f.qualifier != qualifier) continue;
        if (found >= 0) {
          return Status::ValidationError("ambiguous column: " + column);
        }
        found = static_cast<int>(i);
      }
      if (found < 0) {
        return Status::ValidationError(
            "unknown column: " + (qualifier.empty() ? column : qualifier + "." + column));
      }
      return std::make_pair(found, fields[static_cast<size_t>(found)].type);
    };
  }
};

Scope ScopeFor(const LogicalNode& node, const std::string& qualifier) {
  Scope scope;
  for (const Field& f : node.schema->fields()) {
    scope.fields.push_back({qualifier, f.name, f.type});
  }
  return scope;
}

ExprPtr MakeIndexRef(int index, FieldType type) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->resolved_index = index;
  e->resolved_type = type;
  return e;
}

// A select item's output name: alias, else the column name for plain refs,
// else the function name, else EXPR$<n>.
std::string OutputName(const SelectItem& item, size_t position) {
  if (!item.alias.empty()) return item.alias;
  const Expr& e = *item.expr;
  if (e.kind == ExprKind::kColumnRef) return e.column;
  if (e.kind == ExprKind::kFuncCall || e.kind == ExprKind::kAggCall ||
      e.kind == ExprKind::kWindowCall) {
    return e.func_name;
  }
  return "EXPR$" + std::to_string(position);
}

bool IsGroupWindowCall(const Expr& e) {
  if (e.kind != ExprKind::kFuncCall) return false;
  if (e.func_name == "TUMBLE" || e.func_name == "HOP") return true;
  // FLOOR(ts TO unit) in GROUP BY acts as a tumbling window over the unit.
  if (e.func_name == "FLOOR" && e.children.size() == 2 &&
      e.children[1]->kind == ExprKind::kLiteral &&
      e.children[1]->literal.kind() == TypeKind::kString) {
    return true;
  }
  return false;
}

// START/END of the group window, when the resolved aggregate call is one.
std::optional<AggKind> WindowBound(const Expr& e) {
  const Function* fn = FunctionRegistry::Instance().Get(e.resolved_index);
  if (fn && (fn->builtin_agg == AggKind::kStart || fn->builtin_agg == AggKind::kEnd)) {
    return fn->builtin_agg;
  }
  return std::nullopt;
}

Result<int64_t> LiteralMillis(const Expr& e, const char* what) {
  if (e.kind != ExprKind::kLiteral || !e.literal.is_numeric()) {
    return Status::ValidationError(std::string(what) + " must be an interval literal");
  }
  int64_t v = e.literal.ToInt64();
  if (v <= 0) return Status::ValidationError(std::string(what) + " must be positive");
  return v;
}

bool ContainsStreamScan(const LogicalNode& node) {
  if (node.kind == LogicalKind::kScan) return node.source.is_stream();
  for (const auto& input : node.inputs) {
    if (ContainsStreamScan(*input)) return true;
  }
  return false;
}

// Planner-internal context for one SELECT.
class SelectPlanner {
 public:
  SelectPlanner(const Catalog& catalog, const SelectStmt& stmt)
      : catalog_(catalog), stmt_(stmt) {}

  Result<LogicalNodePtr> Plan();

 private:
  Result<std::pair<LogicalNodePtr, std::string>> PlanTableRef(const TableRef& ref);
  Result<LogicalNodePtr> PlanJoin(LogicalNodePtr left, const JoinClause& clause);
  Result<LogicalNodePtr> PlanAggregate(LogicalNodePtr input);
  Result<LogicalNodePtr> PlanSlidingWindow(LogicalNodePtr input);
  Result<LogicalNodePtr> PlanProject(LogicalNodePtr input,
                                     std::vector<ExprPtr> resolved_items,
                                     const std::vector<std::string>& names);

  // Rewrites a resolved expression tree against the aggregate output schema:
  // group exprs -> group columns, agg calls -> agg columns, window group
  // call / START / END -> window bound columns. Fails on stray input refs.
  Result<ExprPtr> RewriteOverAggregate(const Expr& e, const LogicalNode& agg,
                                       const std::vector<std::string>& group_keys,
                                       const std::vector<std::string>& agg_keys);

  const Catalog& catalog_;
  const SelectStmt& stmt_;
  Scope scope_;          // scope over the FROM/JOIN result
  bool any_stream_source_ = false;
};

Result<std::pair<LogicalNodePtr, std::string>> SelectPlanner::PlanTableRef(
    const TableRef& ref) {
  if (ref.subquery) {
    // STREAM inside a subquery has no effect (paper §3.3) — the planner
    // decides streamness at the top level.
    SelectPlanner sub(catalog_, *ref.subquery);
    SQS_ASSIGN_OR_RETURN(node, sub.Plan());
    if (ContainsStreamScan(*node)) any_stream_source_ = true;
    std::string qualifier = ref.alias;  // may be empty
    return std::make_pair(std::move(node), qualifier);
  }
  if (catalog_.HasView(ref.name)) {
    SQS_ASSIGN_OR_RETURN(view, catalog_.GetView(ref.name));
    SelectPlanner sub(catalog_, *view.select);
    SQS_ASSIGN_OR_RETURN(node, sub.Plan());
    if (ContainsStreamScan(*node)) any_stream_source_ = true;
    if (!view.column_names.empty()) {
      if (view.column_names.size() != node->schema->num_fields()) {
        return Status::ValidationError("view " + ref.name + " column list arity " +
                                       std::to_string(view.column_names.size()) +
                                       " != query arity " +
                                       std::to_string(node->schema->num_fields()));
      }
      // Rename via an identity projection.
      std::vector<Field> fields;
      std::vector<ExprPtr> exprs;
      for (size_t i = 0; i < view.column_names.size(); ++i) {
        const Field& f = node->schema->field(i);
        fields.push_back({view.column_names[i], f.type, f.nullable});
        exprs.push_back(MakeIndexRef(static_cast<int>(i), f.type));
      }
      auto project = LogicalNode::Make(LogicalKind::kProject);
      project->inputs.push_back(node);
      project->exprs = std::move(exprs);
      project->schema = Schema::Make(ref.name, std::move(fields));
      project->rowtime_index = node->rowtime_index;
      project->is_stream = node->is_stream;
      node = project;
    }
    return std::make_pair(std::move(node), ref.EffectiveName());
  }
  SQS_ASSIGN_OR_RETURN(source, catalog_.GetSource(ref.name));
  auto scan = LogicalNode::Make(LogicalKind::kScan);
  scan->source = source;
  scan->schema = source.schema;
  scan->scan_as_stream = source.is_stream();
  scan->is_stream = source.is_stream();
  if (!source.rowtime_column.empty()) {
    auto idx = source.schema->FieldIndex(source.rowtime_column);
    scan->rowtime_index = idx ? static_cast<int>(*idx) : -1;
  }
  if (source.is_stream()) any_stream_source_ = true;
  return std::make_pair(std::move(scan), ref.EffectiveName());
}

Result<LogicalNodePtr> SelectPlanner::PlanJoin(LogicalNodePtr left,
                                               const JoinClause& clause) {
  SQS_ASSIGN_OR_RETURN(right_pair, PlanTableRef(clause.table));
  LogicalNodePtr right = right_pair.first;
  const std::string right_qual =
      right_pair.second.empty() ? clause.table.EffectiveName() : right_pair.second;

  const size_t left_arity = left->schema->num_fields();

  // Combined scope: current scope fields then right fields.
  Scope combined = scope_;
  for (const Field& f : right->schema->fields()) {
    combined.fields.push_back({right_qual, f.name, f.type});
  }

  ExprPtr condition = clause.condition->Clone();
  SQS_RETURN_IF_ERROR(ResolveExpr(*condition, combined.Resolver(), false));
  if (condition->resolved_type.kind != TypeKind::kBool) {
    return Status::ValidationError("join condition must be boolean");
  }

  auto join = LogicalNode::Make(LogicalKind::kJoin);
  join->inputs.push_back(left);
  join->inputs.push_back(right);

  // Classify conjuncts.
  std::vector<ExprPtr> residual;
  bool have_time_bound = false;
  for (ExprPtr& conj : SplitConjuncts(*condition)) {
    const Expr& e = *conj;
    // Equi key: colL = colR across the boundary.
    if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kEq &&
        e.children[0]->kind == ExprKind::kColumnRef &&
        e.children[1]->kind == ExprKind::kColumnRef) {
      int a = e.children[0]->resolved_index;
      int b = e.children[1]->resolved_index;
      bool a_left = a < static_cast<int>(left_arity);
      bool b_left = b < static_cast<int>(left_arity);
      if (a_left != b_left) {
        int l = a_left ? a : b;
        int r = (a_left ? b : a) - static_cast<int>(left_arity);
        join->equi_keys.emplace_back(l, r);
        continue;
      }
    }
    // Time bound: ts1 BETWEEN ts2 - I1 AND ts2 + I2 (either orientation).
    if (e.kind == ExprKind::kBetween && e.children[0]->kind == ExprKind::kColumnRef) {
      auto extract = [](const Expr& bound, int& ts_index,
                        int64_t& millis, bool& is_sub) -> bool {
        if (bound.kind == ExprKind::kBinary &&
            (bound.binary_op == BinaryOp::kSub || bound.binary_op == BinaryOp::kAdd) &&
            bound.children[0]->kind == ExprKind::kColumnRef &&
            bound.children[1]->kind == ExprKind::kLiteral) {
          ts_index = bound.children[0]->resolved_index;
          millis = bound.children[1]->literal.ToInt64();
          is_sub = bound.binary_op == BinaryOp::kSub;
          return true;
        }
        if (bound.kind == ExprKind::kColumnRef) {
          ts_index = bound.resolved_index;
          millis = 0;
          is_sub = false;
          return true;
        }
        return false;
      };
      int lo_ts, hi_ts;
      int64_t lo_ms, hi_ms;
      bool lo_sub, hi_sub;
      if (extract(*e.children[1], lo_ts, lo_ms, lo_sub) &&
          extract(*e.children[2], hi_ts, hi_ms, hi_sub) && lo_ts == hi_ts) {
        int subject = e.children[0]->resolved_index;
        bool subject_left = subject < static_cast<int>(left_arity);
        bool other_left = lo_ts < static_cast<int>(left_arity);
        if (subject_left != other_left && lo_sub && !hi_sub) {
          // subject.ts BETWEEN other.ts - lo_ms AND other.ts + hi_ms
          if (subject_left) {
            join->left_ts_index = subject;
            join->right_ts_index = lo_ts - static_cast<int>(left_arity);
            join->window_before_ms = lo_ms;
            join->window_after_ms = hi_ms;
          } else {
            join->left_ts_index = lo_ts;
            join->right_ts_index = subject - static_cast<int>(left_arity);
            // left.ts - right.ts in [-hi_ms, +lo_ms]
            join->window_before_ms = hi_ms;
            join->window_after_ms = lo_ms;
          }
          have_time_bound = true;
          continue;
        }
      }
    }
    residual.push_back(std::move(conj));
  }
  join->residual = CombineConjuncts(std::move(residual));

  // Join type and validation.
  if (right->is_stream) {
    join->join_type = JoinType::kStreamStream;
    if (!left->is_stream) {
      return Status::Unsupported("relation-to-stream joins must put the stream first");
    }
    if (!have_time_bound) {
      return Status::ValidationError(
          "stream-to-stream join requires a time bound on the rowtime columns "
          "in the join condition (unbounded join state otherwise)");
    }
    if (join->equi_keys.empty()) {
      return Status::ValidationError("stream-to-stream join requires an equi-join key");
    }
    if (left->rowtime_index < 0 || right->rowtime_index < 0) {
      return Status::ValidationError("both join inputs need a timestamp column");
    }
    if (join->left_ts_index != left->rowtime_index ||
        join->right_ts_index != right->rowtime_index) {
      return Status::ValidationError(
          "join time bound must be over the streams' rowtime columns");
    }
  } else {
    join->join_type = JoinType::kStreamRelation;
    if (right->kind != LogicalKind::kScan) {
      return Status::Unsupported(
          "the relation side of a stream-to-relation join must be a base table "
          "(materialized from its changelog via a bootstrap stream)");
    }
    if (join->equi_keys.empty()) {
      return Status::ValidationError("stream-to-relation join requires an equi-join key");
    }
    if (have_time_bound) {
      return Status::ValidationError("time bounds only apply to stream-to-stream joins");
    }
  }

  // Output schema: left fields then right fields; clashes get qualified names.
  std::set<std::string> used;
  for (const Field& f : left->schema->fields()) used.insert(f.name);
  std::vector<Field> fields(left->schema->fields());
  for (const Field& f : right->schema->fields()) {
    Field out = f;
    if (used.count(out.name)) out.name = right_qual + "$" + out.name;
    used.insert(out.name);
    // Relation-side fields become nullable? Inner join only: no.
    fields.push_back(std::move(out));
  }
  join->schema = Schema::Make("join", std::move(fields));
  join->rowtime_index = left->rowtime_index;
  join->is_stream = left->is_stream;

  scope_ = combined;
  return join;
}

Result<ExprPtr> SelectPlanner::RewriteOverAggregate(
    const Expr& e, const LogicalNode& agg, const std::vector<std::string>& group_keys,
    const std::vector<std::string>& agg_keys) {
  const size_t num_groups = agg.group_exprs.size();
  const bool windowed = agg.group_window.type != GroupWindowSpec::Type::kNone;
  const size_t window_start_idx = num_groups;
  const size_t agg_base = num_groups + (windowed ? 2 : 0);

  // Window group call (TUMBLE/HOP/FLOOR ts) -> window_start column.
  if (IsGroupWindowCall(e)) {
    if (!windowed) {
      return Status::ValidationError("window function requires a windowed GROUP BY");
    }
    return MakeIndexRef(static_cast<int>(window_start_idx), FieldType::Int64());
  }

  // Matching group expression -> its key column.
  std::string printed = e.ToString();
  for (size_t i = 0; i < num_groups; ++i) {
    if (printed == group_keys[i]) {
      return MakeIndexRef(static_cast<int>(i), agg.group_exprs[i]->resolved_type);
    }
  }

  if (e.kind == ExprKind::kAggCall) {
    if (auto bound = WindowBound(e)) {
      if (!windowed) {
        return Status::ValidationError(e.func_name +
                                       " requires a windowed GROUP BY (TUMBLE/HOP)");
      }
      size_t idx = *bound == AggKind::kStart ? window_start_idx : window_start_idx + 1;
      return MakeIndexRef(static_cast<int>(idx), FieldType::Int64());
    }
    for (size_t i = 0; i < agg.aggs.size(); ++i) {
      if (printed == agg_keys[i]) {
        return MakeIndexRef(static_cast<int>(agg_base + i), agg.aggs[i].type);
      }
    }
    return Status::Internal("aggregate not collected: " + printed);
  }

  if (e.kind == ExprKind::kColumnRef) {
    return Status::ValidationError("column " + e.ToString() +
                                   " must appear in GROUP BY or inside an aggregate");
  }

  // Recurse into scalar structure.
  ExprPtr copy = e.Clone();
  for (size_t i = 0; i < copy->children.size(); ++i) {
    SQS_ASSIGN_OR_RETURN(child,
                         RewriteOverAggregate(*e.children[i], agg, group_keys, agg_keys));
    copy->children[i] = std::move(child);
  }
  return copy;
}

Result<LogicalNodePtr> SelectPlanner::PlanAggregate(LogicalNodePtr input) {
  auto agg = LogicalNode::Make(LogicalKind::kAggregate);
  agg->inputs.push_back(input);

  // --- group keys and the (at most one) group window ---
  for (const ExprPtr& g : stmt_.group_by) {
    if (IsGroupWindowCall(*g)) {
      if (agg->group_window.type != GroupWindowSpec::Type::kNone) {
        return Status::ValidationError("at most one group window per query");
      }
      ExprPtr call = g->Clone();
      // Resolve the timestamp argument.
      SQS_RETURN_IF_ERROR(ResolveExpr(*call->children[0], scope_.Resolver(), false));
      if (call->children[0]->kind != ExprKind::kColumnRef) {
        return Status::ValidationError(
            "group window timestamp must be a plain column reference");
      }
      if (call->children[0]->resolved_type.kind != TypeKind::kInt64) {
        return Status::ValidationError("group window timestamp must be BIGINT");
      }
      GroupWindowSpec spec;
      spec.ts_index = call->children[0]->resolved_index;
      if (input->is_stream && stmt_.stream) {
        if (input->rowtime_index < 0) {
          return Status::ValidationError(
              "stream has no timestamp column; time-based windows are unavailable "
              "(was rowtime dropped by a projection?)");
        }
        if (spec.ts_index != input->rowtime_index) {
          return Status::ValidationError(
              "group window must be over the stream's rowtime column");
        }
      }
      if (call->func_name == "TUMBLE") {
        if (call->children.size() < 2 || call->children.size() > 3) {
          return Status::ValidationError("TUMBLE(ts, emit [, align])");
        }
        spec.type = GroupWindowSpec::Type::kTumble;
        SQS_ASSIGN_OR_RETURN(emit, LiteralMillis(*call->children[1], "TUMBLE emit"));
        spec.emit_ms = emit;
        spec.retain_ms = emit;
        if (call->children.size() == 3) {
          SQS_ASSIGN_OR_RETURN(align, LiteralMillis(*call->children[2], "TUMBLE align"));
          spec.align_ms = align;
        }
      } else if (call->func_name == "HOP") {
        if (call->children.size() < 3 || call->children.size() > 4) {
          return Status::ValidationError("HOP(ts, emit, retain [, align])");
        }
        spec.type = GroupWindowSpec::Type::kHop;
        SQS_ASSIGN_OR_RETURN(emit, LiteralMillis(*call->children[1], "HOP emit"));
        SQS_ASSIGN_OR_RETURN(retain, LiteralMillis(*call->children[2], "HOP retain"));
        spec.emit_ms = emit;
        spec.retain_ms = retain;
        if (call->children.size() == 4) {
          SQS_ASSIGN_OR_RETURN(align, LiteralMillis(*call->children[3], "HOP align"));
          spec.align_ms = align;
        }
      } else {  // FLOOR(ts TO unit) == tumbling window of one unit
        spec.type = GroupWindowSpec::Type::kTumble;
        const std::string& unit = call->children[1]->literal.as_string();
        int64_t unit_ms;
        if (unit == "SECOND") {
          unit_ms = 1000;
        } else if (unit == "MINUTE") {
          unit_ms = 60000;
        } else if (unit == "HOUR") {
          unit_ms = 3600000;
        } else if (unit == "DAY") {
          unit_ms = 86400000;
        } else {
          return Status::ValidationError("unsupported FLOOR unit: " + unit);
        }
        spec.emit_ms = unit_ms;
        spec.retain_ms = unit_ms;
      }
      agg->group_window = spec;
    } else {
      ExprPtr key = g->Clone();
      SQS_RETURN_IF_ERROR(ResolveExpr(*key, scope_.Resolver(), false));
      agg->group_exprs.push_back(std::move(key));
    }
  }

  if (stmt_.stream && input->is_stream &&
      agg->group_window.type == GroupWindowSpec::Type::kNone) {
    return Status::ValidationError(
        "cannot aggregate an unbounded stream without a group window "
        "(use TUMBLE, HOP or FLOOR(rowtime TO <unit>) in GROUP BY)");
  }

  // --- collect aggregate calls from select items + HAVING ---
  std::vector<std::string> group_keys;  // resolved ToString per group expr
  for (const auto& g : agg->group_exprs) group_keys.push_back(g->ToString());
  std::vector<std::string> agg_keys;

  std::vector<ExprPtr> resolved_items;  // resolved against input scope
  std::vector<std::string> names;
  for (size_t i = 0; i < stmt_.items.size(); ++i) {
    const SelectItem& item = stmt_.items[i];
    if (item.expr->kind == ExprKind::kStar) {
      return Status::ValidationError("SELECT * cannot be combined with GROUP BY");
    }
    ExprPtr resolved = item.expr->Clone();
    SQS_RETURN_IF_ERROR(ResolveExpr(*resolved, scope_.Resolver(), true));
    names.push_back(OutputName(item, i));
    resolved_items.push_back(std::move(resolved));
  }
  ExprPtr resolved_having;
  if (stmt_.having) {
    resolved_having = stmt_.having->Clone();
    SQS_RETURN_IF_ERROR(ResolveExpr(*resolved_having, scope_.Resolver(), true));
    if (resolved_having->resolved_type.kind != TypeKind::kBool) {
      return Status::ValidationError("HAVING must be boolean");
    }
  }

  // Walk resolved trees, registering distinct aggregate calls.
  std::function<Status(const Expr&)> collect = [&](const Expr& e) -> Status {
    if (e.kind == ExprKind::kAggCall) {
      if (WindowBound(e)) return Status::Ok();  // mapped to window bound columns
      std::string key = e.ToString();
      for (const std::string& k : agg_keys) {
        if (k == key) return Status::Ok();
      }
      AggCallSpec spec;
      spec.func_id = e.resolved_index;
      if (!e.star_arg && !e.children.empty()) spec.arg = e.children[0]->Clone();
      spec.type = e.resolved_type;
      spec.output_name = "a" + std::to_string(agg_keys.size());
      agg_keys.push_back(key);
      agg->aggs.push_back(std::move(spec));
      return Status::Ok();
    }
    for (const auto& child : e.children) SQS_RETURN_IF_ERROR(collect(*child));
    return Status::Ok();
  };
  for (const auto& item : resolved_items) SQS_RETURN_IF_ERROR(collect(*item));
  if (resolved_having) SQS_RETURN_IF_ERROR(collect(*resolved_having));

  // --- aggregate output schema: [groups][window bounds][aggs] ---
  std::vector<Field> agg_fields;
  for (size_t i = 0; i < agg->group_exprs.size(); ++i) {
    agg_fields.push_back({"g" + std::to_string(i),
                          agg->group_exprs[i]->resolved_type, true});
  }
  const bool windowed = agg->group_window.type != GroupWindowSpec::Type::kNone;
  if (windowed) {
    agg_fields.push_back({"window_start", FieldType::Int64(), false});
    agg_fields.push_back({"window_end", FieldType::Int64(), false});
  }
  for (const AggCallSpec& a : agg->aggs) {
    agg_fields.push_back({a.output_name, a.type, true});
  }
  agg->schema = Schema::Make("agg", std::move(agg_fields));
  agg->rowtime_index = windowed ? static_cast<int>(agg->group_exprs.size()) : -1;
  agg->is_stream = input->is_stream;

  // --- HAVING above the aggregate ---
  LogicalNodePtr top = agg;
  if (resolved_having) {
    SQS_ASSIGN_OR_RETURN(pred,
                         RewriteOverAggregate(*resolved_having, *agg, group_keys, agg_keys));
    auto filter = LogicalNode::Make(LogicalKind::kFilter);
    filter->inputs.push_back(top);
    filter->predicate = std::move(pred);
    filter->schema = top->schema;
    filter->rowtime_index = top->rowtime_index;
    filter->is_stream = top->is_stream;
    top = filter;
  }

  // --- final projection over the aggregate output ---
  std::vector<ExprPtr> final_exprs;
  for (const auto& item : resolved_items) {
    SQS_ASSIGN_OR_RETURN(rewritten, RewriteOverAggregate(*item, *agg, group_keys, agg_keys));
    final_exprs.push_back(std::move(rewritten));
  }
  return PlanProject(top, std::move(final_exprs), names);
}

Result<LogicalNodePtr> SelectPlanner::PlanSlidingWindow(LogicalNodePtr input) {
  auto window_node = LogicalNode::Make(LogicalKind::kSlidingWindow);
  window_node->inputs.push_back(input);

  // Resolve all select items; pull out window calls.
  std::vector<ExprPtr> resolved_items;
  std::vector<std::string> names;
  for (size_t i = 0; i < stmt_.items.size(); ++i) {
    const SelectItem& item = stmt_.items[i];
    if (item.expr->kind == ExprKind::kStar) {
      return Status::Unsupported("SELECT * with OVER aggregates is not supported");
    }
    ExprPtr resolved = item.expr->Clone();
    SQS_RETURN_IF_ERROR(ResolveExpr(*resolved, scope_.Resolver(), true));
    names.push_back(OutputName(item, i));
    resolved_items.push_back(std::move(resolved));
  }

  const size_t input_arity = input->schema->num_fields();
  std::vector<std::string> call_keys;

  // Replace each kWindowCall subtree with a reference to an appended column.
  std::function<Result<ExprPtr>(const Expr&)> rewrite =
      [&](const Expr& e) -> Result<ExprPtr> {
    if (e.kind == ExprKind::kWindowCall) {
      std::string key = e.ToString();
      for (size_t i = 0; i < call_keys.size(); ++i) {
        if (call_keys[i] == key) {
          return MakeIndexRef(static_cast<int>(input_arity + i),
                              window_node->window_calls[i].type);
        }
      }
      WindowCallSpec spec;
      spec.func_id = e.resolved_index;
      if (!e.children.empty()) spec.arg = e.children[0]->Clone();
      for (const auto& p : e.window->partition_by) spec.partition_by.push_back(p->Clone());
      // ORDER BY column must be the stream's rowtime for RANGE windows.
      auto resolver = scope_.Resolver();
      SQS_ASSIGN_OR_RETURN(order_hit, resolver("", e.window->order_by));
      spec.ts_index = order_hit.first;
      if (stmt_.stream && input->is_stream) {
        if (input->rowtime_index < 0) {
          return Status::ValidationError(
              "stream has no timestamp column; sliding windows are unavailable");
        }
        if (e.window->range_based && spec.ts_index != input->rowtime_index) {
          return Status::ValidationError(
              "RANGE window ORDER BY must be the stream's rowtime column");
        }
      }
      spec.range_based = e.window->range_based;
      spec.preceding_ms = e.window->preceding_millis;
      spec.preceding_rows = e.window->preceding_rows;
      spec.type = e.resolved_type;
      spec.output_name = "w" + std::to_string(call_keys.size());
      call_keys.push_back(key);
      window_node->window_calls.push_back(std::move(spec));
      return MakeIndexRef(static_cast<int>(input_arity + call_keys.size() - 1),
                          window_node->window_calls.back().type);
    }
    if (e.kind == ExprKind::kAggCall) {
      return Status::ValidationError(
          "plain aggregates need GROUP BY; use OVER (...) for sliding windows");
    }
    ExprPtr copy = e.Clone();
    for (size_t i = 0; i < copy->children.size(); ++i) {
      SQS_ASSIGN_OR_RETURN(child, rewrite(*e.children[i]));
      copy->children[i] = std::move(child);
    }
    return copy;
  };

  std::vector<ExprPtr> final_exprs;
  for (const auto& item : resolved_items) {
    SQS_ASSIGN_OR_RETURN(rewritten, rewrite(*item));
    final_exprs.push_back(std::move(rewritten));
  }

  // Window node schema: input fields + one per call.
  std::vector<Field> fields(input->schema->fields());
  for (const WindowCallSpec& w : window_node->window_calls) {
    fields.push_back({w.output_name, w.type, true});
  }
  window_node->schema = Schema::Make("window", std::move(fields));
  window_node->rowtime_index = input->rowtime_index;
  window_node->is_stream = input->is_stream;

  return PlanProject(window_node, std::move(final_exprs), names);
}

Result<LogicalNodePtr> SelectPlanner::PlanProject(
    LogicalNodePtr input, std::vector<ExprPtr> resolved_items,
    const std::vector<std::string>& names) {
  auto project = LogicalNode::Make(LogicalKind::kProject);
  project->inputs.push_back(input);

  std::vector<Field> fields;
  int rowtime = -1;
  for (size_t i = 0; i < resolved_items.size(); ++i) {
    const ExprPtr& e = resolved_items[i];
    fields.push_back({names[i], e->resolved_type, true});
    if (e->kind == ExprKind::kColumnRef && input->rowtime_index >= 0 &&
        e->resolved_index == input->rowtime_index) {
      rowtime = static_cast<int>(i);
    }
  }
  project->exprs = std::move(resolved_items);
  project->schema = Schema::Make("project", std::move(fields));
  project->rowtime_index = rowtime;
  project->is_stream = input->is_stream;
  return project;
}

Result<LogicalNodePtr> SelectPlanner::Plan() {
  if (stmt_.items.empty()) return Status::ValidationError("empty select list");

  // FROM
  SQS_ASSIGN_OR_RETURN(from_pair, PlanTableRef(stmt_.from));
  LogicalNodePtr node = from_pair.first;
  scope_ = ScopeFor(*node, from_pair.second);

  // JOINs
  for (const JoinClause& join : stmt_.joins) {
    SQS_ASSIGN_OR_RETURN(joined, PlanJoin(node, join));
    node = joined;
  }

  // WHERE
  if (stmt_.where) {
    if (ContainsAggregate(*stmt_.where)) {
      return Status::ValidationError("aggregates are not allowed in WHERE (use HAVING)");
    }
    ExprPtr pred = stmt_.where->Clone();
    SQS_RETURN_IF_ERROR(ResolveExpr(*pred, scope_.Resolver(), false));
    if (pred->resolved_type.kind != TypeKind::kBool) {
      return Status::ValidationError("WHERE must be boolean");
    }
    auto filter = LogicalNode::Make(LogicalKind::kFilter);
    filter->inputs.push_back(node);
    filter->predicate = std::move(pred);
    filter->schema = node->schema;
    filter->rowtime_index = node->rowtime_index;
    filter->is_stream = node->is_stream;
    node = filter;
  }

  // STREAM keyword checks (top level only; nested STREAM was discarded).
  if (stmt_.stream && !any_stream_source_) {
    return Status::ValidationError("SELECT STREAM requires at least one stream source");
  }

  bool has_group = !stmt_.group_by.empty();
  bool has_agg = false;
  bool has_window_call = false;
  for (const SelectItem& item : stmt_.items) {
    if (item.expr->kind == ExprKind::kStar) continue;
    if (ContainsAggregate(*item.expr)) has_agg = true;
    std::function<bool(const Expr&)> has_over = [&](const Expr& e) {
      if (e.kind == ExprKind::kWindowCall) return true;
      for (const auto& c : e.children) {
        if (has_over(*c)) return true;
      }
      return false;
    };
    if (has_over(*item.expr)) has_window_call = true;
  }
  if (stmt_.having && !has_group) {
    return Status::ValidationError("HAVING requires GROUP BY");
  }

  LogicalNodePtr top;
  if (has_group || (has_agg && !has_window_call)) {
    SQS_ASSIGN_OR_RETURN(planned, PlanAggregate(node));
    top = planned;
  } else if (has_window_call) {
    SQS_ASSIGN_OR_RETURN(planned, PlanSlidingWindow(node));
    top = planned;
  } else {
    // Plain projection; '*' expands the whole input.
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (size_t i = 0; i < stmt_.items.size(); ++i) {
      const SelectItem& item = stmt_.items[i];
      if (item.expr->kind == ExprKind::kStar) {
        for (size_t f = 0; f < node->schema->num_fields(); ++f) {
          const Field& field = node->schema->field(f);
          exprs.push_back(MakeIndexRef(static_cast<int>(f), field.type));
          names.push_back(field.name);
        }
        continue;
      }
      ExprPtr resolved = item.expr->Clone();
      SQS_RETURN_IF_ERROR(ResolveExpr(*resolved, scope_.Resolver(), false));
      names.push_back(OutputName(item, i));
      exprs.push_back(std::move(resolved));
    }
    SQS_ASSIGN_OR_RETURN(planned, PlanProject(node, std::move(exprs), names));
    top = planned;
  }

  // Final streamness: SELECT STREAM -> continuous; otherwise history/batch.
  top->is_stream = stmt_.stream;
  return top;
}

}  // namespace

std::vector<ExprPtr> SplitConjuncts(const Expr& predicate) {
  std::vector<ExprPtr> out;
  if (predicate.kind == ExprKind::kBinary && predicate.binary_op == BinaryOp::kAnd) {
    for (auto& part : SplitConjuncts(*predicate.children[0])) out.push_back(std::move(part));
    for (auto& part : SplitConjuncts(*predicate.children[1])) out.push_back(std::move(part));
    return out;
  }
  out.push_back(predicate.Clone());
  return out;
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr result = std::move(conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    ExprPtr combined = MakeBinary(BinaryOp::kAnd, std::move(result), std::move(conjuncts[i]));
    combined->resolved_type = FieldType::Bool();
    result = std::move(combined);
  }
  return result;
}

Result<LogicalNodePtr> QueryPlanner::Plan(const SelectStmt& stmt) {
  SelectPlanner planner(*catalog_, stmt);
  return planner.Plan();
}

}  // namespace sqs::sql
