#include "sql/logical.h"

#include <sstream>

#include "sql/functions.h"

namespace sqs::sql {

namespace {
const char* KindName(LogicalKind kind) {
  switch (kind) {
    case LogicalKind::kScan: return "Scan";
    case LogicalKind::kFilter: return "Filter";
    case LogicalKind::kProject: return "Project";
    case LogicalKind::kAggregate: return "Aggregate";
    case LogicalKind::kSlidingWindow: return "SlidingWindow";
    case LogicalKind::kJoin: return "Join";
  }
  return "?";
}

const std::string& FunctionName(int32_t id) {
  static const std::string kUnknown = "?";
  const Function* fn = FunctionRegistry::Instance().Get(id);
  return fn ? fn->name : kUnknown;
}
}  // namespace

std::string LogicalNode::ToString(int indent) const {
  std::ostringstream os;
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  os << pad << KindName(kind);
  switch (kind) {
    case LogicalKind::kScan:
      os << "(" << source.name << (scan_as_stream ? " STREAM" : " RELATION") << ")";
      break;
    case LogicalKind::kFilter:
      os << "(" << predicate->ToString() << ")";
      break;
    case LogicalKind::kProject: {
      os << "(";
      for (size_t i = 0; i < exprs.size(); ++i) {
        if (i) os << ", ";
        os << exprs[i]->ToString() << " AS " << schema->field(i).name;
      }
      os << ")";
      break;
    }
    case LogicalKind::kAggregate: {
      os << "(groups=[";
      for (size_t i = 0; i < group_exprs.size(); ++i) {
        if (i) os << ", ";
        os << group_exprs[i]->ToString();
      }
      os << "]";
      if (group_window.type != GroupWindowSpec::Type::kNone) {
        os << (group_window.type == GroupWindowSpec::Type::kTumble ? " TUMBLE" : " HOP")
           << "($" << group_window.ts_index << ", emit=" << group_window.emit_ms
           << "ms, retain=" << group_window.retain_ms << "ms)";
      }
      os << " aggs=[";
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (i) os << ", ";
        os << FunctionName(aggs[i].func_id) << "("
           << (aggs[i].arg ? aggs[i].arg->ToString() : "*") << ")";
      }
      os << "])";
      break;
    }
    case LogicalKind::kSlidingWindow: {
      os << "(";
      for (size_t i = 0; i < window_calls.size(); ++i) {
        const WindowCallSpec& w = window_calls[i];
        if (i) os << ", ";
        os << FunctionName(w.func_id) << "(" << (w.arg ? w.arg->ToString() : "*") << ") OVER ";
        if (w.range_based) {
          os << "RANGE " << w.preceding_ms << "ms";
        } else {
          os << "ROWS " << w.preceding_rows;
        }
      }
      os << ")";
      break;
    }
    case LogicalKind::kJoin: {
      os << "("
         << (join_type == JoinType::kStreamRelation ? "stream-relation" : "stream-stream")
         << " keys=[";
      for (size_t i = 0; i < equi_keys.size(); ++i) {
        if (i) os << ", ";
        os << "$" << equi_keys[i].first << "=$" << equi_keys[i].second << "r";
      }
      os << "]";
      if (join_type == JoinType::kStreamStream) {
        os << " window=[-" << window_before_ms << "ms,+" << window_after_ms << "ms]";
      }
      if (residual) os << " residual=" << residual->ToString();
      os << ")";
      break;
    }
  }
  os << "\n";
  for (const auto& input : inputs) os << input->ToString(indent + 1);
  return os.str();
}

AggCallSpec AggCallSpec::Clone() const {
  AggCallSpec copy;
  copy.func_id = func_id;
  if (arg) copy.arg = arg->Clone();
  copy.output_name = output_name;
  copy.type = type;
  return copy;
}

WindowCallSpec WindowCallSpec::Clone() const {
  WindowCallSpec copy;
  copy.func_id = func_id;
  if (arg) copy.arg = arg->Clone();
  for (const auto& p : partition_by) copy.partition_by.push_back(p->Clone());
  copy.ts_index = ts_index;
  copy.range_based = range_based;
  copy.preceding_ms = preceding_ms;
  copy.preceding_rows = preceding_rows;
  copy.output_name = output_name;
  copy.type = type;
  return copy;
}

LogicalNodePtr CloneLogical(const LogicalNode& node) {
  auto copy = std::make_shared<LogicalNode>();
  copy->kind = node.kind;
  copy->schema = node.schema;
  copy->rowtime_index = node.rowtime_index;
  copy->is_stream = node.is_stream;
  copy->source = node.source;
  copy->scan_as_stream = node.scan_as_stream;
  if (node.predicate) copy->predicate = node.predicate->Clone();
  for (const auto& e : node.exprs) copy->exprs.push_back(e->Clone());
  for (const auto& g : node.group_exprs) copy->group_exprs.push_back(g->Clone());
  copy->group_window = node.group_window;
  for (const auto& a : node.aggs) copy->aggs.push_back(a.Clone());
  for (const auto& w : node.window_calls) copy->window_calls.push_back(w.Clone());
  copy->join_type = node.join_type;
  copy->equi_keys = node.equi_keys;
  copy->left_ts_index = node.left_ts_index;
  copy->right_ts_index = node.right_ts_index;
  copy->window_before_ms = node.window_before_ms;
  copy->window_after_ms = node.window_after_ms;
  if (node.residual) copy->residual = node.residual->Clone();
  for (const auto& input : node.inputs) copy->inputs.push_back(CloneLogical(*input));
  return copy;
}

}  // namespace sqs::sql
