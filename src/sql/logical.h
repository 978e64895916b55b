// Logical relational-algebra plan. The SamzaSQL planner (planner.h) builds
// this from a validated AST; the optimizer (optimizer.h) rewrites it; the
// operator layer (ops/) instantiates one physical operator per node at task
// init, compiling the attached expressions — the paper's two-step planning
// (§4.2) with code generation at the task side.
//
// All expressions attached to a node are *resolved* against the
// concatenation of the node's input schemas (for joins: left fields then
// right fields).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/expr.h"

namespace sqs::sql {

enum class LogicalKind {
  kScan,           // read a source (stream or relation)
  kFilter,         // predicate
  kProject,        // expression list
  kAggregate,      // GROUP BY [+ TUMBLE/HOP/FLOOR window]
  kSlidingWindow,  // analytic OVER aggregates, appended to the input row
  kJoin,           // stream-relation or stream-stream
};

// Group-window attached to an Aggregate (paper §3.6):
//   TUMBLE(ts, emit):            retain == emit
//   HOP(ts, emit, retain[,align])
//   FLOOR(ts TO unit) in GROUP BY is canonicalized to a TUMBLE of that unit.
struct GroupWindowSpec {
  enum class Type { kNone, kTumble, kHop };
  Type type = Type::kNone;
  int ts_index = -1;       // input column carrying the timestamp
  int64_t emit_ms = 0;     // emit interval (== window advance)
  int64_t retain_ms = 0;   // window size
  int64_t align_ms = 0;    // first-emit alignment offset
};

struct AggCallSpec {
  int32_t func_id = -1;     // aggregate entry in the function table
  ExprPtr arg;              // null for COUNT(*) and START/END
  std::string output_name;
  FieldType type;

  AggCallSpec Clone() const;
};

// One analytic (OVER) aggregate computed by the sliding-window operator
// (paper §3.7, §4.3). The operator appends one column per call.
struct WindowCallSpec {
  int32_t func_id = -1;               // built-in aggregate in the function table
  ExprPtr arg;                        // aggregated expression (input-resolved)
  std::vector<ExprPtr> partition_by;  // PARTITION BY expressions
  int ts_index = -1;                  // ORDER BY column (must be the rowtime)
  bool range_based = true;
  int64_t preceding_ms = 0;
  int64_t preceding_rows = 0;
  std::string output_name;
  FieldType type;

  WindowCallSpec Clone() const;
};

enum class JoinType {
  kStreamRelation,  // bootstrap-stream backed lookup join (paper §4.4)
  kStreamStream,    // windowed stream-stream join (paper §3.8.1)
};

struct LogicalNode;
using LogicalNodePtr = std::shared_ptr<LogicalNode>;

struct LogicalNode {
  LogicalKind kind;
  std::vector<LogicalNodePtr> inputs;

  // Output schema. Field names follow select-list aliases / source names.
  SchemaPtr schema;
  // Index of the event-timestamp column in the output (-1 when the query
  // dropped it; time-based windows downstream are then rejected — §7 item 2).
  int rowtime_index = -1;
  // Whether this node produces a stream (vs a finite relation).
  bool is_stream = true;

  // kScan
  SourceDef source;
  bool scan_as_stream = true;  // STREAM semantics vs history-as-table

  // kFilter
  ExprPtr predicate;

  // kProject
  std::vector<ExprPtr> exprs;  // one per output field, input-resolved

  // kAggregate
  std::vector<ExprPtr> group_exprs;  // non-window group keys, input-resolved
  GroupWindowSpec group_window;
  std::vector<AggCallSpec> aggs;
  // Aggregate output layout: [group keys...][window_start][window_end][aggs...]
  // (window columns only when group_window.type != kNone).

  // kSlidingWindow
  std::vector<WindowCallSpec> window_calls;
  // Output layout: [input fields...][one column per window call].

  // kJoin
  JoinType join_type = JoinType::kStreamRelation;
  std::vector<std::pair<int, int>> equi_keys;  // (left index, right index)
  // Stream-stream window bound: accept when
  //   left.ts - right.ts IN [-window_before_ms, +window_after_ms].
  int left_ts_index = -1;
  int right_ts_index = -1;  // index within the *right* schema
  int64_t window_before_ms = 0;
  int64_t window_after_ms = 0;
  ExprPtr residual;  // extra condition over the combined row (nullable)

  std::string ToString(int indent = 0) const;

  static LogicalNodePtr Make(LogicalKind kind) {
    auto n = std::make_shared<LogicalNode>();
    n->kind = kind;
    return n;
  }
};

// Deep copy (expressions cloned).
LogicalNodePtr CloneLogical(const LogicalNode& node);

}  // namespace sqs::sql
