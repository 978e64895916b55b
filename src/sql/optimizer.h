// Rule-based logical-plan optimizer (the Calcite-optimization stand-in,
// paper §4.2: "apply some generic optimizations bundled with Calcite").
// Rules run to a fixpoint:
//  - ConstantFolding:       literal-only subexpressions are evaluated once
//  - FilterMerge:           Filter(Filter(x)) -> Filter(a AND b)
//  - FilterProjectTranspose: push filters below projections whose referenced
//                            outputs are plain column refs
//  - FilterJoinPushdown:    push single-side conjuncts below a join
//  - ProjectMerge:          Project(Project(x)) -> composed Project
//  - RemoveTrivialProject:  drop identity projections
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sql/logical.h"

namespace sqs::sql {

struct OptimizerStats {
  int constant_folds = 0;
  int filters_merged = 0;
  int filters_pushed_below_project = 0;
  int filters_pushed_into_join = 0;
  int projects_merged = 0;
  int trivial_projects_removed = 0;

  int Total() const {
    return constant_folds + filters_merged + filters_pushed_below_project +
           filters_pushed_into_join + projects_merged + trivial_projects_removed;
  }
};

// Optimizes the plan in place (nodes may be replaced; returns the new root).
LogicalNodePtr Optimize(LogicalNodePtr root, OptimizerStats* stats = nullptr);

// Fold literal-only subtrees of a resolved expression in place.
// Returns true if anything changed.
bool FoldConstants(Expr& expr);

// ---------------------------------------------------------------------------
// Fused-stage extraction (physical planning, paper §7 item 5).
//
// The Filter*/Project* chain that produces the query output is compiled into
// ONE fused stage when it sits either
//  - on a Scan: predicates and projections are rebased onto the scan schema
//    so a single kernel decodes each input record lazily (only referenced
//    columns), filters, projects and re-serializes; or
//  - on a stream-relation equi-join whose stream input is a Scan <-
//    Filter*/Project* chain: the kernel runs that stream prefix, then the
//    stage probes the relation store, applies the residual and the upper
//    chain, and serializes (FusedProbeSpec).
// There is no per-operator dispatch and no intermediate TupleEvent. Stream-
// stream joins, self-joins, and chains feeding aggregates or sliding
// windows stay on the interpreted operator path.
// ---------------------------------------------------------------------------

// The relation probe of a fused stream-relation join. The spec's scan,
// predicates, projections and referenced columns describe the join's stream
// input (the "stream prefix"); everything here runs after it, over the join's
// output row [stream prefix row ++ relation row].
struct FusedProbeSpec {
  std::string store_prefix;        // "op<join id>"; the store is "<prefix>-table"
  const LogicalNode* relation = nullptr;  // the join's relation input (borrowed)
  SchemaPtr relation_schema;
  size_t prefix_arity = 0;         // columns of the stream-prefix row
  // (stream-prefix column, relation column) equi-key pairs.
  std::vector<std::pair<int, int>> equi_keys;
  // Join residual over the join output; null when the join has none.
  ExprPtr residual;
  // The chain above the join, composed over the join output: its filter
  // conjuncts, then the stage output expressions (empty = identity).
  std::vector<ExprPtr> predicates;
  std::vector<ExprPtr> projections;
};

struct FusedStageSpec {
  // Preorder operator ids the stage covers, matching the operator Builder's
  // numbering: first_op = top chain node, last_op = the (stream) scan. The
  // stage also subsumes the insert operator when reaches_root. A probe
  // stage's range includes the join; the relation side (ids after last_op)
  // stays interpreted.
  int first_op = 0;
  int last_op = 0;
  bool reaches_root = false;

  const LogicalNode* scan = nullptr;  // borrowed from the plan
  SchemaPtr scan_schema;
  int scan_rowtime_index = -1;

  // Stage output = top chain node's output.
  SchemaPtr output_schema;
  int out_rowtime_index = -1;

  // All filter conjuncts in the (stream-prefix) chain, rebased onto the scan
  // schema and constant-folded. Evaluated in order; any false/null drops the
  // record.
  std::vector<ExprPtr> predicates;
  // Output expressions over the scan schema, one per output field of the
  // chain (the stream prefix, for a probe stage). Empty means the identity
  // projection (output row == scan row).
  std::vector<ExprPtr> projections;

  // Scan columns needed to produce the output row (projection inputs; every
  // column for the identity projection) — predicate columns included. A
  // probe stage decodes only what its keys, residual and upper chain use.
  std::vector<bool> referenced;
  // Scan columns referenced by predicates only (a passthrough stage can
  // restrict decoding to these plus the rowtime).
  std::vector<bool> predicate_columns;

  // Set for a fused stream-relation join.
  std::optional<FusedProbeSpec> probe;

  std::string label;  // "fused<opA..opB>"; single-op chains: "fused<opA>"
};

// Extract fused stages from an optimized plan. Walks the plan with the same
// preorder id assignment the operator Builder uses, so stage ids line up
// with "op<k>-" metric ids. With the current policy (the root chain only)
// the result has at most one entry.
std::vector<FusedStageSpec> PlanFusedStages(const LogicalNode& root);

}  // namespace sqs::sql
