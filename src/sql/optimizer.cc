#include "sql/optimizer.h"

#include <functional>

#include "sql/planner.h"

namespace sqs::sql {

namespace {

bool HasColumnRef(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef) return true;
  for (const auto& c : e.children) {
    if (HasColumnRef(*c)) return true;
  }
  return false;
}

bool IsFoldable(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kBinary:
    case ExprKind::kUnary:
    case ExprKind::kCase:
    case ExprKind::kCast:
    case ExprKind::kBetween:
    case ExprKind::kIsNull:
    case ExprKind::kIn:
    case ExprKind::kFuncCall:
      for (const auto& c : e.children) {
        if (!IsFoldable(*c)) return false;
      }
      return true;
    default:
      return false;
  }
}

// Rewrite column refs in `e` (resolved indexes) through a projection's
// expressions: index i becomes a clone of project_exprs[i]. Only valid when
// every referenced projection output is itself a plain column ref (checked
// by caller).
ExprPtr SubstituteThroughProject(const Expr& e, const std::vector<ExprPtr>& project_exprs) {
  if (e.kind == ExprKind::kColumnRef) {
    return project_exprs[static_cast<size_t>(e.resolved_index)]->Clone();
  }
  ExprPtr copy = e.Clone();
  for (size_t i = 0; i < copy->children.size(); ++i) {
    copy->children[i] = SubstituteThroughProject(*e.children[i], project_exprs);
  }
  return copy;
}

// Collect the set of input indexes an expression references.
void CollectRefs(const Expr& e, std::vector<int>& refs) {
  if (e.kind == ExprKind::kColumnRef) refs.push_back(e.resolved_index);
  for (const auto& c : e.children) CollectRefs(*c, refs);
}

// Remap column refs by adding `delta` to refs >= `from` (used when moving a
// predicate from the join output scope to the right input's scope).
void ShiftRefs(Expr& e, int from, int delta) {
  if (e.kind == ExprKind::kColumnRef && e.resolved_index >= from) {
    e.resolved_index += delta;
  }
  for (auto& c : e.children) ShiftRefs(*c, from, delta);
}

class Optimizer {
 public:
  explicit Optimizer(OptimizerStats* stats) : stats_(stats) {}

  LogicalNodePtr Run(LogicalNodePtr root) {
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 50) {
      changed = false;
      root = RewriteNode(std::move(root), changed);
    }
    return root;
  }

 private:
  LogicalNodePtr RewriteNode(LogicalNodePtr node, bool& changed) {
    for (auto& input : node->inputs) {
      input = RewriteNode(std::move(input), changed);
    }

    // Constant folding on all attached expressions.
    auto fold = [&](ExprPtr& e) {
      if (e && FoldConstants(*e)) {
        changed = true;
        if (stats_) stats_->constant_folds++;
      }
    };
    fold(node->predicate);
    for (auto& e : node->exprs) fold(e);
    for (auto& e : node->group_exprs) fold(e);
    fold(node->residual);

    if (node->kind == LogicalKind::kFilter) {
      LogicalNodePtr child = node->inputs[0];

      // FilterMerge.
      if (child->kind == LogicalKind::kFilter) {
        auto merged = MakeBinary(BinaryOp::kAnd, node->predicate->Clone(),
                                 child->predicate->Clone());
        merged->resolved_type = FieldType::Bool();
        node->predicate = std::move(merged);
        node->inputs[0] = child->inputs[0];
        changed = true;
        if (stats_) stats_->filters_merged++;
        return node;
      }

      // FilterProjectTranspose: only when every projection output referenced
      // by the predicate is a plain column ref.
      if (child->kind == LogicalKind::kProject) {
        std::vector<int> refs;
        CollectRefs(*node->predicate, refs);
        bool all_simple = true;
        for (int r : refs) {
          if (child->exprs[static_cast<size_t>(r)]->kind != ExprKind::kColumnRef) {
            all_simple = false;
            break;
          }
        }
        if (all_simple) {
          auto new_filter = LogicalNode::Make(LogicalKind::kFilter);
          new_filter->predicate =
              SubstituteThroughProject(*node->predicate, child->exprs);
          new_filter->inputs.push_back(child->inputs[0]);
          new_filter->schema = child->inputs[0]->schema;
          new_filter->rowtime_index = child->inputs[0]->rowtime_index;
          new_filter->is_stream = child->inputs[0]->is_stream;
          child->inputs[0] = new_filter;
          changed = true;
          if (stats_) stats_->filters_pushed_below_project++;
          return child;  // project becomes the subtree root
        }
      }

      // FilterJoinPushdown: conjuncts referencing only one side move below.
      if (child->kind == LogicalKind::kJoin) {
        const int left_arity =
            static_cast<int>(child->inputs[0]->schema->num_fields());
        std::vector<ExprPtr> keep, left_parts, right_parts;
        for (ExprPtr& conj : SplitConjuncts(*node->predicate)) {
          std::vector<int> refs;
          CollectRefs(*conj, refs);
          bool any_left = false, any_right = false;
          for (int r : refs) {
            (r < left_arity ? any_left : any_right) = true;
          }
          // The relation side of a stream-relation join is materialized by
          // the join operator from its bootstrap stream; a filter cannot sit
          // between them, so right-side pushdown only applies to
          // stream-stream joins.
          const bool right_pushable = child->join_type == JoinType::kStreamStream;
          if (any_left && !any_right && !refs.empty()) {
            left_parts.push_back(std::move(conj));
          } else if (any_right && !any_left && right_pushable) {
            ShiftRefs(*conj, left_arity, -left_arity);
            right_parts.push_back(std::move(conj));
          } else {
            keep.push_back(std::move(conj));
          }
        }
        if (!left_parts.empty() || !right_parts.empty()) {
          auto add_filter = [&](LogicalNodePtr input, std::vector<ExprPtr> parts) {
            auto f = LogicalNode::Make(LogicalKind::kFilter);
            f->predicate = CombineConjuncts(std::move(parts));
            f->inputs.push_back(input);
            f->schema = input->schema;
            f->rowtime_index = input->rowtime_index;
            f->is_stream = input->is_stream;
            return f;
          };
          if (!left_parts.empty()) {
            child->inputs[0] = add_filter(child->inputs[0], std::move(left_parts));
          }
          if (!right_parts.empty()) {
            child->inputs[1] = add_filter(child->inputs[1], std::move(right_parts));
          }
          changed = true;
          if (stats_) stats_->filters_pushed_into_join++;
          if (keep.empty()) return child;
          node->predicate = CombineConjuncts(std::move(keep));
          return node;
        }
      }
    }

    if (node->kind == LogicalKind::kProject) {
      LogicalNodePtr child = node->inputs[0];

      // ProjectMerge.
      if (child->kind == LogicalKind::kProject) {
        bool all_simple_refs = true;
        std::vector<int> refs;
        for (const auto& e : node->exprs) CollectRefs(*e, refs);
        // Substitution duplicates child expressions; only do it when each
        // referenced child output is a column ref or literal (no recompute).
        for (int r : refs) {
          ExprKind k = child->exprs[static_cast<size_t>(r)]->kind;
          if (k != ExprKind::kColumnRef && k != ExprKind::kLiteral) {
            all_simple_refs = false;
            break;
          }
        }
        if (all_simple_refs) {
          for (auto& e : node->exprs) {
            e = SubstituteThroughProject(*e, child->exprs);
          }
          node->inputs[0] = child->inputs[0];
          changed = true;
          if (stats_) stats_->projects_merged++;
          return node;
        }
      }

      // RemoveTrivialProject: identity over the input (same arity, each
      // expr a column ref to its own position, names unchanged).
      if (node->exprs.size() == child->schema->num_fields()) {
        bool identity = true;
        for (size_t i = 0; i < node->exprs.size(); ++i) {
          const Expr& e = *node->exprs[i];
          if (e.kind != ExprKind::kColumnRef ||
              e.resolved_index != static_cast<int>(i) ||
              node->schema->field(i).name != child->schema->field(i).name) {
            identity = false;
            break;
          }
        }
        if (identity) {
          changed = true;
          if (stats_) stats_->trivial_projects_removed++;
          // Preserve top-level streamness on the new root.
          child->is_stream = node->is_stream;
          return child;
        }
      }
    }

    return node;
  }

  OptimizerStats* stats_;
};

}  // namespace

bool FoldConstants(Expr& expr) {
  bool changed = false;
  for (auto& child : expr.children) {
    if (FoldConstants(*child)) changed = true;
  }
  if (expr.kind == ExprKind::kLiteral) return changed;
  if (IsFoldable(expr) && !HasColumnRef(expr)) {
    Value v = EvalExpr(expr, {});
    FieldType type = expr.resolved_type;
    expr.children.clear();
    expr.kind = ExprKind::kLiteral;
    expr.literal = std::move(v);
    expr.resolved_type = type;
    return true;
  }
  return changed;
}

LogicalNodePtr Optimize(LogicalNodePtr root, OptimizerStats* stats) {
  return Optimizer(stats).Run(std::move(root));
}

// ---------------------------------------------------------------------------
// Fused-stage extraction
// ---------------------------------------------------------------------------

namespace {

// A column ref over the scan schema, for seeding the identity bindings.
ExprPtr ScanColumnRef(const Schema& schema, int index) {
  ExprPtr ref = MakeColumnRef("", schema.field(index).name);
  ref->resolved_index = index;
  ref->resolved_type = schema.field(index).type;
  return ref;
}

std::vector<const Expr*> BindingPtrs(const std::vector<ExprPtr>& exprs) {
  std::vector<const Expr*> ptrs;
  ptrs.reserve(exprs.size());
  for (const auto& e : exprs) ptrs.push_back(e.get());
  return ptrs;
}

bool IsIdentityOverScan(const std::vector<ExprPtr>& exprs, size_t scan_fields) {
  if (exprs.size() != scan_fields) return false;
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (exprs[i]->kind != ExprKind::kColumnRef ||
        exprs[i]->resolved_index != static_cast<int>(i)) {
      return false;
    }
  }
  return true;
}

void MarkColumns(const Expr& expr, std::vector<bool>& bits) {
  std::vector<int> indices;
  CollectColumnIndices(expr, indices);
  for (int i : indices) {
    if (i >= 0 && static_cast<size_t>(i) < bits.size()) bits[i] = true;
  }
}

// A Filter*/Project* chain (top node first) composed over a base schema:
// every filter conjunct and the chain's output expressions, rebased onto the
// base and constant-folded.
struct ComposedChain {
  std::vector<ExprPtr> predicates;
  std::vector<ExprPtr> projections;  // empty = identity over the base
};

ComposedChain ComposeChain(const std::vector<const LogicalNode*>& chain,
                           const Schema& base) {
  const size_t n = base.num_fields();
  // Current intermediate schema expressed over the base; starts as the
  // identity and composes upward through the chain.
  std::vector<ExprPtr> current;
  current.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    current.push_back(ScanColumnRef(base, static_cast<int>(i)));
  }
  ComposedChain out;
  bool projected = false;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const LogicalNode& node = **it;
    if (node.kind == LogicalKind::kFilter) {
      ExprPtr rebased = SubstituteColumns(*node.predicate, BindingPtrs(current));
      for (ExprPtr& conjunct : SplitConjuncts(*rebased)) {
        FoldConstants(*conjunct);
        out.predicates.push_back(std::move(conjunct));
      }
    } else {  // kProject
      std::vector<ExprPtr> next;
      next.reserve(node.exprs.size());
      for (const ExprPtr& e : node.exprs) {
        ExprPtr rebased = SubstituteColumns(*e, BindingPtrs(current));
        FoldConstants(*rebased);
        next.push_back(std::move(rebased));
      }
      current = std::move(next);
      projected = true;
    }
  }
  if (projected && !IsIdentityOverScan(current, n)) out.projections = std::move(current);
  return out;
}

// Follows Filter/Project inputs from `node` down; fills `chain` (top first)
// and returns the first other node.
const LogicalNode* CollectChain(const LogicalNode* node,
                                std::vector<const LogicalNode*>& chain) {
  while (node->kind == LogicalKind::kFilter || node->kind == LogicalKind::kProject) {
    chain.push_back(node);
    node = node->inputs[0].get();
  }
  return node;
}

std::string StageLabel(int first_op, int last_op) {
  std::string label = "fused<op" + std::to_string(first_op);
  if (last_op != first_op) label += "..op" + std::to_string(last_op);
  return label + ">";
}

// The stage for a Scan <- Filter*/Project* chain. `needed` (when non-null)
// names the chain outputs the consumer uses; the rest are never computed.
FusedStageSpec BuildFusedSpec(int first_op,
                              const std::vector<const LogicalNode*>& chain,
                              const LogicalNode& scan,
                              const std::vector<bool>* needed = nullptr) {
  FusedStageSpec spec;
  spec.first_op = first_op;
  spec.last_op = first_op + static_cast<int>(chain.size());
  spec.reaches_root = true;
  spec.scan = &scan;
  spec.scan_schema = scan.schema;
  spec.scan_rowtime_index = scan.rowtime_index;
  const LogicalNode& top = chain.empty() ? scan : *chain.front();
  spec.output_schema = top.schema;
  spec.out_rowtime_index = top.rowtime_index;

  const size_t n = scan.schema->num_fields();
  ComposedChain composed = ComposeChain(chain, *scan.schema);
  spec.predicates = std::move(composed.predicates);
  spec.projections = std::move(composed.projections);

  spec.referenced.assign(n, false);
  spec.predicate_columns.assign(n, false);
  for (const ExprPtr& p : spec.predicates) {
    MarkColumns(*p, spec.referenced);
    MarkColumns(*p, spec.predicate_columns);
  }
  if (!spec.projections.empty()) {
    for (size_t i = 0; i < spec.projections.size(); ++i) {
      ExprPtr& e = spec.projections[i];
      if (needed != nullptr && !(*needed)[i]) {
        // Unused by the consumer: a typed NULL instead of an evaluation.
        FieldType type = e->resolved_type;
        e = MakeLiteral(Value::Null());
        e->resolved_type = type;
        continue;
      }
      MarkColumns(*e, spec.referenced);
    }
  } else if (needed != nullptr) {
    // Identity: the row is the scan row, undecoded columns stay NULL.
    for (size_t i = 0; i < n; ++i) {
      if ((*needed)[i]) spec.referenced[i] = true;
    }
  } else {
    // Identity projection: every scan column reaches the output.
    spec.referenced.assign(n, true);
  }
  if (spec.scan_rowtime_index >= 0) spec.referenced[spec.scan_rowtime_index] = true;
  spec.label = StageLabel(spec.first_op, spec.last_op);
  return spec;
}

// The stage for `upper` (top first) over the stream-relation join `join`,
// whose stream input is `lower` over `scan`; `first_op` is the id of the
// top node. Ids: upper chain, join, lower chain, scan (= last_op), then
// the relation side.
FusedStageSpec BuildProbeSpec(int first_op,
                              const std::vector<const LogicalNode*>& upper,
                              const LogicalNode& join,
                              const std::vector<const LogicalNode*>& lower,
                              const LogicalNode& scan) {
  const int join_op = first_op + static_cast<int>(upper.size());
  FusedProbeSpec probe;
  probe.store_prefix = "op" + std::to_string(join_op);
  probe.relation = join.inputs[1].get();
  probe.relation_schema = join.inputs[1]->schema;
  probe.prefix_arity = join.inputs[0]->schema->num_fields();
  probe.equi_keys = join.equi_keys;
  if (join.residual) {
    probe.residual = join.residual->Clone();
    FoldConstants(*probe.residual);
  }
  ComposedChain composed = ComposeChain(upper, *join.schema);
  probe.predicates = std::move(composed.predicates);
  probe.projections = std::move(composed.projections);

  // Join-output columns the keys, residual and upper chain read.
  std::vector<bool> used(join.schema->num_fields(), probe.projections.empty());
  for (const ExprPtr& e : probe.projections) MarkColumns(*e, used);
  for (const ExprPtr& p : probe.predicates) MarkColumns(*p, used);
  if (probe.residual) MarkColumns(*probe.residual, used);
  std::vector<bool> needed(used.begin(), used.begin() + probe.prefix_arity);
  for (const auto& [l, r] : probe.equi_keys) {
    (void)r;
    needed[static_cast<size_t>(l)] = true;
  }

  FusedStageSpec spec = BuildFusedSpec(join_op + 1, lower, scan, &needed);
  spec.first_op = first_op;
  const LogicalNode& top = upper.empty() ? join : *upper.front();
  spec.output_schema = top.schema;
  spec.out_rowtime_index = top.rowtime_index;
  spec.probe = std::move(probe);
  spec.label = StageLabel(spec.first_op, spec.last_op);
  return spec;
}

// Mirrors ops::Builder's preorder id assignment (parent before children,
// join inputs left then right) so spec ids match "op<k>-" metric ids.
void WalkForFusion(const LogicalNode& node, bool at_root, int& next_id,
                   std::vector<FusedStageSpec>& specs) {
  const int id = next_id++;
  if (at_root) {
    std::vector<const LogicalNode*> chain;
    const LogicalNode* cur = CollectChain(&node, chain);
    if (cur->kind == LogicalKind::kScan) {
      specs.push_back(BuildFusedSpec(id, chain, *cur));
      return;
    }
    if (cur->kind == LogicalKind::kJoin &&
        cur->join_type == JoinType::kStreamRelation) {
      std::vector<const LogicalNode*> lower;
      const LogicalNode* scan = CollectChain(cur->inputs[0].get(), lower);
      std::vector<const LogicalNode*> relation_chain;
      const LogicalNode* relation =
          CollectChain(cur->inputs[1].get(), relation_chain);
      // The stream input must be a real stream, and a topic feeding both
      // sides (self-join) keeps the interpreted per-message fan-out order.
      if (scan->kind == LogicalKind::kScan && scan->source.is_stream() &&
          relation->kind == LogicalKind::kScan &&
          relation->source.topic != scan->source.topic) {
        specs.push_back(BuildProbeSpec(id, chain, *cur, lower, *scan));
        return;
      }
    }
  }
  for (const auto& input : node.inputs) {
    WalkForFusion(*input, false, next_id, specs);
  }
}

}  // namespace

std::vector<FusedStageSpec> PlanFusedStages(const LogicalNode& root) {
  std::vector<FusedStageSpec> specs;
  int next_id = 0;
  WalkForFusion(root, true, next_id, specs);
  return specs;
}

}  // namespace sqs::sql
