#include "ops/router.h"

#include <algorithm>

#include "common/flightrec.h"
#include "serde/json.h"

namespace sqs::ops {

Result<RowSerdePtr> SerdeForFormat(const std::string& format, SchemaPtr schema) {
  if (format == "avro" || format.empty()) {
    return RowSerdePtr(std::make_shared<AvroRowSerde>(std::move(schema)));
  }
  if (format == "json") {
    return RowSerdePtr(std::make_shared<JsonRowSerde>(std::move(schema)));
  }
  if (format == "reflective") {
    return RowSerdePtr(std::make_shared<ReflectiveRowSerde>(std::move(schema)));
  }
  return Status::InvalidArgument("unknown message format: " + format);
}

namespace {

// Shared plan traversal so Build() and RequiredStores() assign identical
// store prefixes (operator ids are preorder positions).
class Builder {
 public:
  explicit Builder(const RouterConfig& config,
                   std::vector<std::string>* stores_out = nullptr)
      : config_(config), stores_out_(stores_out) {}

  Result<OperatorPtr> BuildNode(const sql::LogicalNode& node);

  // Registers a built operator under its plan-unique metric id
  // ("op<preorder-id>-<name>") so per-operator metrics from different plan
  // nodes of the same kind stay distinguishable.
  void Register(const std::string& prefix, const OperatorPtr& op) {
    op->set_metric_id(prefix + "-" + op->name());
    operators_.push_back(op);
  }

  int next_id() const { return next_id_; }
  // Continue the preorder numbering at `id` (building one subtree of a plan
  // whose earlier ids a fused stage took).
  void set_next_id(int id) { next_id_ = id; }

  Result<RowSerdePtr> StateSerde(SchemaPtr schema) const {
    return SerdeForFormat(config_.state_serde, std::move(schema));
  }

  std::vector<OperatorPtr> operators_;
  std::vector<std::pair<std::string, bool>> scan_topics_;  // topic, bootstrap
  std::vector<std::shared_ptr<ScanOperator>> scan_ops_;

 private:
  void AddStores(std::vector<std::string> stores) {
    if (stores_out_ == nullptr) return;
    for (auto& s : stores) stores_out_->push_back(std::move(s));
  }

  const RouterConfig& config_;
  std::vector<std::string>* stores_out_;  // set by RequiredStores
  int next_id_ = 0;
};

Result<OperatorPtr> Builder::BuildNode(const sql::LogicalNode& node) {
  const int id = next_id_++;
  const std::string prefix = "op" + std::to_string(id);

  switch (node.kind) {
    case sql::LogicalKind::kScan: {
      SQS_ASSIGN_OR_RETURN(serde,
                           SerdeForFormat(node.source.format, node.source.schema));
      int rowtime = -1;
      if (!node.source.rowtime_column.empty()) {
        auto idx = node.source.schema->FieldIndex(node.source.rowtime_column);
        if (idx) rowtime = static_cast<int>(*idx);
      }
      auto scan = std::make_shared<ScanOperator>(serde, node.source.schema, rowtime);
      scan_ops_.push_back(scan);
      scan_topics_.emplace_back(node.source.topic, !node.source.is_stream());
      Register(prefix, scan);
      return OperatorPtr(scan);
    }

    case sql::LogicalKind::kFilter: {
      SQS_ASSIGN_OR_RETURN(child, BuildNode(*node.inputs[0]));
      auto op = std::make_shared<FilterOperator>(node.predicate->Clone());
      child->SetNext(op, 0);
      Register(prefix, op);
      return OperatorPtr(op);
    }

    case sql::LogicalKind::kProject: {
      SQS_ASSIGN_OR_RETURN(child, BuildNode(*node.inputs[0]));
      std::vector<sql::ExprPtr> exprs;
      exprs.reserve(node.exprs.size());
      for (const auto& e : node.exprs) exprs.push_back(e->Clone());
      auto op = std::make_shared<ProjectOperator>(std::move(exprs), node.rowtime_index);
      child->SetNext(op, 0);
      Register(prefix, op);
      return OperatorPtr(op);
    }

    case sql::LogicalKind::kSlidingWindow: {
      SQS_ASSIGN_OR_RETURN(child, BuildNode(*node.inputs[0]));
      AddStores(SlidingWindowOperator::RequiredStores(prefix, node.window_calls.size()));
      std::vector<sql::WindowCallSpec> calls;
      for (const auto& c : node.window_calls) calls.push_back(c.Clone());
      auto op = std::make_shared<SlidingWindowOperator>(std::move(calls), prefix);
      child->SetNext(op, 0);
      Register(prefix, op);
      return OperatorPtr(op);
    }

    case sql::LogicalKind::kAggregate: {
      SQS_ASSIGN_OR_RETURN(child, BuildNode(*node.inputs[0]));
      AddStores(WindowAggregateOperator::RequiredStores(prefix));
      if (node.group_window.type == sql::GroupWindowSpec::Type::kNone) {
        return Status::Unsupported(
            "streaming aggregate requires a group window (TUMBLE/HOP/FLOOR)");
      }
      std::vector<sql::ExprPtr> groups;
      for (const auto& g : node.group_exprs) groups.push_back(g->Clone());
      std::vector<sql::AggCallSpec> aggs;
      for (const auto& a : node.aggs) aggs.push_back(a.Clone());
      auto op = std::make_shared<WindowAggregateOperator>(
          std::move(groups), node.group_window, std::move(aggs), prefix,
          config_.grace_ms);
      child->SetNext(op, 0);
      Register(prefix, op);
      return OperatorPtr(op);
    }

    case sql::LogicalKind::kJoin: {
      SQS_ASSIGN_OR_RETURN(left, BuildNode(*node.inputs[0]));
      SQS_ASSIGN_OR_RETURN(right, BuildNode(*node.inputs[1]));
      OperatorPtr op;
      if (node.join_type == sql::JoinType::kStreamRelation) {
        AddStores(StreamTableJoinOperator::RequiredStores(prefix));
        SQS_ASSIGN_OR_RETURN(serde, StateSerde(node.inputs[1]->schema));
        op = std::make_shared<StreamTableJoinOperator>(
            node.equi_keys, node.residual ? node.residual->Clone() : nullptr, serde,
            prefix);
      } else {
        AddStores(StreamStreamJoinOperator::RequiredStores(prefix));
        SQS_ASSIGN_OR_RETURN(left_serde, StateSerde(node.inputs[0]->schema));
        SQS_ASSIGN_OR_RETURN(right_serde, StateSerde(node.inputs[1]->schema));
        op = std::make_shared<StreamStreamJoinOperator>(
            node.equi_keys, node.left_ts_index, node.right_ts_index,
            node.window_before_ms, node.window_after_ms,
            node.residual ? node.residual->Clone() : nullptr, left_serde, right_serde,
            prefix, config_.grace_ms);
      }
      left->SetNext(op, 0);
      right->SetNext(op, 1);
      Register(prefix, op);
      return op;
    }
  }
  return Status::Internal("unhandled logical node in router build");
}

}  // namespace

RouterPlanPtr MessageRouter::Plan(sql::LogicalNodePtr plan, RouterConfig config) {
  auto out = std::make_shared<RouterPlan>();
  // Fusion: when the plan's root chain sits on a Scan, or on a stream-
  // relation join over a Scan-rooted stream input, the interpreted stream
  // path (scan -> ... -> insert) is replaced with a single fused stage that
  // owns the serde boundary on both sides.
  if (config.fusion) {
    std::vector<sql::FusedStageSpec> specs = sql::PlanFusedStages(*plan);
    if (specs.size() == 1 && specs[0].first_op == 0 && specs[0].reaches_root) {
      out->fused = std::move(specs[0]);
    }
  }
  out->plan = std::move(plan);
  out->config = std::move(config);
  return out;
}

Result<std::unique_ptr<MessageRouter>> MessageRouter::Build(RouterPlanPtr plan) {
  auto router = std::make_unique<MessageRouter>();
  router->plan_ = std::move(plan);
  if (router->plan_->fused) {
    SQS_RETURN_IF_ERROR(router->BuildFused());
    return router;
  }

  const RouterConfig& config = router->plan_->config;
  Builder builder(config);
  SQS_ASSIGN_OR_RETURN(root, builder.BuildNode(*router->plan_->plan));

  auto insert = std::make_shared<InsertOperator>(
      config.output_topic, config.output_serde, config.out_key_index);
  root->SetNext(insert, 0);
  builder.Register("op" + std::to_string(builder.next_id()), insert);

  router->operators_ = std::move(builder.operators_);
  FlightRecorder::Record(FlightEventType::kPlanBuilt, config.output_topic,
                         "interpreted", static_cast<int64_t>(router->operators_.size()));
  router->BindScans(builder.scan_topics_, builder.scan_ops_);
  return router;
}

Status MessageRouter::BuildFused() {
  const RouterConfig& config = plan_->config;
  // The stage reads its spec in place: the alias keeps the shared plan alive.
  std::shared_ptr<const sql::FusedStageSpec> spec(plan_, &*plan_->fused);
  const sql::SourceDef& source = spec->scan->source;
  SQS_ASSIGN_OR_RETURN(input_serde, SerdeForFormat(source.format, source.schema));

  // A probe stage reads the relation store its join fills: only the
  // relation side is built as operators, numbered after the stage's range,
  // and its scan feeds the side-1 upsert of the join operator.
  Builder builder(config);
  RowSerdePtr relation_serde;
  if (spec->probe) {
    const sql::FusedProbeSpec& probe = *spec->probe;
    SQS_ASSIGN_OR_RETURN(state_serde, builder.StateSerde(probe.relation_schema));
    relation_serde = state_serde;
    builder.set_next_id(spec->last_op + 1);
    SQS_ASSIGN_OR_RETURN(relation, builder.BuildNode(*probe.relation));
    auto join = std::make_shared<StreamTableJoinOperator>(
        probe.equi_keys, nullptr, relation_serde, probe.store_prefix);
    relation->SetNext(join, 1);
    builder.Register(probe.store_prefix, join);
  }

  auto fused = std::make_shared<FusedStageOperator>(
      spec, input_serde, config.output_topic, config.output_serde,
      config.out_key_index, relation_serde);
  fused->set_metric_id(spec->label);
  FlightRecorder::Record(FlightEventType::kPlanBuilt, source.topic, spec->label);
  operators_ = std::move(builder.operators_);
  operators_.push_back(fused);
  fused_stage_ = fused;
  BindSource(source.topic, !source.is_stream(), fused);
  BindScans(builder.scan_topics_, builder.scan_ops_);
  return Status::Ok();
}

void MessageRouter::BindSource(const std::string& topic, bool bootstrap,
                               std::shared_ptr<SourceOperator> source) {
  by_topic_[topic].push_back(source.get());
  sources_.push_back(SourceBinding{topic, bootstrap, std::move(source)});
}

void MessageRouter::BindScans(
    const std::vector<std::pair<std::string, bool>>& topics,
    const std::vector<std::shared_ptr<ScanOperator>>& scans) {
  for (size_t i = 0; i < scans.size(); ++i) {
    BindSource(topics[i].first, topics[i].second, scans[i]);
  }
}

Result<std::vector<std::string>> MessageRouter::RequiredStores(
    const sql::LogicalNode& plan) {
  std::vector<std::string> stores;
  const RouterConfig defaults;
  Builder builder(defaults, &stores);
  SQS_RETURN_IF_ERROR(builder.BuildNode(plan).status());
  return stores;
}

Status MessageRouter::Init(OperatorContext& ctx) {
  for (auto& op : operators_) {
    op->BindMetrics(*ctx.task);
    SQS_RETURN_IF_ERROR(op->Init(ctx));
  }
  return Status::Ok();
}

Status MessageRouter::RouteBatch(const IncomingMessage* msgs, size_t count,
                                 OperatorContext& ctx, size_t* consumed) {
  size_t done = 0;
  while (done < count) {
    const std::string& topic = msgs[done].origin.topic;
    size_t end = done + 1;
    while (end < count && msgs[end].origin.topic == topic) ++end;
    auto it = by_topic_.find(topic);
    if (it == by_topic_.end()) {
      if (consumed) *consumed = done;
      return Status::Internal("no scan for topic " + topic);
    }
    if (it->second.size() == 1) {
      size_t run_consumed = 0;
      Status st = it->second[0]->ProcessMessages(msgs + done, end - done, ctx,
                                                 &run_consumed);
      done += run_consumed;
      if (!st.ok()) {
        if (consumed) *consumed = done;
        return st;
      }
    } else {
      // A topic feeding several sources (self-join): keep the per-message
      // fan-out order every source sees on the per-message path.
      for (size_t i = done; i < end; ++i) {
        for (SourceOperator* source : it->second) {
          Status st = source->ProcessMessage(msgs[i], ctx);
          if (!st.ok()) {
            if (consumed) *consumed = i;
            return st;
          }
        }
      }
      done = end;
    }
  }
  if (consumed) *consumed = count;
  return Status::Ok();
}

Status MessageRouter::OnTimer(OperatorContext& ctx) {
  for (auto& op : operators_) {
    SQS_RETURN_IF_ERROR(op->OnTimer(ctx));
  }
  return Status::Ok();
}

Status MessageRouter::OnCommit(OperatorContext& ctx) {
  for (auto& op : operators_) {
    SQS_RETURN_IF_ERROR(op->OnCommit(ctx));
  }
  return Status::Ok();
}

std::vector<std::string> MessageRouter::InputTopics() const {
  std::vector<std::string> out;
  for (const auto& s : sources_) {
    if (std::find(out.begin(), out.end(), s.topic) == out.end()) out.push_back(s.topic);
  }
  return out;
}

std::vector<std::string> MessageRouter::BootstrapTopics() const {
  std::vector<std::string> out;
  for (const auto& s : sources_) {
    if (s.bootstrap &&
        std::find(out.begin(), out.end(), s.topic) == out.end()) {
      out.push_back(s.topic);
    }
  }
  return out;
}

}  // namespace sqs::ops
