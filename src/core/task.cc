#include "core/task.h"

#include "common/flightrec.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace sqs::core {

Status SamzaSqlTask::Init(TaskContext& context) {
  context_ = &context;
  const Config& config = context.config();

  // Task-side planning inputs come from ZooKeeper (paper §4.2: "SamzaSQL
  // tasks then read actual values for configurations from Zookeeper").
  std::string zk_prefix = config.Get(sqlcfg::kZkPrefix);
  if (zk_prefix.empty()) return Status::InvalidArgument("samzasql.zk.prefix not set");
  SQS_ASSIGN_OR_RETURN(sql_text, env_->zk->Get(zk_prefix + "/sql"));
  SQS_ASSIGN_OR_RETURN(model_json, env_->zk->Get(zk_prefix + "/model"));
  SQS_ASSIGN_OR_RETURN(views_script, env_->zk->Get(zk_prefix + "/views"));

  // Rebuild the catalog from the model + view definitions.
  auto catalog = std::make_shared<sql::Catalog>();
  SQS_RETURN_IF_ERROR(catalog->LoadJsonModel(model_json, *env_->registry));
  if (!views_script.empty()) {
    SQS_ASSIGN_OR_RETURN(views, sql::ParseScript(views_script));
    for (auto& stmt : views) {
      if (!stmt.create_view) {
        return Status::Internal("non-view statement in view script");
      }
      SQS_RETURN_IF_ERROR(catalog->RegisterView(stmt.create_view->name,
                                                stmt.create_view->column_names,
                                                std::move(stmt.create_view->select)));
    }
  }

  // Re-plan (the second planning pass of the paper's two-step scheme).
  SQS_ASSIGN_OR_RETURN(stmt, sql::ParseStatement(sql_text));
  const sql::SelectStmt* select = nullptr;
  if (stmt.select) {
    select = stmt.select.get();
  } else if (stmt.insert) {
    select = stmt.insert->select.get();
  } else {
    return Status::InvalidArgument("task query must be SELECT or INSERT");
  }
  sql::QueryPlanner planner(catalog);
  SQS_ASSIGN_OR_RETURN(plan, planner.Plan(*select));
  plan = sql::Optimize(plan);

  // Operator/router generation with compiled expressions.
  ops::RouterConfig router_config;
  router_config.output_topic = config.Get(sqlcfg::kOutputTopic);
  if (router_config.output_topic.empty()) {
    return Status::InvalidArgument("samzasql.output.topic not set");
  }
  SQS_ASSIGN_OR_RETURN(out_schema,
                       Schema::ParseCanonical(config.Get(sqlcfg::kOutputSchema)));
  SQS_ASSIGN_OR_RETURN(out_serde, ops::SerdeForFormat(
                                      config.Get(sqlcfg::kOutputFormat, "avro"),
                                      out_schema));
  router_config.output_serde = out_serde;
  router_config.state_serde = config.Get(sqlcfg::kStateSerde, "reflective");
  router_config.grace_ms = config.GetInt(sqlcfg::kGraceMs, 0);
  router_config.out_key_index =
      static_cast<int>(config.GetInt(sqlcfg::kOutputKeyIndex, -1));
  router_config.fusion = sqlcfg::FusionEnabled(config);

  SQS_ASSIGN_OR_RETURN(router, ops::MessageRouter::Build(*plan, router_config));
  router_ = std::move(router);
  FlightRecorder::Record(
      FlightEventType::kPlanBuilt, context.task_name(),
      router_->fused_stage() != nullptr ? "task plan ready (fused)"
                                        : "task plan ready (interpreted)");

  ops::OperatorContext op_context;
  op_context.task = context_;
  return router_->Init(op_context);
}

Status SamzaSqlTask::Process(const IncomingMessage& message,
                             MessageCollector& collector, TaskCoordinator&) {
  ops::OperatorContext op_context;
  op_context.task = context_;
  op_context.collector = &collector;
  return router_->RouteBatch(&message, 1, op_context, nullptr);
}

Status SamzaSqlTask::ProcessBatch(const IncomingMessage* msgs, size_t count,
                                  MessageCollector& collector, TaskCoordinator&,
                                  size_t* consumed) {
  ops::OperatorContext op_context;
  op_context.task = context_;
  op_context.collector = &collector;
  return router_->RouteBatch(msgs, count, op_context, consumed);
}

Status SamzaSqlTask::Window(MessageCollector& collector, TaskCoordinator&) {
  ops::OperatorContext op_context;
  op_context.task = context_;
  op_context.collector = &collector;
  return router_->OnTimer(op_context);
}

Status SamzaSqlTask::OnCommit() {
  ops::OperatorContext op_context;
  op_context.task = context_;
  return router_->OnCommit(op_context);
}

}  // namespace sqs::core
