#include "core/task.h"

#include "common/flightrec.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace sqs::core {

Result<ops::RouterPlanPtr> SamzaSqlJob::Plan(const Config& config) {
  std::lock_guard<std::mutex> lock(mu_);
  if (plan_) return plan_;

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
  plan_ = ops::MessageRouter::Plan(std::move(plan), std::move(router_config));
  FlightRecorder::Record(FlightEventType::kPlanBuilt, config.Get(cfg::kJobName, "job"),
                         plan_->fused ? "job plan ready (fused)"
                                      : "job plan ready (interpreted)");
  return plan_;
}

Status SamzaSqlTask::Init(TaskContext& context) {
  context_ = &context;
  // Operator/router generation from the job's shared plan.
  SQS_ASSIGN_OR_RETURN(plan, job_->Plan(context.config()));
  SQS_ASSIGN_OR_RETURN(router, ops::MessageRouter::Build(std::move(plan)));
  router_ = std::move(router);
  ops::OperatorContext ctx{context_, nullptr};
  return router_->Init(ctx);
}

Status SamzaSqlTask::Process(const IncomingMessage& message,
                             MessageCollector& collector, TaskCoordinator& coordinator) {
  return ProcessBatch(&message, 1, collector, coordinator, nullptr);
}

Status SamzaSqlTask::ProcessBatch(const IncomingMessage* msgs, size_t count,
                                  MessageCollector& collector, TaskCoordinator&,
                                  size_t* consumed) {
  ops::OperatorContext ctx{context_, &collector};
  return router_->RouteBatch(msgs, count, ctx, consumed);
}

Status SamzaSqlTask::Window(MessageCollector& collector, TaskCoordinator&) {
  ops::OperatorContext ctx{context_, &collector};
  return router_->OnTimer(ctx);
}

Status SamzaSqlTask::OnCommit() {
  ops::OperatorContext ctx{context_, nullptr};
  return router_->OnCommit(ctx);
}

}  // namespace sqs::core
