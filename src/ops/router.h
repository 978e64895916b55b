// MessageRouter: the DAG of streaming SQL operators instantiated from the
// physical plan inside a SamzaSQL task (paper §4.2: "operator and message
// router generation ... happens during Samza stream task initialization").
// Incoming messages are dispatched by topic to the matching scan operator(s)
// and flow through the operator chain to the stream-insert at the root.
//
// Planning and instantiation are split: MessageRouter::Plan turns an
// optimized plan into an immutable RouterPlan once per job (fused-stage
// planning included), and MessageRouter::Build instantiates one task's
// operators from it. Every task of a job shares the one RouterPlan.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ops/basic.h"
#include "ops/fused.h"
#include "ops/join.h"
#include "ops/operator.h"
#include "ops/window.h"
#include "sql/logical.h"

namespace sqs::ops {

struct RouterConfig {
  std::string output_topic;
  RowSerdePtr output_serde;
  // Serde used for join/window state rows. The paper's implementation used
  // Kryo-style generic serialization here (the 2x join gap, §5.1); pass a
  // ReflectiveRowSerde factory to reproduce, AvroRowSerde for the ablation.
  std::string state_serde = "reflective";  // "reflective" | "avro"
  int64_t grace_ms = 0;
  // Hash-partition output by this column instead of preserving the input
  // partition (-1 = preserve).
  int out_key_index = -1;
  // Compile the root Filter*/Project* chain into one fused stage when it
  // sits on a Scan or on a stream-relation join over a Scan-rooted stream
  // input (sql.fusion, default on; see docs/EXECUTION.md). Stream-stream
  // joins, self-joins, windows and aggregates use the interpreted DAG.
  bool fusion = true;
};

// What every task of a job builds its router from: the optimized plan, the
// router settings and, when the whole plan runs as one fused stage, that
// stage's spec (its borrowed plan pointers stay valid for the RouterPlan's
// lifetime). Immutable once made, so tasks on any thread share it.
struct RouterPlan {
  std::shared_ptr<const sql::LogicalNode> plan;
  RouterConfig config;
  std::optional<sql::FusedStageSpec> fused;
};
using RouterPlanPtr = std::shared_ptr<const RouterPlan>;

class MessageRouter {
 public:
  // Plans `plan` (an optimized logical plan) for instantiation: with
  // config.fusion, runs sql::PlanFusedStages and keeps the stage when it
  // covers the whole plan.
  static RouterPlanPtr Plan(sql::LogicalNodePtr plan, RouterConfig config);

  // Builds one task's operator DAG from a shared plan.
  static Result<std::unique_ptr<MessageRouter>> Build(RouterPlanPtr plan);

  // Store names the plan's stateful operators require, in the same order
  // Build() assigns them. Used by the job config generator (shell side); it
  // runs the same build traversal, so a plan no task could build (e.g. an
  // aggregate without a group window) fails here, at submission.
  static Result<std::vector<std::string>> RequiredStores(const sql::LogicalNode& plan);

  // Binds every operator's metrics and trace scope to ctx.task, then runs
  // each operator's Init (expression compilation, stores).
  Status Init(OperatorContext& ctx);

  // Dispatch a contiguous run of messages, grouping same-topic runs into
  // one SourceOperator::ProcessMessages call (the fused batch path). On
  // error `consumed` is the index of the failing message; everything before
  // it has been fully processed. Topics read by several sources (self-
  // joins) fall back to per-message dispatch to preserve interleaving.
  Status RouteBatch(const IncomingMessage* msgs, size_t count,
                    OperatorContext& ctx, size_t* consumed);

  // The fused terminal stage (with its relation probe, for a fused join),
  // or nullptr when the plan runs interpreted.
  const FusedStageOperator* fused_stage() const { return fused_stage_.get(); }

  // Fire window timers (early-results emission).
  Status OnTimer(OperatorContext& ctx);

  // Pre-checkpoint barrier, forwarded to all operators.
  Status OnCommit(OperatorContext& ctx);

  // Topics this router consumes; relation-backed topics must be configured
  // as bootstrap inputs.
  std::vector<std::string> InputTopics() const;
  std::vector<std::string> BootstrapTopics() const;

  size_t num_operators() const { return operators_.size(); }
  // The shared plan this router was built from.
  const RouterPlan* plan() const { return plan_.get(); }

 private:
  struct SourceBinding {
    std::string topic;
    bool bootstrap = false;
    std::shared_ptr<SourceOperator> source;
  };

  // Fused build: the stage, plus the interpreted relation side of a probe.
  Status BuildFused();
  void BindSource(const std::string& topic, bool bootstrap,
                  std::shared_ptr<SourceOperator> source);
  // Binds built scans (topic, bootstrap flag) as sources.
  void BindScans(const std::vector<std::pair<std::string, bool>>& topics,
                 const std::vector<std::shared_ptr<ScanOperator>>& scans);

  RouterPlanPtr plan_;
  std::vector<OperatorPtr> operators_;  // all, in build order
  std::vector<SourceBinding> sources_;
  std::map<std::string, std::vector<SourceOperator*>> by_topic_;
  std::shared_ptr<FusedStageOperator> fused_stage_;
};

// Serde for a source according to its declared format.
Result<RowSerdePtr> SerdeForFormat(const std::string& format, SchemaPtr schema);

}  // namespace sqs::ops
