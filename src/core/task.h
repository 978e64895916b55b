// SamzaSqlTask: the generated stream task that executes a streaming SQL
// query (paper §2: "A SamzaSQL query is a Samza job with SamzaSQL specific
// stream task implementation"). The paper's task-side half of two-step
// planning (§4.2) is planned once per job on the task side: the first of a
// job's tasks to start fetches the SQL text, catalog model and view
// definitions from ZooKeeper and re-runs parsing/validation/planning/
// optimization and fused-stage planning into an immutable plan that its
// SamzaSqlJob keeps. Every task of the job (supervisor restarts included)
// builds its operator DAG (message router) from that one plan, binds stores,
// collector and metrics, and compiles its expressions.
#pragma once

#include <memory>
#include <mutex>

#include "core/environment.h"
#include "ops/router.h"
#include "task/api.h"

namespace sqs::core {

// One streaming SQL job's task-side plan, shared by all of its tasks: the
// job's task factory, which the executor hands to the job's JobRunner by
// value, holds it, so it lives exactly as long as the runner.
class SamzaSqlJob {
 public:
  explicit SamzaSqlJob(EnvironmentPtr env) : env_(std::move(env)) {}

  // The job's plan, compiled on the first call from the ZooKeeper prefix and
  // output settings in `config`, then returned as is. Thread-safe; a failed
  // compile is not kept, so the next task retries it.
  Result<ops::RouterPlanPtr> Plan(const Config& config);

 private:
  EnvironmentPtr env_;
  std::mutex mu_;
  ops::RouterPlanPtr plan_;
};

class SamzaSqlTask : public StreamTask {
 public:
  explicit SamzaSqlTask(std::shared_ptr<SamzaSqlJob> job) : job_(std::move(job)) {}

  Status Init(TaskContext& context) override;
  Status Process(const IncomingMessage& message, MessageCollector& collector,
                 TaskCoordinator& coordinator) override;
  // Batch entry point: routes contiguous same-topic runs through one
  // SourceOperator::ProcessMessages call (fused stages amortize the whole
  // run; interpreted plans fall back to the per-message loop).
  Status ProcessBatch(const IncomingMessage* msgs, size_t count,
                      MessageCollector& collector, TaskCoordinator& coordinator,
                      size_t* consumed) override;
  Status Window(MessageCollector& collector, TaskCoordinator& coordinator) override;
  Status OnCommit() override;

  const ops::MessageRouter* router() const { return router_.get(); }

 private:
  std::shared_ptr<SamzaSqlJob> job_;
  TaskContext* context_ = nullptr;
  std::unique_ptr<ops::MessageRouter> router_;
};

}  // namespace sqs::core
