// QueryExecutor: the shell-side half of SamzaSQL (paper §4.1–4.2, the
// JDBC-driver + query-executor role). For each statement it:
//  - CREATE VIEW: validates and registers the view in the catalog;
//  - EXPLAIN: returns the optimized plan as text;
//  - SELECT (no STREAM): runs the query against stream history / relation
//    snapshots with the reference evaluator and returns rows (§3.3);
//  - SELECT STREAM / INSERT INTO ... SELECT STREAM: plans the query,
//    generates the Samza job configuration (stores, inputs, bootstrap
//    inputs, serdes), stashes the SQL + catalog model + views in ZooKeeper,
//    and submits a JobRunner — the shell-side half of two-step planning.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/environment.h"
#include "http/monitor.h"
#include "sql/batch_eval.h"
#include "sql/planner.h"
#include "task/runner.h"

namespace sqs::core {

class QueryExecutor {
 public:
  // `job_defaults` seeds every generated job config (container count,
  // commit interval, state serde choice, ...).
  explicit QueryExecutor(EnvironmentPtr env, Config job_defaults = Config());
  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  struct ExecutionResult {
    enum class Kind { kViewCreated, kExplained, kJobSubmitted, kRows };
    Kind kind = Kind::kRows;
    std::string text;          // explain output / informational message
    std::vector<Row> rows;     // batch query results
    SchemaPtr schema;          // output schema (batch and streaming)
    std::string output_topic;  // streaming job output
    int job_index = -1;        // index into job(i) for streaming queries
  };

  Result<ExecutionResult> Execute(const std::string& statement_sql);

  // Executes a ';'-separated script, returning one result per statement.
  Result<std::vector<ExecutionResult>> ExecuteScript(const std::string& script);

  // Drive all submitted jobs until globally quiescent (handles query
  // pipelines chained through intermediate topics): containers of all jobs
  // run on one JobRunner::RunPipeline pool of executor.threads workers from
  // the job defaults (0 = one per container). A negative count is this
  // call's error.
  Result<int64_t> RunJobsUntilQuiescent();

  JobRunner* job(int index) {
    return index >= 0 && index < static_cast<int>(jobs_.size()) ? jobs_[index].get()
                                                                : nullptr;
  }
  size_t num_jobs() const { return jobs_.size(); }

  // The monitoring surface over this executor's jobs: Prometheus /metrics,
  // health/readiness, history ring, alerts. Always constructed; its HTTP
  // endpoint only listens when `monitor.enable` is set in the job defaults.
  MonitorServer& monitor() { return *monitor_; }

  // Snapshot of every submitted job for the monitor (thread-safe with
  // respect to concurrent SubmitStreamingJob calls).
  std::vector<MonitorJobView> CollectJobViews() const;

  // Materialize the contents of an output topic as rows (uses the schema
  // registered under `topic` in the schema registry).
  Result<std::vector<Row>> ReadOutputRows(const std::string& topic) const;

  // Batch provider: stream sources yield their full history; relation
  // sources yield a last-write-wins snapshot keyed by message key.
  sql::TableProvider MakeTableProvider() const;

  const EnvironmentPtr& env() const { return env_; }

  // Fatal constructor-time failure (e.g. log.durable=true but the durable
  // log could not be enabled). Every Execute / RunJobsUntilQuiescent call
  // returns this error until it is Ok.
  const Status& startup_error() const { return startup_error_; }

 private:
  Result<ExecutionResult> SubmitStreamingJob(const sql::SelectStmt& select,
                                             const std::string& insert_target,
                                             const std::string& original_sql);
  Result<ExecutionResult> RunBatchQuery(const sql::SelectStmt& select);
  // EXPLAIN ANALYZE: run the query as a streaming job with every trace
  // sampled, then render the plan annotated with per-operator span stats
  // (count, inclusive vs. self time, serde share). Restores the tracer's
  // prior sampling configuration afterwards.
  Result<ExecutionResult> RunExplainAnalyze(const sql::SelectStmt& select,
                                            const sql::LogicalNode& plan,
                                            const std::string& original_sql);

  EnvironmentPtr env_;
  Config defaults_;
  // Set when a requested-and-required startup step failed (durable log);
  // latched because the constructor cannot return a Status.
  Status startup_error_ = Status::Ok();
  // Guards jobs_ between the submitting thread and the monitor's HTTP
  // worker, which calls CollectJobViews() concurrently.
  mutable std::mutex jobs_mu_;
  std::vector<std::unique_ptr<JobRunner>> jobs_;
  std::unique_ptr<MonitorServer> monitor_;
  std::string views_script_;
  int query_counter_ = 0;
};

}  // namespace sqs::core
