#include "core/executor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

#include "common/flightrec.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/tracing.h"
#include "core/task.h"
#include "io/crashpoint.h"
#include "log/durable_log.h"
#include "ops/router.h"
#include "sql/lexer.h"
#include "sql/optimizer.h"
#include "sql/parser.h"

namespace sqs::core {

namespace {

void CollectScans(const sql::LogicalNode& node,
                  std::vector<const sql::LogicalNode*>& scans) {
  if (node.kind == sql::LogicalKind::kScan) scans.push_back(&node);
  for (const auto& input : node.inputs) CollectScans(*input, scans);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::string FmtUs(int64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(nanos) / 1000.0);
  return buf;
}

std::string FmtPct(int64_t part, int64_t whole) {
  if (whole <= 0) return "0.0%";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * static_cast<double>(part) / static_cast<double>(whole));
  return buf;
}

// Annotation for one plan line: "[op2-filter count=200 incl=1.2us ...]".
std::string Annotate(const std::string& name, const SpanStats& st,
                     int64_t busy_ns) {
  std::ostringstream os;
  os << "[" << name << " count=" << st.count << " incl=" << FmtUs(st.inclusive_ns)
     << " self=" << FmtUs(st.self_ns) << " self%=" << FmtPct(st.self_ns, busy_ns)
     << "]";
  return os.str();
}

// Physical plan annotated with per-operator span statistics. Plan lines are
// preorder — line k is the node the router registered as "op<k>-<name>";
// the stream-insert root (not a plan node) is "op<#nodes>-insert".
std::string RenderAnalyzedPlan(const sql::LogicalNode& plan,
                               const std::vector<Span>& spans,
                               const std::string& job_name,
                               const std::string& output_topic) {
  const std::string scope_prefix = job_name + ".";
  std::map<std::string, SpanStats> stats = ComputeSpanStats(spans, scope_prefix);

  // Index operator stats by preorder id ("op<k>-...").
  std::map<int, std::vector<std::pair<std::string, SpanStats>>> by_id;
  for (const auto& [name, st] : stats) {
    if (name.compare(0, 2, "op") != 0) continue;
    size_t dash = name.find('-');
    if (dash == std::string::npos || dash == 2) continue;
    by_id[std::atoi(name.substr(2, dash - 2).c_str())].push_back({name, st});
  }
  // A fused stage reports one span named "fused<opA..opB>" (or "fused<opA>")
  // covering plan lines A..B plus the stream-insert it subsumes. Annotate
  // every covered line with the stage's stats so no row "vanishes". A fused
  // join's line also keeps its operator's own annotation: that operator
  // upserts the relation side.
  bool has_fused = false;
  std::pair<std::string, SpanStats> fused_stat;
  for (const auto& [name, st] : stats) {
    if (name.compare(0, 8, "fused<op") != 0) continue;
    size_t close = name.find('>');
    if (close == std::string::npos) continue;
    std::string inner = name.substr(6, close - 6);  // "opA..opB" or "opA"
    int a = std::atoi(inner.c_str() + 2);
    int b = a;
    size_t dots = inner.find("..");
    if (dots != std::string::npos) b = std::atoi(inner.substr(dots + 4).c_str());
    for (int k = a; k <= b; ++k) {
      auto& line = by_id[k];
      line.insert(line.begin(), {name, st});
    }
    has_fused = true;
    fused_stat = {name, st};
  }

  std::set<uint64_t> traces;
  int64_t span_count = 0;
  for (const Span& s : spans) {
    if (s.scope.compare(0, scope_prefix.size(), scope_prefix) != 0) continue;
    traces.insert(s.trace_id);
    ++span_count;
  }

  const SpanStats process = stats.count("process") ? stats["process"] : SpanStats{};
  // Total busy time the container measured for the sampled tuples: the
  // per-message "process" spans are the trace roots within the job scope, so
  // the self times of every span below telescope to their inclusive time.
  const int64_t traced_busy_ns = process.inclusive_ns;
  int64_t total_self_ns = 0;
  int64_t serde_self_ns = 0;
  int64_t operator_self_ns = 0;
  for (const auto& [name, st] : stats) {
    total_self_ns += st.self_ns;
    if (name != "process") operator_self_ns += st.self_ns;
    size_t dash = name.find('-');
    if (dash != std::string::npos) {
      std::string op = name.substr(dash + 1);
      if (op == "scan" || op == "insert") serde_self_ns += st.self_ns;
    }
    // Fused stages expose their serde boundary as explicit child spans:
    // "decode" (deserialize + evaluate) and "encode" (serialize + send).
    if (name == "decode" || name == "encode") serde_self_ns += st.self_ns;
  }

  std::vector<std::string> lines = SplitLines(plan.ToString());
  size_t width = 0;
  for (const std::string& line : lines) width = std::max(width, line.size());
  std::string insert_line = "insert -> " + output_topic;
  width = std::max(width, insert_line.size()) + 2;

  std::ostringstream os;
  os << "EXPLAIN ANALYZE " << job_name << " (traces=" << traces.size()
     << ", spans=" << span_count << ")\n";
  for (size_t k = 0; k < lines.size(); ++k) {
    os << lines[k] << std::string(width - lines[k].size(), ' ');
    auto it = by_id.find(static_cast<int>(k));
    if (it != by_id.end()) {
      for (size_t i = 0; i < it->second.size(); ++i) {
        os << (i > 0 ? " " : "")
           << Annotate(it->second[i].first, it->second[i].second, traced_busy_ns);
      }
    } else {
      os << "[no sampled spans]";
    }
    os << "\n";
  }
  // The stream-insert root, registered after the plan traversal. A fused
  // stage serializes and sends directly, so it owns this line too.
  {
    os << insert_line << std::string(width - insert_line.size(), ' ');
    auto it = by_id.find(static_cast<int>(lines.size()));
    if (it != by_id.end()) {
      os << Annotate(it->second[0].first, it->second[0].second, traced_busy_ns);
    } else if (has_fused) {
      os << Annotate(fused_stat.first, fused_stat.second, traced_busy_ns);
    } else {
      os << "[no sampled spans]";
    }
    os << "\n";
  }
  os << "process: count=" << process.count << " incl=" << FmtUs(process.inclusive_ns)
     << " self=" << FmtUs(process.self_ns)
     << " (dispatch + commit outside operators)\n";
  os << "serde share: " << FmtUs(serde_self_ns)
     << (has_fused ? " decode+encode self = " : " scan+insert self = ")
     << FmtPct(serde_self_ns, traced_busy_ns) << " of traced busy time\n";
  os << "operator_self_ns=" << operator_self_ns
     << " total_self_ns=" << total_self_ns
     << " traced_busy_ns=" << traced_busy_ns << "\n";
  return os.str();
}

// Wall-clock latency waterfall for the analyzed job (docs/LATENCY.md): where
// a record's time went between its first broker append and the sink emit.
// "broker queue wait" is the fetch-side dwell (append -> fetch), "container
// process" the per-run processing time merged across the job's containers,
// and "source->sink e2e" the ingest-stamp-to-sink-send distribution.
std::string RenderLatencyWaterfall(const MetricsSnapshot& snap,
                                   const std::string& job_name) {
  std::vector<HistogramStats> process_parts;
  const std::string container_prefix = job_name + ".container";
  const std::string process_leaf = ".process_latency_ns";
  for (const auto& [name, stats] : snap.histograms) {
    if (name.size() > container_prefix.size() + process_leaf.size() &&
        name.compare(0, container_prefix.size(), container_prefix) == 0 &&
        name.compare(name.size() - process_leaf.size(), process_leaf.size(),
                     process_leaf) == 0) {
      process_parts.push_back(stats);
    }
  }
  auto job_histogram = [&](const char* leaf) {
    auto it = snap.histograms.find(job_name + "." + leaf);
    return it == snap.histograms.end() ? HistogramStats{} : it->second;
  };
  struct WaterfallRow {
    const char* label;
    HistogramStats stats;
    bool nanos;  // values recorded in ns; false = recorded in us
  };
  const WaterfallRow rows[] = {
      {"broker queue wait", job_histogram("dwell_queue_us"), false},
      {"container process", MergeHistogramStats(process_parts), true},
      {"source->sink e2e", job_histogram("e2e_latency_us"), false},
  };
  std::ostringstream os;
  os << "latency waterfall (wall clock):\n";
  for (const WaterfallRow& row : rows) {
    char buf[160];
    if (row.stats.count <= 0) {
      std::snprintf(buf, sizeof(buf), "  %-18s [no samples]\n", row.label);
      os << buf;
      continue;
    }
    // FmtUs takes nanoseconds; the us-valued histograms scale up first.
    auto ns = [&](int64_t v) { return row.nanos ? v : v * 1000; };
    std::snprintf(buf, sizeof(buf),
                  "  %-18s count=%lld p50=%s p95=%s p99=%s max=%s\n", row.label,
                  static_cast<long long>(row.stats.count),
                  FmtUs(ns(row.stats.p50)).c_str(), FmtUs(ns(row.stats.p95)).c_str(),
                  FmtUs(ns(row.stats.p99)).c_str(), FmtUs(ns(row.stats.max)).c_str());
    os << buf;
  }
  return os.str();
}

}  // namespace

QueryExecutor::QueryExecutor(EnvironmentPtr env, Config job_defaults)
    : env_(std::move(env)),
      defaults_(std::move(job_defaults)) {
  // Process-wide settings from the defaults, before durable recovery below
  // so the crash handlers are in place for it; each job applies its own
  // config again at JobRunner::Start.
  Status applied = ApplyProcessSettings(defaults_);
  if (!applied.ok()) {
    SQS_WARNC("executor", "process settings not applied",
              {"error", applied.message()});
  }
  // Crash points (io/crashpoint.h) arm process-wide; the kill-restart-verify
  // harness passes `crash.point=<name>` to die at an exact write boundary.
  std::string crash_point = defaults_.Get(cfg::kCrashPoint);
  if (!crash_point.empty()) {
    Status armed = io::ArmCrashPoint(crash_point);
    if (!armed.ok()) {
      SQS_WARNC("executor", "crash point not armed", {"error", armed.message()});
    }
  }
  // Durable log (docs/DURABILITY.md): `log.durable=true` + `log.dir` switch
  // the broker onto disk-backed segments, recovering any existing image.
  // When durability was asked for, failing to get it is fatal — running on
  // while nothing persists would betray exactly the crash-safety the user
  // opted into. The constructor cannot return a Status, so the error is
  // latched and every Execute/RunJobsUntilQuiescent call fails with it.
  auto durable_options = DurableLogOptions::FromConfig(defaults_);
  if (!durable_options.ok()) {
    if (defaults_.GetBool(cfg::kLogDurable, false)) {
      startup_error_ = durable_options.status();
      SQS_ERRORC("executor", "durable log config rejected",
                 {"error", durable_options.status().message()});
    } else {
      SQS_WARNC("executor", "durable log config rejected",
                {"error", durable_options.status().message()});
    }
  } else if (durable_options.value().enabled) {
    Status enabled = env_->broker->EnableDurability(durable_options.value());
    if (!enabled.ok()) {
      startup_error_ = Status::StateError(
          "log.durable=true but durability could not be enabled: " +
          enabled.message());
      SQS_ERRORC("executor", "durable log startup failed",
                 {"error", enabled.message()});
    }
  }
  monitor_ = std::make_unique<MonitorServer>(
      defaults_, [this] { return CollectJobViews(); }, env_->clock);
  Status st = monitor_->Start();
  if (!st.ok()) {
    // A busy port must not take down query execution; the monitor simply
    // stays HTTP-less (history and alerting still work).
    SQS_WARNC("monitor", "monitor http disabled", {"error", st.message()});
  }
}

QueryExecutor::~QueryExecutor() {
  // Stop the monitor first so its HTTP worker cannot observe jobs mid-stop.
  monitor_->Stop();
  for (auto& job : jobs_) {
    if (job) (void)job->Stop();
  }
}

std::vector<MonitorJobView> QueryExecutor::CollectJobViews() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  std::vector<MonitorJobView> views;
  views.reserve(jobs_.size());
  for (const auto& job : jobs_) {
    if (!job) continue;
    MonitorJobView view;
    view.name = job->job_name();
    view.containers_total = job->NumContainers();
    view.containers_running = job->NumRunningContainers();
    view.processed = job->TotalProcessed();
    view.restarts = job->TotalRestarts();
    view.uptime_ms = job->UptimeMs(env_->clock->NowMillis());
    for (const JobRunner::ContainerStatus& cs :
         job->CollectContainerStatus(env_->clock->NowMillis())) {
      view.containers.push_back({cs.id, cs.running, cs.busy, cs.heartbeat_age_ms});
    }
    view.snapshot = job->metrics_registry()->Snapshot();
    views.push_back(std::move(view));
  }
  return views;
}

Result<QueryExecutor::ExecutionResult> QueryExecutor::Execute(
    const std::string& statement_sql) {
  SQS_RETURN_IF_ERROR(startup_error_);
  SQS_ASSIGN_OR_RETURN(stmt, sql::ParseStatement(statement_sql));

  if (stmt.create_view) {
    // Validate the view body by planning it before registering.
    sql::QueryPlanner planner(env_->catalog);
    SQS_RETURN_IF_ERROR(planner.Plan(*stmt.create_view->select).status());
    std::string name = stmt.create_view->name;
    SQS_RETURN_IF_ERROR(env_->catalog->RegisterView(
        name, stmt.create_view->column_names, std::move(stmt.create_view->select)));
    // Keep the original text so task-side planning can rebuild the view.
    views_script_ += statement_sql;
    if (statement_sql.find(';') == std::string::npos) views_script_ += ";";
    views_script_ += "\n";
    ExecutionResult result;
    result.kind = ExecutionResult::Kind::kViewCreated;
    result.text = "view " + name + " created";
    return result;
  }

  if (stmt.explain) {
    sql::QueryPlanner planner(env_->catalog);
    SQS_ASSIGN_OR_RETURN(plan, planner.Plan(*stmt.explain->select));
    plan = sql::Optimize(plan);
    if (stmt.explain->analyze) {
      return RunExplainAnalyze(*stmt.explain->select, *plan, statement_sql);
    }
    ExecutionResult result;
    result.kind = ExecutionResult::Kind::kExplained;
    result.text = plan->ToString();
    if (plan->is_stream && sqlcfg::FusionEnabled(defaults_)) {
      // Name each fused stage by the plan lines (preorder ids) it covers.
      for (const sql::FusedStageSpec& spec : sql::PlanFusedStages(*plan)) {
        result.text += "stage " + spec.label + ": plan lines " +
                       std::to_string(spec.first_op) + ".." +
                       std::to_string(spec.last_op) + " + insert";
        if (spec.probe) {
          result.text += ", probes " + spec.probe->store_prefix + "-table";
        }
        result.text += "\n";
      }
    }
    result.schema = plan->schema;
    return result;
  }

  if (stmt.insert) {
    if (!stmt.insert->select->stream) {
      return Status::Unsupported("INSERT INTO requires SELECT STREAM");
    }
    return SubmitStreamingJob(*stmt.insert->select, stmt.insert->target, statement_sql);
  }

  if (stmt.select) {
    if (stmt.select->stream) {
      return SubmitStreamingJob(*stmt.select, "", statement_sql);
    }
    return RunBatchQuery(*stmt.select);
  }
  return Status::Internal("unhandled statement");
}

Result<std::vector<QueryExecutor::ExecutionResult>> QueryExecutor::ExecuteScript(
    const std::string& script) {
  // Split at top-level semicolons using the lexer's token positions so that
  // ';' inside string literals is handled correctly.
  SQS_ASSIGN_OR_RETURN(tokens, sql::Lex(script));
  std::vector<ExecutionResult> results;
  size_t start = 0;
  for (const sql::Token& tok : tokens) {
    bool at_end = tok.type == sql::TokenType::kEnd;
    if (tok.type != sql::TokenType::kSemicolon && !at_end) continue;
    std::string piece = script.substr(start, tok.position - start);
    start = tok.position + 1;
    // Skip empty pieces (trailing semicolons / whitespace).
    if (piece.find_first_not_of(" \t\r\n") == std::string::npos) {
      if (at_end) break;
      continue;
    }
    SQS_ASSIGN_OR_RETURN(result, Execute(piece));
    results.push_back(std::move(result));
    if (at_end) break;
  }
  return results;
}

sql::TableProvider QueryExecutor::MakeTableProvider() const {
  EnvironmentPtr env = env_;
  return [env](const sql::SourceDef& source) -> Result<std::vector<Row>> {
    SQS_ASSIGN_OR_RETURN(serde, ops::SerdeForFormat(source.format, source.schema));
    SQS_ASSIGN_OR_RETURN(nparts, env->broker->NumPartitions(source.topic));
    if (source.kind == sql::SourceKind::kRelation) {
      // Snapshot: last write per message key wins; empty value = tombstone.
      std::map<Bytes, Row> snapshot;
      for (int32_t p = 0; p < nparts; ++p) {
        SQS_ASSIGN_OR_RETURN(begin, env->broker->BeginOffset({source.topic, p}));
        SQS_ASSIGN_OR_RETURN(end, env->broker->EndOffset({source.topic, p}));
        int64_t pos = begin;
        while (pos < end) {
          SQS_ASSIGN_OR_RETURN(batch, env->broker->Fetch({source.topic, p}, pos, 1024));
          if (batch.empty()) break;
          for (const auto& m : batch) {
            if (m.message.value.empty()) {
              snapshot.erase(m.message.key);
            } else {
              SQS_ASSIGN_OR_RETURN(row, serde->DeserializeBytes(m.message.value));
              snapshot[m.message.key] = std::move(row);
            }
          }
          pos += static_cast<int64_t>(batch.size());
        }
      }
      std::vector<Row> rows;
      rows.reserve(snapshot.size());
      for (auto& [k, row] : snapshot) rows.push_back(std::move(row));
      return rows;
    }
    // Stream history: every retained message.
    std::vector<Row> rows;
    for (int32_t p = 0; p < nparts; ++p) {
      SQS_ASSIGN_OR_RETURN(begin, env->broker->BeginOffset({source.topic, p}));
      SQS_ASSIGN_OR_RETURN(end, env->broker->EndOffset({source.topic, p}));
      int64_t pos = begin;
      while (pos < end) {
        SQS_ASSIGN_OR_RETURN(batch, env->broker->Fetch({source.topic, p}, pos, 1024));
        if (batch.empty()) break;
        for (const auto& m : batch) {
          SQS_ASSIGN_OR_RETURN(row, serde->DeserializeBytes(m.message.value));
          rows.push_back(std::move(row));
        }
        pos += static_cast<int64_t>(batch.size());
      }
    }
    return rows;
  };
}

Result<QueryExecutor::ExecutionResult> QueryExecutor::RunBatchQuery(
    const sql::SelectStmt& select) {
  sql::QueryPlanner planner(env_->catalog);
  SQS_ASSIGN_OR_RETURN(plan, planner.Plan(select));
  plan = sql::Optimize(plan);
  SQS_ASSIGN_OR_RETURN(rows, sql::EvaluatePlan(*plan, MakeTableProvider()));
  ExecutionResult result;
  result.kind = ExecutionResult::Kind::kRows;
  result.rows = std::move(rows);
  result.schema = plan->schema;
  return result;
}

Result<QueryExecutor::ExecutionResult> QueryExecutor::RunExplainAnalyze(
    const sql::SelectStmt& select, const sql::LogicalNode& plan,
    const std::string& original_sql) {
  if (!select.stream) {
    return Status::Unsupported(
        "EXPLAIN ANALYZE requires SELECT STREAM (it profiles the streaming job)");
  }
  // Strip the "EXPLAIN ANALYZE" prefix using lexer token positions, so the
  // task-side re-parse of the ZooKeeper-stored SQL (two-step planning) sees
  // a plain SELECT.
  SQS_ASSIGN_OR_RETURN(tokens, sql::Lex(original_sql));
  if (tokens.size() < 3) return Status::Internal("EXPLAIN ANALYZE: bad statement");
  std::string body = original_sql.substr(tokens[2].position);

  // Profile with every trace sampled, on a clean buffer; the prior sampling
  // configuration is restored on every exit path. Buffered spans are kept
  // afterwards so SHOW TRACE can inspect the run.
  Tracer& tracer = Tracer::Instance();
  struct RestoreTracer {
    double rate;
    size_t capacity;
    ~RestoreTracer() { Tracer::Instance().Configure(rate, capacity); }
  } restore{tracer.sample_rate(), tracer.capacity()};
  tracer.Configure(1.0, restore.capacity);
  tracer.Clear();

  // Sample at high rate for the duration of the run (unless a background
  // sampler is already on, whose cadence we must not disturb), so the CPU
  // attribution table below reflects only this statement.
  Profiler& prof = Profiler::Instance();
  const bool burst = !prof.sampling();
  if (burst) {
    prof.ClearSamples();
    (void)prof.StartSampling(997);
  }
  struct StopBurst {
    bool active;
    ~StopBurst() {
      if (active) Profiler::Instance().StopSampling();
    }
  } stop_burst{burst};

  SQS_ASSIGN_OR_RETURN(submitted, SubmitStreamingJob(select, "", body));
  const std::string job_name = "samzasql-query-" + std::to_string(query_counter_ - 1);
  SQS_RETURN_IF_ERROR(RunJobsUntilQuiescent().status());
  if (burst) {
    prof.StopSampling();
    stop_burst.active = false;
  }

  ExecutionResult result;
  result.kind = ExecutionResult::Kind::kExplained;
  result.text =
      RenderAnalyzedPlan(plan, tracer.Spans(), job_name, submitted.output_topic) +
      RenderLatencyWaterfall(job(submitted.job_index)->metrics_registry()->Snapshot(),
                             job_name);
  // CPU attribution from the profiler's burst: spans measure elapsed time
  // per call, samples where CPU time concentrates across the whole run.
  const int64_t samples = prof.TotalSamples();
  result.text += "cpu profile: " + std::to_string(samples) + " samples";
  result.text += samples <= 0 ? " (profiler idle)\n"
                              : "\n" + RenderOperatorAttribution(
                                            prof.OperatorAttribution(), samples);
  result.schema = plan.schema;
  result.output_topic = submitted.output_topic;
  result.job_index = submitted.job_index;
  return result;
}

Result<QueryExecutor::ExecutionResult> QueryExecutor::SubmitStreamingJob(
    const sql::SelectStmt& select, const std::string& insert_target,
    const std::string& original_sql) {
  sql::QueryPlanner planner(env_->catalog);
  SQS_ASSIGN_OR_RETURN(plan, planner.Plan(select));
  plan = sql::Optimize(plan);

  const int query_id = query_counter_++;
  const std::string job_name = "samzasql-query-" + std::to_string(query_id);

  // --- inputs ---
  std::vector<const sql::LogicalNode*> scans;
  CollectScans(*plan, scans);
  if (scans.empty()) return Status::Internal("plan has no scans");
  std::vector<std::string> inputs;
  std::vector<std::string> bootstrap;
  for (const sql::LogicalNode* scan : scans) {
    const std::string& topic = scan->source.topic;
    if (!env_->broker->HasTopic(topic)) {
      return Status::NotFound("input topic missing on broker: " + topic);
    }
    if (std::find(inputs.begin(), inputs.end(), topic) == inputs.end()) {
      inputs.push_back(topic);
    }
    if (!scan->source.is_stream() &&
        std::find(bootstrap.begin(), bootstrap.end(), topic) == bootstrap.end()) {
      bootstrap.push_back(topic);
    }
  }
  SQS_ASSIGN_OR_RETURN(num_partitions, env_->broker->NumPartitions(inputs[0]));

  // --- output topic + schema ---
  std::string output_topic;
  std::string output_format = defaults_.Get(sqlcfg::kOutputFormat, "avro");
  SchemaPtr output_schema = plan->schema;
  if (!insert_target.empty()) {
    if (env_->catalog->HasSource(insert_target)) {
      SQS_ASSIGN_OR_RETURN(target, env_->catalog->GetSource(insert_target));
      if (!target.is_stream()) {
        return Status::ValidationError("INSERT target must be a stream: " + insert_target);
      }
      if (target.schema->num_fields() != plan->schema->num_fields()) {
        return Status::ValidationError(
            "INSERT arity mismatch: target " + insert_target + " has " +
            std::to_string(target.schema->num_fields()) + " columns, query has " +
            std::to_string(plan->schema->num_fields()));
      }
      for (size_t i = 0; i < target.schema->num_fields(); ++i) {
        if (!KindAssignable(target.schema->field(i).type.kind,
                            plan->schema->field(i).type.kind)) {
          return Status::ValidationError("INSERT type mismatch at column " +
                                         target.schema->field(i).name);
        }
      }
      output_topic = target.topic;
      output_format = target.format;
      output_schema = target.schema;
    } else {
      output_topic = insert_target;
      // Register the derived stream in the catalog so later queries can
      // consume it (Kappa-style pipelines, paper §2).
      sql::SourceDef derived;
      derived.name = insert_target;
      derived.kind = sql::SourceKind::kStream;
      derived.topic = insert_target;
      derived.format = output_format;
      std::vector<Field> fields(plan->schema->fields().begin(),
                                plan->schema->fields().end());
      derived.schema = Schema::Make(insert_target, std::move(fields));
      if (plan->rowtime_index >= 0) {
        derived.rowtime_column =
            plan->schema->field(static_cast<size_t>(plan->rowtime_index)).name;
      }
      output_schema = derived.schema;
      SQS_RETURN_IF_ERROR(env_->catalog->RegisterSource(std::move(derived)));
    }
  } else {
    output_topic = job_name + "-output";
  }
  if (!env_->broker->HasTopic(output_topic)) {
    SQS_RETURN_IF_ERROR(
        env_->broker->CreateTopic(output_topic, {.num_partitions = num_partitions}));
  }
  SQS_RETURN_IF_ERROR(env_->registry->Register(output_topic, output_schema).status());

  // --- metadata to ZooKeeper (two-step planning hand-off) ---
  const std::string zk_prefix = "/samzasql/queries/" + job_name;
  SQS_RETURN_IF_ERROR(env_->zk->Put(zk_prefix + "/sql", original_sql));
  SQS_RETURN_IF_ERROR(env_->zk->Put(zk_prefix + "/model", env_->catalog->ToJsonModel()));
  SQS_RETURN_IF_ERROR(env_->zk->Put(zk_prefix + "/views", views_script_));

  // --- job configuration ---
  Config config = defaults_;
  config.Set(cfg::kJobName, job_name);
  config.SetList(cfg::kTaskInputs, inputs);
  if (!bootstrap.empty()) config.SetList(cfg::kBootstrapInputs, bootstrap);
  config.Set(sqlcfg::kZkPrefix, zk_prefix);
  config.Set(sqlcfg::kOutputTopic, output_topic);
  config.Set(sqlcfg::kOutputSchema, output_schema->Canonical());
  config.Set(sqlcfg::kOutputFormat, output_format);
  if (!config.Has(sqlcfg::kStateSerde)) config.Set(sqlcfg::kStateSerde, "reflective");

  SQS_ASSIGN_OR_RETURN(stores, ops::MessageRouter::RequiredStores(*plan));
  for (const std::string& store : stores) {
    config.Set(std::string(cfg::kStoresPrefix) + store + ".changelog",
               job_name + "-" + store + "-changelog");
  }

  // The job's task factory holds its task-side plan: every task of the job,
  // supervisor restarts included, shares the one SamzaSqlJob, which lives
  // as long as the runner does.
  auto sql_job = std::make_shared<SamzaSqlJob>(env_);
  auto runner = std::make_unique<JobRunner>(
      env_->broker, config,
      [sql_job] { return std::make_unique<SamzaSqlTask>(sql_job); }, env_->clock);
  SQS_RETURN_IF_ERROR(runner->Start());
  FlightRecorder::Record(FlightEventType::kJobSubmit, job_name, output_topic,
                         static_cast<int64_t>(num_partitions));
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.push_back(std::move(runner));
  }

  ExecutionResult result;
  result.kind = ExecutionResult::Kind::kJobSubmitted;
  result.text = "job " + job_name + " submitted";
  result.schema = output_schema;
  result.output_topic = output_topic;
  result.job_index = static_cast<int>(jobs_.size()) - 1;
  return result;
}

Result<int64_t> QueryExecutor::RunJobsUntilQuiescent() {
  SQS_RETURN_IF_ERROR(startup_error_);
  const int threads = static_cast<int>(defaults_.GetInt(cfg::kExecutorThreads, 0));
  if (threads < 0) {
    return Status::InvalidArgument("executor.threads must be >= 0, got " +
                                   std::to_string(threads));
  }
  std::vector<JobRunner*> raw;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    raw.reserve(jobs_.size());
    for (auto& job : jobs_) raw.push_back(job.get());
  }
  Result<int64_t> processed = JobRunner::RunPipeline(raw, threads);
  // Sample history / evaluate alerts on the driving clock so SHOW HISTORY,
  // SHOW ALERTS and /readyz reflect the state the run just produced.
  monitor_->Tick();
  return processed;
}

Result<std::vector<Row>> QueryExecutor::ReadOutputRows(const std::string& topic) const {
  SQS_ASSIGN_OR_RETURN(registered, env_->registry->GetLatest(topic));
  SQS_ASSIGN_OR_RETURN(serde, ops::SerdeForFormat("avro", registered.schema));
  SQS_ASSIGN_OR_RETURN(nparts, env_->broker->NumPartitions(topic));
  std::vector<Row> rows;
  for (int32_t p = 0; p < nparts; ++p) {
    SQS_ASSIGN_OR_RETURN(begin, env_->broker->BeginOffset({topic, p}));
    SQS_ASSIGN_OR_RETURN(end, env_->broker->EndOffset({topic, p}));
    int64_t pos = begin;
    while (pos < end) {
      SQS_ASSIGN_OR_RETURN(batch, env_->broker->Fetch({topic, p}, pos, 1024));
      if (batch.empty()) break;
      for (const auto& m : batch) {
        SQS_ASSIGN_OR_RETURN(row, serde->DeserializeBytes(m.message.value));
        rows.push_back(std::move(row));
      }
      pos += static_cast<int64_t>(batch.size());
    }
  }
  return rows;
}

}  // namespace sqs::core
