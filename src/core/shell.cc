#include "core/shell.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/flightrec.h"
#include "common/json_escape.h"
#include "common/logging.h"
#include "common/metrics_reporter.h"
#include "common/profiler.h"
#include "common/tracing.h"
#include "http/monitor.h"
#include "sql/lexer.h"
#include "task/container.h"

namespace sqs::core {

Shell::Shell(EnvironmentPtr env, Config job_defaults)
    : env_(env), executor_(std::make_unique<QueryExecutor>(env, std::move(job_defaults))) {}

std::string Shell::FormatTable(const SchemaPtr& schema, const std::vector<Row>& rows,
                               size_t max_rows) {
  if (!schema) return "(no schema)\n";
  std::vector<std::string> headers;
  std::vector<size_t> widths;
  for (const Field& f : schema->fields()) {
    headers.push_back(f.name);
    widths.push_back(f.name.size());
  }
  std::vector<std::vector<std::string>> cells;
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    std::vector<std::string> line;
    for (size_t c = 0; c < rows[r].size() && c < headers.size(); ++c) {
      line.push_back(rows[r][c].ToString());
      widths[c] = std::max(widths[c], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream os;
  auto rule = [&] {
    os << '+';
    for (size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto row_line = [&](const std::vector<std::string>& line) {
    os << '|';
    for (size_t c = 0; c < widths.size(); ++c) {
      std::string cell = c < line.size() ? line[c] : "";
      os << ' ' << cell << std::string(widths[c] - cell.size() + 1, ' ') << '|';
    }
    os << '\n';
  };
  rule();
  row_line(headers);
  rule();
  for (const auto& line : cells) row_line(line);
  rule();
  os << rows.size() << " row(s)";
  if (rows.size() > max_rows) os << " (showing first " << max_rows << ")";
  os << '\n';
  return os.str();
}

namespace {

// The arguments of `SHOW <view> [JSON | <filter>]`: the JSON flag, else the
// third word in its original case (job names are lower-case).
struct ShowArgs {
  bool json = false;
  std::string filter;
};

// SHOW METRICS: the merged metrics of every submitted job.
void ShowMetrics(QueryExecutor& executor, const ShowArgs& args, std::ostream& out) {
  std::vector<MetricsSnapshot> snapshots;
  for (size_t i = 0; i < executor.num_jobs(); ++i) {
    JobRunner* job = executor.job(static_cast<int>(i));
    if (job) snapshots.push_back(job->metrics_registry()->Snapshot());
  }
  MetricsSnapshot merged = MergeSnapshots(snapshots);
  if (args.json) {
    out << SnapshotToJsonLines(merged, SystemClock::Instance()->NowMillis());
  } else {
    out << SnapshotToTable(merged);
  }
}

// SHOW JOBS: one row per submitted job with its resource ledger
// (docs/LATENCY.md); the columns are the keys of the monitor's /jobs, which
// the JSON form prints.
void ShowJobs(QueryExecutor& executor, const ShowArgs& args, std::ostream& out) {
  std::vector<MonitorJobView> views = executor.CollectJobViews();
  if (args.json) {
    out << executor.monitor().RenderJobsJson(views) << "\n";
  } else if (views.empty()) {
    out << "(no jobs submitted)\n";
  } else {
    out << RenderJobsTable(views);
  }
}

// SHOW TRACE: per-span statistics of the process-wide span buffer.
void ShowTrace(QueryExecutor&, const ShowArgs& args, std::ostream& out) {
  Tracer& tracer = Tracer::Instance();
  std::vector<Span> spans = tracer.Spans();
  if (args.json) {
    out << SpansToChromeTraceJson(spans) << "\n";
    return;
  }
  std::string prefix = args.filter.empty() ? "" : args.filter + ".";
  std::map<std::string, SpanStats> stats = ComputeSpanStats(spans, prefix);
  std::set<uint64_t> traces;
  int64_t in_scope = 0;
  for (const Span& s : spans) {
    if (!prefix.empty() && s.scope.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    traces.insert(s.trace_id);
    ++in_scope;
  }
  char header[128];
  std::snprintf(header, sizeof(header),
                "traces=%zu spans=%lld recorded=%lld evicted=%lld "
                "sample_rate=%g\n",
                traces.size(), static_cast<long long>(in_scope),
                static_cast<long long>(tracer.recorded_total()),
                static_cast<long long>(tracer.evicted()),
                tracer.sample_rate());
  out << header;
  std::snprintf(header, sizeof(header), "%-28s %10s %14s %14s\n", "span",
                "count", "incl_us", "self_us");
  out << header;
  for (const auto& [name, st] : stats) {
    std::snprintf(header, sizeof(header), "%-28s %10lld %14.1f %14.1f\n",
                  name.c_str(), static_cast<long long>(st.count),
                  static_cast<double>(st.inclusive_ns) / 1000.0,
                  static_cast<double>(st.self_ns) / 1000.0);
    out << header;
  }
}

// SHOW HISTORY: the monitor's metrics history ring with per-series rates
// and sparklines.
void ShowHistory(QueryExecutor& executor, const ShowArgs& args, std::ostream& out) {
  MetricsHistory& history = executor.monitor().history();
  if (args.json) {
    out << history.ToJson() << "\n";
    return;
  }
  std::string prefix = args.filter.empty() ? "" : args.filter + ".";
  std::vector<std::string> keys = history.Keys();
  char header[192];
  std::snprintf(header, sizeof(header), "%-44s %12s %12s  %s\n", "series",
                "last", "rate/s", "sparkline");
  out << header;
  size_t shown = 0;
  for (const std::string& key : keys) {
    if (!prefix.empty() && key.compare(0, prefix.size(), prefix) != 0) continue;
    std::vector<MetricsHistory::Point> points = history.Series(key);
    if (points.empty()) continue;
    std::snprintf(header, sizeof(header), "%-44s %12.6g %12.6g  %s\n",
                  key.c_str(), points.back().value, history.RatePerSec(key),
                  AsciiSparkline(points).c_str());
    out << header;
    ++shown;
  }
  if (shown == 0) {
    out << "(no history samples"
        << (args.filter.empty() ? "" : " for " + args.filter)
        << " — run !run or scrape the monitor to tick)\n";
  }
}

// SHOW ALERTS: the alert engine's current state.
void ShowAlerts(QueryExecutor& executor, const ShowArgs& args, std::ostream& out) {
  MonitorServer& monitor = executor.monitor();
  if (args.json) {
    out << monitor.alerts().ToJson(SystemClock::Instance()->NowMillis()) << "\n";
    return;
  }
  if (!monitor.rules_status().ok()) {
    out << "alert rules disabled: " << monitor.rules_status().message() << "\n";
    return;
  }
  if (monitor.alerts().empty()) {
    out << "(no alert rules configured — set alert.rules)\n";
    return;
  }
  char header[256];
  std::snprintf(header, sizeof(header), "%-10s %-44s %12s %6s  %s\n", "state",
                "rule", "value", "fired", "subject");
  out << header;
  for (const AlertStatus& status : monitor.alerts().Statuses()) {
    std::snprintf(header, sizeof(header), "%-10s %-44s %12.6g %6lld  %s\n",
                  AlertStateName(status.state), status.rule.text.c_str(),
                  status.value, static_cast<long long>(status.fired_count),
                  status.subject.c_str());
    out << header;
  }
}

// SHOW DLQ: dead-letter queues — record count per DLQ topic plus the
// provenance (task, origin offset, error, trace) of the most recently
// dead-lettered record.
void ShowDlq(QueryExecutor& executor, const ShowArgs& args, std::ostream& out) {
  const EnvironmentPtr& env = executor.env();
  // DLQ topics: each submitted job's configured (or default `<job>.dlq`)
  // topic, plus any broker topic following the `.dlq` convention (e.g.
  // from a job submitted in an earlier shell session).
  std::map<std::string, std::string> dlq_topics;  // topic -> owning job
  for (size_t i = 0; i < executor.num_jobs(); ++i) {
    JobRunner* job = executor.job(static_cast<int>(i));
    if (!job) continue;
    const std::string& name = job->job_name();
    if (!args.filter.empty() && name != args.filter) continue;
    dlq_topics[job->config().Get(cfg::kTaskDlqTopic, name + ".dlq")] = name;
  }
  if (args.filter.empty()) {
    const std::string suffix = ".dlq";
    for (const std::string& topic : env->broker->Topics()) {
      if (topic.size() > suffix.size() &&
          topic.compare(topic.size() - suffix.size(), suffix.size(), suffix) == 0) {
        dlq_topics.emplace(topic, topic.substr(0, topic.size() - suffix.size()));
      }
    }
  }
  bool any = false;
  for (const auto& [topic, job_name] : dlq_topics) {
    if (!env->broker->HasTopic(topic)) continue;
    auto size = env->broker->TopicSize(topic);
    if (!size.ok()) continue;
    any = true;
    // Most recent record across partitions (by append timestamp).
    bool have_last = false;
    int64_t last_offset = 0;
    int64_t last_ts = -1;
    StreamPartition last_sp;
    DeadLetterRecord last;
    auto parts = env->broker->NumPartitions(topic);
    int32_t nparts = parts.ok() ? parts.value() : 0;
    for (int32_t p = 0; p < nparts; ++p) {
      StreamPartition sp{topic, p};
      auto end = env->broker->EndOffset(sp);
      if (!end.ok() || end.value() == 0) continue;
      auto fetched = env->broker->Fetch(sp, end.value() - 1, 1);
      if (!fetched.ok() || fetched.value().empty()) continue;
      const IncomingMessage& m = fetched.value().front();
      if (m.message.timestamp < last_ts) continue;
      auto decoded = DecodeDeadLetter(m.message.value);
      if (!decoded.ok()) continue;
      have_last = true;
      last_ts = m.message.timestamp;
      last_sp = sp;
      last_offset = m.offset;
      last = std::move(decoded).value();
    }
    if (args.json) {
      out << "{\"topic\":\"" << JsonEscape(topic) << "\",\"job\":\""
          << JsonEscape(job_name) << "\",\"records\":" << size.value();
      if (have_last) {
        char trace_hex[32];
        std::snprintf(trace_hex, sizeof(trace_hex), "%016llx",
                      static_cast<unsigned long long>(last.trace.trace_id));
        out << ",\"last\":{\"task\":\"" << JsonEscape(last.task_name)
            << "\",\"origin\":\"" << JsonEscape(last.origin.ToString())
            << "\",\"offset\":" << last.offset << ",\"error\":\""
            << JsonEscape(last.error) << "\",\"trace_id\":\"" << trace_hex
            << "\",\"sampled\":" << (last.trace.sampled ? "true" : "false")
            << "}";
      }
      out << "}\n";
    } else {
      out << topic << "  (job " << job_name << "): " << size.value()
          << " record(s)\n";
      if (have_last) {
        out << "  last: task=" << last.task_name
            << " origin=" << last.origin.ToString() << "@" << last.offset
            << " dlq=" << last_sp.ToString() << "@" << last_offset;
        if (last.trace.valid()) {
          char trace_hex[32];
          std::snprintf(trace_hex, sizeof(trace_hex), "%016llx",
                        static_cast<unsigned long long>(last.trace.trace_id));
          out << " trace=" << trace_hex;
        }
        out << "\n  error: " << last.error << "\n";
      }
    }
  }
  if (!any) {
    out << "(no dead-letter topics"
        << (args.filter.empty() ? "" : " for " + args.filter) << ")\n";
  }
}

// SHOW PROFILE: the sampling profiler's accumulated samples — per-operator
// CPU attribution plus collapsed stacks (flamegraph input).
void ShowProfile(QueryExecutor&, const ShowArgs& args, std::ostream& out) {
  Profiler& prof = Profiler::Instance();
  const int64_t total = prof.TotalSamples();
  std::map<std::string, int64_t> attribution = prof.OperatorAttribution();
  if (args.json) {
    out << "{\"ts_ms\":" << SystemClock::Instance()->NowMillis()
        << ",\"samples\":" << total
        << ",\"sampling\":" << (prof.sampling() ? "true" : "false")
        << ",\"operators\":[";
    bool first = true;
    for (const auto& [label, samples] : attribution) {
      if (!first) out << ",";
      first = false;
      out << "{\"label\":\"" << JsonEscape(label) << "\",\"samples\":" << samples
          << "}";
    }
    out << "]}\n";
    return;
  }
  out << "samples=" << total << " sampling=" << (prof.sampling() ? "on" : "off");
  if (prof.sampling()) out << " hz=" << prof.hz();
  out << "\n";
  if (total == 0) {
    out << "(no samples — set profile.hz, run EXPLAIN ANALYZE, or GET "
           "/debug/profile)\n";
    return;
  }
  out << RenderOperatorAttribution(attribution, total)
      << "collapsed stacks (flamegraph.pl input):\n" << prof.CollapsedStacks();
}

// SHOW EVENTS: the flight recorder's merged rings, seq-ordered.
void ShowEvents(QueryExecutor&, const ShowArgs& args, std::ostream& out) {
  FlightRecorder& rec = FlightRecorder::Instance();
  if (args.json) {
    out << rec.DumpJsonLines();
    return;
  }
  std::vector<FlightEvent> events = rec.Snapshot(args.filter);
  out << "events=" << events.size() << " recorded=" << rec.recorded()
      << " dropped=" << rec.dropped() << "\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%8s %-18s %-32s %10s %10s  %s\n", "seq",
                "type", "scope", "a", "b", "detail");
  out << line;
  for (const FlightEvent& e : events) {
    std::snprintf(line, sizeof(line), "%8llu %-18s %-32s %10lld %10lld  %s\n",
                  static_cast<unsigned long long>(e.seq),
                  FlightEventTypeName(e.type), e.scope,
                  static_cast<long long>(e.a), static_cast<long long>(e.b),
                  e.detail);
    out << line;
  }
}

// The inspection views: `SHOW <view> [JSON | <job>]` statements the shell
// answers before SQL parsing (they are not part of the query grammar).
// !help prints its SHOW lines from this table.
struct ShowView {
  const char* name;
  bool filtered;  // takes a `<job>` filter besides JSON
  const char* help;
  void (*render)(QueryExecutor&, const ShowArgs&, std::ostream&);
};
constexpr ShowView kShowViews[] = {
    {"METRICS", false, "job/task/operator metrics of submitted jobs", ShowMetrics},
    {"JOBS", false, "per-job resource ledger; JSON: the monitor's /jobs", ShowJobs},
    {"TRACE", true, "per-span statistics; JSON: Chrome trace format", ShowTrace},
    {"HISTORY", true, "metrics history ring: rates + sparklines", ShowHistory},
    {"ALERTS", false, "threshold alert states (alert.rules)", ShowAlerts},
    {"DLQ", true, "dead-letter queues: counts + last-error provenance", ShowDlq},
    {"PROFILE", false, "sampling profiler: operator CPU + collapsed stacks",
     ShowProfile},
    {"EVENTS", true, "flight-recorder ring: engine events, seq-ordered",
     ShowEvents},
};

}  // namespace

void Shell::ExecuteBuffered(std::ostream& out) {
  std::string statement;
  statement.swap(buffer_);
  if (statement.find_first_not_of(" \t\r\n;") == std::string::npos) return;
  std::istringstream words(statement);
  std::string w1, w2, w3;
  words >> w1 >> w2 >> w3;
  if (sql::ToUpper(w1) == "SHOW") {
    const std::string view = sql::ToUpper(w2);
    for (const ShowView& v : kShowViews) {
      if (view != v.name) continue;
      ShowArgs args;
      args.json = sql::ToUpper(w3) == "JSON";
      if (!args.json) args.filter = w3;
      v.render(*executor_, args, out);
      return;
    }
  }
  auto result = executor_->Execute(statement);
  if (!result.ok()) {
    out << "ERROR: " << result.status().ToString() << "\n";
    return;
  }
  const auto& r = result.value();
  switch (r.kind) {
    case QueryExecutor::ExecutionResult::Kind::kViewCreated:
      out << r.text << "\n";
      break;
    case QueryExecutor::ExecutionResult::Kind::kExplained:
      out << r.text;
      break;
    case QueryExecutor::ExecutionResult::Kind::kJobSubmitted:
      SQS_INFOC("shell", "job submitted", {"output", r.output_topic},
                {"job_index", std::to_string(r.job_index)});
      out << r.text << "\noutput stream: " << r.output_topic
          << "   (use !run to process, !output " << r.output_topic
          << " to sample)\n";
      break;
    case QueryExecutor::ExecutionResult::Kind::kRows:
      out << FormatTable(r.schema, r.rows);
      break;
  }
}

void Shell::MetaCommand(const std::string& command, std::ostream& out) {
  std::istringstream iss(command);
  std::string cmd;
  iss >> cmd;
  if (cmd == "!help") {
    out << "statements end with ';'. meta commands:\n"
           "  !tables               list streams, tables and views\n"
           "  !describe <name>      show a source's schema\n"
           "  !run                  drive all jobs until caught up\n"
           "  !output <topic> [n]   show up to n rows from an output stream\n"
           "  !quit                 exit\n"
           "statements:\n";
    for (const ShowView& v : kShowViews) {
      const std::string usage = std::string("SHOW ") + v.name +
                                (v.filtered ? " [JSON | <job>];" : " [JSON];");
      char line[160];
      std::snprintf(line, sizeof(line), "  %-29s %s\n", usage.c_str(), v.help);
      out << line;
    }
    out << "  EXPLAIN ANALYZE <q>;          run a streaming query fully sampled and\n"
           "                                annotate its plan with span statistics\n"
           "                                + sampled CPU attribution\n"
           "(see docs/METRICS.md, docs/TRACING.md, docs/MONITORING.md, "
           "docs/PROFILING.md)\n";
    return;
  }
  if (cmd == "!tables") {
    for (const std::string& name : env_->catalog->SourceNames()) {
      auto source = env_->catalog->GetSource(name);
      if (source.ok()) {
        out << (source.value().is_stream() ? "stream " : "table  ") << name
            << "  (topic: " << source.value().topic << ")\n";
      }
    }
    return;
  }
  if (cmd == "!describe") {
    std::string name;
    iss >> name;
    auto source = env_->catalog->GetSource(name);
    if (!source.ok()) {
      out << "ERROR: " << source.status().ToString() << "\n";
      return;
    }
    out << source.value().schema->ToString() << "\n";
    if (!source.value().rowtime_column.empty()) {
      out << "rowtime column: " << source.value().rowtime_column << "\n";
    }
    return;
  }
  if (cmd == "!run") {
    auto n = executor_->RunJobsUntilQuiescent();
    if (!n.ok()) {
      out << "ERROR: " << n.status().ToString() << "\n";
    } else {
      out << "processed " << n.value() << " message(s)\n";
    }
    return;
  }
  if (cmd == "!output") {
    std::string topic;
    size_t limit = 10;
    iss >> topic >> limit;
    auto rows = executor_->ReadOutputRows(topic);
    if (!rows.ok()) {
      out << "ERROR: " << rows.status().ToString() << "\n";
      return;
    }
    auto registered = env_->registry->GetLatest(topic);
    out << FormatTable(registered.ok() ? registered.value().schema : nullptr,
                       rows.value(), limit);
    return;
  }
  out << "unknown command " << cmd << " (try !help)\n";
}

bool Shell::ProcessLine(const std::string& line, std::ostream& out) {
  std::string trimmed = line;
  size_t start = trimmed.find_first_not_of(" \t");
  if (start == std::string::npos) return true;
  if (buffer_.empty() && trimmed[start] == '!') {
    std::string cmd = trimmed.substr(start);
    while (!cmd.empty() && (cmd.back() == '\r' || cmd.back() == '\n' || cmd.back() == ' ')) {
      cmd.pop_back();
    }
    if (cmd == "!quit" || cmd == "!exit") return false;
    MetaCommand(cmd, out);
    return true;
  }
  buffer_ += line;
  buffer_ += '\n';
  // Execute complete statements (everything up to a ';' outside quotes).
  while (true) {
    bool in_string = false;
    size_t split = std::string::npos;
    for (size_t i = 0; i < buffer_.size(); ++i) {
      char c = buffer_[i];
      if (c == '\'') in_string = !in_string;
      if (c == ';' && !in_string) {
        split = i;
        break;
      }
    }
    if (split == std::string::npos) break;
    std::string statement = buffer_.substr(0, split);
    std::string rest = buffer_.substr(split + 1);
    buffer_ = std::move(statement);
    ExecuteBuffered(out);
    buffer_ = std::move(rest);
  }
  // Whitespace-only leftovers do not keep a statement "open".
  if (buffer_.find_first_not_of(" \t\r\n") == std::string::npos) buffer_.clear();
  return true;
}

void Shell::Repl(std::istream& in, std::ostream& out) {
  out << "SamzaSQL shell — statements end with ';', !help for commands\n";
  std::string line;
  out << "samzasql> " << std::flush;
  while (std::getline(in, line)) {
    if (!ProcessLine(line, out)) break;
    out << (buffer_.empty() ? "samzasql> " : "       -> ") << std::flush;
  }
  out << "\n";
}

}  // namespace sqs::core
