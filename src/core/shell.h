// SamzaSQL shell (paper §4.1): the command-line front end built on the
// query executor (the SqlLine + JDBC-driver role). Supports:
//   - SQL statements terminated by ';' (SELECT / SELECT STREAM /
//     CREATE VIEW / INSERT INTO / EXPLAIN);
//   - meta commands: !tables, !describe <name>, !run, !output, !quit, !help;
//   - inspection views, `SHOW <view> [JSON | <job>];` (METRICS, JOBS, TRACE,
//     HISTORY, ALERTS, DLQ, PROFILE, EVENTS), answered before SQL parsing.
// Batch results render as aligned tables; streaming submissions report the
// job and output topic; `!run` drives all submitted jobs to quiescence and
// `!output <topic> [n]` samples an output stream.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "core/executor.h"

namespace sqs::core {

class Shell {
 public:
  Shell(EnvironmentPtr env, Config job_defaults = Config());

  // Process one line of input (may or may not complete a statement;
  // statements buffer until ';'). Output goes to `out`.
  // Returns false when the shell should exit (!quit).
  bool ProcessLine(const std::string& line, std::ostream& out);

  // Run a full REPL over the given streams until EOF or !quit.
  void Repl(std::istream& in, std::ostream& out);

  QueryExecutor& executor() { return *executor_; }

  // Renders rows as an aligned text table with a schema header.
  static std::string FormatTable(const SchemaPtr& schema, const std::vector<Row>& rows,
                                 size_t max_rows = 50);

 private:
  void ExecuteBuffered(std::ostream& out);
  void MetaCommand(const std::string& command, std::ostream& out);

  EnvironmentPtr env_;
  std::unique_ptr<QueryExecutor> executor_;
  std::string buffer_;
};

}  // namespace sqs::core
