// Shell tests: statement buffering, meta commands, table rendering, and a
// full scripted session.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/tracing.h"
#include "core/shell.h"
#include "serde/json.h"
#include "workload/generators.h"

namespace sqs::core {
namespace {

class ShellTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = SamzaSqlEnvironment::Make();
    ASSERT_TRUE(workload::SetupPaperSources(*env_, 2).ok());
    workload::OrdersGenerator gen(*env_, {});
    ASSERT_TRUE(gen.Produce(200).ok());
    Config defaults;
    defaults.SetInt(cfg::kContainerCount, 1);
    shell_ = std::make_unique<Shell>(env_, defaults);
  }

  std::string Feed(const std::string& line) {
    std::ostringstream out;
    alive_ = shell_->ProcessLine(line, out);
    return out.str();
  }

  EnvironmentPtr env_;
  std::unique_ptr<Shell> shell_;
  bool alive_ = true;
};

TEST_F(ShellTest, BatchQueryRendersTable) {
  std::string out = Feed("SELECT COUNT(*) AS c FROM Orders GROUP BY FLOOR(rowtime TO DAY);");
  EXPECT_NE(out.find("| c "), std::string::npos);
  EXPECT_NE(out.find("200"), std::string::npos);
  EXPECT_NE(out.find("1 row(s)"), std::string::npos);
}

TEST_F(ShellTest, MultiLineStatementBuffersUntilSemicolon) {
  EXPECT_EQ(Feed("SELECT COUNT(*) AS c FROM Orders"), "");
  std::string out = Feed("GROUP BY FLOOR(rowtime TO DAY);");
  EXPECT_NE(out.find("200"), std::string::npos);
}

TEST_F(ShellTest, TwoStatementsOnOneLine) {
  std::string out = Feed(
      "SELECT COUNT(*) AS a FROM Orders GROUP BY FLOOR(rowtime TO DAY); "
      "SELECT COUNT(*) AS b FROM Orders GROUP BY FLOOR(rowtime TO DAY);");
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_NE(out.find("| b "), std::string::npos);
}

TEST_F(ShellTest, SemicolonInsideStringLiteralIsNotASplit) {
  std::string out =
      Feed("SELECT COUNT(*) AS c FROM Orders WHERE pad <> 'x;y' GROUP BY "
           "FLOOR(rowtime TO DAY);");
  EXPECT_NE(out.find("200"), std::string::npos);
}

TEST_F(ShellTest, ErrorsAreReportedNotFatal) {
  std::string out = Feed("SELECT bogus FROM Orders;");
  EXPECT_NE(out.find("ERROR"), std::string::npos);
  EXPECT_TRUE(alive_);
  // Shell still works afterwards.
  out = Feed("SELECT COUNT(*) AS c FROM Orders GROUP BY FLOOR(rowtime TO DAY);");
  EXPECT_NE(out.find("200"), std::string::npos);
}

TEST_F(ShellTest, TablesAndDescribe) {
  std::string out = Feed("!tables");
  EXPECT_NE(out.find("stream Orders"), std::string::npos);
  EXPECT_NE(out.find("table  Products"), std::string::npos);
  out = Feed("!describe Orders");
  EXPECT_NE(out.find("rowtime"), std::string::npos);
  EXPECT_NE(out.find("units"), std::string::npos);
  out = Feed("!describe Nope");
  EXPECT_NE(out.find("ERROR"), std::string::npos);
}

TEST_F(ShellTest, StreamingFlow) {
  std::string out = Feed("SELECT STREAM orderId FROM Orders WHERE units > 95;");
  EXPECT_NE(out.find("job samzasql-query-0 submitted"), std::string::npos);
  out = Feed("SHOW JOBS;");
  EXPECT_NE(out.find("samzasql-query-0"), std::string::npos);
  out = Feed("!run");
  EXPECT_NE(out.find("processed"), std::string::npos);
  out = Feed("!output samzasql-query-0-output 3");
  EXPECT_NE(out.find("orderId"), std::string::npos);
  EXPECT_NE(out.find("row(s)"), std::string::npos);
}

// SHOW JOBS: after !run the table lists the job with rows_in equal to the
// job's processed count, and SHOW JOBS JSON names the same job with the
// same rows_in.
TEST_F(ShellTest, ShowJobsTableAndJsonReportTheProcessedCount) {
  EXPECT_NE(Feed("SHOW JOBS;").find("(no jobs submitted)"), std::string::npos);
  Feed("SELECT STREAM orderId FROM Orders WHERE units > 95;");
  EXPECT_NE(Feed("!run").find("processed 200 message(s)"), std::string::npos);
  const int64_t processed = shell_->executor().job(0)->TotalProcessed();
  ASSERT_EQ(processed, 200);

  std::istringstream table(Feed("SHOW JOBS;"));
  auto columns = [](const std::string& line) {
    std::istringstream in(line);
    std::vector<std::string> out;
    for (std::string word; in >> word;) out.push_back(word);
    return out;
  };
  std::string line;
  ASSERT_TRUE(std::getline(table, line));
  const std::vector<std::string> header = columns(line);
  const size_t rows_in =
      std::find(header.begin(), header.end(), "rows_in") - header.begin();
  ASSERT_LT(rows_in, header.size()) << line;
  ASSERT_TRUE(std::getline(table, line));
  const std::vector<std::string> row = columns(line);
  ASSERT_EQ(row.size(), header.size()) << line;
  EXPECT_EQ(row[0], "samzasql-query-0");
  EXPECT_EQ(row[rows_in], std::to_string(processed));
  EXPECT_FALSE(std::getline(table, line)) << "one job, one row: " << line;

  auto json = ParseJson(Feed("SHOW JOBS JSON;"));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const ValueArray& jobs = json.value().as_map().at("jobs").as_array();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].as_map().at("name").as_string(), "samzasql-query-0");
  EXPECT_EQ(jobs[0].as_map().at("rows_in").ToInt64(), processed);
}

// SHOW JOBS is the /jobs ledger: for every key of the job's /jobs object
// (SHOW JOBS JSON) the table has a column of that name holding the same
// value; the members of the nested `e2e_latency_us` object are the columns
// `e2e_latency_us.<member>`. A manual clock keeps uptime and freshness lag
// equal between the two reads.
TEST(ShellJobsTest, ShowJobsColumnsAreTheJobsLedgerKeys) {
  auto clock = std::make_shared<ManualClock>(1'000'000);
  EnvironmentPtr env = SamzaSqlEnvironment::Make(clock);
  ASSERT_TRUE(workload::SetupPaperSources(*env, 2).ok());
  workload::OrdersGenerator gen(*env, {});
  ASSERT_TRUE(gen.Produce(200).ok());
  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 1);
  Shell shell(env, defaults);
  auto feed = [&shell](const std::string& line) {
    std::ostringstream out;
    shell.ProcessLine(line, out);
    return out.str();
  };
  feed("SELECT STREAM orderId FROM Orders WHERE units > 95;");
  clock->Advance(250);
  EXPECT_NE(feed("!run").find("processed 200 message(s)"), std::string::npos);
  clock->Advance(250);

  std::istringstream table(feed("SHOW JOBS;"));
  auto words = [](const std::string& line) {
    std::istringstream in(line);
    std::vector<std::string> out;
    for (std::string word; in >> word;) out.push_back(word);
    return out;
  };
  std::string line;
  ASSERT_TRUE(std::getline(table, line));
  const std::vector<std::string> header = words(line);
  ASSERT_TRUE(std::getline(table, line));
  const std::vector<std::string> row = words(line);
  ASSERT_EQ(row.size(), header.size()) << line;
  std::map<std::string, std::string> columns;
  for (size_t c = 0; c < header.size(); ++c) columns[header[c]] = row[c];

  auto json = ParseJson(feed("SHOW JOBS JSON;"));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const ValueArray& jobs = json.value().as_map().at("jobs").as_array();
  ASSERT_EQ(jobs.size(), 1u);
  auto text = [](const Value& v) {
    return v.kind() == TypeKind::kString ? v.as_string()
                                         : std::to_string(v.ToInt64());
  };
  std::map<std::string, std::string> keys;
  for (const auto& [key, value] : jobs[0].as_map()) {
    if (value.kind() != TypeKind::kMap) {
      keys[key] = text(value);
      continue;
    }
    for (const auto& [member, v] : value.as_map()) keys[key + "." + member] = text(v);
  }
  EXPECT_EQ(keys.at("uptime_ms"), "500");  // since submission
  EXPECT_NE(keys.at("bytes_in"), "0");
  for (const auto& [key, value] : keys) {
    auto column = columns.find(key);
    ASSERT_NE(column, columns.end()) << "no SHOW JOBS column " << key;
    EXPECT_EQ(column->second, value) << key;
  }
  EXPECT_EQ(columns.size(), keys.size());
}

TEST_F(ShellTest, ShowMetricsWithNoJobsIsEmpty) {
  std::string out = Feed("SHOW METRICS;");
  EXPECT_NE(out.find("0 metric(s)"), std::string::npos);
}

TEST_F(ShellTest, ShowMetricsSurfacesWindowedJoinObservability) {
  // A windowed stream-stream join (paper §2: packet latency between two
  // routers), driven to quiescence, then inspected via SHOW METRICS.
  ASSERT_TRUE(workload::ProducePackets(*env_, 300).ok());
  std::string out = Feed(
      "SELECT STREAM PacketsR1.packetId, "
      "PacketsR2.rowtime - PacketsR1.rowtime AS timeToTravel "
      "FROM PacketsR1 JOIN PacketsR2 ON "
      "PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND "
      "AND PacketsR2.rowtime + INTERVAL '2' SECOND "
      "AND PacketsR1.packetId = PacketsR2.packetId;");
  ASSERT_NE(out.find("submitted"), std::string::npos) << out;
  Feed("!run");

  std::string table = Feed("SHOW METRICS;");
  // Per-operator processed counters and latency percentiles.
  EXPECT_NE(table.find("scan.processed"), std::string::npos) << table;
  EXPECT_NE(table.find("stream-stream-join.processed"), std::string::npos) << table;
  EXPECT_NE(table.find("latency_ns"), std::string::npos);
  EXPECT_NE(table.find("p50="), std::string::npos);
  EXPECT_NE(table.find("p95="), std::string::npos);
  EXPECT_NE(table.find("p99="), std::string::npos);
  // Event-time progress and lag behind wall clock.
  EXPECT_NE(table.find("watermark_ms"), std::string::npos);
  EXPECT_NE(table.find("watermark_lag_ms"), std::string::npos);
  // Per-partition consumer lag gauges for both input topics.
  EXPECT_NE(table.find("lag.PacketsR1.0"), std::string::npos);
  EXPECT_NE(table.find("lag.PacketsR1.1"), std::string::npos);
  EXPECT_NE(table.find("lag.PacketsR2.0"), std::string::npos);

  std::string json = Feed("SHOW METRICS JSON;");
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"ts_ms\":"), std::string::npos);
  // Lower-case keyword and leading whitespace also work.
  EXPECT_NE(Feed("  show metrics;").find("metric(s)"), std::string::npos);
}

// The tracer is process-global; these tests reset it around each run so state
// never leaks into (or from) other tests in this binary.
class TracedShellTest : public ShellTest {
 protected:
  void SetUp() override {
    Tracer::Instance().Reset();
    ShellTest::SetUp();
  }
  void TearDown() override { Tracer::Instance().Reset(); }

  // Parse "key=<int>" from the machine-readable EXPLAIN ANALYZE footer.
  static int64_t FooterValue(const std::string& text, const std::string& key) {
    size_t pos = text.find(key + "=");
    if (pos == std::string::npos) {
      ADD_FAILURE() << "footer key " << key << " missing in:\n" << text;
      return -1;
    }
    return std::atoll(text.c_str() + pos + key.size() + 1);
  }
};

TEST_F(TracedShellTest, ExplainAnalyzeAnnotatesPlanWithSpanStats) {
  // Fusion is on by default, so the terminal scan<-filter<-project chain
  // reports as one fused stage covering every plan line plus the insert.
  std::string out =
      Feed("EXPLAIN ANALYZE SELECT STREAM orderId, units * 2 AS doubled "
           "FROM Orders WHERE units > 50;");
  // Header names the profiled job and how many traces/spans were captured.
  EXPECT_NE(out.find("EXPLAIN ANALYZE samzasql-query-0 (traces="), std::string::npos)
      << out;
  // Every covered plan line carries the fused stage's annotation.
  EXPECT_NE(out.find("fused<op0..op2> count="), std::string::npos) << out;
  EXPECT_EQ(out.find("[no sampled spans]"), std::string::npos) << out;
  EXPECT_NE(out.find("incl="), std::string::npos);
  EXPECT_NE(out.find("self%="), std::string::npos);
  // The stream-insert root (subsumed by the stage) keeps its synthetic line.
  EXPECT_NE(out.find("insert -> samzasql-query-0-output"), std::string::npos) << out;
  // The container dispatches in batches: one "process" span per run.
  EXPECT_NE(out.find("process: count="), std::string::npos) << out;
  // Serde share now comes from the stage's decode/encode child spans.
  EXPECT_NE(out.find("serde share:"), std::string::npos);
  EXPECT_NE(out.find("decode+encode self ="), std::string::npos) << out;
  // Profiling must not leave the sample rate forced to 1.0.
  EXPECT_DOUBLE_EQ(Tracer::Instance().sample_rate(), 0.0);
}

TEST_F(TracedShellTest, ExplainNamesTheFusedJoinStageByItsOperatorRange) {
  ASSERT_TRUE(workload::ProduceProducts(*env_, 100).ok());
  const std::string query =
      "SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, "
      "Orders.units, Products.supplierId FROM Orders JOIN Products ON "
      "Orders.productId = Products.productId;";
  // Project op0, join op1 and the Orders scan op2 are one stage that probes
  // the join's store; the Products scan (op3) stays an operator.
  std::string out = Feed("EXPLAIN " + query);
  EXPECT_NE(out.find("stage fused<op0..op2>: plan lines 0..2 + insert, probes "
                     "op1-table"),
            std::string::npos)
      << out;
  out = Feed("EXPLAIN ANALYZE " + query);
  EXPECT_NE(out.find("fused<op0..op2> count="), std::string::npos) << out;
  EXPECT_NE(out.find("op3-scan count="), std::string::npos) << out;
  // The join line carries the stage and the relation-side upsert operator.
  EXPECT_NE(out.find("op1-stream-table-join count="), std::string::npos) << out;
  EXPECT_EQ(out.find("[no sampled spans]"), std::string::npos) << out;
}

TEST_F(TracedShellTest, ExplainAnalyzeInterpretedWhenFusionOff) {
  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 1);
  defaults.Set(sqlcfg::kFusion, "off");
  shell_ = std::make_unique<Shell>(env_, defaults);
  std::string out =
      Feed("EXPLAIN ANALYZE SELECT STREAM orderId, units * 2 AS doubled "
           "FROM Orders WHERE units > 50;");
  // Every plan line carries a per-operator annotation with plan-unique ids.
  EXPECT_NE(out.find("op0-"), std::string::npos) << out;
  EXPECT_NE(out.find("-scan count="), std::string::npos) << out;
  EXPECT_NE(out.find("-insert count="), std::string::npos) << out;
  EXPECT_EQ(out.find("fused<"), std::string::npos) << out;
  EXPECT_NE(out.find("process: count="), std::string::npos) << out;
  EXPECT_NE(out.find("scan+insert self ="), std::string::npos) << out;
}

TEST_F(TracedShellTest, ExplainAnalyzeSelfTimesSumToContainerBusyTime) {
  // Acceptance criterion: on a windowed-join query, per-operator self times
  // must sum (within 10%) to the container's measured busy time for the
  // sampled tuples — no double counting, nothing unattributed.
  ASSERT_TRUE(workload::ProducePackets(*env_, 300).ok());
  std::string out = Feed(
      "EXPLAIN ANALYZE SELECT STREAM PacketsR1.packetId, "
      "PacketsR2.rowtime - PacketsR1.rowtime AS timeToTravel "
      "FROM PacketsR1 JOIN PacketsR2 ON "
      "PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND "
      "AND PacketsR2.rowtime + INTERVAL '2' SECOND "
      "AND PacketsR1.packetId = PacketsR2.packetId;");
  EXPECT_NE(out.find("-join count="), std::string::npos) << out;
  int64_t total_self = FooterValue(out, "total_self_ns");
  int64_t op_self = FooterValue(out, "operator_self_ns");
  int64_t busy = FooterValue(out, "traced_busy_ns");
  ASSERT_GT(busy, 0) << out;
  ASSERT_GT(op_self, 0) << out;
  EXPECT_LE(std::abs(total_self - busy), busy / 10)
      << "total_self_ns=" << total_self << " traced_busy_ns=" << busy;
  // Operators can never account for more than the container busy time.
  EXPECT_LE(op_self, total_self);
}

TEST_F(TracedShellTest, ExplainAnalyzeRejectsBatchQueries) {
  std::string out =
      Feed("EXPLAIN ANALYZE SELECT COUNT(*) AS c FROM Orders "
           "GROUP BY FLOOR(rowtime TO DAY);");
  EXPECT_NE(out.find("ERROR"), std::string::npos) << out;
  // Plain EXPLAIN is untouched by the ANALYZE path.
  out = Feed("EXPLAIN SELECT STREAM orderId FROM Orders;");
  EXPECT_EQ(out.find("traces="), std::string::npos) << out;
  EXPECT_NE(out.find("Scan("), std::string::npos) << out;
}

TEST_F(TracedShellTest, ShowTraceSummarizesAndExportsSpans) {
  Feed("EXPLAIN ANALYZE SELECT STREAM orderId FROM Orders WHERE units > 10;");
  std::string out = Feed("SHOW TRACE;");
  EXPECT_NE(out.find("traces="), std::string::npos) << out;
  EXPECT_NE(out.find("sample_rate="), std::string::npos);
  EXPECT_NE(out.find("process"), std::string::npos) << out;
  // Scoped to one job, span names keep their plan-unique operator ids
  // (fused stages carry the covered id range in their label).
  out = Feed("SHOW TRACE samzasql-query-0;");
  EXPECT_NE(out.find("fused<op0"), std::string::npos) << out;
  // Chrome trace export for chrome://tracing / Perfetto.
  out = Feed("SHOW TRACE JSON;");
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos) << out;
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(ShellTest, ShowDlqSummarizesDeadLetteredRecords) {
  // A shell whose jobs dead-letter poison instead of crashing.
  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 1);
  defaults.Set(cfg::kTaskErrorPolicy, "dead-letter");
  shell_ = std::make_unique<Shell>(env_, defaults);

  std::string out = Feed("SHOW DLQ;");
  EXPECT_NE(out.find("no dead-letter topics"), std::string::npos) << out;

  // One undeserializable record amidst the valid orders.
  Producer raw(env_->broker);
  ASSERT_TRUE(raw.SendTo({"Orders", 1}, Bytes{}, Bytes{0xff}).ok());
  Feed("SELECT STREAM orderId FROM Orders WHERE units > 95;");
  Feed("!run");

  out = Feed("SHOW DLQ;");
  EXPECT_NE(out.find("samzasql-query-0.dlq"), std::string::npos) << out;
  EXPECT_NE(out.find("1 record(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("origin=Orders[1]"), std::string::npos) << out;
  EXPECT_NE(out.find("error:"), std::string::npos) << out;

  std::string json = Feed("SHOW DLQ JSON;");
  EXPECT_NE(json.find("\"topic\":\"samzasql-query-0.dlq\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"records\":1"), std::string::npos);
  EXPECT_NE(json.find("\"task\":"), std::string::npos);
  EXPECT_NE(json.find("\"error\":"), std::string::npos);

  // A job filter that matches nothing reports that, not other jobs' queues.
  out = Feed("SHOW DLQ nosuchjob;");
  EXPECT_NE(out.find("no dead-letter topics for nosuchjob"), std::string::npos)
      << out;
}

TEST_F(ShellTest, UnknownMetaCommand) {
  EXPECT_NE(Feed("!frobnicate").find("unknown command"), std::string::npos);
}

TEST_F(ShellTest, QuitStopsShell) {
  Feed("!quit");
  EXPECT_FALSE(alive_);
}

TEST_F(ShellTest, ReplRunsScript) {
  std::istringstream in(
      "!tables\n"
      "SELECT COUNT(*) AS c FROM Orders GROUP BY FLOOR(rowtime TO DAY);\n"
      "!quit\n");
  std::ostringstream out;
  shell_->Repl(in, out);
  EXPECT_NE(out.str().find("stream Orders"), std::string::npos);
  EXPECT_NE(out.str().find("200"), std::string::npos);
}

TEST(ShellFormatTest, AlignsColumns) {
  auto schema = Schema::Make("T", {{"id", FieldType::Int64(), false},
                                   {"name", FieldType::String(), false}});
  std::vector<Row> rows = {{Value(int64_t{1}), Value("a")},
                           {Value(int64_t{1000}), Value("longer")}};
  std::string table = Shell::FormatTable(schema, rows);
  EXPECT_NE(table.find("| id   | name   |"), std::string::npos);
  EXPECT_NE(table.find("| 1000 | longer |"), std::string::npos);
  EXPECT_NE(table.find("2 row(s)"), std::string::npos);
}

TEST(ShellFormatTest, TruncatesLongResults) {
  auto schema = Schema::Make("T", {{"id", FieldType::Int64(), false}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({Value(i)});
  std::string table = Shell::FormatTable(schema, rows, 5);
  EXPECT_NE(table.find("100 row(s) (showing first 5)"), std::string::npos);
}

}  // namespace
}  // namespace sqs::core
