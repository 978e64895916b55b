// Monitoring subsystem tests: Prometheus text exposition (validated with a
// small parser), the embedded HTTP server, the metrics history ring, the
// alert engine's pending/firing/resolved lifecycle, and the full monitor
// wired into a QueryExecutor running a windowed join — including the
// /readyz 200 -> 503 -> 200 flip as consumer lag crosses the threshold.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/alerts.h"
#include "common/buildinfo.h"
#include "common/flightrec.h"
#include "common/history.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/prometheus.h"
#include "core/shell.h"
#include "http/http_server.h"
#include "http/monitor.h"
#include "serde/json.h"
#include "workload/generators.h"

namespace sqs::core {
namespace {

// ---------------------------------------------------------------------------
// A minimal Prometheus 0.0.4 exposition parser used to validate /metrics
// output structurally (names, labels, types, bucket invariants).

struct PromSample {
  std::string name;  // full sample name, e.g. "samzasql_latency_ns_bucket"
  std::map<std::string, std::string> labels;
  double value = 0;
};

struct PromExposition {
  // family -> counter|gauge|histogram|summary
  std::map<std::string, std::string> types;
  std::vector<PromSample> samples;
};

bool ValidPromName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
              (i > 0 && std::isdigit(static_cast<unsigned char>(c)));
    if (!ok) return false;
  }
  return true;
}

// Parses one exposition document, recording a test failure on any malformed
// line (void helper so gtest's fatal ASSERT macros are usable).
void ParseExpositionInto(const std::string& text, PromExposition& out) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.compare(0, 7, "# HELP ") == 0) continue;
    if (line.compare(0, 7, "# TYPE ") == 0) {
      std::istringstream rest(line.substr(7));
      std::string family, type;
      rest >> family >> type;
      EXPECT_TRUE(ValidPromName(family)) << line;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram" ||
                  type == "summary")
          << line;
      out.types[family] = type;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;
    PromSample sample;
    size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    sample.name = line.substr(0, name_end);
    EXPECT_TRUE(ValidPromName(sample.name)) << line;
    size_t pos = name_end;
    if (line[pos] == '{') {
      ++pos;
      while (pos < line.size() && line[pos] != '}') {
        size_t eq = line.find('=', pos);
        ASSERT_NE(eq, std::string::npos) << line;
        std::string key = line.substr(pos, eq - pos);
        EXPECT_TRUE(ValidPromName(key)) << line;
        ASSERT_EQ(line[eq + 1], '"') << line;
        std::string value;
        size_t i = eq + 2;
        for (; i < line.size() && line[i] != '"'; ++i) {
          if (line[i] == '\\') {
            ++i;
            ASSERT_LT(i, line.size()) << line;
            value += line[i] == 'n' ? '\n' : line[i];
          } else {
            value += line[i];
          }
        }
        ASSERT_LT(i, line.size()) << "unterminated label value: " << line;
        sample.labels[key] = value;
        pos = i + 1;
        if (pos < line.size() && line[pos] == ',') ++pos;
      }
      ASSERT_LT(pos, line.size()) << "unterminated label set: " << line;
      ++pos;  // '}'
    }
    ASSERT_EQ(line[pos], ' ') << line;
    std::string value_text = line.substr(pos + 1);
    char* end = nullptr;
    sample.value = std::strtod(value_text.c_str(), &end);
    EXPECT_EQ(end, value_text.c_str() + value_text.size())
        << "bad sample value: " << line;
    out.samples.push_back(std::move(sample));
  }
  // Every sample must belong to a declared family (histogram and summary
  // series hang off the base family's TYPE line).
  for (const PromSample& s : out.samples) {
    std::string family = s.name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      size_t len = std::string(suffix).size();
      if (family.size() > len &&
          family.compare(family.size() - len, len, suffix) == 0) {
        std::string base = family.substr(0, family.size() - len);
        if (out.types.count(base) &&
            (out.types[base] == "histogram" || out.types[base] == "summary")) {
          family = base;
        }
      }
    }
    EXPECT_TRUE(out.types.count(family)) << "sample without TYPE: " << s.name;
  }
}

PromExposition ParseExposition(const std::string& text) {
  PromExposition out;
  ParseExpositionInto(text, out);
  return out;
}

// ---------------------------------------------------------------------------
// Prometheus rendering

TEST(PrometheusTest, NameSanitization) {
  EXPECT_EQ(PrometheusName("processed"), "processed");
  EXPECT_EQ(PrometheusName("op2-filter"), "op2_filter");
  EXPECT_EQ(PrometheusName("9lives"), "_9lives");
  EXPECT_EQ(PrometheusName("a.b c"), "a_b_c");
  EXPECT_EQ(PrometheusName(""), "_");
}

TEST(PrometheusTest, LabelValueEscaping) {
  EXPECT_EQ(PrometheusLabelValue("plain"), "plain");
  EXPECT_EQ(PrometheusLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(PrometheusLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusLabelValue("a\nb"), "a\\nb");
}

TEST(PrometheusTest, ScalarFamiliesAndScopeLabels) {
  MetricsRegistry registry;
  registry.GetCounter("q0.Partition_0.op2-filter.processed").Inc(42);
  registry.GetGauge("q0.Partition_0.op3-window.watermark_ms").Set(5000);
  registry.GetTimer("q0.container0.busy_ns").Add(2'500'000'000);
  std::string text = RenderPrometheus(registry.Snapshot());
  PromExposition exp = ParseExposition(text);

  EXPECT_EQ(exp.types.at("samzasql_processed_total"), "counter");
  EXPECT_EQ(exp.types.at("samzasql_watermark_ms"), "gauge");
  EXPECT_EQ(exp.types.at("samzasql_busy_ns_seconds_total"), "counter");
  bool found = false;
  for (const PromSample& s : exp.samples) {
    if (s.name == "samzasql_processed_total") {
      found = true;
      // The dotted scope — including the plan-generated operator id with its
      // '-' — survives as an escaped label value, not a mangled name.
      EXPECT_EQ(s.labels.at("scope"), "q0.Partition_0.op2-filter");
      EXPECT_EQ(s.value, 42);
    }
    if (s.name == "samzasql_busy_ns_seconds_total") {
      EXPECT_DOUBLE_EQ(s.value, 2.5);  // ns -> s
    }
  }
  EXPECT_TRUE(found);
}

TEST(PrometheusTest, LagGaugesBecomeConsumerLagFamily) {
  MetricsRegistry registry;
  registry.GetGauge("samzasql-query-0.container0.lag.PacketsR1.0").Set(7);
  registry.GetGauge("samzasql-query-0.container0.lag.PacketsR1.1").Set(9);
  PromExposition exp = ParseExposition(RenderPrometheus(registry.Snapshot()));
  EXPECT_EQ(exp.types.at("samzasql_consumer_lag"), "gauge");
  std::set<std::string> partitions;
  for (const PromSample& s : exp.samples) {
    ASSERT_EQ(s.name, "samzasql_consumer_lag");
    EXPECT_EQ(s.labels.at("scope"), "samzasql-query-0.container0");
    EXPECT_EQ(s.labels.at("topic"), "PacketsR1");
    partitions.insert(s.labels.at("partition"));
  }
  EXPECT_EQ(partitions, (std::set<std::string>{"0", "1"}));
}

TEST(PrometheusTest, RetryCountersBecomeOpLabeledFamilies) {
  MetricsRegistry registry;
  registry.GetCounter("q0.container0.retry.send.retries").Inc(3);
  registry.GetCounter("q0.container0.retry.fetch.retries").Inc(2);
  registry.GetCounter("q0.container0.retry.changelog.retries").Inc(5);
  registry.GetCounter("q0.container0.retry.checkpoint.giveups").Inc(1);
  PromExposition exp = ParseExposition(RenderPrometheus(registry.Snapshot()));

  // One retries_total / giveups_total family each, with the operation as a
  // label — not four differently named families.
  EXPECT_EQ(exp.types.at("samzasql_retries_total"), "counter");
  EXPECT_EQ(exp.types.at("samzasql_giveups_total"), "counter");
  std::map<std::string, double> retries_by_op;
  for (const PromSample& s : exp.samples) {
    if (s.name == "samzasql_retries_total") {
      EXPECT_EQ(s.labels.at("scope"), "q0.container0");
      retries_by_op[s.labels.at("op")] = s.value;
    }
    if (s.name == "samzasql_giveups_total") {
      EXPECT_EQ(s.labels.at("scope"), "q0.container0");
      EXPECT_EQ(s.labels.at("op"), "checkpoint");
      EXPECT_EQ(s.value, 1);
    }
  }
  EXPECT_EQ(retries_by_op.at("send"), 3);
  EXPECT_EQ(retries_by_op.at("fetch"), 2);
  EXPECT_EQ(retries_by_op.at("changelog"), 5);
}

TEST(PrometheusTest, HistogramBucketsMonotoneAndConsistentWithSnapshot) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("q0.t0.op1-project.latency_ns");
  for (int64_t v : {1, 5, 17, 17, 300, 5000, 5000, 123'456}) h.Record(v);
  MetricsSnapshot snap = registry.Snapshot();
  PromExposition exp = ParseExposition(RenderPrometheus(snap));
  EXPECT_EQ(exp.types.at("samzasql_latency_ns"), "histogram");

  double last_le = -1, last_cumulative = -1, count = -1, sum = -1, inf = -1;
  for (const PromSample& s : exp.samples) {
    if (s.name == "samzasql_latency_ns_bucket") {
      if (s.labels.at("le") == "+Inf") {
        inf = s.value;
        continue;
      }
      double le = std::atof(s.labels.at("le").c_str());
      EXPECT_GT(le, last_le) << "le bounds must strictly increase";
      EXPECT_GE(s.value, last_cumulative) << "cumulative counts must not drop";
      last_le = le;
      last_cumulative = s.value;
    } else if (s.name == "samzasql_latency_ns_count") {
      count = s.value;
    } else if (s.name == "samzasql_latency_ns_sum") {
      sum = s.value;
    }
  }
  const HistogramStats& stats = snap.histograms.at("q0.t0.op1-project.latency_ns");
  EXPECT_EQ(count, static_cast<double>(stats.count));
  EXPECT_EQ(sum, static_cast<double>(stats.sum));
  EXPECT_EQ(inf, count) << "+Inf bucket must equal _count";
  EXPECT_EQ(last_cumulative, count) << "all recordings are finite here";
  // Companion range gauges.
  EXPECT_EQ(exp.types.at("samzasql_latency_ns_min"), "gauge");
  EXPECT_EQ(exp.types.at("samzasql_latency_ns_max"), "gauge");
}

TEST(PrometheusTest, SnapshotBucketExportIsCumulative) {
  Histogram h;
  for (int64_t v : {1, 1, 2, 100, 100, 100}) h.Record(v);
  HistogramStats stats = h.GetStats();
  ASSERT_FALSE(stats.buckets.empty());
  int64_t last_le = -1, last_cum = 0;
  for (const auto& [le, cumulative] : stats.buckets) {
    EXPECT_GT(le, last_le);
    EXPECT_GE(cumulative, last_cum);
    last_le = le;
    last_cum = cumulative;
  }
  EXPECT_EQ(last_cum, stats.count);
}

// ---------------------------------------------------------------------------
// HTTP server

TEST(HttpServerTest, ServesRequestsOnEphemeralPort) {
  HttpServer server(0, [](const HttpRequest& req) {
    HttpResponse res;
    if (req.path == "/echo") {
      res.body = "path=" + req.path + " query=" + req.query;
    } else {
      res.status = 404;
      res.body = "nope";
    }
    return res;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto res = HttpGet("127.0.0.1", server.port(), "/echo?a=1");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().status, 200);
  EXPECT_EQ(res.value().body, "path=/echo query=a=1");

  auto missing = HttpGet("127.0.0.1", server.port(), "/other");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);

  EXPECT_EQ(server.requests_served(), 2);
  server.Stop();
  EXPECT_FALSE(server.running());
  // Stop is idempotent and the port is released for later binds.
  server.Stop();
}

TEST(HttpServerTest, StartTwiceFailsAndStopUnblocksAccept) {
  HttpServer server(0, [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());
  server.Stop();  // must return (accept() unblocked) rather than hang
}

// ---------------------------------------------------------------------------
// Metrics history ring

TEST(MetricsHistoryTest, RingKeepsMostRecentSamples) {
  MetricsHistory history(4);
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("job.processed");
  for (int64_t t = 1; t <= 10; ++t) {
    c.Inc(10);
    history.Record(t * 1000, registry.Snapshot());
  }
  std::vector<MetricsHistory::Point> points = history.Series("job.processed");
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points.front().ts_ms, 7000);
  EXPECT_EQ(points.back().ts_ms, 10000);
  EXPECT_EQ(points.back().value, 100.0);
  // (100-70) counts over 3 seconds.
  EXPECT_DOUBLE_EQ(history.RatePerSec("job.processed"), 10.0);
  EXPECT_TRUE(history.Series("unknown").empty());
  EXPECT_EQ(history.RatePerSec("unknown"), 0.0);
}

TEST(MetricsHistoryTest, RecordsHistogramCountAndP99) {
  MetricsHistory history;
  MetricsRegistry registry;
  registry.GetHistogram("job.latency_ns").Record(100);
  history.Record(1000, registry.Snapshot());
  EXPECT_EQ(history.Series("job.latency_ns.count").size(), 1u);
  EXPECT_EQ(history.Series("job.latency_ns.p99").size(), 1u);
  std::string json = history.ToJson();
  EXPECT_NE(json.find("\"name\":\"job.latency_ns.count\""), std::string::npos);
  EXPECT_NE(json.find("\"rate_per_s\":"), std::string::npos);
  // Prefix filter.
  EXPECT_EQ(history.ToJson("other.").find("latency"), std::string::npos);
}

TEST(MetricsHistoryTest, SparklineScalesToRange) {
  std::vector<MetricsHistory::Point> ramp;
  for (int i = 0; i <= 8; ++i) {
    ramp.push_back({i * 1000, static_cast<double>(i)});
  }
  std::string spark = AsciiSparkline(ramp);
  ASSERT_EQ(spark.size(), ramp.size());
  EXPECT_EQ(spark.front(), ' ');   // min of range
  EXPECT_EQ(spark.back(), '@');    // max of range
  // Flat series renders at the low end, not mid-scale noise.
  std::string flat = AsciiSparkline({{0, 5.0}, {1000, 5.0}, {2000, 5.0}});
  EXPECT_EQ(flat, "   ");
}

// ---------------------------------------------------------------------------
// Alert engine

TEST(AlertEngineTest, ParsesRuleGrammar) {
  auto rules = AlertEngine::ParseRules(
      "consumer_lag>10000 for 5s; dropped rate>0;watermark_lag_ms >= 60000 for 2m");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules.value().size(), 3u);
  EXPECT_EQ(rules.value()[0].selector, "consumer_lag");
  EXPECT_EQ(rules.value()[0].for_ms, 5000);
  EXPECT_EQ(rules.value()[0].text, "consumer_lag>10000 for 5000ms");
  EXPECT_TRUE(rules.value()[1].rate);
  EXPECT_EQ(rules.value()[1].for_ms, 0);
  EXPECT_EQ(rules.value()[2].op, ">=");
  EXPECT_EQ(rules.value()[2].for_ms, 120'000);

  EXPECT_TRUE(AlertEngine::ParseRules("").ok());
  EXPECT_FALSE(AlertEngine::ParseRules("no_comparator").ok());
  EXPECT_FALSE(AlertEngine::ParseRules("x>abc").ok());
  EXPECT_FALSE(AlertEngine::ParseRules("x>1 for 5parsecs").ok());
  EXPECT_FALSE(AlertEngine::ParseRules("x bogus>1").ok());
}

TEST(AlertEngineTest, PendingFiringResolvedLifecycle) {
  AlertEngine engine(AlertEngine::ParseRules("consumer_lag>100 for 1s").value());
  MetricsRegistry registry;
  Gauge& lag = registry.GetGauge("q0.container0.lag.Orders.0");

  lag.Set(500);
  engine.Evaluate(10'000, registry.Snapshot(), nullptr);
  ASSERT_EQ(engine.Statuses().size(), 1u);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kPending);
  EXPECT_EQ(engine.FiringCount(), 0);

  // Still pending inside the `for` window, firing once it has held 1s.
  engine.Evaluate(10'500, registry.Snapshot(), nullptr);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kPending);
  engine.Evaluate(11'000, registry.Snapshot(), nullptr);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kFiring);
  EXPECT_EQ(engine.FiringCount(), 1);
  EXPECT_EQ(engine.Statuses()[0].subject, "q0.container0.lag.Orders.0");
  EXPECT_EQ(engine.Statuses()[0].value, 500.0);

  lag.Set(0);
  engine.Evaluate(12'000, registry.Snapshot(), nullptr);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kInactive);
  EXPECT_EQ(engine.Statuses()[0].fired_count, 1);
  EXPECT_EQ(engine.FiringCount(), 0);

  std::string json = engine.ToJson(12'000);
  EXPECT_NE(json.find("\"state\":\"inactive\""), std::string::npos);
  EXPECT_NE(json.find("\"fired_count\":1"), std::string::npos);
}

TEST(AlertEngineTest, ConditionInterruptionResetsPending) {
  AlertEngine engine(AlertEngine::ParseRules("consumer_lag>100 for 1s").value());
  MetricsRegistry registry;
  Gauge& lag = registry.GetGauge("q.c.lag.T.0");
  lag.Set(500);
  engine.Evaluate(1000, registry.Snapshot(), nullptr);
  lag.Set(0);
  engine.Evaluate(1500, registry.Snapshot(), nullptr);
  lag.Set(500);
  engine.Evaluate(1900, registry.Snapshot(), nullptr);
  // The hold restarted at 1900; 1s has not elapsed since.
  engine.Evaluate(2800, registry.Snapshot(), nullptr);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kPending);
  engine.Evaluate(2900, registry.Snapshot(), nullptr);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kFiring);
}

TEST(AlertEngineTest, RateRulesReadHistory) {
  AlertEngine engine(AlertEngine::ParseRules("dropped rate>0").value());
  MetricsHistory history;
  MetricsRegistry registry;
  Counter& dropped = registry.GetCounter("q0.t0.op1-window.dropped");
  history.Record(1000, registry.Snapshot());
  engine.Evaluate(1000, registry.Snapshot(), &history);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kInactive);

  dropped.Inc(10);
  history.Record(2000, registry.Snapshot());
  engine.Evaluate(2000, registry.Snapshot(), &history);
  // for_ms=0: fires the same tick the condition first holds.
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kFiring);
  EXPECT_EQ(engine.Statuses()[0].value, 10.0);
}

TEST(AlertEngineTest, MissingMetricNeverTrips) {
  AlertEngine engine(AlertEngine::ParseRules("throughput<5").value());
  MetricsRegistry registry;  // no matching metric
  engine.Evaluate(1000, registry.Snapshot(), nullptr);
  EXPECT_EQ(engine.Statuses()[0].state, AlertState::kInactive);
}

// ---------------------------------------------------------------------------
// MonitorServer + executor integration

constexpr const char* kJoinSql =
    "SELECT STREAM PacketsR1.packetId, "
    "PacketsR2.rowtime - PacketsR1.rowtime AS timeToTravel "
    "FROM PacketsR1 JOIN PacketsR2 ON "
    "PacketsR1.rowtime BETWEEN PacketsR2.rowtime - INTERVAL '2' SECOND "
    "AND PacketsR2.rowtime + INTERVAL '2' SECOND "
    "AND PacketsR1.packetId = PacketsR2.packetId";

class MonitorIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<ManualClock>(1'000'000);
    env_ = SamzaSqlEnvironment::Make(clock_);
    ASSERT_TRUE(workload::SetupPaperSources(*env_, 2).ok());
    ASSERT_TRUE(workload::ProducePackets(*env_, 300).ok());
    Config defaults;
    defaults.SetInt(cfg::kContainerCount, 1);
    defaults.SetBool(cfg::kMonitorEnable, true);
    defaults.SetInt(cfg::kMonitorPort, 0);
    defaults.SetInt(cfg::kMonitorReadyMaxConsumerLag, 10);
    defaults.Set(cfg::kAlertRules, "consumer_lag>10 for 1s");
    executor_ = std::make_unique<QueryExecutor>(env_, defaults);
  }

  HttpResponse Get(const std::string& path) {
    auto res = HttpGet("127.0.0.1", executor_->monitor().port(), path);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res.ok() ? res.value() : HttpResponse{};
  }

  std::shared_ptr<ManualClock> clock_;
  EnvironmentPtr env_;
  std::unique_ptr<QueryExecutor> executor_;
};

TEST_F(MonitorIntegrationTest, MetricsEndpointServesValidExposition) {
  ASSERT_TRUE(executor_->Execute(kJoinSql).ok());
  ASSERT_TRUE(executor_->monitor().http_running());
  ASSERT_GT(executor_->monitor().port(), 0);

  HttpResponse health = Get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());
  HttpResponse metrics = Get("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, kPrometheusContentType);
  PromExposition exp = ParseExposition(metrics.body);
  EXPECT_FALSE(exp.samples.empty());
  EXPECT_EQ(exp.types.at("samzasql_consumer_lag"), "gauge");
  EXPECT_EQ(exp.types.at("samzasql_processed_total"), "counter");
  EXPECT_EQ(exp.types.at("samzasql_process_latency_ns"), "histogram");
  bool join_scope = false;
  for (const PromSample& s : exp.samples) {
    auto it = s.labels.find("scope");
    if (it != s.labels.end() &&
        it->second.find("stream-stream-join") != std::string::npos) {
      join_scope = true;
    }
  }
  EXPECT_TRUE(join_scope) << "join operator metrics missing from exposition";

  // Resource-ledger families ride along in the exposition, one sample per
  // job, plus the e2e latency quantile summary (docs/LATENCY.md).
  EXPECT_EQ(exp.types.at("samzasql_job_rows_in_total"), "counter");
  EXPECT_EQ(exp.types.at("samzasql_job_e2e_latency_us"), "summary");
  bool ledger_rows = false;
  for (const PromSample& s : exp.samples) {
    if (s.name == "samzasql_job_rows_in_total" &&
        s.labels.count("job") && s.value > 0) {
      ledger_rows = true;
    }
  }
  EXPECT_TRUE(ledger_rows) << "job ledger reports no processed rows";

  HttpResponse jobs = Get("/jobs");
  EXPECT_EQ(jobs.status, 200);
  EXPECT_EQ(jobs.content_type, "application/json");
  EXPECT_NE(jobs.body.find("\"name\":\"samzasql-query-0\""), std::string::npos);
  EXPECT_NE(jobs.body.find("\"containers_running\":1"), std::string::npos);
  // Ledger enrichment of the /jobs payload: live rows/bytes/latency fields.
  for (const char* key :
       {"\"rows_in\":", "\"rows_out\":", "\"bytes_in\":", "\"bytes_out\":",
        "\"cpu_busy_ns\":", "\"uptime_ms\":", "\"freshness_lag_ms\":",
        "\"backlog_bytes\":", "\"e2e_latency_us\":"}) {
    EXPECT_NE(jobs.body.find(key), std::string::npos) << key;
  }

  HttpResponse index = Get("/");
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
  EXPECT_EQ(Get("/nope").status, 404);
}

TEST_F(MonitorIntegrationTest, ReadyzFlipsWithConsumerLag) {
  ASSERT_TRUE(executor_->Execute(kJoinSql).ok());
  // 300 packets of backlog per input: far over the threshold of 10.
  HttpResponse ready = Get("/readyz");
  EXPECT_EQ(ready.status, 503);
  EXPECT_NE(ready.body.find("consumer lag"), std::string::npos) << ready.body;

  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());
  ready = Get("/readyz");
  EXPECT_EQ(ready.status, 200) << ready.body;
  EXPECT_EQ(ready.body, "ready\n");

  // New backlog appears; lag gauges refresh on the next container poll.
  ASSERT_TRUE(workload::ProducePackets(*env_, 200).ok());
  ASSERT_TRUE(executor_->job(0)->container(0)->RunUntilCaughtUp(0).ok());
  ready = Get("/readyz");
  EXPECT_EQ(ready.status, 503);

  // A killed container is not ready regardless of lag.
  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());
  ASSERT_TRUE(executor_->job(0)->KillContainer(0).ok());
  ready = Get("/readyz");
  EXPECT_EQ(ready.status, 503);
  EXPECT_NE(ready.body.find("containers running"), std::string::npos) << ready.body;
  // A restarted container resumes from its last checkpoint, so it may report
  // replay lag until driven back to quiescence.
  ASSERT_TRUE(executor_->job(0)->RestartContainer(0).ok());
  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());
  EXPECT_EQ(Get("/readyz").status, 200);
}

TEST_F(MonitorIntegrationTest, AlertTransitionsUnderManualClock) {
  ASSERT_TRUE(executor_->Execute(kJoinSql).ok());
  MonitorServer& monitor = executor_->monitor();
  ASSERT_TRUE(monitor.rules_status().ok());

  // Backlog > 10: the rule's condition holds -> pending on the first tick.
  monitor.ForceTick();
  ASSERT_EQ(monitor.alerts().Statuses().size(), 1u);
  EXPECT_EQ(monitor.alerts().Statuses()[0].state, AlertState::kPending);

  clock_->Advance(1000);
  monitor.ForceTick();
  EXPECT_EQ(monitor.alerts().Statuses()[0].state, AlertState::kFiring);
  HttpResponse alerts = Get("/alerts");
  EXPECT_EQ(alerts.content_type, "application/json");
  EXPECT_NE(alerts.body.find("\"state\":\"firing\""), std::string::npos);
  EXPECT_NE(alerts.body.find("\"firing\":1"), std::string::npos);
  // The firing count is exported as a gauge for scrapers too.
  EXPECT_NE(Get("/metrics").body.find("samzasql_alerts_firing"), std::string::npos);

  // Draining the backlog resolves the alert on the next tick.
  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());
  clock_->Advance(1000);
  monitor.ForceTick();
  EXPECT_EQ(monitor.alerts().Statuses()[0].state, AlertState::kInactive);
  EXPECT_EQ(monitor.alerts().Statuses()[0].fired_count, 1);
  EXPECT_NE(Get("/alerts").body.find("\"state\":\"inactive\""), std::string::npos);
}

TEST_F(MonitorIntegrationTest, HistoryEndpointAccumulatesTicks) {
  ASSERT_TRUE(executor_->Execute(kJoinSql).ok());
  ASSERT_TRUE(executor_->RunJobsUntilQuiescent().ok());
  clock_->Advance(1000);
  executor_->monitor().Tick();
  HttpResponse history = Get("/history");
  EXPECT_EQ(history.status, 200);
  EXPECT_EQ(history.content_type, "application/json");
  EXPECT_NE(history.body.find("\"series\":["), std::string::npos);
  EXPECT_NE(history.body.find("processed"), std::string::npos);
  // ?job= filters to one job's series.
  HttpResponse filtered = Get("/history?job=samzasql-query-0");
  EXPECT_NE(filtered.body.find("samzasql-query-0"), std::string::npos);
  HttpResponse other = Get("/history?job=no-such-job");
  EXPECT_EQ(other.body.find("processed"), std::string::npos) << other.body;
}

TEST(MonitorServerTest, DisabledByDefaultButHistoryStillWorks) {
  auto env = SamzaSqlEnvironment::Make();
  QueryExecutor executor(env, Config());
  EXPECT_FALSE(executor.monitor().http_running());
  EXPECT_EQ(executor.monitor().port(), 0);
  executor.monitor().ForceTick();
  // Self-metrics tick even with no jobs submitted.
  EXPECT_FALSE(executor.monitor().history().Keys().empty());
  MonitorServer::Readiness ready = executor.monitor().CheckReadiness();
  EXPECT_TRUE(ready.ready);
}

TEST(MonitorServerTest, BadAlertRulesDisableAlertingNotConstruction) {
  Config config;
  config.Set(cfg::kAlertRules, "completely bogus");
  MonitorServer monitor(config, nullptr);
  EXPECT_FALSE(monitor.rules_status().ok());
  EXPECT_TRUE(monitor.alerts().empty());
  monitor.ForceTick();  // must not crash with no provider and no rules
}

// A rule, a job and a metric whose names carry '"' and a tab still render
// as parseable JSON with no raw control characters, and the names survive
// the round trip.
TEST(MonitorServerTest, JsonBodiesEscapeQuotesAndTabsInNames) {
  const std::string job = "we\"ird\tjob";
  const std::string metric = job + ".container0.a\"b";
  MetricsRegistry registry;
  registry.GetGauge(metric).Set(5);
  Config config;
  config.Set(cfg::kAlertRules, "a\"b>1");
  MonitorServer monitor(
      config,
      [&] {
        MonitorJobView view;
        view.name = job;
        view.snapshot = registry.Snapshot();
        return std::vector<MonitorJobView>{view};
      },
      std::make_shared<ManualClock>(1000));
  monitor.ForceTick();
  for (const char* path : {"/alerts", "/history", "/jobs"}) {
    HttpRequest request;
    request.path = path;
    const std::string body = monitor.Handle(request).body;
    EXPECT_TRUE(ParseJson(body).ok()) << path << ": " << body;
    for (char c : body) {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20) << path << ": " << body;
    }
  }
  HttpRequest request;
  request.path = "/alerts";
  Value alerts = ParseJson(monitor.Handle(request).body).value();
  const ValueMap& row = alerts.as_map().at("alerts").as_array().at(0).as_map();
  EXPECT_EQ(row.at("rule").as_string(), "a\"b>1");
  EXPECT_EQ(row.at("subject").as_string(), metric);
  EXPECT_EQ(row.at("state").as_string(), "firing");
  request.path = "/history";
  Value history = ParseJson(monitor.Handle(request).body).value();
  bool found = false;
  for (const Value& series : history.as_map().at("series").as_array()) {
    found |= series.as_map().at("name").as_string() == metric;
  }
  EXPECT_TRUE(found) << metric;
}

// One provider read per request: the pass that evaluates the rules also
// answers readiness, and /metrics and /jobs render the views that pass read,
// whether the request's history tick ran it or not, so each probe or scrape
// reads the job provider exactly once.
TEST(MonitorServerTest, ReadyzReadsTheProviderOncePerRequest) {
  for (const char* path : {"/readyz", "/metrics", "/jobs"}) {
    SCOPED_TRACE(path);
    auto clock = std::make_shared<ManualClock>(1000);
    Config config;
    config.SetInt(cfg::kMetricsHistoryIntervalMs, 1000);
    int calls = 0;
    MonitorServer monitor(
        config,
        [&calls] {
          ++calls;
          MonitorJobView view;
          view.name = "job";
          view.containers_total = 1;
          view.containers_running = 1;
          return std::vector<MonitorJobView>{view};
        },
        clock);
    HttpRequest request;
    request.path = path;
    Counter& ticks = monitor.self_metrics().GetCounter("monitor.ticks");
    // The first request finds a tick due; the next one, 10ms later, does
    // not; the third comes after a full history interval and ticks again.
    for (int64_t advance_ms : {0, 10, 1000}) {
      clock->Advance(advance_ms);
      calls = 0;
      HttpResponse res = monitor.Handle(request);
      EXPECT_EQ(res.status, 200) << res.body;
      EXPECT_EQ(calls, 1) << "after advancing " << advance_ms << "ms";
    }
    EXPECT_EQ(ticks.Get(), 2);
  }
}

// One engine, one event stream: a user rule, the latency SLO (grouped per
// job) and the stall watchdog (grouped per container) each fire and resolve
// exactly once through one MonitorServer, every transition lands in the
// flight recorder as exactly one event in the documented scope with
// (a, b) = (value, threshold), and /alerts lists every rule.
TEST(MonitorEventStreamTest, UserRuleSloAndStallTransitionOnceEachIntoOneRing) {
  FlightRecorder::Instance().SetEnabled(true);
  FlightRecorder::Instance().Clear();
  auto clock = std::make_shared<ManualClock>(50'000);
  MetricsRegistry registry;
  Gauge& depth = registry.GetGauge("ev-job.container0.queue_depth");
  Gauge& fresh0 = registry.GetGauge("ev-job.container0.freshness_lag_ms");
  Gauge& fresh1 = registry.GetGauge("ev-job.container1.freshness_lag_ms");
  std::vector<MonitorContainerStatus> containers = {{0, true, false, 0},
                                                    {1, true, false, 0}};
  Config config;
  config.Set(cfg::kAlertRules, "queue_depth>10");
  config.SetInt(cfg::kLatencySloMs, 1000);
  config.SetInt(cfg::kWatchdogStallMs, 100);
  config.SetInt(cfg::kWatchdogProfileMs, 0);
  MonitorServer monitor(
      config,
      [&] {
        MonitorJobView view;
        view.name = "ev-job";
        view.containers_total = 2;
        view.containers_running = 2;
        view.containers = containers;
        view.snapshot = registry.Snapshot();
        return std::vector<MonitorJobView>{view};
      },
      clock);

  struct Ev {
    FlightEventType type;
    std::string scope;
    int64_t a, b;
    bool operator==(const Ev& o) const {
      return type == o.type && scope == o.scope && a == o.a && b == o.b;
    }
  };
  auto events = [] {
    std::vector<Ev> out;
    for (const FlightEvent& ev : FlightRecorder::Instance().Snapshot("ev-job")) {
      out.push_back({ev.type, ev.scope, ev.a, ev.b});
    }
    return out;
  };
  auto print = [](const std::vector<Ev>& evs) {
    std::string s;
    for (const Ev& ev : evs) {
      s += std::string(FlightEventTypeName(ev.type)) + " " + ev.scope + " " +
           std::to_string(ev.a) + " " + std::to_string(ev.b) + "\n";
    }
    return s;
  };

  // Healthy: no transitions.
  monitor.ForceTick();
  EXPECT_TRUE(events().empty()) << print(events());
  EXPECT_TRUE(monitor.CheckReadiness().ready);

  // Every condition breaks at once: one event per rule and subject.
  depth.Set(50);
  fresh0.Set(4500);
  fresh1.Set(3000);
  containers[0] = {0, true, true, 500};
  containers[1] = {1, true, true, 700};
  clock->Advance(100);
  monitor.ForceTick();
  const std::vector<Ev> fired = {
      {FlightEventType::kAlertFiring, "ev-job.container0.queue_depth", 50, 10},
      {FlightEventType::kSloBreach, "ev-job", 4500, 1000},
      {FlightEventType::kStall, "ev-job.container0", 500, 100},
      {FlightEventType::kStall, "ev-job.container1", 700, 100},
  };
  EXPECT_EQ(events(), fired) << print(events());
  EXPECT_EQ(monitor.StalledContainers(),
            (std::vector<std::string>{"ev-job.container0", "ev-job.container1"}));
  EXPECT_FALSE(monitor.CheckReadiness().ready);

  // Still breached, evaluated from the watchdog's entry point: no new events.
  clock->Advance(100);
  monitor.RunWatchdogCheck();
  EXPECT_EQ(events(), fired) << print(events());

  // Everything clears: one resolve event per firing subject.
  depth.Set(0);
  fresh0.Set(0);
  fresh1.Set(0);
  containers[0] = {0, true, false, 0};
  containers[1] = {1, true, false, 0};
  clock->Advance(100);
  monitor.ForceTick();
  std::vector<Ev> all = fired;
  all.push_back({FlightEventType::kAlertResolved, "ev-job.container0.queue_depth", 0, 10});
  all.push_back({FlightEventType::kSloCleared, "ev-job", 0, 1000});
  all.push_back({FlightEventType::kStallCleared, "ev-job.container0", 0, 100});
  all.push_back({FlightEventType::kStallCleared, "ev-job.container1", 0, 100});
  EXPECT_EQ(events(), all) << print(events());
  EXPECT_TRUE(monitor.CheckReadiness().ready);
  EXPECT_TRUE(monitor.StalledContainers().empty());

  // Each rule fired exactly once; /alerts has one row per rule.
  std::vector<AlertStatus> statuses = monitor.alerts().Statuses();
  ASSERT_EQ(statuses.size(), 3u);
  for (const AlertStatus& status : statuses) {
    EXPECT_EQ(status.state, AlertState::kInactive) << status.rule.text;
  }
  EXPECT_EQ(statuses[0].fired_count, 1);
  EXPECT_EQ(statuses[1].fired_count, 1);   // one job
  EXPECT_EQ(statuses[2].fired_count, 2);   // two containers
  MetricsSnapshot self = monitor.self_metrics().Snapshot();
  EXPECT_EQ(self.counters.at("monitor.slo_breaches"), 1);
  EXPECT_EQ(self.counters.at("monitor.watchdog_stalls"), 2);
  HttpRequest request;
  request.path = "/alerts";
  const std::string body = monitor.Handle(request).body;
  for (const char* rule : {"\"rule\":\"queue_depth>10\"",
                           "\"rule\":\"freshness_lag_ms>1000\"",
                           "\"rule\":\"heartbeat_age_ms>100\""}) {
    EXPECT_NE(body.find(rule), std::string::npos) << rule << " in " << body;
  }
}

// The watchdog thread, the HTTP worker (/readyz) and the driving thread
// (ForceTick) evaluate one engine at once; every stall and every clear is
// still reported exactly once.
TEST(MonitorEventStreamTest, ConcurrentEvaluatorsReportEachTransitionOnce) {
  FlightRecorder::Instance().SetEnabled(true);
  FlightRecorder::Instance().Clear();
  std::atomic<int64_t> age{0};
  Config config;
  config.SetBool(cfg::kMonitorEnable, true);
  config.SetInt(cfg::kMonitorPort, 0);
  config.SetInt(cfg::kWatchdogStallMs, 100);  // the watchdog polls every 25 ms
  config.SetInt(cfg::kWatchdogProfileMs, 0);
  const std::thread::id ticking = std::this_thread::get_id();
  MonitorServer monitor(config, [&age, ticking] {
    MonitorJobView view;
    view.name = "cc-job";
    view.containers_total = 1;
    view.containers_running = 1;
    const int64_t a = age.load();
    view.containers = {{0, true, a > 0, a}};
    // Passes off the ticking thread take longer between snapshot and
    // evaluation, so a watchdog pass that read the old age is still in
    // flight when ForceTick's pass reads the new one.
    if (std::this_thread::get_id() != ticking) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return std::vector<MonitorJobView>{view};
  });
  ASSERT_TRUE(monitor.Start().ok());
  ASSERT_GT(monitor.port(), 0);
  auto evaluate_from_all_threads = [&] {
    std::thread scraper([&] {
      for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(HttpGet("127.0.0.1", monitor.port(), "/readyz").ok());
      }
    });
    for (int i = 0; i < 10; ++i) monitor.ForceTick();
    scraper.join();
  };
  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    age.store(5000);
    evaluate_from_all_threads();
    EXPECT_EQ(monitor.StalledContainers().size(), 1u);
    age.store(0);
    evaluate_from_all_threads();
    EXPECT_TRUE(monitor.StalledContainers().empty());
  }
  monitor.Stop();
  int stalls = 0, cleared = 0;
  for (const FlightEvent& ev : FlightRecorder::Instance().Snapshot("cc-job")) {
    stalls += ev.type == FlightEventType::kStall;
    cleared += ev.type == FlightEventType::kStallCleared;
  }
  EXPECT_EQ(stalls, kRounds);
  EXPECT_EQ(cleared, kRounds);
  EXPECT_EQ(monitor.self_metrics().Snapshot().counters.at("monitor.watchdog_stalls"),
            kRounds);
}

// ---------------------------------------------------------------------------
// Shell surface

class MonitorShellTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = SamzaSqlEnvironment::Make();
    ASSERT_TRUE(workload::SetupPaperSources(*env_, 2).ok());
    ASSERT_TRUE(workload::ProducePackets(*env_, 100).ok());
    Config defaults;
    defaults.SetInt(cfg::kContainerCount, 1);
    defaults.Set(cfg::kAlertRules, "consumer_lag>999999 for 1s");
    shell_ = std::make_unique<Shell>(env_, defaults);
  }

  std::string Feed(const std::string& line) {
    std::ostringstream out;
    shell_->ProcessLine(line, out);
    return out.str();
  }

  EnvironmentPtr env_;
  std::unique_ptr<Shell> shell_;
};

TEST_F(MonitorShellTest, ShowHistoryRendersSparklines) {
  std::string empty = Feed("SHOW HISTORY;");
  EXPECT_NE(empty.find("no history samples"), std::string::npos);

  Feed("SELECT STREAM packetId FROM PacketsR1;");
  Feed("!run");  // RunJobsUntilQuiescent ticks the monitor
  std::string out = Feed("SHOW HISTORY;");
  EXPECT_NE(out.find("series"), std::string::npos);
  EXPECT_NE(out.find("rate/s"), std::string::npos);
  EXPECT_NE(out.find("processed"), std::string::npos) << out;

  // Job filter keeps only that job's series.
  out = Feed("SHOW HISTORY samzasql-query-0;");
  EXPECT_NE(out.find("samzasql-query-0"), std::string::npos) << out;
  out = Feed("SHOW HISTORY no-such-job;");
  EXPECT_NE(out.find("no history samples for no-such-job"), std::string::npos) << out;

  std::string json = Feed("SHOW HISTORY JSON;");
  EXPECT_NE(json.find("\"series\":["), std::string::npos);
}

TEST_F(MonitorShellTest, ShowAlertsRendersRuleStates) {
  std::string out = Feed("SHOW ALERTS;");
  EXPECT_NE(out.find("consumer_lag>999999 for 1000ms"), std::string::npos) << out;
  EXPECT_NE(out.find("inactive"), std::string::npos);
  std::string json = Feed("SHOW ALERTS JSON;");
  EXPECT_NE(json.find("\"alerts\":["), std::string::npos);
  EXPECT_NE(json.find("\"firing\":0"), std::string::npos);
  // !help advertises the new statements.
  std::string help = Feed("!help");
  EXPECT_NE(help.find("SHOW HISTORY"), std::string::npos);
  EXPECT_NE(help.find("SHOW ALERTS"), std::string::npos);
}

TEST_F(MonitorIntegrationTest, MetricsCarryBuildInfoAndProcessGauges) {
  ASSERT_TRUE(executor_->Execute(kJoinSql).ok());
  HttpResponse metrics = Get("/metrics");
  ASSERT_EQ(metrics.status, 200);
  PromExposition exp = ParseExposition(metrics.body);
  EXPECT_EQ(exp.types.at("samzasql_build_info"), "gauge");
  bool build_info = false;
  double uptime = -1, rss = -1;
  for (const PromSample& s : exp.samples) {
    if (s.name == "samzasql_build_info") {
      build_info = true;
      EXPECT_EQ(s.value, 1.0);
      EXPECT_EQ(s.labels.at("version"), GetBuildInfo().version);
      EXPECT_EQ(s.labels.at("git_sha"), GetBuildInfo().git_sha);
      EXPECT_EQ(s.labels.at("build_type"), GetBuildInfo().build_type);
      EXPECT_FALSE(s.labels.at("version").empty());
    }
    if (s.name == "samzasql_process_uptime_seconds") uptime = s.value;
    if (s.name == "samzasql_process_rss_bytes") rss = s.value;
  }
  EXPECT_TRUE(build_info) << "samzasql_build_info missing from /metrics";
  EXPECT_GT(uptime, 0.0);
  EXPECT_GT(rss, 0.0);  // /proc/self/statm is available on Linux
}

TEST_F(MonitorIntegrationTest, DebugProfileEndpointServesCollapsedStacks) {
  ASSERT_TRUE(executor_->Execute(kJoinSql).ok());
  Profiler::Instance().Reset();
  // Accumulate a deterministic sample, then keep the background sampler
  // running so the handler serves the accumulation instead of blocking on
  // a multi-second burst.
  {
    ProfiledFrame process("process");
    ProfiledFrame op("op0-scan");
    Profiler::Instance().SampleOnce();
  }
  ASSERT_TRUE(Profiler::Instance().StartSampling(19).ok());
  HttpResponse profile = Get("/debug/profile");
  Profiler::Instance().Reset();
  EXPECT_EQ(profile.status, 200);
  EXPECT_NE(profile.body.find("process;op0-scan"), std::string::npos)
      << profile.body;
}

TEST_F(MonitorIntegrationTest, DebugEventsEndpointServesJsonLines) {
  ASSERT_TRUE(executor_->Execute(kJoinSql).ok());
  FlightRecorder::Instance().SetEnabled(true);
  FlightRecorder::Record(FlightEventType::kCommit, "debug-ep-job.task0",
                         "offsets", 3);
  HttpResponse events = Get("/debug/events?job=debug-ep-job");
  EXPECT_EQ(events.status, 200);
  EXPECT_EQ(events.content_type, "application/x-ndjson");
  EXPECT_EQ(events.body.find("{\"flightrec\":\"samzasql\""), 0u) << events.body;
  EXPECT_NE(events.body.find("\"type\":\"commit\""), std::string::npos);
  EXPECT_NE(events.body.find("debug-ep-job.task0"), std::string::npos);
  // The job filter excludes everything else — including this query's own
  // plan_built/job_submit events.
  EXPECT_EQ(events.body.find("samzasql-query-0"), std::string::npos);
  // The executor's own submission left flight-recorder breadcrumbs too.
  HttpResponse all = Get("/debug/events");
  EXPECT_NE(all.body.find("\"type\":\"job_submit\""), std::string::npos);
  // The index advertises the debug endpoints.
  HttpResponse index = Get("/");
  EXPECT_NE(index.body.find("/debug/profile"), std::string::npos);
  EXPECT_NE(index.body.find("/debug/events"), std::string::npos);
}

TEST_F(MonitorShellTest, ShowProfileRendersAttributionTable) {
  Profiler::Instance().Reset();
  std::string idle = Feed("SHOW PROFILE;");
  EXPECT_NE(idle.find("samples=0"), std::string::npos) << idle;
  EXPECT_NE(idle.find("profile.hz"), std::string::npos);  // hint how to enable

  {
    ProfiledFrame process("process");
    ProfiledFrame op("fused<op0..op1>");
    Profiler::Instance().SampleOnce();
    Profiler::Instance().SampleOnce();
  }
  std::string out = Feed("SHOW PROFILE;");
  EXPECT_NE(out.find("samples=2"), std::string::npos) << out;
  EXPECT_NE(out.find("fused<op0..op1>"), std::string::npos);
  EXPECT_NE(out.find("100.0%"), std::string::npos) << out;
  EXPECT_NE(out.find("flamegraph.pl"), std::string::npos);
  EXPECT_NE(out.find("process;fused<op0..op1> 2"), std::string::npos);

  std::string json = Feed("SHOW PROFILE JSON;");
  EXPECT_NE(json.find("\"samples\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"label\":\"fused<op0..op1>\""), std::string::npos);
  EXPECT_NE(json.find("\"sampling\":false"), std::string::npos);
  Profiler::Instance().Reset();
}

TEST_F(MonitorShellTest, ShowEventsRendersFlightRecorderRing) {
  FlightRecorder::Instance().SetEnabled(true);
  FlightRecorder::Record(FlightEventType::kStall, "shell-ev-job.container0",
                         "heartbeat stale while busy", 5000, 100);
  std::string out = Feed("SHOW EVENTS shell-ev-job;");
  EXPECT_NE(out.find("stall"), std::string::npos) << out;
  EXPECT_NE(out.find("shell-ev-job.container0"), std::string::npos);
  EXPECT_NE(out.find("heartbeat stale while busy"), std::string::npos);
  // The unfiltered listing carries the recorder's accounting header.
  std::string all = Feed("SHOW EVENTS;");
  EXPECT_NE(all.find("recorded="), std::string::npos) << all;
  EXPECT_NE(all.find("dropped="), std::string::npos);
  std::string json = Feed("SHOW EVENTS JSON;");
  EXPECT_EQ(json.find("{\"flightrec\":\"samzasql\""), 0u) << json;
  // !help advertises the profiling surface.
  std::string help = Feed("!help");
  EXPECT_NE(help.find("SHOW PROFILE"), std::string::npos);
  EXPECT_NE(help.find("SHOW EVENTS"), std::string::npos);
}

TEST(MonitorShellNoRulesTest, ShowAlertsExplainsMissingRules) {
  auto env = SamzaSqlEnvironment::Make();
  Shell shell(env, Config());
  std::ostringstream out;
  shell.ProcessLine("SHOW ALERTS;", out);
  EXPECT_NE(out.str().find("no alert rules configured"), std::string::npos);
}

}  // namespace
}  // namespace sqs::core
