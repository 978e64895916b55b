// End-to-end latency plumbing tests (docs/LATENCY.md): broker backlog byte
// ledger, ingest-stamp propagation through repartitioning and multi-job
// pipelines (with an oracle e2e latency under ManualClock), freshness-lag
// gauges under a stalled consumer, resource-ledger reconciliation, the
// stamping kill switch, and the monitor's SLO breach/clear transitions.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flightrec.h"
#include "common/latency.h"
#include "common/metrics.h"
#include "http/monitor.h"
#include "log/broker.h"
#include "log/producer.h"
#include "task/api.h"
#include "task/runner.h"

namespace sqs {
namespace {

// Forwards every message, re-keyed by its value, so the keyed send hashes
// it to a (generally) different output partition — exercising stamp
// propagation across a repartition boundary.
class RepartitionTask : public StreamTask {
 public:
  explicit RepartitionTask(std::string out_topic)
      : out_topic_(std::move(out_topic)) {}
  Status Process(const IncomingMessage& msg, MessageCollector& collector,
                 TaskCoordinator&) override {
    return collector.Send(out_topic_, Bytes(msg.message.value),
                          Bytes(msg.message.value));
  }

 private:
  std::string out_topic_;
};

std::vector<IncomingMessage> FetchAll(Broker& broker, const std::string& topic) {
  std::vector<IncomingMessage> out;
  int32_t nparts = broker.NumPartitions(topic).value();
  for (int32_t p = 0; p < nparts; ++p) {
    int64_t begin = broker.BeginOffset({topic, p}).value();
    int64_t end = broker.EndOffset({topic, p}).value();
    if (begin < end) {
      auto batch =
          broker.Fetch({topic, p}, begin, static_cast<int32_t>(end - begin)).value();
      for (auto& m : batch) out.push_back(std::move(m));
    }
  }
  return out;
}

int64_t PayloadBytes(const std::vector<IncomingMessage>& msgs) {
  int64_t total = 0;
  for (const auto& m : msgs) {
    total += static_cast<int64_t>(m.message.key.size() + m.message.value.size());
  }
  return total;
}

// ---------------------------------------------------------------------------
// Broker backlog ledger

TEST(BrokerBacklogTest, CountsMessagesBytesAndOldestAppend) {
  auto clock = std::make_shared<ManualClock>(1000);
  auto broker_ptr = std::make_shared<Broker>();
  Broker& broker = *broker_ptr;
  ASSERT_TRUE(broker.CreateTopic("t", {.num_partitions = 1}).ok());
  Producer producer(broker_ptr, clock);
  ASSERT_TRUE(producer.SendTo({"t", 0}, ToBytes("k1"), ToBytes("aaaa")).ok());
  clock->Advance(10);
  ASSERT_TRUE(producer.SendTo({"t", 0}, ToBytes("k2"), ToBytes("bb")).ok());
  clock->Advance(10);
  ASSERT_TRUE(producer.SendTo({"t", 0}, ToBytes("k3"), ToBytes("c")).ok());

  PartitionBacklog all = broker.BacklogFrom({"t", 0}, 0).value();
  EXPECT_EQ(all.messages, 3);
  EXPECT_EQ(all.bytes, 6 + 4 + 3);  // key+value bytes of the three messages
  EXPECT_EQ(all.oldest_append_ms, 1000);

  PartitionBacklog tail = broker.BacklogFrom({"t", 0}, 2).value();
  EXPECT_EQ(tail.messages, 1);
  EXPECT_EQ(tail.bytes, 3);
  EXPECT_EQ(tail.oldest_append_ms, 1020);

  PartitionBacklog none = broker.BacklogFrom({"t", 0}, 3).value();
  EXPECT_EQ(none.messages, 0);
  EXPECT_EQ(none.bytes, 0);
  EXPECT_EQ(none.oldest_append_ms, -1);
}

TEST(BrokerBacklogTest, RetentionClampsToLogStart) {
  auto clock = std::make_shared<ManualClock>(5000);
  auto broker_ptr = std::make_shared<Broker>();
  Broker& broker = *broker_ptr;
  ASSERT_TRUE(
      broker.CreateTopic("t", {.num_partitions = 1, .retention_messages = 2}).ok());
  Producer producer(broker_ptr, clock);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(producer.SendTo({"t", 0}, Bytes{}, ToBytes("mmmm")).ok());
    clock->Advance(100);
  }
  ASSERT_TRUE(broker.EnforceRetention("t").ok());
  ASSERT_EQ(broker.BeginOffset({"t", 0}).value(), 2);

  // An offset below the log start clamps: retained-away data is not backlog.
  PartitionBacklog clamped = broker.BacklogFrom({"t", 0}, 0).value();
  EXPECT_EQ(clamped.messages, 2);
  EXPECT_EQ(clamped.bytes, 8);
  EXPECT_EQ(clamped.oldest_append_ms, 5200);  // append time of offset 2
}

TEST(BrokerBacklogTest, CompactionRebuildsByteLedger) {
  auto broker_ptr = std::make_shared<Broker>();
  Broker& broker = *broker_ptr;
  ASSERT_TRUE(
      broker.CreateTopic("t", {.num_partitions = 1, .compacted = true}).ok());
  Producer producer(broker_ptr);
  ASSERT_TRUE(producer.SendTo({"t", 0}, ToBytes("a"), ToBytes("old-value")).ok());
  ASSERT_TRUE(producer.SendTo({"t", 0}, ToBytes("b"), ToBytes("kept")).ok());
  ASSERT_TRUE(producer.SendTo({"t", 0}, ToBytes("a"), ToBytes("new")).ok());
  ASSERT_TRUE(broker.Compact("t").ok());

  // After compaction, the ledger must price exactly the surviving entries.
  int64_t begin = broker.BeginOffset({"t", 0}).value();
  PartitionBacklog survivors = broker.BacklogFrom({"t", 0}, begin).value();
  std::vector<IncomingMessage> kept = FetchAll(broker, "t");
  EXPECT_EQ(survivors.messages, static_cast<int64_t>(kept.size()));
  EXPECT_EQ(survivors.bytes, PayloadBytes(kept));
  // And a suffix query still works against the rebuilt cumulative ledger.
  PartitionBacklog last = broker.BacklogFrom({"t", 0}, begin + 1).value();
  EXPECT_EQ(last.messages, survivors.messages - 1);
  EXPECT_LT(last.bytes, survivors.bytes);
}

// ---------------------------------------------------------------------------
// Ingest-stamp propagation + oracle e2e latency under ManualClock

class LatencyPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<ManualClock>(1'000'000);
    broker_ = std::make_shared<Broker>();
    ASSERT_TRUE(broker_->CreateTopic("in", {.num_partitions = 2}).ok());
    ASSERT_TRUE(broker_->CreateTopic("mid", {.num_partitions = 2}).ok());
    ASSERT_TRUE(broker_->CreateTopic("out", {.num_partitions = 2}).ok());
  }

  Config StageConfig(const std::string& job, const std::string& input) {
    Config c;
    c.Set(cfg::kJobName, job);
    c.Set(cfg::kTaskInputs, input);
    c.SetInt(cfg::kContainerCount, 2);
    return c;
  }

  static TaskFactory RepartitionTo(const std::string& topic) {
    return [topic] { return std::make_unique<RepartitionTask>(topic); };
  }

  void Produce(int n) {
    Producer p(broker_, clock_);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(p.Send("in", ToBytes("key" + std::to_string(i)),
                         ToBytes("val" + std::to_string(i)))
                      .ok());
    }
  }

  static HistogramStats JobHistogram(JobRunner& runner, const std::string& leaf) {
    MetricsSnapshot snap = runner.metrics_registry()->Snapshot();
    auto it = snap.histograms.find(runner.job_name() + "." + leaf);
    return it == snap.histograms.end() ? HistogramStats{} : it->second;
  }

  std::shared_ptr<ManualClock> clock_;
  BrokerPtr broker_;
};

TEST_F(LatencyPipelineTest, StampSurvivesRepartitionAndPipelineWithOracleE2e) {
  const int64_t ingest_us = 1'000'000 * 1000;  // first append, in micros

  Produce(10);  // ingest stamped at T0 by the external producer

  JobRunner stage1(broker_, StageConfig("lat-s1", "in"), RepartitionTo("mid"),
                   clock_);
  JobRunner stage2(broker_, StageConfig("lat-s2", "mid"), RepartitionTo("out"),
                   clock_);
  ASSERT_TRUE(stage1.Start().ok());
  ASSERT_TRUE(stage2.Start().ok());

  clock_->Advance(3);  // broker dwell before stage 1
  ASSERT_EQ(stage1.RunThreadedUntilQuiescent(1).value(), 10);
  clock_->Advance(4);  // broker dwell before stage 2
  ASSERT_EQ(stage2.RunThreadedUntilQuiescent(1).value(), 10);

  // The intermediate hop carries the original ingest stamp but its own
  // append time (the dwell basis for the next hop).
  for (const IncomingMessage& m : FetchAll(*broker_, "mid")) {
    EXPECT_EQ(m.message.ingest_us, ingest_us);
    EXPECT_EQ(m.message.append_us, ingest_us + 3000);
  }
  // The terminal hop still carries the first-append stamp: two jobs and a
  // repartition later, e2e is measured from the original ingest.
  ASSERT_EQ(FetchAll(*broker_, "out").size(), 10u);
  for (const IncomingMessage& m : FetchAll(*broker_, "out")) {
    EXPECT_EQ(m.message.ingest_us, ingest_us);
    EXPECT_EQ(m.message.append_us, ingest_us + 7000);
  }

  // Oracle latencies under the manual clock: stage 1 sinks 3ms after
  // ingest, stage 2 sinks 7ms after ingest; each hop waited exactly its
  // pre-run advance in the broker queue.
  HistogramStats s1 = JobHistogram(stage1, "e2e_latency_us");
  EXPECT_EQ(s1.count, 10);
  EXPECT_EQ(s1.min, 3000);
  EXPECT_EQ(s1.max, 3000);
  HistogramStats s2 = JobHistogram(stage2, "e2e_latency_us");
  EXPECT_EQ(s2.count, 10);
  EXPECT_EQ(s2.min, 7000);
  EXPECT_EQ(s2.max, 7000);
  // Dwell is stride-sampled (1 in 16 inputs), so the count depends on how
  // the 10 messages split across containers — only the bounds are exact.
  HistogramStats d1 = JobHistogram(stage1, "dwell_queue_us");
  EXPECT_GE(d1.count, 1);
  EXPECT_LE(d1.count, 10);
  EXPECT_EQ(d1.min, 3000);
  EXPECT_EQ(d1.max, 3000);
  HistogramStats d2 = JobHistogram(stage2, "dwell_queue_us");
  EXPECT_GE(d2.count, 1);
  EXPECT_LE(d2.count, 10);
  EXPECT_EQ(d2.min, 4000);
  EXPECT_EQ(d2.max, 4000);

  ASSERT_TRUE(stage1.Stop().ok());
  ASSERT_TRUE(stage2.Stop().ok());
}

TEST_F(LatencyPipelineTest, StampingKillSwitchZeroesStampsAndE2e) {
  Produce(5);
  Config c = StageConfig("lat-off-job", "in");
  c.SetBool(cfg::kLatencyStampingEnable, false);
  JobRunner runner(broker_, c, RepartitionTo("out"), clock_);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_EQ(runner.RunThreadedUntilQuiescent(1).value(), 5);
  for (const IncomingMessage& m : FetchAll(*broker_, "out")) {
    EXPECT_EQ(m.message.ingest_us, 0);
    EXPECT_EQ(m.message.append_us, 0);
  }
  EXPECT_EQ(JobHistogram(runner, "e2e_latency_us").count, 0);
  EXPECT_EQ(JobHistogram(runner, "dwell_queue_us").count, 0);
  ASSERT_TRUE(runner.Stop().ok());
  // The toggle is process-global; restore it for the rest of the suite.
  SetLatencyStampingEnabled(true);
}

// ---------------------------------------------------------------------------
// Freshness lag + backlog gauges under a stalled consumer

TEST_F(LatencyPipelineTest, StalledConsumerAgesFreshnessLag) {
  Config c = StageConfig("lat-stall-job", "in");
  c.SetInt(cfg::kContainerCount, 1);
  JobRunner runner(broker_, c, RepartitionTo("out"), clock_);
  ASSERT_TRUE(runner.Start().ok());

  Produce(5);
  ASSERT_EQ(runner.RunThreadedUntilQuiescent(1).value(), 5);
  auto gauge = [&](const char* leaf) {
    MetricsSnapshot snap = runner.metrics_registry()->Snapshot();
    auto it = snap.gauges.find("lat-stall-job.container0." + std::string(leaf));
    return it == snap.gauges.end() ? int64_t{-1} : it->second;
  };
  EXPECT_EQ(gauge("freshness_lag_ms"), 0);
  EXPECT_EQ(gauge("backlog_bytes"), 0);

  // New input lands but the consumer stalls; wall time passes. A zero-work
  // driver pass refreshes the gauges without consuming anything.
  int64_t consumed_bytes = PayloadBytes(FetchAll(*broker_, "in"));
  Produce(5);
  int64_t backlog_bytes = PayloadBytes(FetchAll(*broker_, "in")) - consumed_bytes;
  ASSERT_GT(backlog_bytes, 0);
  clock_->Advance(5000);
  ASSERT_EQ(runner.container(0)->RunUntilCaughtUp(0).value(), 0);
  EXPECT_EQ(gauge("freshness_lag_ms"), 5000);
  EXPECT_EQ(gauge("backlog_bytes"), backlog_bytes);

  // Catching up clears both.
  ASSERT_EQ(runner.RunThreadedUntilQuiescent(1).value(), 5);
  EXPECT_EQ(gauge("freshness_lag_ms"), 0);
  EXPECT_EQ(gauge("backlog_bytes"), 0);
  ASSERT_TRUE(runner.Stop().ok());
}

// ---------------------------------------------------------------------------
// Resource ledger reconciliation

TEST_F(LatencyPipelineTest, LedgerReconcilesWithBrokerContents) {
  Produce(50);
  JobRunner runner(broker_, StageConfig("lat-ledger-job", "in"),
                   RepartitionTo("out"), clock_);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_EQ(runner.RunThreadedUntilQuiescent(1).value(), 50);

  MonitorJobView view;
  view.name = runner.job_name();
  view.processed = runner.TotalProcessed();
  view.uptime_ms = runner.UptimeMs(clock_->NowMillis());
  view.snapshot = runner.metrics_registry()->Snapshot();
  ResourceLedger ledger = ComputeResourceLedger(view);

  EXPECT_EQ(ledger.rows_in, 50);
  EXPECT_EQ(ledger.rows_out, 50);
  EXPECT_EQ(ledger.bytes_in, PayloadBytes(FetchAll(*broker_, "in")));
  EXPECT_EQ(ledger.bytes_out, PayloadBytes(FetchAll(*broker_, "out")));
  EXPECT_GT(ledger.cpu_busy_ns, 0);
  EXPECT_EQ(ledger.cpu_busy_ns, runner.TotalBusyNanos());
  EXPECT_EQ(ledger.dlq_drops, 0);
  EXPECT_EQ(ledger.e2e.count, 50);
  EXPECT_EQ(ledger.freshness_lag_ms, 0);
  EXPECT_EQ(ledger.backlog_bytes, 0);
  ASSERT_TRUE(runner.Stop().ok());
}

// ---------------------------------------------------------------------------
// Monitor SLO breach / clear transitions

TEST(MonitorSloTest, BreachAndClearGateReadinessAndFlightRecorder) {
  auto clock = std::make_shared<ManualClock>(10'000);
  MetricsRegistry registry;
  Gauge& freshness = registry.GetGauge("slo-job.container0.freshness_lag_ms");
  Config config;
  config.SetInt(cfg::kLatencySloMs, 1000);
  MonitorServer monitor(
      config,
      [&registry] {
        MonitorJobView view;
        view.name = "slo-job";
        view.containers_total = 1;
        view.containers_running = 1;
        view.snapshot = registry.Snapshot();
        return std::vector<MonitorJobView>{view};
      },
      clock);
  FlightRecorder::Instance().Clear();

  // Under the SLO: ready, no events.
  freshness.Set(500);
  monitor.ForceTick();
  EXPECT_TRUE(monitor.CheckReadiness().ready);
  EXPECT_TRUE(FlightRecorder::Instance().Snapshot("slo-job").empty());

  // Breach: one slo_breach event, readiness 503s on the freshness leaf.
  freshness.Set(4500);
  clock->Advance(100);
  monitor.ForceTick();
  std::vector<FlightEvent> events = FlightRecorder::Instance().Snapshot("slo-job");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, FlightEventType::kSloBreach);
  EXPECT_EQ(events[0].a, 4500);
  EXPECT_EQ(events[0].b, 1000);
  MonitorServer::Readiness readiness = monitor.CheckReadiness();
  EXPECT_FALSE(readiness.ready);
  EXPECT_NE(readiness.reason.find("freshness"), std::string::npos);

  // Still breached: no duplicate event.
  freshness.Set(6000);
  clock->Advance(100);
  monitor.ForceTick();
  EXPECT_EQ(FlightRecorder::Instance().Snapshot("slo-job").size(), 1u);

  // Cleared: one slo_cleared event, ready again.
  freshness.Set(0);
  clock->Advance(100);
  monitor.ForceTick();
  events = FlightRecorder::Instance().Snapshot("slo-job");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].type, FlightEventType::kSloCleared);
  EXPECT_TRUE(monitor.CheckReadiness().ready);
}

}  // namespace
}  // namespace sqs
