#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "task/api.h"
#include "task/checkpoint.h"
#include "task/container.h"
#include "task/model.h"
#include "task/runner.h"

namespace sqs {
namespace {

Message Msg(const std::string& key, const std::string& value) {
  Message m;
  m.key = ToBytes(key);
  m.value = ToBytes(value);
  return m;
}

// Forwards every message to topic "out", tagging the value with the input
// offset so downstream consumers can deduplicate replays.
class EchoTask : public StreamTask {
 public:
  Status Process(const IncomingMessage& msg, MessageCollector& collector,
                 TaskCoordinator&) override {
    std::string tagged = FromBytes(msg.message.value) + "@" + msg.origin.topic + ":" +
                         std::to_string(msg.origin.partition) + ":" +
                         std::to_string(msg.offset);
    return collector.SendToPartition("out", msg.origin.partition, msg.message.key,
                                     ToBytes(tagged));
  }
};

// Writes each input message into a changelog-backed store keyed by its
// (partition, offset) — an idempotent stateful task.
class StatefulTask : public StreamTask {
 public:
  Status Init(TaskContext& ctx) override {
    store_ = ctx.GetStore("state");
    if (!store_) return Status::StateError("store 'state' not configured");
    return Status::Ok();
  }
  Status Process(const IncomingMessage& msg, MessageCollector&, TaskCoordinator&) override {
    std::string key =
        std::to_string(msg.origin.partition) + ":" + std::to_string(msg.offset);
    store_->Put(ToBytes(key), msg.message.value);
    return Status::Ok();
  }

 private:
  KeyValueStorePtr store_;
};

// Records the order in which topics deliver (for the bootstrap test) into a
// shared log, and counts window firings.
struct Recording {
  std::vector<std::string> topics;
  std::atomic<int> windows{0};
};

class RecordingTask : public StreamTask {
 public:
  explicit RecordingTask(Recording* rec) : rec_(rec) {}
  Status Process(const IncomingMessage& msg, MessageCollector&, TaskCoordinator&) override {
    rec_->topics.push_back(msg.origin.topic);
    return Status::Ok();
  }
  Status Window(MessageCollector&, TaskCoordinator&) override {
    rec_->windows.fetch_add(1);
    return Status::Ok();
  }

 private:
  Recording* rec_;
};

std::vector<std::string> ReadAll(Broker& broker, const std::string& topic) {
  std::vector<std::string> out;
  int32_t nparts = broker.NumPartitions(topic).value();
  for (int32_t p = 0; p < nparts; ++p) {
    int64_t begin = broker.BeginOffset({topic, p}).value();
    int64_t end = broker.EndOffset({topic, p}).value();
    if (begin < end) {
      auto batch = broker.Fetch({topic, p}, begin, static_cast<int32_t>(end - begin)).value();
      for (const auto& m : batch) {
        out.push_back(FromBytes(m.message.value));
      }
    }
  }
  return out;
}

TEST(CheckpointCodecTest, RoundTrip) {
  Checkpoint cp;
  cp[{"orders", 0}] = 17;
  cp[{"orders", 3}] = 42;
  cp[{"products", 0}] = 5;
  auto back = CheckpointManager::DecodeCheckpoint(CheckpointManager::EncodeCheckpoint(cp));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), cp);
}

TEST(CheckpointManagerTest, LatestCheckpointWins) {
  auto broker = std::make_shared<Broker>();
  CheckpointManager mgr(broker, "__cp");
  ASSERT_TRUE(mgr.Start().ok());
  ASSERT_TRUE(mgr.WriteCheckpoint("Partition 0", {{{"t", 0}, 5}}).ok());
  ASSERT_TRUE(mgr.WriteCheckpoint("Partition 1", {{{"t", 1}, 9}}).ok());
  ASSERT_TRUE(mgr.WriteCheckpoint("Partition 0", {{{"t", 0}, 8}}).ok());
  auto cp = mgr.ReadLastCheckpoint("Partition 0");
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp.value().at({"t", 0}), 8);
  // Unknown task: empty checkpoint, not an error.
  EXPECT_TRUE(mgr.ReadLastCheckpoint("Partition 99").value().empty());
}

TEST(JobModelTest, TasksGroupedByPartitionAcrossStreams) {
  auto broker = std::make_shared<Broker>();
  ASSERT_TRUE(broker->CreateTopic("a", {.num_partitions = 4}).ok());
  ASSERT_TRUE(broker->CreateTopic("b", {.num_partitions = 4}).ok());
  Config config;
  config.Set(cfg::kTaskInputs, "a,b");
  config.SetInt(cfg::kContainerCount, 2);
  auto model = JobCoordinator::BuildJobModel(config, *broker);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model.value().containers.size(), 2u);
  EXPECT_EQ(model.value().TaskCount(), 4);
  // Task for partition 2 consumes a[2] and b[2].
  const TaskModel& t2 = model.value().containers[0].tasks[1];  // round robin: 0,2 in c0
  EXPECT_EQ(t2.partition_id, 2);
  ASSERT_EQ(t2.input_partitions.size(), 2u);
  EXPECT_EQ(t2.input_partitions[0], (StreamPartition{"a", 2}));
  EXPECT_EQ(t2.input_partitions[1], (StreamPartition{"b", 2}));
}

TEST(JobModelTest, RejectsNonCoPartitionedInputs) {
  auto broker = std::make_shared<Broker>();
  ASSERT_TRUE(broker->CreateTopic("a", {.num_partitions = 4}).ok());
  ASSERT_TRUE(broker->CreateTopic("b", {.num_partitions = 8}).ok());
  Config config;
  config.Set(cfg::kTaskInputs, "a,b");
  EXPECT_FALSE(JobCoordinator::BuildJobModel(config, *broker).ok());
}

TEST(JobModelTest, ContainerCountClampedToPartitions) {
  auto broker = std::make_shared<Broker>();
  ASSERT_TRUE(broker->CreateTopic("a", {.num_partitions = 2}).ok());
  Config config;
  config.Set(cfg::kTaskInputs, "a");
  config.SetInt(cfg::kContainerCount, 16);
  auto model = JobCoordinator::BuildJobModel(config, *broker);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().containers.size(), 2u);
}

TEST(JobModelTest, BootstrapMustBeAnInput) {
  auto broker = std::make_shared<Broker>();
  ASSERT_TRUE(broker->CreateTopic("a", {.num_partitions = 2}).ok());
  Config config;
  config.Set(cfg::kTaskInputs, "a");
  config.Set(cfg::kBootstrapInputs, "zz");
  EXPECT_FALSE(JobCoordinator::BuildJobModel(config, *broker).ok());
}

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<Broker>();
    ASSERT_TRUE(broker_->CreateTopic("in", {.num_partitions = 4}).ok());
    ASSERT_TRUE(broker_->CreateTopic("out", {.num_partitions = 4}).ok());
  }

  Config BaseConfig(const std::string& factory) {
    Config c;
    c.Set(cfg::kJobName, "test-job");
    c.Set(cfg::kTaskInputs, "in");
    c.Set(cfg::kTaskFactory, factory);
    c.SetInt(cfg::kContainerCount, 2);
    return c;
  }

  void Produce(int n) {
    Producer p(broker_);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(p.Send("in", ToBytes("k" + std::to_string(i)),
                         ToBytes("m" + std::to_string(i)))
                      .ok());
    }
  }

  BrokerPtr broker_;
};

TEST_F(RunnerTest, ProcessesAllInputOnce) {
  TaskFactoryRegistry::Instance().Register(
      "echo", [] { return std::make_unique<EchoTask>(); });
  Produce(100);
  JobRunner runner(broker_, BaseConfig("echo"));
  ASSERT_TRUE(runner.Start().ok());
  auto n = runner.RunThreadedUntilQuiescent(1);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 100);
  EXPECT_EQ(ReadAll(*broker_, "out").size(), 100u);
  ASSERT_TRUE(runner.Stop().ok());
}

TEST_F(RunnerTest, PicksUpLateInput) {
  TaskFactoryRegistry::Instance().Register(
      "echo2", [] { return std::make_unique<EchoTask>(); });
  Produce(10);
  JobRunner runner(broker_, BaseConfig("echo2"));
  ASSERT_TRUE(runner.Start().ok());
  EXPECT_EQ(runner.RunThreadedUntilQuiescent(1).value(), 10);
  Produce(5);
  EXPECT_EQ(runner.RunThreadedUntilQuiescent(1).value(), 5);
  EXPECT_EQ(runner.TotalProcessed(), 15);
}

TEST_F(RunnerTest, OutputPreservesInputPartition) {
  TaskFactoryRegistry::Instance().Register(
      "echo3", [] { return std::make_unique<EchoTask>(); });
  Produce(64);
  JobRunner runner(broker_, BaseConfig("echo3"));
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.RunThreadedUntilQuiescent(1).ok());
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(broker_->EndOffset({"out", p}).value(),
              broker_->EndOffset({"in", p}).value());
  }
}

TEST_F(RunnerTest, MissingFactoryFailsStart) {
  JobRunner runner(broker_, BaseConfig("no-such-factory"));
  EXPECT_FALSE(runner.Start().ok());
}

TEST_F(RunnerTest, KillRestartReplayIsDeterministicAfterDedup) {
  TaskFactoryRegistry::Instance().Register(
      "echo4", [] { return std::make_unique<EchoTask>(); });
  Produce(200);

  // Reference: uninterrupted run.
  std::set<std::string> reference;
  {
    auto broker2 = std::make_shared<Broker>();
    ASSERT_TRUE(broker2->CreateTopic("in", {.num_partitions = 4}).ok());
    ASSERT_TRUE(broker2->CreateTopic("out", {.num_partitions = 4}).ok());
    Producer p(broker2);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(p.Send("in", ToBytes("k" + std::to_string(i)),
                         ToBytes("m" + std::to_string(i)))
                      .ok());
    }
    Config c;
    c.Set(cfg::kJobName, "test-job");
    c.Set(cfg::kTaskInputs, "in");
    c.Set(cfg::kTaskFactory, "echo4");
    c.SetInt(cfg::kContainerCount, 2);
    JobRunner runner(broker2, c);
    ASSERT_TRUE(runner.Start().ok());
    ASSERT_TRUE(runner.RunThreadedUntilQuiescent(1).ok());
    for (const auto& s : ReadAll(*broker2, "out")) reference.insert(s);
  }

  // Faulty run: process a little, kill container 0 (uncommitted work is
  // replayed after restart), finish.
  Config c = BaseConfig("echo4");
  c.SetInt(cfg::kCommitEveryMessages, 10);
  JobRunner runner(broker_, c);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.container(0)->RunUntilCaughtUp(37).ok());
  ASSERT_TRUE(runner.KillContainer(0).ok());
  ASSERT_TRUE(runner.RestartContainer(0).ok());
  ASSERT_TRUE(runner.RunThreadedUntilQuiescent(1).ok());

  auto out = ReadAll(*broker_, "out");
  EXPECT_GE(out.size(), 200u);  // at-least-once: duplicates allowed
  std::set<std::string> deduped(out.begin(), out.end());
  EXPECT_EQ(deduped, reference);  // but identical content after dedup
}

TEST_F(RunnerTest, StatefulStoreSurvivesKillRestart) {
  TaskFactoryRegistry::Instance().Register(
      "stateful", [] { return std::make_unique<StatefulTask>(); });
  Produce(120);
  Config c = BaseConfig("stateful");
  c.Set("stores.state.changelog", "state-changelog");
  c.SetInt(cfg::kCommitEveryMessages, 25);
  JobRunner runner(broker_, c);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.container(0)->RunUntilCaughtUp(41).ok());
  ASSERT_TRUE(runner.KillContainer(0).ok());
  ASSERT_TRUE(runner.RestartContainer(0).ok());
  ASSERT_TRUE(runner.RunThreadedUntilQuiescent(1).ok());
  ASSERT_TRUE(runner.Stop().ok());

  // Every input message (partition:offset) must be present exactly once in
  // the changelog-materialized state.
  ChangelogBackedStore verify(std::make_shared<InMemoryStore>(), broker_,
                              {"state-changelog", 0});
  size_t total = 0;
  for (int p = 0; p < 4; ++p) {
    ChangelogBackedStore part(std::make_shared<InMemoryStore>(), broker_,
                              {"state-changelog", p});
    ASSERT_TRUE(part.Restore().ok());
    int64_t in_end = broker_->EndOffset({"in", p}).value();
    EXPECT_EQ(part.Size(), static_cast<size_t>(in_end));
    for (int64_t o = 0; o < in_end; ++o) {
      EXPECT_TRUE(
          part.Get(ToBytes(std::to_string(p) + ":" + std::to_string(o))).has_value());
    }
    total += part.Size();
  }
  EXPECT_EQ(total, 120u);
}

TEST_F(RunnerTest, BootstrapStreamFullyDrainedFirst) {
  ASSERT_TRUE(broker_->CreateTopic("table", {.num_partitions = 4}).ok());
  auto rec = std::make_shared<Recording>();
  TaskFactoryRegistry::Instance().Register(
      "recording", [rec] { return std::make_unique<RecordingTask>(rec.get()); });

  Producer p(broker_);
  // Interleave table and stream writes.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(p.Send("in", ToBytes("k" + std::to_string(i)), ToBytes("s")).ok());
    ASSERT_TRUE(p.Send("table", ToBytes("k" + std::to_string(i)), ToBytes("t")).ok());
  }

  Config c = BaseConfig("recording");
  c.Set(cfg::kTaskInputs, "in,table");
  c.Set(cfg::kBootstrapInputs, "table");
  c.SetInt(cfg::kContainerCount, 1);  // single container: one global order
  JobRunner runner(broker_, c);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.RunThreadedUntilQuiescent(1).ok());

  ASSERT_EQ(rec->topics.size(), 60u);
  // All "table" deliveries strictly precede all "in" deliveries.
  size_t first_stream = 0;
  while (first_stream < rec->topics.size() && rec->topics[first_stream] == "table") {
    ++first_stream;
  }
  EXPECT_EQ(first_stream, 30u);
  for (size_t i = first_stream; i < rec->topics.size(); ++i) {
    EXPECT_EQ(rec->topics[i], "in");
  }
}

TEST_F(RunnerTest, WindowTimerFiresOnClock) {
  auto rec = std::make_shared<Recording>();
  TaskFactoryRegistry::Instance().Register(
      "windowed", [rec] { return std::make_unique<RecordingTask>(rec.get()); });
  auto clock = std::make_shared<ManualClock>(1000);
  Config c = BaseConfig("windowed");
  c.SetInt(cfg::kWindowMs, 100);
  c.SetInt(cfg::kContainerCount, 1);
  JobRunner runner(broker_, c, clock);
  ASSERT_TRUE(runner.Start().ok());
  Produce(4);
  ASSERT_TRUE(runner.RunThreadedUntilQuiescent(1).ok());
  EXPECT_EQ(rec->windows.load(), 0);  // clock hasn't advanced
  clock->Advance(150);
  Produce(1);
  ASSERT_TRUE(runner.RunThreadedUntilQuiescent(1).ok());
  // One firing invokes Window() on each of the container's 4 tasks.
  EXPECT_EQ(rec->windows.load(), 4);
  clock->Advance(350);
  Produce(1);
  ASSERT_TRUE(runner.RunThreadedUntilQuiescent(1).ok());
  EXPECT_EQ(rec->windows.load(), 8);
}

TEST_F(RunnerTest, ContainerMetricsExposedViaSharedRegistry) {
  TaskFactoryRegistry::Instance().Register(
      "metrics-echo", [] { return std::make_unique<EchoTask>(); });
  Produce(100);
  Config c = BaseConfig("metrics-echo");
  c.SetInt(cfg::kCommitEveryMessages, 10);
  JobRunner runner(broker_, c);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.RunThreadedUntilQuiescent(1).ok());
  ASSERT_TRUE(runner.Stop().ok());

  MetricsSnapshot snap = runner.metrics_registry()->Snapshot();
  EXPECT_EQ(snap.counters["test-job.container0.processed"] +
                snap.counters["test-job.container1.processed"],
            100);
  EXPECT_GT(snap.counters["test-job.container0.commits"], 0);
  EXPECT_GT(snap.counters["test-job.container0.checkpoint_writes"], 0);
  EXPECT_GT(snap.counters["test-job.container0.checkpoint_bytes"], 0);
  EXPECT_GT(snap.timers["test-job.container0.busy_ns"], 0);
  // Batch dispatch records one latency sample per run (a contiguous slice of
  // messages for one task), not one per message — see docs/METRICS.md.
  int64_t latency_samples =
      snap.histograms["test-job.container0.process_latency_ns"].count +
      snap.histograms["test-job.container1.process_latency_ns"].count;
  EXPECT_GT(latency_samples, 0);
  EXPECT_LE(latency_samples, 100);
  // Quiescent: every per-partition consumer lag gauge reads zero.
  bool saw_lag_gauge = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name.find(".lag.in.") != std::string::npos) {
      saw_lag_gauge = true;
      EXPECT_EQ(value, 0) << name;
    }
  }
  EXPECT_TRUE(saw_lag_gauge);
}

TEST_F(RunnerTest, ChangelogWriteVolumeCounted) {
  TaskFactoryRegistry::Instance().Register(
      "metrics-stateful", [] { return std::make_unique<StatefulTask>(); });
  Produce(40);
  Config c = BaseConfig("metrics-stateful");
  c.Set("stores.state.changelog", "state-changelog-metrics");
  JobRunner runner(broker_, c);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.RunThreadedUntilQuiescent(1).ok());
  MetricsSnapshot snap = runner.metrics_registry()->Snapshot();
  int64_t writes = 0, bytes = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.find(".store.state.changelog_writes") != std::string::npos) writes += value;
    if (name.find(".store.state.changelog_bytes") != std::string::npos) bytes += value;
  }
  EXPECT_EQ(writes, 40);  // one changelog append per input message
  EXPECT_GT(bytes, 0);
}

TEST_F(RunnerTest, ReporterEmitsJsonLinesOnInterval) {
  TaskFactoryRegistry::Instance().Register(
      "metrics-reporter-echo", [] { return std::make_unique<EchoTask>(); });
  Produce(20);
  auto clock = std::make_shared<ManualClock>(1000);
  Config c = BaseConfig("metrics-reporter-echo");
  c.SetInt(cfg::kContainerCount, 1);
  c.SetInt(cfg::kMetricsReporterIntervalMs, 100);
  const std::string path = "reporter_test_metrics.jsonl";
  std::remove(path.c_str());
  c.Set(cfg::kMetricsReporterPath, path);
  JobRunner runner(broker_, c, clock);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.RunThreadedUntilQuiescent(1).ok());
  {
    std::ifstream in(path);
    std::stringstream contents;
    contents << in.rdbuf();
    EXPECT_TRUE(contents.str().empty());  // interval has not elapsed yet
  }
  clock->Advance(150);
  Produce(1);
  ASSERT_TRUE(runner.RunThreadedUntilQuiescent(1).ok());
  ASSERT_TRUE(runner.Stop().ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("\"name\":\"test-job.container0.processed\""),
            std::string::npos);
  EXPECT_NE(contents.str().find("\"type\":\"histogram\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(RunnerTest, ThreadedRunProcessesEverything) {
  TaskFactoryRegistry::Instance().Register(
      "echo5", [] { return std::make_unique<EchoTask>(); });
  Produce(500);
  JobRunner runner(broker_, BaseConfig("echo5"));
  ASSERT_TRUE(runner.Start().ok());
  auto n = runner.RunThreadedUntilQuiescent();
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(ReadAll(*broker_, "out").size(), 500u);
}

TEST_F(RunnerTest, ShutdownRequestStopsProcessing) {
  class ShutdownTask : public StreamTask {
   public:
    Status Process(const IncomingMessage&, MessageCollector&,
                   TaskCoordinator& coord) override {
      if (++count_ == 5) coord.RequestShutdown();
      return Status::Ok();
    }
    int count_ = 0;
  };
  TaskFactoryRegistry::Instance().Register(
      "shutdown", [] { return std::make_unique<ShutdownTask>(); });
  Produce(100);
  Config c = BaseConfig("shutdown");
  c.SetInt(cfg::kContainerCount, 1);
  JobRunner runner(broker_, c);
  ASSERT_TRUE(runner.Start().ok());
  ASSERT_TRUE(runner.container(0)->RunUntilCaughtUp().ok());
  EXPECT_TRUE(runner.container(0)->ShutdownRequested());
  EXPECT_LT(runner.TotalProcessed(), 100);
}

}  // namespace
}  // namespace sqs
