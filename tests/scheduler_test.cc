// The ready-queue driver and pipelined fetch (docs/EXECUTION.md "Threaded
// execution"): fetch deadlines on the sleep model, cancellation, fairness
// between containers sharing a worker, pipeline quiescence, and kill-safety
// while a fetch is in flight.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "log/consumer.h"
#include "log/producer.h"
#include "task/api.h"
#include "task/runner.h"

namespace sqs {
namespace {

constexpr int64_t kRttNanos = 20'000'000;  // 20 ms: far above scheduling noise

std::vector<std::string> Values(const Broker& broker, const StreamPartition& sp) {
  std::vector<std::string> out;
  auto msgs = broker.Fetch(sp, 0, 1 << 20);
  EXPECT_TRUE(msgs.ok()) << msgs.status().ToString();
  for (const IncomingMessage& m : msgs.value()) out.push_back(FromBytes(m.message.value));
  return out;
}

void Append(Broker& broker, const StreamPartition& sp, int n) {
  for (int i = 0; i < n; ++i) {
    Message m;
    m.value = ToBytes(sp.ToString() + "#" + std::to_string(i));
    ASSERT_TRUE(broker.Append(sp, std::move(m)).ok());
  }
}

Consumer SleepConsumer(BrokerPtr broker) {
  Consumer c(std::move(broker));
  c.SetPollLatencyNanos(kRttNanos);
  c.SetPollLatencyModel(Broker::LatencyModel::kSleep);
  return c;
}

TEST(RunnerPipelinedFetchTest, SleepModelDeliversNoEarlierThanTheDeadline) {
  auto broker = std::make_shared<Broker>();
  ASSERT_TRUE(broker->CreateTopic("in", {.num_partitions = 1}).ok());
  const StreamPartition sp{"in", 0};
  Append(*broker, sp, 5);
  Consumer c = SleepConsumer(broker);
  ASSERT_TRUE(c.Assign(sp, 0).ok());

  c.Prefetch();
  const int64_t deadline = c.ReadyAtNanos();
  EXPECT_GT(deadline, MonotonicNanos());
  EXPECT_EQ(c.Position(sp).value(), 0);  // issuing a fetch moves nothing
  auto first = c.Poll();
  ASSERT_TRUE(first.ok());
  EXPECT_GE(MonotonicNanos(), deadline);
  EXPECT_EQ(first.value().size(), 5u);
  EXPECT_EQ(c.Position(sp).value(), 5);

  // Handing out the batch issued the next fetch; the broker is read only
  // when it completes, so input appended while it is in flight is delivered.
  const int64_t next = c.ReadyAtNanos();
  EXPECT_GT(next, deadline);
  Append(*broker, sp, 3);
  auto second = c.Poll();
  ASSERT_TRUE(second.ok());
  EXPECT_GE(MonotonicNanos(), next);
  EXPECT_EQ(second.value().size(), 3u);
}

TEST(RunnerPipelinedFetchTest, SeekAndUnassignCancelTheInFlightFetch) {
  auto broker = std::make_shared<Broker>();
  ASSERT_TRUE(broker->CreateTopic("in", {.num_partitions = 2}).ok());
  const StreamPartition p0{"in", 0}, p1{"in", 1};
  Append(*broker, p0, 4);
  Append(*broker, p1, 4);
  Consumer c = SleepConsumer(broker);
  ASSERT_TRUE(c.Assign(p0, 0).ok());
  ASSERT_TRUE(c.Assign(p1, 0).ok());

  c.Prefetch();
  ASSERT_GT(c.ReadyAtNanos(), 0);
  ASSERT_TRUE(c.Seek(p0, 2).ok());
  EXPECT_EQ(c.ReadyAtNanos(), 0);

  c.Prefetch();
  ASSERT_GT(c.ReadyAtNanos(), 0);
  ASSERT_TRUE(c.Unassign(p1).ok());
  EXPECT_EQ(c.ReadyAtNanos(), 0);

  // The next poll fetches afresh, from the new position and assignment.
  auto batch = c.Poll();
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 2u);
  EXPECT_EQ(batch.value()[0].origin, p0);
  EXPECT_EQ(batch.value()[0].offset, 2);
}

// Forwards every message to `forward.to` on the input's partition, tagging
// it with its input offset. A message from partition 0 of `forward.feed` is
// appended back to it until `forward.feed.max` have been fed, so that
// partition's input does not stop while the test runs.
class ForwardTask : public StreamTask {
 public:
  Status Init(TaskContext& ctx) override {
    to_ = ctx.config().Get("forward.to");
    feed_ = ctx.config().Get("forward.feed");
    feed_max_ = ctx.config().GetInt("forward.feed.max", 0);
    return Status::Ok();
  }
  Status Process(const IncomingMessage& msg, MessageCollector& collector,
                 TaskCoordinator&) override {
    if (msg.origin.topic == feed_ && msg.origin.partition == 0 &&
        fed_ < feed_max_) {
      ++fed_;
      SQS_RETURN_IF_ERROR(collector.SendToPartition(
          feed_, msg.origin.partition, msg.message.key, msg.message.value));
    }
    {
      std::lock_guard<std::mutex> lock(Log().mu);
      Log().partitions.push_back(msg.origin.partition);
    }
    return collector.SendToPartition(
        to_, msg.origin.partition, msg.message.key,
        ToBytes(FromBytes(msg.message.value) + "@" + std::to_string(msg.offset)));
  }

  struct Delivery {
    std::mutex mu;
    std::vector<int32_t> partitions;  // input partition of each Process call
  };
  static Delivery& Log() {
    static Delivery log;
    return log;
  }

 private:
  std::string to_, feed_;
  int64_t feed_max_ = 0;
  int64_t fed_ = 0;
};

class RunnerReadyQueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TaskFactoryRegistry::Instance().Register(
        "forward", [] { return std::make_unique<ForwardTask>(); });
    broker_ = std::make_shared<Broker>();
  }

  void Topic(const std::string& name, int partitions) {
    ASSERT_TRUE(broker_->CreateTopic(name, {.num_partitions = partitions}).ok());
  }

  Config Job(const std::string& name, const std::string& in, const std::string& out) {
    Config c;
    c.Set(cfg::kJobName, name);
    c.Set(cfg::kTaskInputs, in);
    c.Set(cfg::kTaskFactory, "forward");
    c.Set("forward.to", out);
    return c;
  }

  BrokerPtr broker_;
};

TEST_F(RunnerReadyQueueTest, EndlessInputDoesNotStarveTheNeighbourOnOneWorker) {
  Topic("in", 2);
  Topic("out", 2);
  Append(*broker_, {"in", 0}, 1);
  Append(*broker_, {"in", 1}, 20);
  Config c = Job("fair", "in", "out");
  c.SetInt(cfg::kContainerCount, 2);  // container P holds partition P
  c.SetInt(cfg::kMaxPollMessages, 5);
  c.Set("forward.feed", "in");
  c.SetInt("forward.feed.max", 2'000);  // partition 0 refills itself
  {
    std::lock_guard<std::mutex> lock(ForwardTask::Log().mu);
    ForwardTask::Log().partitions.clear();
  }
  JobRunner runner(broker_, c);
  ASSERT_TRUE(runner.Start().ok());
  auto ran = runner.RunThreadedUntilQuiescent(1);
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_EQ(ran.value(), 2'001 + 20);

  // One fetch response per turn: container 1 drains its 20 messages in four
  // turns interleaved with container 0's, not after container 0's 2,001.
  std::lock_guard<std::mutex> lock(ForwardTask::Log().mu);
  const std::vector<int32_t>& order = ForwardTask::Log().partitions;
  size_t last_p1 = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 1) last_p1 = i;
  }
  EXPECT_LT(last_p1, 100u);
}

TEST_F(RunnerReadyQueueTest, ChainedPipelineDoesNotQuiesceBeforeDownstreamDrains) {
  Topic("in", 4);
  for (int32_t p = 0; p < 4; ++p) Append(*broker_, {"in", p}, 50);
  for (bool fifo : {false, true}) {
    SCOPED_TRACE(fifo ? "serial (one FIFO worker)" : "threaded");
    const std::string mid = fifo ? "mid-serial" : "mid-threaded";
    const std::string out = fifo ? "out-serial" : "out-threaded";
    Topic(mid, 4);
    Topic(out, 4);
    auto make = [this](const std::string& name, const std::string& in,
                       const std::string& to) {
      Config c = Job(name, in, to);
      c.SetInt(cfg::kContainerCount, 2);
      c.SetInt(cfg::kPollLatencyNanos, 1'000'000);
      c.Set(cfg::kPollLatencyModel, "sleep");
      c.SetInt(cfg::kMaxPollMessages, 16);
      return std::make_unique<JobRunner>(broker_, c);
    };
    auto up = make("up-" + mid, "in", mid);
    auto down = make("down-" + out, mid, out);
    ASSERT_TRUE(up->Start().ok());
    ASSERT_TRUE(down->Start().ok());
    // Downstream first: its containers find nothing on their first turns.
    auto ran = JobRunner::RunPipeline({down.get(), up.get()}, fifo ? 1 : 2, fifo);
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    EXPECT_EQ(ran.value(), 400);  // 200 through each job, in one call
    size_t delivered = 0;
    for (int32_t p = 0; p < 4; ++p) delivered += Values(*broker_, {out, p}).size();
    EXPECT_EQ(delivered, 200u);
  }
}

TEST_F(RunnerReadyQueueTest, KillDuringPendingFetchNeverCommitsAndReplaysByteEqual) {
  auto config = [this](const std::string& out) {
    Config c = Job("kill-eo-" + out, "in", out);
    c.SetInt(cfg::kContainerCount, 1);
    c.Set(cfg::kTaskDelivery, "exactly-once");
    c.SetInt(cfg::kCommitEveryMessages, 10);
    c.SetInt(cfg::kMaxFetchPerPartition, 15);
    c.SetInt(cfg::kPollLatencyNanos, kRttNanos);
    c.Set(cfg::kPollLatencyModel, "sleep");
    c.SetInt(cfg::kContainerRestartMax, 2);
    c.SetInt(cfg::kContainerRestartBackoffMs, 1);
    c.Set(cfg::kCheckpointTopic, "__checkpoint_" + out);
    return c;
  };
  Topic("in", 2);
  Topic("ref", 2);
  Topic("out", 2);
  for (int32_t p = 0; p < 2; ++p) Append(*broker_, {"in", p}, 100);

  // Reference: the same job, uninterrupted.
  JobRunner reference(broker_, config("ref"));
  ASSERT_TRUE(reference.Start().ok());
  ASSERT_TRUE(reference.RunThreadedUntilQuiescent().ok());

  JobRunner runner(broker_, config("out"));
  ASSERT_TRUE(runner.Start().ok());
  std::shared_ptr<Container> victim = runner.container(0);
  auto first = victim->RunTurn();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // 15 per partition; each partition's task commits at 10.
  ASSERT_EQ(first.value().processed, 30);
  ASSERT_GT(first.value().ready_at_ns, MonotonicNanos());  // fetch in flight

  const StreamPartition checkpoints{"__checkpoint_out", 0};
  const int64_t committed = broker_->EndOffset(checkpoints).value();
  ASSERT_TRUE(runner.KillContainer(0).ok());
  // Past the deadline, the killed container's pending fetch is never
  // delivered, and it never commits.
  std::this_thread::sleep_for(std::chrono::nanoseconds(2 * kRttNanos));
  auto after = victim->RunTurn();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().processed, 0);
  EXPECT_EQ(broker_->EndOffset(checkpoints).value(), committed);
  victim.reset();

  // The supervisor restarts the dead slot; the replay from the last commit
  // dedups at the broker, so the output is the uninterrupted run's bytes.
  auto ran = runner.RunThreadedUntilQuiescent();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_EQ(runner.TotalRestarts(), 1);
  for (int32_t p = 0; p < 2; ++p) {
    std::vector<std::string> got = Values(*broker_, {"out", p});
    EXPECT_EQ(got.size(), 100u);
    EXPECT_EQ(got, Values(*broker_, {"ref", p})) << "partition " << p;
  }
}

}  // namespace
}  // namespace sqs
