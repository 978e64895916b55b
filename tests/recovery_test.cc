// Crash-recovery and fault-injection tests (docs/FAULT_TOLERANCE.md):
//  - FaultInjectingBroker: seeded schedules, forced failures, blackouts;
//  - Retrier: only Unavailable retried, counters move, budgets respected;
//  - ChangelogBackedStore: append failure is a sticky health error (never an
//    exception) that blocks the commit, and Restore() clears it;
//  - CheckpointManager: restore is one pass over checkpoint history per
//    container, not one per task;
//  - task.error.policy: poison messages fail / skip / dead-letter;
//  - container supervisor: killed or crashed containers restart through the
//    full recovery path and the job's output still matches the oracle;
//  - recovery_soak: seeded random fault storms over a windowed query
//    (run with `ctest -R recovery_soak`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/tracing.h"
#include "core/executor.h"
#include "kv/changelog.h"
#include "kv/store.h"
#include "log/fault_broker.h"
#include "task/checkpoint.h"
#include "workload/generators.h"

namespace sqs::core {
namespace {

constexpr int32_t kPartitions = 4;

// The windowed-aggregation pair used throughout: streaming job vs. batch
// oracle. Window outputs are idempotent by (window start, productId), so
// at-least-once replays dedup to exactly the oracle rows.
constexpr const char* kTumblingStream =
    "SELECT STREAM productId, START(rowtime) AS ws, COUNT(*) AS c, SUM(units) AS su "
    "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '10' SECOND), productId";
constexpr const char* kTumblingBatch =
    "SELECT productId, START(rowtime) AS ws, COUNT(*) AS c, SUM(units) AS su "
    "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '10' SECOND), productId";

Message Msg(const std::string& key, const std::string& value) {
  Message m;
  m.key = ToBytes(key);
  m.value = ToBytes(value);
  return m;
}

// ---------------------------------------------------------------------------
// FaultInjectingBroker unit tests
// ---------------------------------------------------------------------------

TEST(FaultBrokerTest, SeededScheduleIsDeterministic) {
  auto make = [](uint64_t seed) {
    auto inner = std::make_shared<Broker>();
    EXPECT_TRUE(inner->CreateTopic("t", {.num_partitions = 1}).ok());
    FaultPolicy policy;
    policy.seed = seed;
    policy.append_fail_rate = 0.5;
    return std::make_shared<FaultInjectingBroker>(inner, policy);
  };
  auto pattern = [](FaultInjectingBroker& b) {
    std::string p;
    for (int i = 0; i < 200; ++i) {
      p += b.Append({"t", 0}, Msg("k", "v")).ok() ? '.' : 'X';
    }
    return p;
  };
  auto a = make(7);
  auto b = make(7);
  auto c = make(8);
  std::string pa = pattern(*a);
  EXPECT_EQ(pa, pattern(*b));     // same seed: identical failure schedule
  EXPECT_NE(pa, pattern(*c));     // different seed: different schedule
  EXPECT_NE(pa.find('.'), std::string::npos);
  EXPECT_NE(pa.find('X'), std::string::npos);
  EXPECT_GT(a->injected_append_failures(), 0);
}

TEST(FaultBrokerTest, ForcedFailuresBlackoutsAndMetadataPassThrough) {
  auto inner = std::make_shared<Broker>();
  ASSERT_TRUE(inner->CreateTopic("t", {.num_partitions = 2}).ok());
  FaultInjectingBroker fb(inner, FaultPolicy{});  // no random faults

  ASSERT_TRUE(fb.Append({"t", 0}, Msg("k", "v")).ok());

  fb.FailNextAppends(2);
  auto a1 = fb.Append({"t", 0}, Msg("k", "v"));
  auto a2 = fb.Append({"t", 0}, Msg("k", "v"));
  ASSERT_FALSE(a1.ok());
  EXPECT_EQ(a1.status().code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(a2.ok());
  EXPECT_TRUE(fb.Append({"t", 0}, Msg("k", "v")).ok());  // tokens spent

  fb.FailNextFetches(1);
  auto f1 = fb.Fetch({"t", 0}, 0, 10);
  ASSERT_FALSE(f1.ok());
  EXPECT_EQ(f1.status().code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(fb.Fetch({"t", 0}, 0, 10).ok());

  // Blackout fails one partition's data path; metadata and the other
  // partition keep working; Heal restores it.
  fb.BlackoutPartition({"t", 1});
  EXPECT_FALSE(fb.Append({"t", 1}, Msg("k", "v")).ok());
  EXPECT_FALSE(fb.Fetch({"t", 1}, 0, 10).ok());
  EXPECT_TRUE(fb.EndOffset({"t", 1}).ok());
  EXPECT_TRUE(fb.Append({"t", 0}, Msg("k", "v")).ok());
  fb.Heal({"t", 1});
  EXPECT_TRUE(fb.Append({"t", 1}, Msg("k", "v")).ok());

  EXPECT_EQ(fb.injected_append_failures(), 3);
  EXPECT_EQ(fb.injected_fetch_failures(), 2);
  EXPECT_GT(fb.AppendCount("t"), 0);
  EXPECT_GT(fb.FetchCount("t"), 0);
}

// ---------------------------------------------------------------------------
// Retrier unit tests
// ---------------------------------------------------------------------------

TEST(RetrierTest, RetriesOnlyUnavailableAndCountsOutcomes) {
  MetricsRegistry registry;
  Counter& retries = ScopedMetrics(&registry, "t").counter("retries");
  Counter& giveups = ScopedMetrics(&registry, "t").counter("giveups");
  Retrier retrier(RetryPolicy{.max_attempts = 5, .backoff_ms = 1, .backoff_max_ms = 2});
  retrier.BindMetrics(&retries, &giveups);

  // Transient failure: two Unavailable then success.
  int calls = 0;
  Status st = retrier.Run([&]() -> Status {
    return ++calls <= 2 ? Status::Unavailable("transient") : Status::Ok();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries.Get(), 2);
  EXPECT_EQ(giveups.Get(), 0);

  // Non-retryable code: surfaced immediately, no retries.
  calls = 0;
  st = retrier.Run([&]() -> Status {
    ++calls;
    return Status::InvalidArgument("poison");
  });
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries.Get(), 2);

  // Budget exhaustion: max_attempts calls, then the error with a giveup.
  retrier.SetPolicy(RetryPolicy{.max_attempts = 3, .backoff_ms = 1, .backoff_max_ms = 1});
  calls = 0;
  st = retrier.Run([&]() -> Status {
    ++calls;
    return Status::Unavailable("permanent");
  });
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries.Get(), 4);
  EXPECT_EQ(giveups.Get(), 1);
}

// retry.deadline.ms: a wall-clock budget orthogonal to max_attempts. With a
// huge attempt budget but a tiny deadline, a permanently-Unavailable call
// gives up quickly via the deadline path — counted separately from
// attempt-budget giveups so dashboards can tell the two pressures apart.
TEST(RetrierTest, DeadlineBudgetStopsRetriesBeforeAttemptBudget) {
  MetricsRegistry registry;
  Counter& retries = ScopedMetrics(&registry, "t").counter("retries");
  Counter& giveups = ScopedMetrics(&registry, "t").counter("giveups");
  Counter& deadline = ScopedMetrics(&registry, "t").counter("giveup_deadline");
  Retrier retrier(RetryPolicy{
      .max_attempts = 1'000'000, .backoff_ms = 5, .backoff_max_ms = 10,
      .deadline_ms = 40});
  retrier.BindMetrics(&retries, &giveups, &deadline);

  int calls = 0;
  int64_t start = MonotonicNanos();
  Status st = retrier.Run([&]() -> Status {
    ++calls;
    return Status::Unavailable("down hard");
  });
  int64_t elapsed_ms = (MonotonicNanos() - start) / 1'000'000;
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  // Far fewer calls than the attempt budget, and no runaway wall time: the
  // deadline is checked between attempts, so an in-flight call is never cut
  // short but no new backoff starts past the budget.
  EXPECT_LT(calls, 1000);
  EXPECT_GE(calls, 2);  // at least one retry happened before the deadline
  EXPECT_LT(elapsed_ms, 5000);
  EXPECT_EQ(giveups.Get(), 0);
  EXPECT_EQ(deadline.Get(), 1);

  // deadline_ms parses from config next to the other retry.* knobs, and 0
  // (the default) means no deadline.
  Config config;
  config.SetInt(cfg::kRetryMaxAttempts, 7);
  config.SetInt(cfg::kRetryDeadlineMs, 250);
  RetryPolicy parsed = RetryPolicy::FromConfig(config);
  EXPECT_EQ(parsed.max_attempts, 7);
  EXPECT_EQ(parsed.deadline_ms, 250);
  EXPECT_EQ(RetryPolicy{}.deadline_ms, 0);
}

// Containers that fail together must not retry in lockstep: each
// container's retrier is seeded from its own scope, so the same operation
// in two containers draws different backoffs from the first retry on.
TEST(RetrierTest, ContainersDrawDifferentFirstBackoffs) {
  MetricsRegistry registry;
  const RetryPolicy policy{.max_attempts = 3, .backoff_ms = 1000, .backoff_max_ms = 1000};
  for (const char* op : {"send", "fetch", "changelog", "checkpoint"}) {
    SCOPED_TRACE(op);
    std::vector<int64_t> first;
    for (const char* container : {"container0", "container1"}) {
      ScopedMetrics scope =
          ScopedMetrics(&registry, "job").Sub(container).Sub("retry").Sub(op);
      Retrier retrier(policy, scope.scope());
      first.push_back(retrier.JitteredMs(policy.backoff_ms));
      EXPECT_GE(first.back(), policy.backoff_ms / 2);
      EXPECT_LE(first.back(), policy.backoff_ms);
    }
    EXPECT_NE(first[0], first[1]);
  }
}

TEST(RetrierTest, ProducerSendSurvivesTransientAppendFailures) {
  auto inner = std::make_shared<Broker>();
  ASSERT_TRUE(inner->CreateTopic("t", {.num_partitions = 1}).ok());
  auto fb = std::make_shared<FaultInjectingBroker>(inner, FaultPolicy{});
  Producer producer(fb);
  producer.SetRetrier(Retrier(RetryPolicy{.max_attempts = 4, .backoff_ms = 1, .backoff_max_ms = 2}));
  fb->FailNextAppends(2);
  ASSERT_TRUE(producer.Send("t", ToBytes("k"), ToBytes("v")).ok());
  EXPECT_EQ(inner->EndOffset({"t", 0}).value(), 1);
  EXPECT_EQ(fb->injected_append_failures(), 2);
}

// ---------------------------------------------------------------------------
// ChangelogBackedStore: sticky error instead of an exception
// ---------------------------------------------------------------------------

TEST(ChangelogStickyErrorTest, AppendFailureIsStickyAndRestoreClearsIt) {
  auto inner = std::make_shared<Broker>();
  ASSERT_TRUE(inner->CreateTopic("cl", {.num_partitions = 1}).ok());
  auto fb = std::make_shared<FaultInjectingBroker>(inner, FaultPolicy{});
  ChangelogBackedStore store(std::make_shared<InMemoryStore>(), fb, {"cl", 0});

  store.Put(ToBytes("a"), ToBytes("1"));
  ASSERT_TRUE(store.health().ok());

  // The failing Put must not throw, must not touch the backing store, and
  // must leave a sticky Unavailable health error.
  fb->FailNextAppends(1);
  store.Put(ToBytes("b"), ToBytes("2"));
  EXPECT_FALSE(store.health().ok());
  EXPECT_EQ(store.health().code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(store.Get(ToBytes("b")).has_value());

  // While unhealthy, further writes are refused (no divergence).
  store.Put(ToBytes("c"), ToBytes("3"));
  store.Delete(ToBytes("a"));
  EXPECT_FALSE(store.Get(ToBytes("c")).has_value());
  EXPECT_EQ(inner->EndOffset({"cl", 0}).value(), 1);  // only "a" was logged

  // Restore replays the changelog and clears the sticky error.
  ASSERT_TRUE(store.Restore().ok());
  EXPECT_TRUE(store.health().ok());
  EXPECT_TRUE(store.Get(ToBytes("a")).has_value());
  store.Put(ToBytes("d"), ToBytes("4"));
  EXPECT_TRUE(store.health().ok());
  EXPECT_TRUE(store.Get(ToBytes("d")).has_value());
}

TEST(ChangelogStickyErrorTest, RetryPolicyAbsorbsTransientAppendFailures) {
  auto inner = std::make_shared<Broker>();
  ASSERT_TRUE(inner->CreateTopic("cl", {.num_partitions = 1}).ok());
  auto fb = std::make_shared<FaultInjectingBroker>(inner, FaultPolicy{});
  ChangelogBackedStore store(std::make_shared<InMemoryStore>(), fb, {"cl", 0});
  store.SetRetrier(Retrier(RetryPolicy{.max_attempts = 4, .backoff_ms = 1, .backoff_max_ms = 2}));
  fb->FailNextAppends(2);
  store.Put(ToBytes("a"), ToBytes("1"));
  EXPECT_TRUE(store.health().ok());
  EXPECT_TRUE(store.Get(ToBytes("a")).has_value());
  EXPECT_EQ(inner->EndOffset({"cl", 0}).value(), 1);
}

// A store whose changelog append was lost must block the commit: the
// checkpoint may never advance past state that was not durably logged. With
// the supervisor on, the container crashes at the commit boundary, restarts,
// restores from the changelog, and replays — final state is complete.
TEST(ChangelogStickyErrorTest, UnhealthyStoreBlocksCommitAndSupervisorRecovers) {
  class RecoveryStatefulTask : public StreamTask {
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
  const TaskFactory factory = [] { return std::make_unique<RecoveryStatefulTask>(); };

  auto inner = std::make_shared<Broker>();
  ASSERT_TRUE(inner->CreateTopic("in", {.num_partitions = 2}).ok());
  FaultPolicy policy;
  policy.topics = {"state-cl-gate"};  // only the changelog misbehaves
  auto fb = std::make_shared<FaultInjectingBroker>(inner, policy);

  Producer p(fb);
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(p.Send("in", ToBytes("k" + std::to_string(i)),
                       ToBytes("m" + std::to_string(i)))
                    .ok());
  }

  Config c;
  c.Set(cfg::kJobName, "gate-job");
  c.Set(cfg::kTaskInputs, "in");
  c.Set("stores.state.changelog", "state-cl-gate");
  c.SetInt(cfg::kContainerCount, 1);
  c.SetInt(cfg::kCommitEveryMessages, 10);
  c.SetInt(cfg::kContainerRestartMax, 3);
  c.SetInt(cfg::kContainerRestartBackoffMs, 1);
  JobRunner runner(fb, c, factory);
  ASSERT_TRUE(runner.Start().ok());

  fb->FailNextAppends(1);  // one changelog write is lost mid-batch
  auto ran = runner.RunThreadedUntilQuiescent(1);
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_GE(runner.TotalRestarts(), 1);

  // Every input message is in the recovered state exactly once.
  size_t total = 0;
  for (int part = 0; part < 2; ++part) {
    ChangelogBackedStore verify(std::make_shared<InMemoryStore>(), inner,
                                {"state-cl-gate", part});
    ASSERT_TRUE(verify.Restore().ok());
    int64_t in_end = inner->EndOffset({"in", part}).value();
    EXPECT_EQ(verify.Size(), static_cast<size_t>(in_end));
    for (int64_t o = 0; o < in_end; ++o) {
      EXPECT_TRUE(verify
                      .Get(ToBytes(std::to_string(part) + ":" + std::to_string(o)))
                      .has_value());
    }
    total += verify.Size();
  }
  EXPECT_EQ(total, 80u);
}

// ---------------------------------------------------------------------------
// CRC32C + corruption injection (end-to-end integrity)
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownVectorsAndExtendComposition) {
  // The Castagnoli check value: CRC32C("123456789") = 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Extend composes: crc(a || b) == extend(crc(a), b). MessageCrc relies on
  // this to checksum key || value without concatenating them.
  const std::string a = "hello ", b = "world", ab = a + b;
  EXPECT_EQ(Crc32cExtend(Crc32c(a.data(), a.size()), b.data(), b.size()),
            Crc32c(ab.data(), ab.size()));
  // Any single bit flip changes the CRC.
  std::string flipped = ab;
  flipped[3] ^= 0x10;
  EXPECT_NE(Crc32c(flipped.data(), flipped.size()), Crc32c(ab.data(), ab.size()));
}

TEST(Crc32cTest, MessageStampAndValidate) {
  Message m = Msg("key", "value");
  EXPECT_TRUE(MessageCrcValid(m));  // unstamped legacy message: no check
  StampMessageCrc(m);
  EXPECT_TRUE(m.has_crc);
  EXPECT_TRUE(MessageCrcValid(m));
  m.value[0] ^= 0x01;
  EXPECT_FALSE(MessageCrcValid(m));
  m.value[0] ^= 0x01;
  m.key[1] ^= 0x80;  // the key is covered too
  EXPECT_FALSE(MessageCrcValid(m));
}

TEST(CorruptionTest, InjectedBitFlipFailsCrcAndRefetchHeals) {
  auto inner = std::make_shared<Broker>();
  ASSERT_TRUE(inner->CreateTopic("t", {.num_partitions = 1}).ok());
  auto fb = std::make_shared<FaultInjectingBroker>(inner, FaultPolicy{});
  Producer p(fb);  // stamps CRC32C on every send
  ASSERT_TRUE(p.SendTo({"t", 0}, ToBytes("k"), ToBytes("hello")).ok());

  fb->CorruptNextMessages(1);
  auto bad = fb->Fetch({"t", 0}, 0, 10);
  ASSERT_TRUE(bad.ok());
  ASSERT_EQ(bad.value().size(), 1u);
  EXPECT_FALSE(MessageCrcValid(bad.value()[0].message));
  EXPECT_EQ(fb->injected_corruptions(), 1);

  // Corruption hits the fetched copy, not the log: a refetch is clean.
  auto good = fb->Fetch({"t", 0}, 0, 10);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(MessageCrcValid(good.value()[0].message));
  EXPECT_EQ(good.value()[0].message.value, ToBytes("hello"));
}

TEST(CorruptionTest, ChangelogRestoreRetriesPastCorruptFetch) {
  auto inner = std::make_shared<Broker>();
  ASSERT_TRUE(inner->CreateTopic("cl", {.num_partitions = 1}).ok());
  auto fb = std::make_shared<FaultInjectingBroker>(inner, FaultPolicy{});
  ChangelogBackedStore store(std::make_shared<InMemoryStore>(), fb, {"cl", 0});
  store.SetRetrier(Retrier(RetryPolicy{.max_attempts = 4, .backoff_ms = 1, .backoff_max_ms = 2}));
  store.Put(ToBytes("a"), ToBytes("1"));
  store.Put(ToBytes("b"), ToBytes("2"));
  ASSERT_TRUE(store.health().ok());

  // One corrupted replay fetch: the CRC check inside the retried lambda
  // converts it to Unavailable and the refetch restores clean state.
  fb->CorruptNextMessages(1);
  ASSERT_TRUE(store.Restore().ok());
  EXPECT_EQ(store.Get(ToBytes("a")), ToBytes("1"));
  EXPECT_EQ(store.Get(ToBytes("b")), ToBytes("2"));
  EXPECT_GE(fb->injected_corruptions(), 1);
}

// ---------------------------------------------------------------------------
// Idempotent producer: sequence dedup, epoch fencing, sequence resume
// ---------------------------------------------------------------------------

TEST(IdempotentProducerTest, BrokerDedupsSequencesAndAcksAtLastOffset) {
  Broker b;
  ASSERT_TRUE(b.CreateTopic("t", {.num_partitions = 1}).ok());
  auto reg = b.RegisterProducer("p");
  ASSERT_TRUE(reg.ok());
  ProducerIdentity id = reg.value();
  EXPECT_NE(id.pid, 0u);
  EXPECT_EQ(id.epoch, 0);

  auto stamped = [&](int64_t seq, int32_t epoch) {
    Message m = Msg("k", "v" + std::to_string(seq));
    m.producer_id = id.pid;
    m.producer_epoch = epoch;
    m.sequence = seq;
    StampMessageCrc(m);
    return m;
  };
  EXPECT_EQ(b.Append({"t", 0}, stamped(0, 0)).value(), 0);
  EXPECT_EQ(b.Append({"t", 0}, stamped(1, 0)).value(), 1);
  // A duplicate (retried or replayed) append acks at the producer's last
  // appended offset without growing the log.
  EXPECT_EQ(b.Append({"t", 0}, stamped(1, 0)).value(), 1);
  EXPECT_EQ(b.Append({"t", 0}, stamped(0, 0)).value(), 1);
  EXPECT_EQ(b.EndOffset({"t", 0}).value(), 2);
  EXPECT_EQ(b.dups_dropped(), 2);

  // A sequence gap means lost messages — hard error, not silent reorder.
  auto gap = b.Append({"t", 0}, stamped(5, 0));
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().code(), ErrorCode::kStateError);

  // An unregistered pid is rejected.
  Message rogue = Msg("k", "v");
  rogue.producer_id = id.pid + 999;
  rogue.producer_epoch = 0;
  rogue.sequence = 0;
  auto unknown = b.Append({"t", 0}, std::move(rogue));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), ErrorCode::kStateError);
}

TEST(IdempotentProducerTest, StaleEpochIsFencedAndReplayDedupsAcrossEpochs) {
  Broker b;
  ASSERT_TRUE(b.CreateTopic("t", {.num_partitions = 1}).ok());
  ProducerIdentity e0 = b.RegisterProducer("p").value();
  auto stamped = [&](int64_t seq, int32_t epoch) {
    Message m = Msg("k", "v" + std::to_string(seq));
    m.producer_id = e0.pid;
    m.producer_epoch = epoch;
    m.sequence = seq;
    StampMessageCrc(m);
    return m;
  };
  EXPECT_EQ(b.Append({"t", 0}, stamped(0, 0)).value(), 0);

  // Re-registration models a restart: same pid, bumped epoch.
  ProducerIdentity e1 = b.RegisterProducer("p").value();
  EXPECT_EQ(e1.pid, e0.pid);
  EXPECT_EQ(e1.epoch, 1);

  // The zombie (old epoch) is fenced with a non-retryable error.
  auto fenced = b.Append({"t", 0}, stamped(1, 0));
  ASSERT_FALSE(fenced.ok());
  EXPECT_EQ(fenced.status().code(), ErrorCode::kFenced);
  EXPECT_EQ(b.fenced_appends(), 1);

  // Dedup state survives the epoch bump: the restarted incarnation's
  // deterministic replay re-sends seq 0 and it dedups instead of duplicating.
  EXPECT_EQ(b.Append({"t", 0}, stamped(0, 1)).value(), 0);
  EXPECT_EQ(b.Append({"t", 0}, stamped(1, 1)).value(), 1);
  EXPECT_EQ(b.EndOffset({"t", 0}).value(), 2);
}

TEST(IdempotentProducerTest, RestartedProducerReplaysWithoutDuplicatesAndResumes) {
  auto b = std::make_shared<Broker>();
  ASSERT_TRUE(b->CreateTopic("t", {.num_partitions = 1}).ok());

  Producer p1(b);
  ASSERT_TRUE(p1.EnableIdempotence("job.Partition 0").ok());
  EXPECT_TRUE(p1.idempotent());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(p1.SendTo({"t", 0}, ToBytes("k"), ToBytes("m" + std::to_string(i))).ok());
  }
  EXPECT_EQ(b->EndOffset({"t", 0}).value(), 3);

  // Crash with no checkpoint: the new incarnation replays from scratch with
  // the same sequences — every send dedups, the log does not grow.
  Producer p2(b);
  ASSERT_TRUE(p2.EnableIdempotence("job.Partition 0").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(p2.SendTo({"t", 0}, ToBytes("k"), ToBytes("m" + std::to_string(i))).ok());
  }
  EXPECT_EQ(b->EndOffset({"t", 0}).value(), 3);
  EXPECT_EQ(b->dups_dropped(), 3);

  // The fenced predecessor can no longer append.
  auto stale = p1.SendTo({"t", 0}, ToBytes("k"), ToBytes("zombie"));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), ErrorCode::kFenced);

  // Checkpointed restart: sequences resume where the checkpoint left them,
  // so new output continues the stream instead of replaying it.
  Producer p3(b);
  ASSERT_TRUE(p3.EnableIdempotence("job.Partition 0").ok());
  p3.ResumeSequences(p2.sequences());
  EXPECT_EQ(p3.SendTo({"t", 0}, ToBytes("k"), ToBytes("m3")).value(), 3);
  EXPECT_EQ(b->EndOffset({"t", 0}).value(), 4);
}

// ---------------------------------------------------------------------------
// Transactional checkpoint codec: v2 wire format + legacy compatibility
// ---------------------------------------------------------------------------

TEST(TaskCheckpointCodecTest, TransactionalRoundTripAndLegacyCompat) {
  TaskCheckpoint cp;
  cp.input_offsets = {{{"in", 0}, 5}, {{"in", 1}, 7}};
  cp.changelog_offsets = {{{"cl", 0}, 11}};
  cp.producer_sequences = {{{"out", 0}, 3}, {{"out", 1}, 9}};

  Bytes enc = CheckpointManager::EncodeTaskCheckpoint(cp);
  auto dec = CheckpointManager::DecodeTaskCheckpoint(enc);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_EQ(dec.value().input_offsets, cp.input_offsets);
  EXPECT_EQ(dec.value().changelog_offsets, cp.changelog_offsets);
  EXPECT_EQ(dec.value().producer_sequences, cp.producer_sequences);

  // Offsets-only checkpoints keep the legacy encoding byte-for-byte, so an
  // at-least-once job writes records an old reader still understands:
  // zigzag-varint entry count, then (topic string, partition, offset) per
  // entry in key order.
  const Bytes legacy_bytes = {0x04,                    // 2 entries
                              0x04, 'i', 'n', 0x00, 0x0a,  // in/0 -> 5
                              0x04, 'i', 'n', 0x02, 0x0e};  // in/1 -> 7
  TaskCheckpoint plain;
  plain.input_offsets = cp.input_offsets;
  EXPECT_EQ(CheckpointManager::EncodeTaskCheckpoint(plain), legacy_bytes);

  // Legacy bytes decode as a TaskCheckpoint with empty state/sequence maps.
  auto legacy = CheckpointManager::DecodeTaskCheckpoint(legacy_bytes);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy.value().input_offsets, cp.input_offsets);
  EXPECT_TRUE(legacy.value().changelog_offsets.empty());
  EXPECT_TRUE(legacy.value().producer_sequences.empty());
}

TEST(TaskCheckpointCodecTest, WriteAndRestoreTransactionalCheckpoint) {
  auto b = std::make_shared<Broker>();
  CheckpointManager writer(b, "__cp_txn");
  ASSERT_TRUE(writer.Start().ok());
  TaskCheckpoint cp;
  cp.input_offsets = {{{"in", 0}, 42}};
  cp.changelog_offsets = {{{"cl", 0}, 17}};
  cp.producer_sequences = {{{"out", 0}, 8}};
  ASSERT_TRUE(writer.WriteTaskCheckpoint("Partition 0", cp).ok());

  // A restarted container reads all three maps back from one record.
  CheckpointManager reader(b, "__cp_txn");
  ASSERT_TRUE(reader.Start().ok());
  auto got = reader.ReadLastTaskCheckpoint("Partition 0");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().input_offsets, cp.input_offsets);
  EXPECT_EQ(got.value().changelog_offsets, cp.changelog_offsets);
  EXPECT_EQ(got.value().producer_sequences, cp.producer_sequences);

  // A task with no checkpoint reads an empty record, not an error.
  auto none = reader.ReadLastTaskCheckpoint("Partition 9");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
}

// ---------------------------------------------------------------------------
// CheckpointManager: one scan per container, not per task
// ---------------------------------------------------------------------------

// An at-least-once checkpoint: input positions only.
TaskCheckpoint OffsetsOnly(Checkpoint offsets) {
  TaskCheckpoint cp;
  cp.input_offsets = std::move(offsets);
  return cp;
}

TEST(CheckpointScanTest, RestoreScansHistoryOncePerManagerNotPerTask) {
  auto inner = std::make_shared<Broker>();
  auto fb = std::make_shared<FaultInjectingBroker>(inner, FaultPolicy{});

  CheckpointManager writer(fb, "__cp_scan");
  ASSERT_TRUE(writer.Start().ok());
  for (int round = 0; round < 6; ++round) {
    for (int t = 0; t < 8; ++t) {
      ASSERT_TRUE(writer
                      .WriteTaskCheckpoint("Partition " + std::to_string(t),
                                           OffsetsOnly({{{"in", t}, round}}))
                      .ok());
    }
  }

  // A fresh manager models a restarted container restoring all 8 tasks.
  CheckpointManager reader(fb, "__cp_scan");
  ASSERT_TRUE(reader.Start().ok());
  int64_t before = fb->FetchCount("__cp_scan");
  for (int t = 0; t < 8; ++t) {
    auto cp = reader.ReadLastTaskCheckpoint("Partition " + std::to_string(t));
    ASSERT_TRUE(cp.ok());
    EXPECT_EQ(cp.value().input_offsets.at({"in", t}), 5);  // latest round wins
  }
  // All 48 records fit one fetch batch: 8 task restores cost 1 fetch total.
  EXPECT_EQ(fb->FetchCount("__cp_scan") - before, 1);

  // Re-reads are cache hits; a manager's own write advances its frontier,
  // so reading it back refetches nothing.
  ASSERT_TRUE(reader.ReadLastTaskCheckpoint("Partition 3").ok());
  ASSERT_TRUE(
      reader.WriteTaskCheckpoint("Partition 0", OffsetsOnly({{{"in", 0}, 99}})).ok());
  auto cp = reader.ReadLastTaskCheckpoint("Partition 0");
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp.value().input_offsets.at({"in", 0}), 99);
  EXPECT_EQ(fb->FetchCount("__cp_scan") - before, 1);
}

TEST(CheckpointScanTest, WritesAndRestoreRetryTransientFailures) {
  auto inner = std::make_shared<Broker>();
  auto fb = std::make_shared<FaultInjectingBroker>(inner, FaultPolicy{});
  CheckpointManager mgr(fb, "__cp_retry");
  mgr.SetRetrier(Retrier(RetryPolicy{.max_attempts = 4, .backoff_ms = 1, .backoff_max_ms = 2}));
  ASSERT_TRUE(mgr.Start().ok());
  fb->FailNextAppends(2);
  ASSERT_TRUE(mgr.WriteTaskCheckpoint("Partition 0", OffsetsOnly({{{"in", 0}, 7}})).ok());

  CheckpointManager reader(fb, "__cp_retry");
  reader.SetRetrier(Retrier(RetryPolicy{.max_attempts = 4, .backoff_ms = 1, .backoff_max_ms = 2}));
  ASSERT_TRUE(reader.Start().ok());
  fb->FailNextFetches(2);
  auto cp = reader.ReadLastTaskCheckpoint("Partition 0");
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  EXPECT_EQ(cp.value().input_offsets.at({"in", 0}), 7);
}

// ---------------------------------------------------------------------------
// SQL-level fixture: windowed job + fault broker + supervisor
// ---------------------------------------------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  void MakeEnv() {
    env_ = SamzaSqlEnvironment::Make();
    ASSERT_TRUE(workload::SetupPaperSources(*env_, kPartitions).ok());
  }

  void ProduceOrders(int64_t count) {
    workload::OrdersGeneratorOptions options;
    options.num_products = 20;
    workload::OrdersGenerator gen(*env_, options);
    ASSERT_TRUE(gen.Produce(count).ok());
    last_rowtime_ = gen.last_rowtime();
  }

  // One far-future order per partition so event-time watermarks close every
  // open window in every task (same trick as the e2e suite).
  void ProduceWatermarkSentinels(int64_t future_ms) {
    auto schema = env_->catalog->GetSource("Orders").value().schema;
    AvroRowSerde serde(schema);
    Producer producer(env_->broker, env_->clock);
    for (int32_t p = 0; p < kPartitions; ++p) {
      Row row{Value(last_rowtime_ + future_ms), Value(int32_t{9999}),
              Value(int64_t{-1}), Value(int32_t{0}), Value("sentinel")};
      ASSERT_TRUE(
          producer.SendTo({"Orders", p}, Bytes{}, serde.SerializeToBytes(row)).ok());
    }
  }

  // Ground truth for the tumbling query: the batch oracle, evaluated before
  // any fault injection is armed, as a deduped set without sentinel groups.
  std::set<std::string> OracleWindows() {
    QueryExecutor oracle(env_);
    auto result = oracle.Execute(kTumblingBatch);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return DedupNonSentinel(result.value().rows);
  }

  // Wrap the environment's broker in a fault injector. Every job submitted
  // afterwards (and every recovery path) runs through it.
  void WrapFaults(FaultPolicy policy) {
    fault_ = std::make_shared<FaultInjectingBroker>(env_->broker, std::move(policy));
    env_->broker = fault_;
  }

  static Config SupervisedDefaults() {
    Config defaults;
    defaults.SetInt(cfg::kContainerCount, 2);
    defaults.SetInt(cfg::kCommitEveryMessages, 50);
    defaults.SetInt(cfg::kContainerRestartMax, 5);
    defaults.SetInt(cfg::kContainerRestartBackoffMs, 1);
    defaults.SetInt(cfg::kContainerRestartBackoffMaxMs, 4);
    defaults.SetInt(cfg::kRetryMaxAttempts, 3);
    defaults.SetInt(cfg::kRetryBackoffMs, 1);
    defaults.SetInt(cfg::kRetryBackoffMaxMs, 2);
    return defaults;
  }

  static std::set<std::string> DedupNonSentinel(const std::vector<Row>& rows) {
    std::set<std::string> out;
    for (const Row& r : rows) {
      if (r[0] == Value(int32_t{9999})) continue;  // sentinel group
      out.insert(RowToString(r));
    }
    return out;
  }

  // Counter sum across containers, matched by metric-name suffix.
  static int64_t SumCounters(JobRunner* job, const std::string& suffix) {
    MetricsSnapshot snap = job->metrics_registry()->Snapshot();
    int64_t total = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        total += value;
      }
    }
    return total;
  }

  EnvironmentPtr env_;
  std::shared_ptr<FaultInjectingBroker> fault_;
  std::unique_ptr<QueryExecutor> executor_;
  int64_t last_rowtime_ = 0;
};

// Tentpole scenario 1: kill a container mid-window. The supervisor (not a
// manual RestartContainer) brings it back through Restore + checkpoint
// replay, and the deduped output equals the uninterrupted oracle.
TEST_F(RecoveryTest, SupervisorRestartsKilledContainerAndOutputMatchesOracle) {
  MakeEnv();
  ProduceOrders(1600);
  ProduceWatermarkSentinels(3'600'000);
  std::set<std::string> expected = OracleWindows();

  executor_ = std::make_unique<QueryExecutor>(env_, SupervisedDefaults());
  auto submitted = executor_->Execute(kTumblingStream);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobRunner* job = executor_->job(submitted.value().job_index);
  ASSERT_NE(job, nullptr);

  // Kill after partial progress: open windows and uncheckpointed positions
  // die with the container.
  ASSERT_TRUE(job->container(0)->RunUntilCaughtUp(400).ok());
  ASSERT_TRUE(job->KillContainer(0).ok());

  auto ran = executor_->RunJobsUntilQuiescent();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();

  auto rows = executor_->ReadOutputRows(submitted.value().output_topic);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(DedupNonSentinel(rows.value()), expected);
  EXPECT_GT(expected.size(), 10u);  // sanity: many windows closed

  EXPECT_GE(job->TotalRestarts(), 1);
  EXPECT_GE(job->ContainerRestarts(0), 1);
  EXPECT_GE(SumCounters(job, ".supervisor.container_restarts"), 1);
  // The restart count is visible to the monitor (/jobs, /readyz reason).
  auto views = executor_->CollectJobViews();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_GE(views[0].restarts, 1);
}

// A destroyed executor releases everything its jobs held. Each runner owns
// its job's task factory, and through it the job's task-side plan; the
// supervisor hands the same factory to the containers it rebuilds. Once the
// executor and the test's handle are gone, nothing may keep the environment,
// and with it the broker, alive.
TEST_F(RecoveryTest, DestroyedExecutorReleasesItsJobs) {
  MakeEnv();
  ProduceOrders(400);
  executor_ = std::make_unique<QueryExecutor>(env_, SupervisedDefaults());
  // A filter runs as one fused stage; the window runs interpreted.
  for (const char* sql : {"SELECT STREAM * FROM Orders WHERE units > 5",
                          kTumblingStream}) {
    auto submitted = executor_->Execute(sql);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    JobRunner* job = executor_->job(submitted.value().job_index);
    ASSERT_TRUE(job->container(0)->RunUntilCaughtUp(50).ok());
    ASSERT_TRUE(job->KillContainer(0).ok());
  }
  auto ran = executor_->RunJobsUntilQuiescent();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  for (int i = 0; i < 2; ++i) EXPECT_GE(executor_->job(i)->ContainerRestarts(0), 1);

  std::weak_ptr<SamzaSqlEnvironment> env = env_;
  std::weak_ptr<Broker> broker = env_->broker;
  executor_.reset();
  env_.reset();
  EXPECT_TRUE(env.expired());
  EXPECT_TRUE(broker.expired());
}

// Tentpole scenario 2: crash after output flush but before the checkpoint
// lands. Forced append failures are scoped to the checkpoint topic, so the
// commit fails with outputs already flushed; replay produces duplicate
// window emissions which dedup back to the oracle (at-least-once).
TEST_F(RecoveryTest, CrashBetweenOutputFlushAndCheckpointDedupsToOracle) {
  MakeEnv();
  ProduceOrders(1600);
  ProduceWatermarkSentinels(3'600'000);
  std::set<std::string> expected = OracleWindows();

  FaultPolicy policy;
  policy.topics = {"__cp_recovery"};
  WrapFaults(policy);

  Config defaults = SupervisedDefaults();
  defaults.Set(cfg::kCheckpointTopic, "__cp_recovery");
  executor_ = std::make_unique<QueryExecutor>(env_, defaults);
  auto submitted = executor_->Execute(kTumblingStream);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobRunner* job = executor_->job(submitted.value().job_index);

  // retry.max.attempts=3, so 6 tokens sink two whole checkpoint writes
  // (initial attempt + 2 retries each): two separate commit-time crashes.
  fault_->FailNextAppends(6);
  auto ran = executor_->RunJobsUntilQuiescent();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_GE(job->TotalRestarts(), 1);
  EXPECT_GE(SumCounters(job, ".giveups"), 1);

  auto rows = executor_->ReadOutputRows(submitted.value().output_topic);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(DedupNonSentinel(rows.value()), expected);
}

// Tentpole scenario 3: transient fetch failures hit while the restarted
// container is restoring (changelog replay + checkpoint read). The recovery
// path itself retries and completes; a second kill later exercises
// kill-restart-kill.
TEST_F(RecoveryTest, RecoveryPathRetriesTransientFailuresDuringRestore) {
  MakeEnv();
  ProduceOrders(1200);
  ProduceWatermarkSentinels(3'600'000);
  std::set<std::string> expected = OracleWindows();

  WrapFaults(FaultPolicy{});  // forced failures only
  executor_ = std::make_unique<QueryExecutor>(env_, SupervisedDefaults());
  auto submitted = executor_->Execute(kTumblingStream);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobRunner* job = executor_->job(submitted.value().job_index);

  ASSERT_TRUE(job->container(0)->RunUntilCaughtUp(300).ok());
  ASSERT_TRUE(job->KillContainer(0).ok());
  // The next data fetches — the restarted container's restore reads — fail
  // twice; retry.max.attempts=3 absorbs them.
  fault_->FailNextFetches(2);
  auto ran = executor_->RunJobsUntilQuiescent();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_GE(job->TotalRestarts(), 1);

  // Kill again after full quiescence, append more input, recover again.
  ASSERT_TRUE(job->KillContainer(1).ok());
  ran = executor_->RunJobsUntilQuiescent();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_GE(job->TotalRestarts(), 2);

  auto rows = executor_->ReadOutputRows(submitted.value().output_topic);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(DedupNonSentinel(rows.value()), expected);
}

// A permanently blacked-out input partition makes the owning container
// crash-loop; the restart budget bounds the loop and the job surfaces a
// clean error instead of hanging.
TEST_F(RecoveryTest, RestartBudgetExhaustionSurfacesCleanError) {
  MakeEnv();
  ProduceOrders(400);
  WrapFaults(FaultPolicy{});

  Config defaults = SupervisedDefaults();
  defaults.SetInt(cfg::kContainerRestartMax, 2);
  executor_ = std::make_unique<QueryExecutor>(env_, defaults);
  auto submitted = executor_->Execute(kTumblingStream);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobRunner* job = executor_->job(submitted.value().job_index);

  fault_->BlackoutPartition({"Orders", 0});
  auto ran = executor_->RunJobsUntilQuiescent();
  ASSERT_FALSE(ran.ok());
  EXPECT_NE(ran.status().message().find("restart budget exhausted"),
            std::string::npos)
      << ran.status().ToString();
  EXPECT_EQ(job->TotalRestarts(), 2);
  auto views = executor_->CollectJobViews();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].restarts, 2);
}

// The same budget exhaustion under the threaded executor must surface the
// first real crash error, not a generic wrapper: the terminal status names
// both the exhausted budget and the blackout that caused the crash loop.
// (Before the fix, the threaded path reported only
// "a container failed during threaded run".)
TEST_F(RecoveryTest, ThreadedBudgetExhaustionCarriesFirstCrashError) {
  MakeEnv();
  ProduceOrders(400);
  WrapFaults(FaultPolicy{});

  Config defaults = SupervisedDefaults();
  defaults.SetInt(cfg::kContainerRestartMax, 2);
  executor_ = std::make_unique<QueryExecutor>(env_, defaults);
  auto submitted = executor_->Execute(kTumblingStream);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobRunner* job = executor_->job(submitted.value().job_index);

  fault_->BlackoutPartition({"Orders", 0});
  auto ran = executor_->RunJobsUntilQuiescent();
  ASSERT_FALSE(ran.ok());
  const std::string msg = ran.status().message();
  EXPECT_NE(msg.find("restart budget exhausted"), std::string::npos) << msg;
  EXPECT_NE(msg.find("partition blackout"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("a container failed during threaded run"),
            std::string::npos)
      << msg;
  EXPECT_EQ(job->TotalRestarts(), 2);
}

// ---------------------------------------------------------------------------
// task.error.policy: poison messages
// ---------------------------------------------------------------------------

class PoisonTest : public RecoveryTest {
 protected:
  // 400 valid orders plus one undeserializable record on partition 2.
  void SeedPoison() {
    MakeEnv();
    ProduceOrders(400);
    Producer raw(env_->broker);
    poison_offset_ = env_->broker->EndOffset({"Orders", 2}).value();
    ASSERT_TRUE(raw.SendTo({"Orders", 2}, Bytes{}, Bytes{0xff}).ok());
  }

  Config PolicyDefaults(const std::string& policy) {
    Config defaults;
    defaults.SetInt(cfg::kContainerCount, 2);
    defaults.SetInt(cfg::kCommitEveryMessages, 50);
    defaults.Set(cfg::kTaskErrorPolicy, policy);
    return defaults;
  }

  static constexpr const char* kProjection =
      "SELECT STREAM rowtime, productId, units FROM Orders";

  int64_t poison_offset_ = 0;
};

TEST_F(PoisonTest, FailPolicySurfacesTheDeserializationError) {
  SeedPoison();
  executor_ = std::make_unique<QueryExecutor>(env_, PolicyDefaults("fail"));
  auto submitted = executor_->Execute(kProjection);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto ran = executor_->RunJobsUntilQuiescent();
  ASSERT_FALSE(ran.ok());
  EXPECT_NE(ran.status().code(), ErrorCode::kUnavailable);
}

// Poison is deterministic: with policy=fail the supervisor replays straight
// back into the same message, so the restart budget must terminate the loop.
TEST_F(PoisonTest, FailPolicyUnderSupervisorExhaustsBudgetNotForever) {
  SeedPoison();
  Config defaults = PolicyDefaults("fail");
  defaults.SetInt(cfg::kContainerRestartMax, 2);
  defaults.SetInt(cfg::kContainerRestartBackoffMs, 1);
  executor_ = std::make_unique<QueryExecutor>(env_, defaults);
  auto submitted = executor_->Execute(kProjection);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto ran = executor_->RunJobsUntilQuiescent();
  ASSERT_FALSE(ran.ok());
  EXPECT_NE(ran.status().message().find("restart budget exhausted"),
            std::string::npos)
      << ran.status().ToString();
  EXPECT_EQ(executor_->job(submitted.value().job_index)->TotalRestarts(), 2);
}

TEST_F(PoisonTest, SkipPolicyDropsPoisonAndProcessesEverythingElse) {
  SeedPoison();
  executor_ = std::make_unique<QueryExecutor>(env_, PolicyDefaults("skip"));
  auto submitted = executor_->Execute(kProjection);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto ran = executor_->RunJobsUntilQuiescent();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  auto rows = executor_->ReadOutputRows(submitted.value().output_topic);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().size(), 400u);  // every valid row, poison dropped
  EXPECT_EQ(SumCounters(executor_->job(submitted.value().job_index), ".dropped"), 1);
}

TEST_F(PoisonTest, DeadLetterPolicyRoutesPoisonWithProvenance) {
  SeedPoison();
  Config defaults = PolicyDefaults("dead-letter");
  defaults.Set(cfg::kTaskDlqTopic, "orders.dlq");
  executor_ = std::make_unique<QueryExecutor>(env_, defaults);
  auto submitted = executor_->Execute(kProjection);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto ran = executor_->RunJobsUntilQuiescent();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  auto rows = executor_->ReadOutputRows(submitted.value().output_topic);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().size(), 400u);
  EXPECT_EQ(SumCounters(executor_->job(submitted.value().job_index), ".dropped"), 1);

  // The DLQ carries the original bytes plus provenance and the error text,
  // on the same partition as the origin.
  ASSERT_TRUE(env_->broker->HasTopic("orders.dlq"));
  auto batch = env_->broker->Fetch({"orders.dlq", 2}, 0, 16);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 1u);
  auto record = DecodeDeadLetter(batch.value()[0].message.value);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record.value().origin, (StreamPartition{"Orders", 2}));
  EXPECT_EQ(record.value().offset, poison_offset_);
  EXPECT_EQ(record.value().value, Bytes{0xff});
  EXPECT_FALSE(record.value().error.empty());
  EXPECT_FALSE(record.value().task_name.empty());
}

TEST_F(PoisonTest, UnknownPolicyIsRejectedAtStart) {
  auto parsed = ParseTaskErrorPolicy("quarantine");
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(ParseTaskErrorPolicy("").value(), TaskErrorPolicy::kFail);
  EXPECT_EQ(ParseTaskErrorPolicy("skip").value(), TaskErrorPolicy::kSkip);
  EXPECT_EQ(ParseTaskErrorPolicy("dead-letter").value(), TaskErrorPolicy::kDeadLetter);
  EXPECT_FALSE(ParseDeliveryMode("exactly-twice").ok());
  EXPECT_EQ(ParseDeliveryMode("").value(), DeliveryMode::kAtLeastOnce);
  EXPECT_EQ(ParseDeliveryMode("at-least-once").value(), DeliveryMode::kAtLeastOnce);
  EXPECT_EQ(ParseDeliveryMode("exactly-once").value(), DeliveryMode::kExactlyOnce);
}

// A dead-lettered record keeps the trace context of the message that carried
// it, so `SHOW DLQ` / replay tooling can correlate it with the ingest trace.
TEST_F(PoisonTest, DeadLetterPreservesTraceContext) {
  Tracer::Instance().Configure(1.0, 4096);  // the poison send starts a trace
  SeedPoison();
  Tracer::Instance().Configure(0.0, 4096);

  // The original message on the log carries a valid trace context.
  auto original = env_->broker->Fetch({"Orders", 2}, poison_offset_, 1);
  ASSERT_TRUE(original.ok());
  ASSERT_EQ(original.value().size(), 1u);
  TraceContext sent = original.value()[0].message.trace;
  ASSERT_TRUE(sent.valid());

  Config defaults = PolicyDefaults("dead-letter");
  defaults.Set(cfg::kTaskDlqTopic, "traced.dlq");
  executor_ = std::make_unique<QueryExecutor>(env_, defaults);
  auto submitted = executor_->Execute(kProjection);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto ran = executor_->RunJobsUntilQuiescent();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();

  auto batch = env_->broker->Fetch({"traced.dlq", 2}, 0, 16);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 1u);
  auto record = DecodeDeadLetter(batch.value()[0].message.value);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record.value().trace.trace_id, sent.trace_id);
  EXPECT_TRUE(record.value().trace.sampled);
}

// ---------------------------------------------------------------------------
// Exactly-once delivery: kill/restart + zombie fencing over the threaded
// driver; output must equal the batch oracle EXACTLY (no dedup applied).
// ---------------------------------------------------------------------------

class ExactlyOnceSqlTest : public RecoveryTest {
 protected:
  static std::multiset<std::string> MultisetNonSentinel(const std::vector<Row>& rows) {
    std::multiset<std::string> out;
    for (const Row& r : rows) {
      if (r[0] == Value(int32_t{9999})) continue;
      out.insert(RowToString(r));
    }
    return out;
  }
};

TEST_F(ExactlyOnceSqlTest, ThreadedKillRestartMatchesOracleExactlyAndFencesZombie) {
  MakeEnv();
  ProduceOrders(1600);
  ProduceWatermarkSentinels(3'600'000);
  std::set<std::string> expected = OracleWindows();

  Config defaults = SupervisedDefaults();
  defaults.Set(cfg::kTaskDelivery, "exactly-once");
  defaults.Set(cfg::kCheckpointTopic, "__cp_eo_sql");
  executor_ = std::make_unique<QueryExecutor>(env_, defaults);
  auto submitted = executor_->Execute(kTumblingStream);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobRunner* job = executor_->job(submitted.value().job_index);
  ASSERT_NE(job, nullptr);

  // Kill container 0 mid-batch: uncommitted state and positions die with it,
  // with some of its output already flushed to the broker.
  ASSERT_TRUE(job->container(0)->RunUntilCaughtUp(400).ok());
  ASSERT_TRUE(job->KillContainer(0).ok());

  // A zombie incarnation steals the producer name of a task that is still
  // live (container 1 owns partition 1). The live task's next stamped append
  // is fenced — it crashes without checkpointing, the supervisor restarts
  // it, and the restart's registration fences the zombie right back.
  Producer zombie(env_->broker);
  ASSERT_TRUE(
      zombie.EnableIdempotence(job->job_name() + ".Partition 1").ok());

  auto ran = job->RunThreadedUntilQuiescent();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_GE(job->TotalRestarts(), 1);

  // The zombie's append is rejected with the non-retryable fencing error and
  // leaves no trace in the log.
  const std::string& out_topic = submitted.value().output_topic;
  int64_t end_before = env_->broker->EndOffset({out_topic, 0}).value();
  auto stale = zombie.SendTo({out_topic, 0}, Bytes{}, ToBytes("zombie"));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), ErrorCode::kFenced);
  EXPECT_EQ(env_->broker->EndOffset({out_topic, 0}).value(), end_before);
  EXPECT_GE(env_->broker->fenced_appends(), 2);  // live task + zombie
  EXPECT_GE(SumCounters(job, ".producer_fenced"), 1);

  // EXACT equality, not dedup-equality: every oracle window appears exactly
  // once. Replayed emissions deduplicated at the broker.
  auto rows = executor_->ReadOutputRows(out_topic);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::multiset<std::string> got = MultisetNonSentinel(rows.value());
  EXPECT_EQ(got.size(), expected.size());
  EXPECT_EQ(std::set<std::string>(got.begin(), got.end()), expected);
  EXPECT_GT(expected.size(), 10u);
}

// The zombie-fencing scenario above, run *continuously*: kills and a zombie
// registration land while pool workers are actively driving containers and
// a load thread keeps appending orders mid-run. The raw output must still
// be byte-equal to the batch oracle (computed after all input is on the
// log). Seeds vary the kill schedule and the generator stream.
class eo_threaded_chaos : public ExactlyOnceSqlTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(eo_threaded_chaos, ContinuousKillsUnderLoadStayByteEqualToOracle) {
  const int seed = GetParam();
  MakeEnv();

  // First tranche lands before the job starts; the load thread appends the
  // rest while the threaded run is in flight.
  workload::OrdersGeneratorOptions options;
  options.num_products = 20;
  options.seed = 42 + static_cast<uint64_t>(seed);
  workload::OrdersGenerator gen(*env_, options);
  ASSERT_TRUE(gen.Produce(800).ok());

  Config defaults = SupervisedDefaults();
  defaults.SetInt(cfg::kContainerRestartMax, 32);
  defaults.Set(cfg::kTaskDelivery, "exactly-once");
  defaults.Set(cfg::kCheckpointTopic, "__cp_eo_chaos");
  executor_ = std::make_unique<QueryExecutor>(env_, defaults);
  auto submitted = executor_->Execute(kTumblingStream);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobRunner* job = executor_->job(submitted.value().job_index);
  ASSERT_NE(job, nullptr);

  std::atomic<bool> load_done{false};
  std::thread load([&] {
    for (int i = 0; i < 8; ++i) {
      auto produced = gen.Produce(100);
      EXPECT_TRUE(produced.ok()) << produced.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    load_done.store(true);
  });

  // Chaos: seed-scheduled kills of random containers plus one mid-run
  // zombie registration stealing a live task's producer name. Kills may
  // land mid-batch, between rounds, or on an already-dead slot — all fine.
  std::atomic<bool> chaos_done{false};
  std::thread chaos([&] {
    std::mt19937_64 rng(0xc4a05ull + static_cast<uint64_t>(seed));
    for (int i = 0; i < 4; ++i) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(1 + static_cast<int>(rng() % 4)));
      (void)job->KillContainer(static_cast<int32_t>(rng() % 2));
      if (i == 1) {
        Producer zombie(env_->broker);
        EXPECT_TRUE(
            zombie.EnableIdempotence(job->job_name() + ".Partition 1").ok());
      }
    }
    chaos_done.store(true);
  });

  // Drive to quiescence repeatedly until both threads finish — a run can go
  // quiescent while more input or kills are still on the way. Collect any
  // error and join before asserting so the threads never outlive the test.
  Status run_error;
  while (!load_done.load() || !chaos_done.load()) {
    auto ran = executor_->RunJobsUntilQuiescent();
    if (!ran.ok()) {
      run_error = ran.status();
      break;
    }
  }
  load.join();
  chaos.join();
  ASSERT_TRUE(run_error.ok()) << run_error.ToString();

  // All input is on the log now: close every window, compute the oracle
  // over the complete history, and drain the streaming job.
  last_rowtime_ = gen.last_rowtime();
  ProduceWatermarkSentinels(3'600'000);
  std::set<std::string> expected = OracleWindows();
  auto ran = executor_->RunJobsUntilQuiescent();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_GE(job->TotalRestarts(), 1);

  auto rows = executor_->ReadOutputRows(submitted.value().output_topic);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::multiset<std::string> got = MultisetNonSentinel(rows.value());
  EXPECT_EQ(got.size(), expected.size());
  EXPECT_EQ(std::set<std::string>(got.begin(), got.end()), expected);
  EXPECT_GT(expected.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, eo_threaded_chaos, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Seeded soak: random fault storm + adversarial kill, 8 seeds.
// Run selectively with `ctest -R recovery_soak`.
// ---------------------------------------------------------------------------

class recovery_soak : public ::testing::TestWithParam<int> {};

TEST_P(recovery_soak, WindowedQuerySurvivesSeededFaultStorm) {
  const int seed = GetParam();
  auto env = SamzaSqlEnvironment::Make();
  ASSERT_TRUE(workload::SetupPaperSources(*env, kPartitions).ok());

  workload::OrdersGeneratorOptions options;
  options.num_products = 20;
  workload::OrdersGenerator gen(*env, options);
  ASSERT_TRUE(gen.Produce(600).ok());
  {
    auto schema = env->catalog->GetSource("Orders").value().schema;
    AvroRowSerde serde(schema);
    Producer producer(env->broker, env->clock);
    for (int32_t p = 0; p < kPartitions; ++p) {
      Row row{Value(gen.last_rowtime() + 3'600'000), Value(int32_t{9999}),
              Value(int64_t{-1}), Value(int32_t{0}), Value("sentinel")};
      ASSERT_TRUE(
          producer.SendTo({"Orders", p}, Bytes{}, serde.SerializeToBytes(row)).ok());
    }
  }

  // Oracle before faults are armed (the batch evaluator is not retried).
  std::set<std::string> expected;
  {
    QueryExecutor oracle(env);
    auto result = oracle.Execute(kTumblingBatch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const Row& r : result.value().rows) {
      if (r[0] == Value(int32_t{9999})) continue;
      expected.insert(RowToString(r));
    }
  }

  FaultPolicy policy;
  policy.seed = 0x5eedull + static_cast<uint64_t>(seed);
  policy.append_fail_rate = 0.03;
  policy.fetch_fail_rate = 0.03;
  policy.latency_nanos = 1000;
  policy.latency_rate = 0.02;
  policy.topics = {"Orders", "__cp_soak"};
  auto fault = std::make_shared<FaultInjectingBroker>(env->broker, policy);
  env->broker = fault;

  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 2);
  defaults.SetInt(cfg::kCommitEveryMessages, 50);
  defaults.Set(cfg::kCheckpointTopic, "__cp_soak");
  defaults.SetInt(cfg::kRetryMaxAttempts, 6);
  defaults.SetInt(cfg::kRetryBackoffMs, 1);
  defaults.SetInt(cfg::kRetryBackoffMaxMs, 4);
  defaults.SetInt(cfg::kContainerRestartMax, 8);
  defaults.SetInt(cfg::kContainerRestartBackoffMs, 1);
  defaults.SetInt(cfg::kContainerRestartBackoffMaxMs, 4);
  QueryExecutor executor(env, defaults);

  auto submitted = executor.Execute(kTumblingStream);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobRunner* job = executor.job(submitted.value().job_index);

  // Seed-dependent adversarial kill point (a crash here is fine too — the
  // container is then already dead and the supervisor handles it).
  (void)job->container(0)->RunUntilCaughtUp(60 + 40 * seed);
  (void)job->KillContainer(0);

  auto ran = executor.RunJobsUntilQuiescent();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_GE(job->TotalRestarts(), 1);

  auto rows = executor.ReadOutputRows(submitted.value().output_topic);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::set<std::string> got;
  for (const Row& r : rows.value()) {
    if (r[0] == Value(int32_t{9999})) continue;
    got.insert(RowToString(r));
  }
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, recovery_soak, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Exactly-once soak: the same seeded fault storm PLUS payload corruption on
// the input topic, under task.delivery=exactly-once. The bar is higher than
// the at-least-once soak's set-equality: the raw output must be byte-equal
// to the batch oracle — zero duplicates and zero corrupt records downstream
// (each corruption detection crashes the container; the replay refetches the
// clean log copy). Run with `ctest -R recovery_soak`.
// ---------------------------------------------------------------------------

class recovery_soak_exactly_once : public ::testing::TestWithParam<int> {};

TEST_P(recovery_soak_exactly_once, WindowedQueryIsByteEqualToOracleUnderCorruption) {
  const int seed = GetParam();
  auto env = SamzaSqlEnvironment::Make();
  ASSERT_TRUE(workload::SetupPaperSources(*env, kPartitions).ok());

  workload::OrdersGeneratorOptions options;
  options.num_products = 20;
  workload::OrdersGenerator gen(*env, options);
  ASSERT_TRUE(gen.Produce(600).ok());
  {
    auto schema = env->catalog->GetSource("Orders").value().schema;
    AvroRowSerde serde(schema);
    Producer producer(env->broker, env->clock);
    for (int32_t p = 0; p < kPartitions; ++p) {
      Row row{Value(gen.last_rowtime() + 3'600'000), Value(int32_t{9999}),
              Value(int64_t{-1}), Value(int32_t{0}), Value("sentinel")};
      ASSERT_TRUE(
          producer.SendTo({"Orders", p}, Bytes{}, serde.SerializeToBytes(row)).ok());
    }
  }

  std::set<std::string> expected;
  {
    QueryExecutor oracle(env);
    auto result = oracle.Execute(kTumblingBatch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const Row& r : result.value().rows) {
      if (r[0] == Value(int32_t{9999})) continue;
      expected.insert(RowToString(r));
    }
  }

  FaultPolicy policy;
  policy.seed = 0xec0ull + static_cast<uint64_t>(seed);
  policy.append_fail_rate = 0.03;
  policy.fetch_fail_rate = 0.03;
  policy.latency_nanos = 1000;
  policy.latency_rate = 0.02;
  policy.topics = {"Orders", "__cp_soak_eo"};
  // Bit-flip corruption on input fetches only; every detection costs one
  // container restart under the default fail policy, so the budget is wider
  // than the at-least-once soak's.
  policy.corrupt_rate = 0.001;
  policy.corrupt_topics = {"Orders"};
  auto fault = std::make_shared<FaultInjectingBroker>(env->broker, policy);
  env->broker = fault;

  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 2);
  defaults.SetInt(cfg::kCommitEveryMessages, 50);
  defaults.Set(cfg::kTaskDelivery, "exactly-once");
  defaults.Set(cfg::kCheckpointTopic, "__cp_soak_eo");
  defaults.SetInt(cfg::kRetryMaxAttempts, 6);
  defaults.SetInt(cfg::kRetryBackoffMs, 1);
  defaults.SetInt(cfg::kRetryBackoffMaxMs, 4);
  defaults.SetInt(cfg::kContainerRestartMax, 24);
  defaults.SetInt(cfg::kContainerRestartBackoffMs, 1);
  defaults.SetInt(cfg::kContainerRestartBackoffMaxMs, 4);
  QueryExecutor executor(env, defaults);

  auto submitted = executor.Execute(kTumblingStream);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  JobRunner* job = executor.job(submitted.value().job_index);

  (void)job->container(0)->RunUntilCaughtUp(60 + 40 * seed);
  (void)job->KillContainer(0);

  auto ran = executor.RunJobsUntilQuiescent();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_GE(job->TotalRestarts(), 1);

  auto rows = executor.ReadOutputRows(submitted.value().output_topic);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::multiset<std::string> got;
  for (const Row& r : rows.value()) {
    if (r[0] == Value(int32_t{9999})) continue;
    got.insert(RowToString(r));
  }
  // Byte-equality with the oracle: each window exactly once, nothing extra.
  std::multiset<std::string> expected_ms(expected.begin(), expected.end());
  EXPECT_EQ(got, expected_ms);
}

INSTANTIATE_TEST_SUITE_P(Seeds, recovery_soak_exactly_once, ::testing::Range(0, 8));

}  // namespace
}  // namespace sqs::core
