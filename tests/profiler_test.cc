// Profiling + flight-recorder + stall-watchdog tests: cooperative frame
// stacks and sampling, per-operator CPU attribution over a real fused
// filter run, the flight recorder's seqlock rings under concurrent
// writers, crash-dump forensics (flush hooks + dump file), the
// supervisor's dump-on-container-death path, and a wedged container
// detected by the monitor's watchdog (stall event, /readyz reason,
// dump-order oracle). See docs/PROFILING.md.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/flightrec.h"
#include "common/profiler.h"
#include "core/executor.h"
#include "http/monitor.h"
#include "log/broker.h"
#include "log/producer.h"
#include "task/api.h"
#include "task/runner.h"
#include "workload/generators.h"

namespace sqs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// Profiler: frames, interning, sampling, attribution.

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override { Profiler::Instance().Reset(); }
  void TearDown() override { Profiler::Instance().Reset(); }
};

TEST_F(ProfilerTest, InternReturnsStableIdentity) {
  const char* a = Profiler::Intern("process");
  const char* b = Profiler::Intern(std::string("pro") + "cess");
  EXPECT_EQ(a, b);  // identity, not just equality
  EXPECT_STREQ(a, "process");
}

TEST_F(ProfilerTest, PushPopTracksDepth) {
  size_t base = Profiler::CurrentDepth();
  Profiler::PushFrame(Profiler::Intern("outer"));
  EXPECT_EQ(Profiler::CurrentDepth(), base + 1);
  {
    ProfiledFrame inner("inner");
    EXPECT_EQ(Profiler::CurrentDepth(), base + 2);
  }
  EXPECT_EQ(Profiler::CurrentDepth(), base + 1);
  Profiler::PopFrame();
  EXPECT_EQ(Profiler::CurrentDepth(), base);
}

TEST_F(ProfilerTest, SampleOnceCapturesCurrentStack) {
  ProfiledFrame process("process");
  ProfiledFrame op("op1-filter");
  EXPECT_GE(Profiler::Instance().SampleOnce(), 1u);
  EXPECT_GE(Profiler::Instance().TotalSamples(), 1);
  std::string folded = Profiler::Instance().CollapsedStacks();
  EXPECT_NE(folded.find("process;op1-filter 1"), std::string::npos) << folded;
}

TEST_F(ProfilerTest, OperatorAttributionPicksDeepestOperatorFrame) {
  {
    // Operator frame below a non-operator leaf: the operator wins.
    ProfiledFrame process("process");
    ProfiledFrame fused("fused<op0..op2>");
    ProfiledFrame decode("decode");
    Profiler::Instance().SampleOnce();
    Profiler::Instance().SampleOnce();
  }
  {
    // No operator frame anywhere: the leaf is the bucket.
    ProfiledFrame produce("produce");
    Profiler::Instance().SampleOnce();
  }
  std::map<std::string, int64_t> attr = Profiler::Instance().OperatorAttribution();
  EXPECT_EQ(attr["fused<op0..op2>"], 2);
  EXPECT_EQ(attr["produce"], 1);
  EXPECT_EQ(Profiler::Instance().TotalSamples(), 3);
  Profiler::Instance().ClearSamples();
  EXPECT_EQ(Profiler::Instance().TotalSamples(), 0);
}

TEST_F(ProfilerTest, IsOperatorLabelMatchesPlanLabels) {
  EXPECT_TRUE(Profiler::IsOperatorLabel("op0-scan"));
  EXPECT_TRUE(Profiler::IsOperatorLabel("op12-window"));
  EXPECT_TRUE(Profiler::IsOperatorLabel("fused<op1..op3>"));
  EXPECT_FALSE(Profiler::IsOperatorLabel("process"));
  EXPECT_FALSE(Profiler::IsOperatorLabel("decode"));
  EXPECT_FALSE(Profiler::IsOperatorLabel("operator"));  // no digit after "op"
}

TEST_F(ProfilerTest, StartStopSamplingLifecycle) {
  Profiler& prof = Profiler::Instance();
  EXPECT_FALSE(prof.sampling());
  EXPECT_FALSE(prof.StartSampling(0).ok());
  {
    // Give the sampler something to see on this thread: the whole stack is
    // pushed before sampling starts, so the first sample already holds it.
    ProfiledFrame frame("process");
    ProfiledFrame op("op0-scan");
    ASSERT_TRUE(prof.StartSampling(500).ok());
    EXPECT_TRUE(prof.sampling());
    EXPECT_DOUBLE_EQ(prof.hz(), 500.0);
    for (int i = 0; i < 200 && prof.TotalSamples() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  prof.StopSampling();
  EXPECT_FALSE(prof.sampling());
  EXPECT_GT(prof.TotalSamples(), 0);
  EXPECT_NE(prof.CollapsedStacks().find("process;op0-scan"), std::string::npos);
}

TEST_F(ProfilerTest, SampleForBurstCollectsSamples) {
  ProfiledFrame frame("process");
  ASSERT_TRUE(Profiler::Instance().SampleFor(30, 1000).ok());
  EXPECT_GT(Profiler::Instance().TotalSamples(), 0);
  EXPECT_FALSE(Profiler::Instance().SampleFor(0, 97).ok());
  EXPECT_FALSE(Profiler::Instance().SampleFor(10, 0).ok());
}

// The acceptance oracle from the issue: over a real fused filter run,
// CPU attribution must put >= 90% of samples on the fused stage label.
TEST_F(ProfilerTest, FusedFilterRunAttributesToFusedStage) {
  auto env = core::SamzaSqlEnvironment::Make();
  ASSERT_TRUE(workload::SetupPaperSources(*env, 2).ok());
  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 1);
  core::QueryExecutor executor(env, defaults);
  workload::OrdersGenerator gen(*env, {});
  ASSERT_TRUE(gen.Produce(2000).ok());
  auto submitted = executor.Execute(
      "SELECT STREAM orderId, units * 2 AS doubled FROM Orders WHERE units > 50");
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();

  // The worker drives the fused job; the main thread samples only while
  // the job is actually running (the produce phase would otherwise add
  // "produce"-rooted stacks that belong to the generator, not the query).
  std::atomic<bool> running{false};
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    while (!stop.load()) {
      running.store(true);
      auto ran = executor.RunJobsUntilQuiescent();
      running.store(false);
      if (!ran.ok()) break;
      if (stop.load()) break;
      auto produced = gen.Produce(2000);
      if (!produced.ok()) break;
    }
  });
  // Samples are paced at the 997 Hz EXPLAIN ANALYZE rate from
  // docs/PROFILING.md, like every sampler the profiler offers. The pacing
  // spreads the 200 samples across repeated runs; unpaced, they all fell
  // within the first ~0.2 ms and caught only the first batch's one-time
  // set-up under the bare "process" frame.
  const auto period = std::chrono::nanoseconds(1'000'000'000 / 997);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (Profiler::Instance().TotalSamples() < 200 &&
         std::chrono::steady_clock::now() < deadline) {
    if (running.load()) {
      Profiler::Instance().SampleOnce();
      std::this_thread::sleep_for(period);
    } else {
      std::this_thread::yield();
    }
  }
  stop.store(true);
  worker.join();

  int64_t total = Profiler::Instance().TotalSamples();
  ASSERT_GT(total, 0) << "sampler never caught the fused run on CPU";
  std::map<std::string, int64_t> attr = Profiler::Instance().OperatorAttribution();
  int64_t fused = 0;
  for (const auto& [label, count] : attr) {
    if (label.rfind("fused<", 0) == 0) fused += count;
  }
  EXPECT_GE(static_cast<double>(fused), 0.9 * static_cast<double>(total))
      << Profiler::Instance().CollapsedStacks();
}

// ---------------------------------------------------------------------------
// Flight recorder: rings, overflow accounting, dumps, concurrency.

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::Instance().SetEnabled(true);
    FlightRecorder::Instance().Clear();
  }
  void TearDown() override {
    FlightRecorder::Instance().SetEnabled(true);
    FlightRecorder::Instance().Clear();
  }
};

TEST_F(FlightRecorderTest, RecordSnapshotRoundTrip) {
  FlightRecorder::Record(FlightEventType::kCommit, "frt-job.task0", "offsets",
                         7, 42);
  FlightRecorder::Record(FlightEventType::kBatchRun, "frt-job.task1", "", 128, 1);
  std::vector<FlightEvent> events = FlightRecorder::Instance().Snapshot("frt-job.");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LT(events[0].seq, events[1].seq);  // seq-sorted, oldest first
  EXPECT_EQ(events[0].type, FlightEventType::kCommit);
  EXPECT_STREQ(events[0].scope, "frt-job.task0");
  EXPECT_STREQ(events[0].detail, "offsets");
  EXPECT_EQ(events[0].a, 7);
  EXPECT_EQ(events[0].b, 42);
  EXPECT_EQ(events[1].type, FlightEventType::kBatchRun);
  // Prefix filter excludes non-matching scopes.
  EXPECT_TRUE(FlightRecorder::Instance().Snapshot("other-job").empty());
}

TEST_F(FlightRecorderTest, OversizedPayloadsAreTruncatedNotTorn) {
  std::string long_scope(100, 's');
  std::string long_detail(300, 'd');
  FlightRecorder::Record(FlightEventType::kPlanBuilt, long_scope, long_detail);
  std::vector<FlightEvent> events = FlightRecorder::Instance().Snapshot("sss");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].scope), std::string(47, 's'));
  EXPECT_EQ(std::string(events[0].detail), std::string(95, 'd'));
}

TEST_F(FlightRecorderTest, RingOverflowCountsDropped) {
  FlightRecorder& rec = FlightRecorder::Instance();
  int64_t dropped_before = rec.dropped();
  // Capacity applies to rings created after the call, so write from a fresh
  // thread — its ring is born at the new size regardless of test order.
  constexpr size_t kCap = 64;
  constexpr size_t kWrites = kCap + 50;
  rec.SetRingCapacity(kCap);
  std::thread writer([] {
    for (size_t i = 0; i < kWrites; ++i) {
      FlightRecorder::Record(FlightEventType::kCommit, "overflow-test",
                             std::to_string(i), static_cast<int64_t>(i));
    }
  });
  writer.join();
  rec.SetRingCapacity(FlightRecorder::kDefaultRingEvents);
  std::vector<FlightEvent> events = rec.Snapshot("overflow-test");
  ASSERT_EQ(events.size(), kCap);  // ring keeps the newest `kCap`
  // The survivors are the tail of the writes, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, static_cast<int64_t>(kWrites - kCap + i));
  }
  EXPECT_GE(rec.dropped() - dropped_before, static_cast<int64_t>(kWrites - kCap));
}

TEST_F(FlightRecorderTest, DisabledRecorderDropsNothingAndRecordsNothing) {
  FlightRecorder& rec = FlightRecorder::Instance();
  int64_t recorded_before = rec.recorded();
  rec.SetEnabled(false);
  EXPECT_FALSE(rec.enabled());
  FlightRecorder::Record(FlightEventType::kCommit, "disabled-test");
  EXPECT_EQ(rec.recorded(), recorded_before);
  EXPECT_TRUE(rec.Snapshot("disabled-test").empty());
  rec.SetEnabled(true);
  FlightRecorder::Record(FlightEventType::kCommit, "disabled-test");
  EXPECT_EQ(rec.Snapshot("disabled-test").size(), 1u);
}

TEST_F(FlightRecorderTest, DumpJsonLinesIsWellFormedPerLine) {
  FlightRecorder::Record(FlightEventType::kStall, "dump-job.container0",
                         "heartbeat \"stale\" while busy", 5000, 100);
  std::string dump = FlightRecorder::Instance().DumpJsonLines("dump-job.");
  std::istringstream in(dump);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.find("{\"flightrec\":\"samzasql\",\"events\":1"), 0u) << line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"type\":\"stall\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"scope\":\"dump-job.container0\""), std::string::npos);
  // Embedded quotes are escaped so every line stays one JSON object.
  EXPECT_NE(line.find("heartbeat \\\"stale\\\" while busy"), std::string::npos);
  EXPECT_NE(line.find("\"a\":5000,\"b\":100"), std::string::npos);
}

// Multi-threaded writer integrity: concurrent writers on private rings plus
// a concurrent reader; no torn records (scope/detail/a/b must agree), types
// stay in range, per-thread payloads survive in write order.
TEST_F(FlightRecorderTest, ConcurrentWritersNeverTearRecords) {
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 10'000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      // Concurrent snapshots must never observe half-written slots.
      std::vector<FlightEvent> events =
          FlightRecorder::Instance().Snapshot("mt-test.");
      for (const FlightEvent& ev : events) {
        std::string scope(ev.scope);
        std::string detail(ev.detail);
        ASSERT_EQ(scope, "mt-test.t" + std::to_string(ev.a)) << scope;
        ASSERT_EQ(detail, "evt-" + std::to_string(ev.b)) << detail;
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      std::string scope = "mt-test.t" + std::to_string(t);
      for (int i = 0; i < kEventsPerThread; ++i) {
        FlightRecorder::Record(
            static_cast<FlightEventType>(i % 15), scope,
            "evt-" + std::to_string(i), t, i);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true);
  reader.join();

  std::vector<FlightEvent> events = FlightRecorder::Instance().Snapshot("mt-test.");
  ASSERT_FALSE(events.empty());
  std::map<int64_t, int64_t> last_b;  // per-writer: b must increase with seq
  uint64_t last_seq = 0;
  bool first = true;
  for (const FlightEvent& ev : events) {
    ASSERT_LE(static_cast<int>(ev.type),
              static_cast<int>(FlightEventType::kCrashDump));
    if (!first) {
      ASSERT_GT(ev.seq, last_seq);  // strict global order, no dups
    }
    first = false;
    last_seq = ev.seq;
    EXPECT_EQ(std::string(ev.scope), "mt-test.t" + std::to_string(ev.a));
    EXPECT_EQ(std::string(ev.detail), "evt-" + std::to_string(ev.b));
    auto it = last_b.find(ev.a);
    if (it != last_b.end()) {
      EXPECT_GT(ev.b, it->second);
    }
    last_b[ev.a] = ev.b;
  }
  EXPECT_EQ(last_b.size(), static_cast<size_t>(kThreads));
}

// ---------------------------------------------------------------------------
// Crash forensics: flush hooks + dump file.

TEST(CrashDumpTest, WriteCrashDumpRunsFlushHooksThenWritesFile) {
  FlightRecorder::Instance().SetEnabled(true);
  std::string path = ::testing::TempDir() + "/flightrec_crash_test.jsonl";
  std::remove(path.c_str());
  SetCrashDumpPath(path);
  static std::atomic<int> flushes{0};
  auto hook = [](void*) { flushes.fetch_add(1); };
  RegisterCrashFlush(hook, &flushes);

  FlightRecorder::Record(FlightEventType::kCommit, "crash-test.task0", "offsets");
  EXPECT_TRUE(WriteCrashDump("unit-test"));
  UnregisterCrashFlush(&flushes);
  SetCrashDumpPath("");

  EXPECT_GE(flushes.load(), 1);
  std::string dump = ReadFile(path);
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"flightrec\":\"samzasql\""), std::string::npos);
  // The dump records why it was taken, then the buffered events.
  EXPECT_NE(dump.find("\"type\":\"crash_dump\""), std::string::npos);
  EXPECT_NE(dump.find("unit-test"), std::string::npos);
  EXPECT_NE(dump.find("crash-test.task0"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CrashDumpTest, NoPathMeansNoDump) {
  SetCrashDumpPath("");
  EXPECT_FALSE(WriteCrashDump("no-path"));
}

// Supervisor-observed container death: a crashing task under supervision
// must leave a flight-recorder dump (container_crash + restart context)
// at flightrec.dump.path even though the process itself survives.
TEST(CrashDumpTest, SupervisorDumpsRecorderOnContainerDeath) {
  FlightRecorder::Instance().SetEnabled(true);
  FlightRecorder::Instance().Clear();
  std::string path = ::testing::TempDir() + "/flightrec_supervisor_test.jsonl";
  std::remove(path.c_str());

  class CrashOnceTask : public StreamTask {
   public:
    Status Process(const IncomingMessage&, MessageCollector&,
                   TaskCoordinator&) override {
      static std::atomic<bool> crashed{false};
      if (!crashed.exchange(true)) {
        return Status::Unavailable("injected wedge");
      }
      return Status::Ok();
    }
  };
  const TaskFactory factory = [] { return std::make_unique<CrashOnceTask>(); };

  auto broker = std::make_shared<Broker>();
  ASSERT_TRUE(broker->CreateTopic("crash-in", {.num_partitions = 1}).ok());
  Producer p(broker);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(p.Send("crash-in", ToBytes("k"), ToBytes("v")).ok());
  }
  Config c;
  c.Set(cfg::kJobName, "crash-job");
  c.Set(cfg::kTaskInputs, "crash-in");
  c.SetInt(cfg::kContainerCount, 1);
  c.SetInt(cfg::kContainerRestartMax, 3);
  c.SetInt(cfg::kContainerRestartBackoffMs, 1);
  c.Set(cfg::kFlightRecDumpPath, path);
  JobRunner runner(broker, c, factory);
  ASSERT_TRUE(runner.Start().ok());
  auto ran = runner.RunThreadedUntilQuiescent(1);
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_GE(runner.TotalRestarts(), 1);
  ASSERT_TRUE(runner.Stop().ok());

  std::string dump = ReadFile(path);
  ASSERT_FALSE(dump.empty()) << "supervisor wrote no dump to " << path;
  EXPECT_NE(dump.find("\"type\":\"container_crash\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("crash-job.container0"), std::string::npos);
  EXPECT_NE(dump.find("injected wedge"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Stall watchdog: a wedged container under the threaded driver.

// Task that blocks inside Process until the test releases it.
struct WedgeGate {
  std::mutex mu;
  std::condition_variable cv;
  bool block = false;
  bool entered = false;
};
WedgeGate& wedge_gate() {
  static auto* g = new WedgeGate;
  return *g;
}

class WedgeTask : public StreamTask {
 public:
  Status Process(const IncomingMessage&, MessageCollector&,
                 TaskCoordinator&) override {
    WedgeGate& gate = wedge_gate();
    std::unique_lock<std::mutex> lock(gate.mu);
    if (gate.block) {
      gate.entered = true;
      gate.cv.notify_all();
      gate.cv.wait(lock, [&] { return !gate.block; });
    }
    return Status::Ok();
  }
};

TEST(StallWatchdogTest, WedgedContainerFiresStallAndRecovers) {
  FlightRecorder::Instance().SetEnabled(true);
  FlightRecorder::Instance().Clear();
  Profiler::Instance().Reset();
  std::string dump_path = ::testing::TempDir() + "/flightrec_stall_test.jsonl";
  std::remove(dump_path.c_str());

  const TaskFactory factory = [] { return std::make_unique<WedgeTask>(); };
  auto clock = std::make_shared<ManualClock>(1'000'000);
  auto broker = std::make_shared<Broker>();
  ASSERT_TRUE(broker->CreateTopic("wedge-in", {.num_partitions = 1}).ok());
  Producer p(broker);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(p.Send("wedge-in", ToBytes("k"), ToBytes("v")).ok());
  }
  Config c;
  c.Set(cfg::kJobName, "wedge-job");
  c.Set(cfg::kTaskInputs, "wedge-in");
  c.SetInt(cfg::kContainerCount, 1);
  c.SetInt(cfg::kCommitEveryMessages, 2);
  JobRunner runner(broker, c, factory, clock);
  ASSERT_TRUE(runner.Start().ok());

  // Phase 1: a healthy drain lays down batch_run + checkpoint events so the
  // eventual dump shows normal progress before the stall.
  auto drained = runner.RunThreadedUntilQuiescent(1);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ASSERT_EQ(drained.value(), 6);

  // Monitor over this runner via the provider (no HTTP needed): stall after
  // 100ms of stale heartbeat, no profile burst so the check is instant.
  Config mc;
  mc.SetInt(cfg::kWatchdogStallMs, 100);
  mc.SetInt(cfg::kWatchdogProfileMs, 0);
  mc.Set(cfg::kFlightRecDumpPath, dump_path);
  MonitorServer monitor(
      mc,
      [&runner, &clock] {
        MonitorJobView view;
        view.name = runner.job_name();
        view.containers_total = runner.NumContainers();
        view.containers_running = runner.NumRunningContainers();
        for (const auto& cs :
             runner.CollectContainerStatus(clock->NowMillis())) {
          view.containers.push_back({cs.id, cs.running, cs.busy,
                                     cs.heartbeat_age_ms});
        }
        view.snapshot = runner.metrics_registry()->Snapshot();
        return std::vector<MonitorJobView>{view};
      },
      clock);

  // Healthy containers never read as stalled, however long they idle.
  clock->Advance(10'000);
  monitor.RunWatchdogCheck();
  EXPECT_TRUE(monitor.StalledContainers().empty());
  EXPECT_TRUE(monitor.CheckReadiness().ready);

  // Phase 2: wedge the task and drive the container on its own thread (the
  // threaded supervisor driver). Process blocks, the heartbeat goes stale.
  {
    std::lock_guard<std::mutex> lock(wedge_gate().mu);
    wedge_gate().block = true;
    wedge_gate().entered = false;
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(p.Send("wedge-in", ToBytes("k"), ToBytes("v")).ok());
  }
  std::thread driver([&runner] { (void)runner.RunThreadedUntilQuiescent(); });
  {
    std::unique_lock<std::mutex> lock(wedge_gate().mu);
    ASSERT_TRUE(wedge_gate().cv.wait_for(lock, std::chrono::seconds(10),
                                         [] { return wedge_gate().entered; }));
  }
  clock->Advance(5'000);  // heartbeat now 5000ms stale while busy

  monitor.RunWatchdogCheck();
  std::vector<std::string> stalled = monitor.StalledContainers();
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0], "wedge-job.container0");
  MonitorServer::Readiness readiness = monitor.CheckReadiness();
  EXPECT_FALSE(readiness.ready);
  EXPECT_NE(readiness.reason.find("wedge-job.container0 stalled"),
            std::string::npos)
      << readiness.reason;
  EXPECT_NE(readiness.reason.find("100ms"), std::string::npos);
  // The heartbeat-age gauge is exported for dashboards.
  MetricsSnapshot self = monitor.self_metrics().Snapshot();
  auto age = self.gauges.find("wedge-job.container0.heartbeat_age_ms");
  ASSERT_NE(age, self.gauges.end());
  EXPECT_GE(age->second, 5'000);
  EXPECT_EQ(self.counters.at("monitor.watchdog_stalls"), 1);

  // A second check while still wedged is not a new stall (one-shot).
  monitor.RunWatchdogCheck();
  EXPECT_EQ(monitor.self_metrics().Snapshot().counters.at(
                "monitor.watchdog_stalls"),
            1);

  // Dump-order oracle: the automatic dump must show healthy progress
  // (commit, batch_run) strictly before the stall event.
  std::string dump = ReadFile(dump_path);
  ASSERT_FALSE(dump.empty()) << "watchdog wrote no dump to " << dump_path;
  EXPECT_NE(dump.find("\"type\":\"stall\""), std::string::npos);
  EXPECT_NE(dump.find("\"type\":\"commit\""), std::string::npos);
  EXPECT_NE(dump.find("\"type\":\"batch_run\""), std::string::npos);
  std::vector<FlightEvent> events =
      FlightRecorder::Instance().Snapshot("wedge-job");
  uint64_t last_commit_seq = 0, last_batch_seq = 0, stall_seq = 0;
  for (const FlightEvent& ev : events) {
    if (ev.type == FlightEventType::kBatchRun) last_batch_seq = ev.seq;
    if (ev.type == FlightEventType::kCommit) last_commit_seq = ev.seq;
    if (ev.type == FlightEventType::kStall && stall_seq == 0) stall_seq = ev.seq;
  }
  ASSERT_GT(last_commit_seq, 0u) << "no commit event recorded";
  ASSERT_GT(last_batch_seq, 0u) << "no batch_run event recorded";
  ASSERT_GT(stall_seq, 0u) << "no stall event recorded";
  EXPECT_GT(stall_seq, last_commit_seq);
  EXPECT_GT(stall_seq, last_batch_seq);

  // Phase 3: release the wedge; the run completes and the next check clears
  // the stall and restores readiness.
  {
    std::lock_guard<std::mutex> lock(wedge_gate().mu);
    wedge_gate().block = false;
  }
  wedge_gate().cv.notify_all();
  driver.join();
  monitor.RunWatchdogCheck();
  EXPECT_TRUE(monitor.StalledContainers().empty());
  EXPECT_TRUE(monitor.CheckReadiness().ready);
  bool cleared = false;
  for (const FlightEvent& ev : FlightRecorder::Instance().Snapshot("wedge-job")) {
    if (ev.type == FlightEventType::kStallCleared) cleared = true;
  }
  EXPECT_TRUE(cleared);

  ASSERT_TRUE(runner.Stop().ok());
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace sqs
