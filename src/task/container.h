// Container: runs a set of task instances over their assigned partitions.
// Implements the Samza semantics the paper builds on (§2, §4):
//  - poll -> dispatch-by-partition -> process, one fetch response per turn,
//    with the next fetch in flight while the batch is processed;
//  - bootstrap streams fully drained before any other input is delivered;
//  - task-local stores backed by changelog topics, restored on start;
//  - offset checkpoints written every `task.commit.max.messages` processed
//    messages (and on clean stop), so a killed container replays from the
//    last checkpoint on restart;
//  - window timer callbacks every task.window.ms of (injectable) clock time.
//
// Killing a container is modeled by destroying it without Stop(): all
// in-memory state is lost, exactly like a node failure; a new Container
// constructed from the same model restores state and resumes.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/config.h"
#include "common/metrics.h"
#include "common/metrics_reporter.h"
#include "common/retry.h"
#include "common/status.h"
#include "kv/changelog.h"
#include "log/broker.h"
#include "log/consumer.h"
#include "log/producer.h"
#include "task/api.h"
#include "task/checkpoint.h"
#include "task/model.h"

namespace sqs {

// What ProcessBatch does with a message the task cannot process
// (task.error.policy): fail the container, skip the message, or route it to
// the dead-letter topic. See docs/FAULT_TOLERANCE.md.
enum class TaskErrorPolicy { kFail, kSkip, kDeadLetter };

Result<TaskErrorPolicy> ParseTaskErrorPolicy(const std::string& value);

// Delivery contract (task.delivery): at-least-once replays may duplicate
// output; exactly-once stamps every send with an idempotent (pid, epoch,
// seq) and commits {input offsets, changelog high-watermarks, producer
// sequences} as one transactional checkpoint record.
enum class DeliveryMode { kAtLeastOnce, kExactlyOnce };

Result<DeliveryMode> ParseDeliveryMode(const std::string& value);

// What to do with an input message whose CRC check fails
// (task.corrupt.policy): crash so the replay refetches clean bytes, or
// dead-letter it with provenance.
enum class TaskCorruptPolicy { kFail, kDeadLetter };

Result<TaskCorruptPolicy> ParseTaskCorruptPolicy(const std::string& value);

// A dead-lettered message: the original bytes plus enough provenance to
// replay it by hand once the poison cause is fixed. `trace` carries the
// message's trace context so a dead-lettered tuple stays correlated with
// the trace that produced it.
struct DeadLetterRecord {
  std::string task_name;
  StreamPartition origin;
  int64_t offset = 0;
  std::string error;  // Status::ToString() of the Process failure
  Bytes key;
  Bytes value;
  TraceContext trace;
};

Bytes EncodeDeadLetter(const DeadLetterRecord& record);
Result<DeadLetterRecord> DecodeDeadLetter(const Bytes& bytes);

class Container {
 public:
  Container(BrokerPtr broker, Config config, ContainerModel model,
            std::shared_ptr<Clock> clock = nullptr,
            std::shared_ptr<MetricsRegistry> metrics = nullptr);
  ~Container();

  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  // Create task instances, restore stores from changelogs, position
  // consumers at the last checkpoint (or the beginning).
  Status Start();

  // One scheduling quantum: complete the pending fetch, process that one
  // batch (bootstrap gating, window firing, commits, the kill flag, the
  // heartbeat), then issue the next fetch. A killed or shut-down container
  // does nothing and reports idle.
  struct Turn {
    int64_t processed = 0;
    // Empty poll and caught up on both consumers: nothing to do until new
    // input arrives.
    bool idle = false;
    // Monotonic deadline (ns) of the next fetch; a turn run earlier blocks
    // in Consumer::Poll until it.
    int64_t ready_at_ns = 0;
  };
  Result<Turn> RunTurn();

  // Run turns until every assigned partition is caught up (or until
  // `max_messages` have been processed, if >= 0), then refresh the lag
  // gauges. Returns the number of messages processed by this call. Safe to
  // call repeatedly: new input appended between calls is picked up.
  Result<int64_t> RunUntilCaughtUp(int64_t max_messages = -1);

  // Final commit + task Close(). Not called on simulated failure.
  Status Stop();

  bool ShutdownRequested() const { return shutdown_requested_; }

  // Asynchronous kill signal (JobRunner::KillContainer): the driving thread
  // observes the flag before the next commit or turn and returns without a
  // final commit — exactly the state loss a real kill produces. The
  // container object itself is destroyed only once the last shared_ptr
  // holder (the pool worker that may be inside a turn) drops it.
  void RequestKill() { kill_requested_.store(true, std::memory_order_relaxed); }
  bool KillRequested() const {
    return kill_requested_.load(std::memory_order_relaxed);
  }

  // Thread-safe: read by the monitor/bench threads while a pool worker
  // drives the container.
  int64_t MessagesProcessed() const {
    return processed_total_.load(std::memory_order_relaxed);
  }
  // CPU-side busy nanoseconds spent polling + processing.
  int64_t BusyNanos() const {
    return busy_nanos_.load(std::memory_order_relaxed);
  }

  // Stall-watchdog surface: Busy() is true during a turn; the heartbeat
  // advances at every turn, so a task wedged inside Process leaves it
  // stale. Thread-safe.
  bool Busy() const { return busy_.load(std::memory_order_relaxed); }
  int64_t LastHeartbeatMs() const {
    return last_heartbeat_ms_.load(std::memory_order_relaxed);
  }
  // Milliseconds since the last heartbeat while busy; 0 when idle (an idle
  // container cannot stall).
  int64_t HeartbeatAgeMs(int64_t now_ms) const {
    if (!Busy()) return 0;
    int64_t hb = LastHeartbeatMs();
    return hb == 0 ? 0 : std::max<int64_t>(0, now_ms - hb);
  }
  MetricsRegistry& metrics() { return *metrics_; }
  const ContainerModel& model() const { return model_; }

 private:
  struct TaskInstance;

  Status InitTask(TaskInstance& task);
  Result<int64_t> ProcessBatch(const std::vector<IncomingMessage>& batch);
  // Legacy per-message dispatch with a per-message "process" span. Used for
  // producer-traced messages (keeps span chains intact at message
  // granularity) while untraced runs go through StreamTask::ProcessBatch.
  Status ProcessOne(TaskInstance& task, const IncomingMessage& msg);
  // Apply task.error.policy to a failed message. Ok = handled (skipped or
  // dead-lettered), error = the container must stop with that status.
  Status HandleProcessError(TaskInstance& task, const IncomingMessage& msg,
                            const Status& error);
  // Policy-parameterized core of HandleProcessError; the corrupt-input path
  // reuses it with its own (fail|dead-letter) policy.
  Status ApplyErrorPolicy(TaskErrorPolicy policy, TaskInstance& task,
                          const IncomingMessage& msg, const Status& error);
  // The producer a task's sends go through: its own idempotent producer in
  // exactly-once mode, the shared container producer otherwise.
  Producer& TaskProducer(TaskInstance& task);
  Status CommitTask(TaskInstance& task);
  Status MaybeFireWindows();
  // Refresh the per-partition `lag.<topic>.<partition>` gauges from the
  // consumers' positions vs. broker end offsets.
  Status UpdateLagGauges();

  BrokerPtr broker_;
  Config config_;
  ContainerModel model_;
  std::shared_ptr<Clock> clock_;
  std::shared_ptr<MetricsRegistry> metrics_;

  std::unique_ptr<Producer> producer_;
  std::unique_ptr<Consumer> consumer_;            // non-bootstrap partitions
  std::unique_ptr<Consumer> bootstrap_consumer_;  // bootstrap partitions
  std::unique_ptr<CheckpointManager> checkpoints_;

  std::vector<std::unique_ptr<TaskInstance>> tasks_;
  std::map<StreamPartition, TaskInstance*> dispatch_;

  TaskErrorPolicy error_policy_ = TaskErrorPolicy::kFail;
  DeliveryMode delivery_ = DeliveryMode::kAtLeastOnce;
  TaskCorruptPolicy corrupt_policy_ = TaskCorruptPolicy::kFail;
  std::string dlq_topic_;
  RetryPolicy retry_policy_;
  int64_t commit_every_ = 0;
  int64_t batch_max_ = 256;  // task.batch.max.messages
  int64_t window_ms_ = 0;
  int64_t last_window_fire_ms_ = 0;
  bool started_ = false;
  bool shutdown_requested_ = false;
  std::atomic<bool> kill_requested_{false};
  // Atomic: written by the driving thread at the end of every turn, read by
  // monitor/bench threads mid-run (regression: plain int64_t was a data race
  // under the threaded executor).
  std::atomic<int64_t> processed_total_{0};
  std::atomic<int64_t> busy_nanos_{0};
  // Watchdog heartbeat (written by the driving thread, read by the monitor
  // thread). Precomputed `<job>.container<ID>` flight-recorder scope.
  std::atomic<bool> busy_{false};
  std::atomic<int64_t> last_heartbeat_ms_{0};
  std::string flight_scope_;

  // Container-scoped instruments (`<job>.container<ID>.*`), bound in Start().
  Counter* m_processed_ = nullptr;
  Counter* m_commits_ = nullptr;
  Timer* m_busy_ns_ = nullptr;
  Histogram* m_process_latency_ns_ = nullptr;
  std::map<StreamPartition, Gauge*> lag_gauges_;
  // Backpressure / freshness accounting (docs/LATENCY.md): per-partition
  // `freshness.<topic>.<P>` (ms behind ingest) and `backlog.<topic>.<P>`
  // (unfetched payload bytes) gauges plus container-level rollups
  // `freshness_lag_ms` (max) / `backlog_bytes` (sum). Names deliberately
  // avoid `.lag.` — that substring is the message-count consumer-lag family
  // special-cased by readiness and the alert engine.
  std::map<StreamPartition, Gauge*> freshness_gauges_;
  std::map<StreamPartition, Gauge*> backlog_gauges_;
  Gauge* m_freshness_ms_ = nullptr;
  Gauge* m_backlog_bytes_ = nullptr;
  // Resource-ledger instruments: rows/bytes through this container and the
  // state footprint of its stores (with a container-lifetime high-water).
  Counter* m_rows_out_ = nullptr;
  Counter* m_bytes_in_ = nullptr;
  Counter* m_bytes_out_ = nullptr;
  Gauge* m_state_bytes_ = nullptr;
  Gauge* m_state_bytes_hwm_ = nullptr;
  int64_t state_hwm_ = 0;
  // Job-scoped latency histograms (shared registry, so every container of
  // the job records into the same pair): source-to-sink event latency at
  // send time, and broker-queue dwell at fetch time.
  Histogram* m_e2e_us_ = nullptr;
  Histogram* m_dwell_us_ = nullptr;
  // Free-running input-message counter driving 1-in-16 dwell sampling:
  // messages fetched in one poll batch share a single wall-clock reading and
  // near-identical append times, so dense dwell samples are redundant — the
  // stride keeps the distribution while shedding histogram writes from the
  // hot path. Not batch-aligned, so no bias toward batch heads.
  uint64_t dwell_sample_seq_ = 0;
  // Per-operation retry pressure
  // (`<scope>.retry.<op>.{retries,giveups,giveup_deadline}`,
  // op = send|fetch|changelog|checkpoint) — labeled in /metrics.
  Counter* m_send_retries_ = nullptr;
  Counter* m_send_giveups_ = nullptr;
  Counter* m_send_giveup_deadline_ = nullptr;
  Counter* m_fetch_retries_ = nullptr;
  Counter* m_fetch_giveups_ = nullptr;
  Counter* m_fetch_giveup_deadline_ = nullptr;
  Counter* m_changelog_retries_ = nullptr;
  Counter* m_changelog_giveups_ = nullptr;
  Counter* m_changelog_giveup_deadline_ = nullptr;
  Counter* m_checkpoint_retries_ = nullptr;
  Counter* m_checkpoint_giveups_ = nullptr;
  Counter* m_checkpoint_giveup_deadline_ = nullptr;
  // Exactly-once + integrity instruments.
  Counter* m_fenced_ = nullptr;          // producer_fenced
  Counter* m_corrupt_ = nullptr;         // corrupt_records
  Gauge* m_dups_dropped_ = nullptr;      // broker_dups_dropped (broker-wide)

  // Periodic JSON-lines reporter (metrics.reporter.interval.ms > 0); owns
  // its file when metrics.reporter.path is set, rotating per
  // metrics.reporter.max.bytes, and flushes a last report on Stop().
  std::unique_ptr<MetricsReporter> reporter_;
};

}  // namespace sqs
