// The Samza task programming API (paper §2): a StreamTask processes one
// message at a time from its assigned partitions, may keep task-local state
// in managed stores, emits via a MessageCollector, and can request commits
// or shutdown through the TaskCoordinator. Native benchmark tasks and the
// generated SamzaSQL task both implement this interface — the evaluation
// compares exactly these two implementations of the same queries.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <map>
#include <memory>
#include <string>

#include "common/clock.h"
#include "common/config.h"
#include "common/latency.h"
#include "common/metrics.h"
#include "common/status.h"
#include "kv/store.h"
#include "log/message.h"

namespace sqs {

class MessageCollector {
 public:
  virtual ~MessageCollector() = default;
  // Keyed send: partition chosen by key hash.
  virtual Status Send(const std::string& topic, Bytes key, Bytes value) = 0;
  // Partition-preserving send: output goes to the same partition id the
  // input came from (SamzaSQL's default for filter/project pipelines so
  // per-partition ordering is preserved end to end).
  virtual Status SendToPartition(const std::string& topic, int32_t partition,
                                 Bytes key, Bytes value) = 0;
};

class TaskCoordinator {
 public:
  virtual ~TaskCoordinator() = default;
  virtual void RequestCommit() = 0;
  virtual void RequestShutdown() = 0;
};

// Per-task-instance context handed to Init(): identity, config, managed
// stores, metrics.
class TaskContext {
 public:
  virtual ~TaskContext() = default;
  virtual const std::string& task_name() const = 0;
  virtual int32_t partition_id() const = 0;
  virtual const Config& config() const = 0;
  virtual MetricsRegistry& metrics() = 0;
  // The container's (injectable) clock; defaults to the system clock so
  // lightweight fake contexts need not override it. Used by operators to
  // compute event-time watermark lag.
  virtual std::shared_ptr<Clock> clock() { return SystemClock::Instance(); }
  // Managed store by logical name (configured via stores.<name>.*). Returns
  // nullptr if the store is not configured.
  virtual KeyValueStorePtr GetStore(const std::string& name) = 0;
};

class StreamTask {
 public:
  virtual ~StreamTask() = default;

  virtual Status Init(TaskContext& /*context*/) { return Status::Ok(); }

  virtual Status Process(const IncomingMessage& message, MessageCollector& collector,
                         TaskCoordinator& coordinator) = 0;

  // Process a contiguous run of messages in order. Implementations may
  // amortize per-message overheads (the fused SQL pipeline evaluates the
  // whole run through one kernel — see docs/EXECUTION.md). On success
  // `consumed` (if non-null) is `count`; on error it is the index of the
  // failing message, with every earlier message fully processed (its sends
  // issued), so the container's error policy can resume after it. Output
  // sends must be issued in input order — exactly-once replay depends on
  // batch runs producing the same producer sequence as per-message replay.
  virtual Status ProcessBatch(const IncomingMessage* msgs, size_t count,
                              MessageCollector& collector,
                              TaskCoordinator& coordinator, size_t* consumed) {
    for (size_t i = 0; i < count; ++i) {
      if (consumed) *consumed = i;
      // Ambient latency scope: sends issued by Process inherit the input's
      // ingest stamp (common/latency.h).
      IngestScope ingest(msgs[i].message.ingest_us);
      SQS_RETURN_IF_ERROR(Process(msgs[i], collector, coordinator));
    }
    if (consumed) *consumed = count;
    return Status::Ok();
  }

  // Called on the window timer if task.window.ms is configured (Samza's
  // WindowableTask). Hopping/tumbling emission happens here.
  virtual Status Window(MessageCollector& /*collector*/,
                        TaskCoordinator& /*coordinator*/) {
    return Status::Ok();
  }

  // Called immediately before the task's offsets are checkpointed. State
  // that gates replay-safe cleanup (e.g. the sliding window's committed
  // watermark) must be persisted here: replay never rewinds past this
  // point, so anything older than what is recorded now may be purged.
  virtual Status OnCommit() { return Status::Ok(); }

  virtual Status Close() { return Status::Ok(); }
};

// Factory invoked once per task instance. Registered by name in the
// TaskFactoryRegistry; the job config selects it via `task.factory`.
using TaskFactory = std::function<std::unique_ptr<StreamTask>()>;

class TaskFactoryRegistry {
 public:
  static TaskFactoryRegistry& Instance();

  void Register(const std::string& name, TaskFactory factory);
  Result<TaskFactory> Get(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, TaskFactory> factories_;
};

// Well-known configuration keys (subset of Samza's, plus SamzaSQL's).
namespace cfg {
inline constexpr const char* kJobName = "job.name";
inline constexpr const char* kJobId = "job.id";
inline constexpr const char* kContainerCount = "job.container.count";
inline constexpr const char* kTaskInputs = "task.inputs";
inline constexpr const char* kBootstrapInputs = "task.bootstrap.inputs";
inline constexpr const char* kTaskFactory = "task.factory";
inline constexpr const char* kCheckpointTopic = "task.checkpoint.topic";
inline constexpr const char* kCommitEveryMessages = "task.commit.max.messages";
inline constexpr const char* kWindowMs = "task.window.ms";
inline constexpr const char* kMaxPollMessages = "task.poll.max.messages";
// Upper bound on the contiguous same-task run handed to one
// StreamTask::ProcessBatch call (1 = per-message processing). Runs are also
// cut at traced messages, CRC failures, and the commit cadence.
inline constexpr const char* kBatchMaxMessages = "task.batch.max.messages";
inline constexpr const char* kMaxFetchPerPartition = "task.fetch.max.per.partition";
inline constexpr const char* kPollLatencyNanos = "task.poll.latency.nanos";
// How the simulated per-poll broker RTT is charged: "spin" (default) burns
// real CPU inside the poll so the cost appears in measured busy time;
// "sleep" pipelines the fetch — the next one is issued as a batch is handed
// out and is ready one RTT later — so the wait overlaps processing like real
// network I/O (the multicore bench model, docs/EXECUTION.md "Threaded
// execution").
inline constexpr const char* kPollLatencyModel = "task.poll.latency.model";
// --- executor (core/scheduler.h, docs/EXECUTION.md "Threaded execution") ---
// How QueryExecutor drives submitted jobs' containers: "threaded" (the
// default — workers of a shared pool take containers of all jobs off a
// ready queue in fetch-deadline order) or "serial" (the same driver with one
// worker in FIFO order; deterministic interleaving).
inline constexpr const char* kExecutorMode = "executor.mode";
// Pool size for executor.mode=threaded; 0 (default) = one thread per
// container, preserving per-container liveness under kill/stall tests.
inline constexpr const char* kExecutorThreads = "executor.threads";
// Simulated per-access latency of task-local stores (RocksDB model).
inline constexpr const char* kStoreAccessLatencyNanos = "stores.access.latency.nanos";
// Periodic JSON-lines metrics reporting (0 = disabled).
inline constexpr const char* kMetricsReporterIntervalMs = "metrics.reporter.interval.ms";
// Where the reporter appends JSON lines; empty = stderr.
inline constexpr const char* kMetricsReporterPath = "metrics.reporter.path";
// Size-based rotation for the reporter file: when the next report would push
// the file past this many bytes, it is rolled to `<path>.1` first
// (0 = never rotate). Only applies when `metrics.reporter.path` is set.
inline constexpr const char* kMetricsReporterMaxBytes = "metrics.reporter.max.bytes";
// --- live monitoring (docs/MONITORING.md) ---
// Serve /metrics, /healthz, /readyz, /jobs, /history, /alerts over HTTP.
inline constexpr const char* kMonitorEnable = "monitor.enable";
// TCP port for the monitor (loopback); 0 = ephemeral (see MonitorServer::port).
inline constexpr const char* kMonitorPort = "monitor.port";
// Readiness thresholds: /readyz reports 503 while any per-partition consumer
// lag / operator watermark lag exceeds these (-1 = check disabled).
inline constexpr const char* kMonitorReadyMaxConsumerLag = "monitor.ready.max.consumer.lag";
inline constexpr const char* kMonitorReadyMaxWatermarkLagMs = "monitor.ready.max.watermark.lag.ms";
// --- end-to-end latency SLOs (docs/LATENCY.md) ---
// Freshness-lag SLO in ms: while any job's oldest unfetched input message is
// older than this, /readyz reports 503, an implicit alert rule fires, and
// slo_breach / slo_cleared events land in the flight recorder (0 / unset =
// SLO checking off).
inline constexpr const char* kLatencySloMs = "latency.slo.ms";
// Process-global toggle for ingest/append timestamp stamping and the e2e /
// dwell histograms (default on; the bench_latency overhead arm turns it off).
inline constexpr const char* kLatencyStampingEnable = "latency.stamping.enable";
// Metrics history ring: sampling interval and retained points per key.
inline constexpr const char* kMetricsHistoryIntervalMs = "metrics.history.interval.ms";
inline constexpr const char* kMetricsHistorySamples = "metrics.history.samples";
// ';'-separated threshold alert rules (grammar in common/alerts.h).
inline constexpr const char* kAlertRules = "alert.rules";
// stores.<name>.changelog = <topic>
inline constexpr const char* kStoresPrefix = "stores.";
// Head-based trace sampling rate in (0,1]; 0 / unset = tracing disabled.
inline constexpr const char* kTracingSampleRate = "tracing.sample.rate";
// Span ring-buffer capacity (default Tracer::kDefaultCapacity).
inline constexpr const char* kTracingBufferSpans = "tracing.buffer.spans";
// If set, the container writes a Chrome-trace-format JSON file here on Stop().
inline constexpr const char* kTracingExportPath = "tracing.export.path";
// Structured logging: minimum level (debug|info|warn|error|off) and record
// format (plain|json) — see common/logging.h.
inline constexpr const char* kLogLevel = "log.level";
inline constexpr const char* kLogFormat = "log.format";
// --- fault tolerance (docs/FAULT_TOLERANCE.md) ---
// Delivery contract: "at-least-once" (the default — crash replay may
// duplicate output) or "exactly-once" (idempotent per-task producers +
// transactional checkpoints; see docs/FAULT_TOLERANCE.md "Exactly-once").
inline constexpr const char* kTaskDelivery = "task.delivery";
// What to do with an input message whose CRC32C does not match its payload:
// "fail" (crash the container so the replay refetches — transient
// corruption heals, the default) or "dead-letter" (route to the DLQ with
// provenance, then advance past it).
inline constexpr const char* kTaskCorruptPolicy = "task.corrupt.policy";
// What to do when task->Process fails on a message: "fail" (stop the
// container — the default), "skip" (log, count as dropped, advance past
// it), or "dead-letter" (route the original bytes + error string to the
// DLQ topic, then advance).
inline constexpr const char* kTaskErrorPolicy = "task.error.policy";
// Dead-letter topic; empty = `<job.name>.dlq`.
inline constexpr const char* kTaskDlqTopic = "task.error.dlq.topic";
// Supervisor: restart a dead container up to this many times per slot
// (0 = supervision off, a dead container fails the job).
inline constexpr const char* kContainerRestartMax = "container.restart.max";
// Delay before the first restart of a slot; doubles per restart up to the
// cap.
inline constexpr const char* kContainerRestartBackoffMs = "container.restart.backoff.ms";
inline constexpr const char* kContainerRestartBackoffMaxMs =
    "container.restart.backoff.max.ms";
// --- profiling + flight recorder + watchdog (docs/PROFILING.md) ---
// Background sampling-profiler rate in Hz (0 / unset = off; sampling is
// also available on demand via GET /debug/profile and EXPLAIN ANALYZE).
inline constexpr const char* kProfileHz = "profile.hz";
// Flight recorder toggle (default on) and per-thread ring capacity.
inline constexpr const char* kFlightRecEnable = "flightrec.enable";
inline constexpr const char* kFlightRecRingEvents = "flightrec.ring.events";
// Where crash/stall forensics dumps (JSON lines) are written: by the fatal
// signal / terminate handlers, on supervisor-observed container death, and
// on watchdog stalls. Empty = no automatic dump file.
inline constexpr const char* kFlightRecDumpPath = "flightrec.dump.path";
// Stall watchdog: a container whose heartbeat is older than this while it
// is actively driving input is declared stalled (0 / unset = watchdog off).
inline constexpr const char* kWatchdogStallMs = "watchdog.stall.ms";
// Watchdog poll cadence (wall clock); default max(25, stall.ms / 4).
inline constexpr const char* kWatchdogPollMs = "watchdog.poll.ms";
// One-shot profile burst fired when a stall is detected.
inline constexpr const char* kWatchdogProfileMs = "watchdog.profile.ms";
inline constexpr const char* kWatchdogProfileHz = "watchdog.profile.hz";
// `retry.*` keys live in common/retry.h, `fault.*` keys in log/fault_broker.h.
}  // namespace cfg

}  // namespace sqs
