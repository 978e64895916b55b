// MonitorServer: the embedded external-observability surface of a SamzaSQL
// deployment. One instance per QueryExecutor aggregates every submitted
// job's metrics registry and exposes:
//
//   GET /metrics   Prometheus text exposition 0.0.4 (common/prometheus.h)
//   GET /healthz   liveness: 200 while the process serves requests
//   GET /readyz    readiness: 200 only while all containers of all submitted
//                  jobs are running AND max consumer lag is under the
//                  configured threshold; 503 otherwise
//   GET /jobs      each submitted job's resource ledger as JSON
//   GET /history   the metrics history ring as JSON (?job=<name> filters)
//   GET /alerts    alert engine state as JSON
//   GET /debug/profile  a profile burst as collapsed stacks
//   GET /debug/events   the flight recorder's rings as JSON lines
//
// Behind the endpoints sit a MetricsHistory ring and an AlertEngine, both
// advanced by Tick() on the same injected clock the MetricsReporter uses, so
// history retention and alert firing/resolution are deterministic under a
// manual clock in tests. The engine is the monitor's only breach/clear state
// machine: beside the `alert.rules` rules it carries the latency SLO
// (`latency.slo.ms`, per job) and the stall watchdog (`watchdog.stall.ms`,
// per container) as built-in rules. The HTTP server itself is optional
// (`monitor.enable`); SHOW HISTORY / SHOW ALERTS in the shell read the same
// MonitorServer without it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/alerts.h"
#include "common/clock.h"
#include "common/config.h"
#include "common/history.h"
#include "common/metrics.h"
#include "common/status.h"
#include "http/http_server.h"

namespace sqs {

// Per-container health sampled by the provider: whether the slot is
// allocated, whether it is actively driving input, and how stale its
// heartbeat is. Feeds the stall watchdog and heartbeat-age gauges.
struct MonitorContainerStatus {
  int32_t id = 0;
  bool running = false;
  bool busy = false;
  int64_t heartbeat_age_ms = 0;
};

// What the monitor needs to know about one submitted job. Collected through
// a provider callback so the monitor has no dependency on the runner layer
// (and so the owner can guard its job list with its own lock).
struct MonitorJobView {
  std::string name;
  size_t containers_total = 0;
  size_t containers_running = 0;
  int64_t processed = 0;
  // Supervisor restart attempts so far (0 when supervision is off). Shown
  // in /jobs and in the /readyz dead-container reason.
  int64_t restarts = 0;
  // Wall-clock ms since the job started (JobRunner::UptimeMs).
  int64_t uptime_ms = 0;
  std::vector<MonitorContainerStatus> containers;
  MetricsSnapshot snapshot;
};

// Cumulative resource accounting for one job, aggregated live from its
// metrics snapshot (docs/LATENCY.md "Resource ledger"): what the job has
// consumed (CPU, rows/bytes through it, state), how far behind it is
// (freshness/backlog), and its end-to-end latency distribution. This is the
// substrate a multi-tenant front door's per-tenant quotas would meter
// against (ROADMAP, Deferred).
struct ResourceLedger {
  int64_t cpu_busy_ns = 0;      // Σ container busy_ns timers
  int64_t rows_in = 0;          // Σ container processed counters
  int64_t rows_out = 0;         // Σ container rows_out counters
  int64_t bytes_in = 0;         // Σ container bytes_in counters
  int64_t bytes_out = 0;        // Σ container bytes_out counters
  int64_t state_bytes = 0;      // Σ container state_bytes gauges
  int64_t state_bytes_hwm = 0;  // Σ container state_bytes_hwm gauges
  int64_t dlq_drops = 0;        // Σ task dropped counters
  int64_t freshness_lag_ms = 0; // max container freshness_lag_ms gauge
  int64_t backlog_bytes = 0;    // Σ container backlog_bytes gauges
  int64_t restarts = 0;         // from the view
  int64_t uptime_ms = 0;        // from the view
  HistogramStats e2e;           // <job>.e2e_latency_us
};

// Aggregate the ledger from a job view's snapshot (leaf-name matching over
// the container-scoped instruments, so restarts — fresh container scopes —
// keep accumulating).
ResourceLedger ComputeResourceLedger(const MonitorJobView& view);

// SHOW JOBS: a text table with one row per job whose column names are the
// keys of that job's /jobs object (the `e2e_latency_us` members as
// `e2e_latency_us.<member>`), so the table and the JSON read one ledger.
std::string RenderJobsTable(const std::vector<MonitorJobView>& views);

using MonitorJobsProvider = std::function<std::vector<MonitorJobView>()>;

class MonitorServer {
 public:
  // Reads monitor.*, metrics.history.*, and alert.rules from `config`.
  // The provider is called from the HTTP worker thread and from Tick(); it
  // must be safe to call concurrently with job submission.
  MonitorServer(const Config& config, MonitorJobsProvider provider,
                std::shared_ptr<Clock> clock = nullptr);
  ~MonitorServer();

  MonitorServer(const MonitorServer&) = delete;
  MonitorServer& operator=(const MonitorServer&) = delete;

  // Start the HTTP endpoint when `monitor.enable` is set; history and
  // alerting work either way. Returns the HTTP server's bind error, if any.
  Status Start();
  void Stop();

  // Sample history + evaluate alerts if `metrics.history.interval.ms` has
  // elapsed since the last tick; called after every job-driving round and
  // before every HTTP request. Returns whether the tick ran; when it did and
  // `views` is set, the job views its pass evaluated land there.
  // ForceTick() samples unconditionally.
  bool Tick(std::vector<MonitorJobView>* views = nullptr);
  void ForceTick(std::vector<MonitorJobView>* views = nullptr);

  bool http_running() const { return http_ && http_->running(); }
  // Bound port of the HTTP endpoint (0 when not running).
  int port() const { return http_ ? http_->port() : 0; }

  MetricsHistory& history() { return history_; }
  AlertEngine& alerts() { return *alerts_; }
  // Monitor-scoped self-instruments (`monitor.alerts_firing`,
  // `monitor.scrapes`, `monitor.ticks`), merged into /metrics output.
  MetricsRegistry& self_metrics() { return *self_metrics_; }

  struct Readiness {
    bool ready = true;
    std::string reason;  // first failing check when not ready
  };
  Readiness CheckReadiness() const;

  // One evaluation pass without a history sample: the watchdog thread runs
  // it every max(25, watchdog.stall.ms / 4) ms of wall time; exposed so tests
  // can drive the stall rule deterministically.
  void RunWatchdogCheck();
  // Containers the stall rule reports firing (`<job>.container<id>`).
  std::vector<std::string> StalledContainers() const;

  // Rendering entry points, independent of HTTP (used by shell and tests),
  // over job views the caller already read: one provider read per request.
  std::string RenderPrometheusText(const std::vector<MonitorJobView>& views) const;
  std::string RenderJobsJson(const std::vector<MonitorJobView>& views) const;

  // Full endpoint dispatch (exposed for handler tests).
  HttpResponse Handle(const HttpRequest& request);

  // Status of the last `alert.rules` parse (rules that fail to parse
  // disable alerting but never fail executor construction).
  const Status& rules_status() const { return rules_status_; }

 private:
  std::vector<MonitorJobView> Views() const;
  // Every job's snapshot merged with the monitor's own instruments.
  MetricsSnapshot MergedSnapshot(const std::vector<MonitorJobView>& views) const;
  // The one evaluation pass behind ForceTick, the watchdog thread and
  // /readyz: refresh the heartbeat gauges (watchdog on), merge the
  // snapshots, optionally record them into the history ring, and run the
  // alert engine over them. Returns the clock reading it evaluated at; the
  // job views it read land in `views` when set.
  int64_t EvaluatePass(bool record_history,
                       std::vector<MonitorJobView>* views = nullptr);
  // Readiness over views already read (one provider call per /readyz).
  Readiness CheckReadiness(const std::vector<MonitorJobView>& views) const;
  // Passes run one at a time, so the engine sees snapshots in the order
  // they were taken: a stale snapshot applied after a fresh one would
  // report a transition twice.
  std::mutex pass_mu_;
  // Built-in rules: the latency SLO and the stall watchdog.
  void AddBuiltinRules(std::vector<AlertRule>* rules);
  void StartWatchdog();
  void StopWatchdog();
  void WatchdogLoop();

  Config config_;
  MonitorJobsProvider provider_;
  std::shared_ptr<Clock> clock_;
  int64_t history_interval_ms_;
  int64_t max_consumer_lag_;
  // Freshness-lag SLO (`latency.slo.ms`, 0 = off), a built-in rule grouped
  // per job (docs/LATENCY.md).
  int64_t slo_ms_ = 0;
  MetricsHistory history_;
  std::unique_ptr<AlertEngine> alerts_;
  Status rules_status_;
  std::shared_ptr<MetricsRegistry> self_metrics_;
  std::unique_ptr<HttpServer> http_;

  std::mutex tick_mu_;
  int64_t last_tick_ms_ = INT64_MIN;

  // Stall watchdog (watchdog.stall.ms > 0 enables it; see docs/PROFILING.md),
  // a built-in rule grouped per container. The thread polls on real wall
  // time; heartbeat ages themselves come from the provider, which computes
  // them on the injectable clock.
  int64_t watchdog_stall_ms_ = 0;
  int64_t watchdog_profile_ms_ = 0;
  std::thread watchdog_thread_;
  std::atomic<bool> watchdog_stop_{false};
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
};

}  // namespace sqs
