#include "http/monitor.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "common/buildinfo.h"
#include "common/flightrec.h"
#include "common/json_escape.h"
#include "common/logging.h"
#include "common/metrics_reporter.h"
#include "common/profiler.h"
#include "common/prometheus.h"
#include "task/api.h"

namespace sqs {

namespace {

constexpr int64_t kDefaultHistoryIntervalMs = 1000;
// Sampling rate of a profile burst: /debug/profile's default and the stall's.
constexpr double kProfileBurstHz = 97;

// Leaf segment of a dotted metric name.
std::string Leaf(const std::string& name) {
  size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

// Value of `key` in an (unescaped) query string like "job=q0&n=3".
std::string QueryParam(const std::string& query, const std::string& key) {
  std::stringstream ss(query);
  std::string pair;
  while (std::getline(ss, pair, '&')) {
    size_t eq = pair.find('=');
    if (eq == std::string::npos) continue;
    if (pair.compare(0, eq, key) == 0) return pair.substr(eq + 1);
  }
  return "";
}

// True for metrics bound under a `<job>.container<N>.` scope — the
// container-level instruments the resource ledger aggregates (task/operator
// scopes use the task name "Partition <N>", so they never match).
bool InContainerScope(const std::string& name) {
  return name.find(".container") != std::string::npos;
}

size_t CountDots(const std::string& name) {
  size_t n = 0;
  for (char c : name) n += c == '.';
  return n;
}

// The row of the built-in rule that records `fire_event` (a row with
// nothing firing when that rule is off).
AlertStatus BuiltinStatus(const AlertEngine& alerts, FlightEventType fire_event) {
  for (AlertStatus& status : alerts.Statuses()) {
    if (status.rule.fire_event == fire_event) return std::move(status);
  }
  return AlertStatus{};
}

}  // namespace

ResourceLedger ComputeResourceLedger(const MonitorJobView& view) {
  ResourceLedger ledger;
  ledger.restarts = view.restarts;
  ledger.uptime_ms = view.uptime_ms;
  for (const auto& [name, value] : view.snapshot.timers) {
    if (InContainerScope(name) && Leaf(name) == "busy_ns") {
      ledger.cpu_busy_ns += value;
    }
  }
  for (const auto& [name, value] : view.snapshot.counters) {
    if (InContainerScope(name)) {
      const std::string leaf = Leaf(name);
      if (leaf == "processed") ledger.rows_in += value;
      else if (leaf == "rows_out") ledger.rows_out += value;
      else if (leaf == "bytes_in") ledger.bytes_in += value;
      else if (leaf == "bytes_out") ledger.bytes_out += value;
    } else if (Leaf(name) == "dropped" && CountDots(name) == 2) {
      // Task-level drop counter `<job>.<task>.dropped` (skip / dead-letter
      // policy victims); the 4-segment `<job>.<task>.<op>.dropped` counters
      // are ordinary filter/join drops, not losses.
      ledger.dlq_drops += value;
    }
  }
  for (const auto& [name, value] : view.snapshot.gauges) {
    if (!InContainerScope(name)) continue;
    const std::string leaf = Leaf(name);
    if (leaf == "state_bytes") ledger.state_bytes += value;
    else if (leaf == "state_bytes_hwm") ledger.state_bytes_hwm += value;
    else if (leaf == "backlog_bytes") ledger.backlog_bytes += value;
    else if (leaf == "freshness_lag_ms") {
      ledger.freshness_lag_ms = std::max(ledger.freshness_lag_ms, value);
    }
  }
  for (const auto& [name, stats] : view.snapshot.histograms) {
    if (Leaf(name) == "e2e_latency_us") ledger.e2e = stats;
  }
  return ledger;
}

MonitorServer::MonitorServer(const Config& config, MonitorJobsProvider provider,
                             std::shared_ptr<Clock> clock)
    : config_(config),
      provider_(std::move(provider)),
      clock_(clock ? std::move(clock) : SystemClock::Instance()),
      history_interval_ms_(
          config.GetInt(cfg::kMetricsHistoryIntervalMs, kDefaultHistoryIntervalMs)),
      max_consumer_lag_(config.GetInt(cfg::kMonitorReadyMaxConsumerLag, -1)),
      slo_ms_(config.GetInt(cfg::kLatencySloMs, 0)),
      self_metrics_(std::make_shared<MetricsRegistry>()),
      watchdog_stall_ms_(config.GetInt(cfg::kWatchdogStallMs, 0)),
      watchdog_profile_ms_(config.GetInt(cfg::kWatchdogProfileMs, 250)) {
  if (history_interval_ms_ <= 0) history_interval_ms_ = kDefaultHistoryIntervalMs;
  std::vector<AlertRule> rules;
  Result<std::vector<AlertRule>> parsed =
      AlertEngine::ParseRules(config.Get(cfg::kAlertRules));
  if (parsed.ok()) {
    rules = std::move(parsed).value();
  } else {
    rules_status_ = parsed.status();
    SQS_WARNC("monitor", "alert rules disabled",
              {"error", rules_status_.message()});
  }
  AddBuiltinRules(&rules);
  alerts_ = std::make_unique<AlertEngine>(std::move(rules));
}

MonitorServer::~MonitorServer() { Stop(); }

void MonitorServer::AddBuiltinRules(std::vector<AlertRule>* rules) {
  auto add = [&](const char* selector, int64_t threshold, AlertGroup group,
                 FlightEventType fire, FlightEventType resolve,
                 const char* counter) -> AlertRule& {
    AlertRule rule;
    rule.selector = selector;
    rule.threshold = static_cast<double>(threshold);
    rule.text = std::string(selector) + ">" + std::to_string(threshold);
    rule.group = group;
    rule.fire_event = fire;
    rule.resolve_event = resolve;
    rule.fired_counter = &self_metrics_->GetCounter(counter);
    rules->push_back(std::move(rule));
    return rules->back();
  };
  if (slo_ms_ > 0) {
    add("freshness_lag_ms", slo_ms_, AlertGroup::kJob, FlightEventType::kSloBreach,
        FlightEventType::kSloCleared, "monitor.slo_breaches");
  }
  if (watchdog_stall_ms_ <= 0) return;
  AlertRule& stall = add("heartbeat_age_ms", watchdog_stall_ms_,
                         AlertGroup::kContainer, FlightEventType::kStall,
                         FlightEventType::kStallCleared, "monitor.watchdog_stalls");
  // One-shot forensics: a short profile burst (skipped when a background
  // sampler is already collecting) then a ring snapshot, so the dump shows
  // what every thread was doing while wedged.
  stall.on_fire = [this] {
    if (watchdog_profile_ms_ > 0 && !Profiler::Instance().sampling()) {
      (void)Profiler::Instance().SampleFor(watchdog_profile_ms_, kProfileBurstHz);
    }
    std::string dump_path = config_.Get(cfg::kFlightRecDumpPath);
    if (!dump_path.empty()) (void)FlightRecorder::Instance().DumpToPath(dump_path);
  };
}

Status MonitorServer::Start() {
  // The watchdog works without the HTTP endpoint: start it before the
  // monitor.enable check so headless runs still get stall detection.
  StartWatchdog();
  if (!config_.GetBool(cfg::kMonitorEnable, false)) return Status::Ok();
  if (http_) return Status::StateError("monitor already started");
  int port = static_cast<int>(config_.GetInt(cfg::kMonitorPort, 0));
  http_ = std::make_unique<HttpServer>(
      port, [this](const HttpRequest& request) { return Handle(request); });
  Status st = http_->Start();
  if (!st.ok()) {
    http_.reset();
    return st;
  }
  SQS_INFOC("monitor", "monitor serving",
            {"port", std::to_string(http_->port())},
            {"alert_rules", std::to_string(alerts_->num_rules())});
  return Status::Ok();
}

void MonitorServer::Stop() {
  StopWatchdog();
  if (http_) {
    http_->Stop();
    http_.reset();
  }
}

void MonitorServer::StartWatchdog() {
  if (watchdog_stall_ms_ <= 0 || watchdog_thread_.joinable()) return;
  watchdog_stop_.store(false);
  watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
}

void MonitorServer::StopWatchdog() {
  if (!watchdog_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_.store(true);
  }
  watchdog_cv_.notify_all();
  watchdog_thread_.join();
}

void MonitorServer::WatchdogLoop() {
  const auto poll = std::chrono::milliseconds(
      std::max<int64_t>(25, watchdog_stall_ms_ / 4));
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_.load()) {
    watchdog_cv_.wait_for(lock, poll, [this] { return watchdog_stop_.load(); });
    if (watchdog_stop_.load()) break;
    lock.unlock();
    RunWatchdogCheck();
    lock.lock();
  }
}

void MonitorServer::RunWatchdogCheck() { EvaluatePass(false); }

std::vector<std::string> MonitorServer::StalledContainers() const {
  return BuiltinStatus(*alerts_, FlightEventType::kStall).firing;
}

bool MonitorServer::Tick(std::vector<MonitorJobView>* views) {
  int64_t now = clock_->NowMillis();
  {
    std::lock_guard<std::mutex> lock(tick_mu_);
    if (last_tick_ms_ != INT64_MIN && now - last_tick_ms_ < history_interval_ms_) {
      return false;
    }
    last_tick_ms_ = now;
  }
  ForceTick(views);
  return true;
}

void MonitorServer::ForceTick(std::vector<MonitorJobView>* views) {
  // Count the tick before sampling so the very first history sample already
  // carries the monitor's own instruments.
  self_metrics_->GetCounter("monitor.ticks").Inc();
  const int64_t now = EvaluatePass(true, views);
  std::lock_guard<std::mutex> lock(tick_mu_);
  last_tick_ms_ = now;
}

int64_t MonitorServer::EvaluatePass(bool record_history,
                                    std::vector<MonitorJobView>* views_out) {
  std::lock_guard<std::mutex> lock(pass_mu_);
  const int64_t now_ms = clock_->NowMillis();
  std::vector<MonitorJobView> views = Views();
  if (watchdog_stall_ms_ > 0) {
    for (const MonitorJobView& view : views) {
      for (const MonitorContainerStatus& cs : view.containers) {
        // An idle or unallocated container cannot stall: its age reads 0.
        self_metrics_
            ->GetGauge(view.name + ".container" + std::to_string(cs.id) +
                       ".heartbeat_age_ms")
            .Set(cs.running && cs.busy ? cs.heartbeat_age_ms : 0);
      }
    }
  }
  MetricsSnapshot merged = MergedSnapshot(views);
  if (record_history) history_.Record(now_ms, merged);
  alerts_->Evaluate(now_ms, merged, &history_);
  self_metrics_->GetGauge("monitor.alerts_firing").Set(alerts_->FiringCount());
  if (views_out != nullptr) *views_out = std::move(views);
  return now_ms;
}

std::vector<MonitorJobView> MonitorServer::Views() const {
  return provider_ ? provider_() : std::vector<MonitorJobView>{};
}

MetricsSnapshot MonitorServer::MergedSnapshot(
    const std::vector<MonitorJobView>& views) const {
  std::vector<MetricsSnapshot> snapshots;
  snapshots.reserve(views.size() + 1);
  for (const MonitorJobView& view : views) snapshots.push_back(view.snapshot);
  snapshots.push_back(self_metrics_->Snapshot());
  return MergeSnapshots(snapshots);
}

MonitorServer::Readiness MonitorServer::CheckReadiness() const {
  return CheckReadiness(Views());
}

MonitorServer::Readiness MonitorServer::CheckReadiness(
    const std::vector<MonitorJobView>& views) const {
  Readiness readiness;
  auto fail = [&readiness](std::string reason) {
    readiness.ready = false;
    readiness.reason = std::move(reason);
    return readiness;
  };
  for (const MonitorJobView& view : views) {
    if (view.containers_running < view.containers_total) {
      std::string reason = "job " + view.name + ": " +
                           std::to_string(view.containers_running) + "/" +
                           std::to_string(view.containers_total) +
                           " containers running";
      if (view.restarts > 0) {
        reason += " (" + std::to_string(view.restarts) + " supervisor restarts)";
      }
      return fail(std::move(reason));
    }
  }
  std::vector<std::string> stalled = StalledContainers();
  if (!stalled.empty()) {
    return fail("container " + stalled[0] + " stalled (heartbeat older than " +
                std::to_string(watchdog_stall_ms_) + "ms)");
  }
  // The consumer-lag threshold is a level check on the gauges as they read
  // now.
  for (const MonitorJobView& view : views) {
    for (const auto& [name, value] : view.snapshot.gauges) {
      if (max_consumer_lag_ >= 0 && value > max_consumer_lag_ &&
          AlertSelectorMatches("consumer_lag", name)) {
        return fail("consumer lag " + std::to_string(value) + " > " +
                    std::to_string(max_consumer_lag_) + " (" + name + ")");
      }
    }
  }
  AlertStatus slo = BuiltinStatus(*alerts_, FlightEventType::kSloBreach);
  if (!slo.firing.empty()) {
    return fail("job " + slo.subject + ": freshness lag " +
                std::to_string(static_cast<int64_t>(slo.value)) +
                "ms over latency SLO " + std::to_string(slo_ms_) + "ms");
  }
  return readiness;
}

namespace {

// The resource-ledger fields, one table for both views of the ledger: /jobs
// (and SHOW JOBS JSON) renders each as a `key` per job, /metrics as a
// `samzasql_job_<key>` family (`_total` for counters) with one sample per
// job. Appended after the generic per-scope families so quota/chargeback
// dashboards can consume the ledger without reassembling it from container
// scopes.
struct LedgerField {
  const char* key;
  const char* type;
  const char* help;
  int64_t ResourceLedger::* member;
};
constexpr LedgerField kLedgerFields[] = {
    {"cpu_busy_ns", "counter",
     "Cumulative CPU busy nanoseconds across the job's containers",
     &ResourceLedger::cpu_busy_ns},
    {"rows_in", "counter", "Input messages processed by the job",
     &ResourceLedger::rows_in},
    {"rows_out", "counter", "Messages emitted by the job", &ResourceLedger::rows_out},
    {"bytes_in", "counter", "Input payload bytes fetched by the job",
     &ResourceLedger::bytes_in},
    {"bytes_out", "counter", "Payload bytes emitted by the job",
     &ResourceLedger::bytes_out},
    {"state_bytes", "gauge", "Resident task-local state bytes",
     &ResourceLedger::state_bytes},
    {"state_bytes_hwm", "gauge", "High-water mark of resident state bytes",
     &ResourceLedger::state_bytes_hwm},
    {"dlq_drops", "counter", "Messages skipped or dead-lettered by error policy",
     &ResourceLedger::dlq_drops},
    {"freshness_lag_ms", "gauge", "Age of the oldest unfetched input message",
     &ResourceLedger::freshness_lag_ms},
    {"backlog_bytes", "gauge", "Unfetched input payload bytes",
     &ResourceLedger::backlog_bytes},
    {"restarts", "counter", "Supervisor container restarts",
     &ResourceLedger::restarts},
    {"uptime_ms", "gauge", "Wall-clock ms since job start", &ResourceLedger::uptime_ms},
};

// The e2e latency summary's members, nested under `e2e_latency_us` in /jobs.
struct E2eField {
  const char* key;
  int64_t HistogramStats::* member;
};
constexpr E2eField kE2eFields[] = {
    {"count", &HistogramStats::count}, {"p50", &HistogramStats::p50},
    {"p95", &HistogramStats::p95},     {"p99", &HistogramStats::p99},
    {"max", &HistogramStats::max},
};

// The e2e latency distribution renders as a quantile-labeled summary.
std::string RenderJobLedgers(const std::vector<MonitorJobView>& views) {
  if (views.empty()) return "";
  std::ostringstream os;
  std::vector<std::pair<std::string, ResourceLedger>> ledgers;
  ledgers.reserve(views.size());
  for (const MonitorJobView& view : views) {
    ledgers.emplace_back(PrometheusLabelValue(view.name),
                         ComputeResourceLedger(view));
  }
  for (const LedgerField& field : kLedgerFields) {
    const std::string family = std::string("samzasql_job_") + field.key +
                               (field.type[0] == 'c' ? "_total" : "");
    os << "# HELP " << family << " " << field.help << "\n";
    os << "# TYPE " << family << " " << field.type << "\n";
    for (const auto& [job, ledger] : ledgers) {
      os << family << "{job=\"" << job << "\"} " << ledger.*field.member << "\n";
    }
  }
  os << "# HELP samzasql_job_e2e_latency_us "
        "Source-to-sink event latency in microseconds\n";
  os << "# TYPE samzasql_job_e2e_latency_us summary\n";
  for (const auto& [job, ledger] : ledgers) {
    os << "samzasql_job_e2e_latency_us{job=\"" << job
       << "\",quantile=\"0.5\"} " << ledger.e2e.p50 << "\n";
    os << "samzasql_job_e2e_latency_us{job=\"" << job
       << "\",quantile=\"0.95\"} " << ledger.e2e.p95 << "\n";
    os << "samzasql_job_e2e_latency_us{job=\"" << job
       << "\",quantile=\"0.99\"} " << ledger.e2e.p99 << "\n";
    os << "samzasql_job_e2e_latency_us_sum{job=\"" << job << "\"} "
       << ledger.e2e.sum << "\n";
    os << "samzasql_job_e2e_latency_us_count{job=\"" << job << "\"} "
       << ledger.e2e.count << "\n";
  }
  return os.str();
}

}  // namespace

std::string MonitorServer::RenderPrometheusText(
    const std::vector<MonitorJobView>& views) const {
  return RenderPrometheus(MergedSnapshot(views)) + RenderJobLedgers(views) +
         RenderBuildInfoPrometheus();
}

std::string MonitorServer::RenderJobsJson(
    const std::vector<MonitorJobView>& views) const {
  std::ostringstream os;
  os << "{\"ts_ms\":" << clock_->NowMillis() << ",\"jobs\":[";
  for (size_t i = 0; i < views.size(); ++i) {
    const MonitorJobView& view = views[i];
    const ResourceLedger ledger = ComputeResourceLedger(view);
    if (i) os << ",";
    os << "{\"name\":\"" << JsonEscape(view.name)
       << "\",\"containers_total\":" << view.containers_total
       << ",\"containers_running\":" << view.containers_running
       << ",\"processed\":" << view.processed;
    for (const LedgerField& field : kLedgerFields) {
      os << ",\"" << field.key << "\":" << ledger.*field.member;
    }
    const char* sep = ",\"e2e_latency_us\":{";
    for (const E2eField& field : kE2eFields) {
      os << sep << "\"" << field.key << "\":" << ledger.e2e.*field.member;
      sep = ",";
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

std::string RenderJobsTable(const std::vector<MonitorJobView>& views) {
  std::vector<std::string> header = {"name", "containers_total",
                                     "containers_running", "processed"};
  for (const LedgerField& field : kLedgerFields) header.push_back(field.key);
  for (const E2eField& field : kE2eFields) {
    header.push_back(std::string("e2e_latency_us.") + field.key);
  }
  std::vector<std::vector<std::string>> lines = {header};
  for (const MonitorJobView& view : views) {
    const ResourceLedger ledger = ComputeResourceLedger(view);
    std::vector<std::string> row = {view.name, std::to_string(view.containers_total),
                                    std::to_string(view.containers_running),
                                    std::to_string(view.processed)};
    for (const LedgerField& field : kLedgerFields) {
      row.push_back(std::to_string(ledger.*field.member));
    }
    for (const E2eField& field : kE2eFields) {
      row.push_back(std::to_string(ledger.e2e.*field.member));
    }
    lines.push_back(std::move(row));
  }
  std::vector<size_t> widths(header.size(), 0);
  for (const auto& line : lines) {
    for (size_t c = 0; c < line.size(); ++c) {
      widths[c] = std::max(widths[c], line[c].size());
    }
  }
  // The name column is left-aligned, the numbers right-aligned.
  std::ostringstream os;
  for (const auto& line : lines) {
    os << line[0] << std::string(widths[0] - line[0].size(), ' ');
    for (size_t c = 1; c < line.size(); ++c) {
      os << ' ' << std::string(widths[c] - line[c].size(), ' ') << line[c];
    }
    os << '\n';
  }
  return os.str();
}

HttpResponse MonitorServer::Handle(const HttpRequest& request) {
  // Keep history/alerts fresh even when nothing is driving jobs (an idle
  // executor scraped by Prometheus still advances on wall-clock ticks).
  // Every request reads the provider once: the tick's views when it ran.
  std::vector<MonitorJobView> views;
  const bool ticked = Tick(&views);
  HttpResponse res;
  if (request.path == "/metrics") {
    self_metrics_->GetCounter("monitor.scrapes").Inc();
    res.content_type = kPrometheusContentType;
    if (!ticked) views = Views();
    res.body = RenderPrometheusText(views);
  } else if (request.path == "/healthz") {
    res.body = "ok\n";
  } else if (request.path == "/readyz") {
    // Answer from the state at request time, with one evaluation pass: the
    // tick's when one just ran, else a pass of its own.
    if (!ticked) EvaluatePass(false, &views);
    Readiness readiness = CheckReadiness(views);
    if (readiness.ready) {
      res.body = "ready\n";
    } else {
      res.status = 503;
      res.body = "not ready: " + readiness.reason + "\n";
    }
  } else if (request.path == "/jobs") {
    res.content_type = "application/json";
    if (!ticked) views = Views();
    res.body = RenderJobsJson(views);
  } else if (request.path == "/history") {
    res.content_type = "application/json";
    res.body = history_.ToJson(QueryParam(request.query, "job"));
  } else if (request.path == "/alerts") {
    res.content_type = "application/json";
    res.body = alerts_->ToJson(clock_->NowMillis());
  } else if (request.path == "/debug/profile") {
    // On-demand profile burst: sample every thread's operator-label stack
    // for ?seconds=N (default 1, capped) at ?hz=H, then return collapsed
    // stacks ready for flamegraph.pl. A background sampler keeps running;
    // in that case the response reports its accumulated samples instead.
    int64_t seconds = std::atol(QueryParam(request.query, "seconds").c_str());
    if (seconds <= 0) seconds = 1;
    seconds = std::min<int64_t>(seconds, 30);
    double hz = std::atof(QueryParam(request.query, "hz").c_str());
    if (hz <= 0) hz = kProfileBurstHz;
    Profiler& prof = Profiler::Instance();
    if (!prof.sampling()) {
      prof.ClearSamples();
      (void)prof.SampleFor(seconds * 1000, hz);
    }
    res.body = prof.CollapsedStacks();
    if (res.body.empty()) res.body = "# no samples\n";
  } else if (request.path == "/debug/events") {
    res.content_type = "application/x-ndjson";
    res.body =
        FlightRecorder::Instance().DumpJsonLines(QueryParam(request.query, "job"));
  } else if (request.path == "/") {
    res.body =
        "samzasql monitor\n"
        "  /metrics   Prometheus text exposition\n"
        "  /healthz   liveness\n"
        "  /readyz    readiness (containers + lag thresholds + latency SLO)\n"
        "  /jobs      submitted jobs + resource ledgers (JSON)\n"
        "  /history   metrics history ring (JSON, ?job=<prefix>)\n"
        "  /alerts    alert engine state (JSON)\n"
        "  /debug/profile  profile burst, collapsed stacks (?seconds=N&hz=H)\n"
        "  /debug/events   flight-recorder ring (JSON lines, ?job=<prefix>)\n";
  } else {
    res.status = 404;
    res.body = "not found: " + request.path + "\n";
  }
  return res;
}

}  // namespace sqs
