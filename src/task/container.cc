#include "task/container.h"

#include <iostream>

#include "common/flightrec.h"
#include "common/latency.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/tracing.h"

namespace sqs {

namespace {

// Collector bound to a task instance; keyed sends hash-partition, partition-
// preserving sends reuse the input partition id. Every successful send is
// accounted against the container's resource ledger (rows/bytes out), and —
// when an ambient ingest stamp is live — its source-to-sink latency lands in
// the job's e2e histogram (docs/LATENCY.md).
class ProducerCollector : public MessageCollector {
 public:
  ProducerCollector(Producer& producer, Counter* rows_out, Counter* bytes_out,
                    Histogram* e2e_us)
      : producer_(producer),
        rows_out_(rows_out),
        bytes_out_(bytes_out),
        e2e_us_(e2e_us) {}

  Status Send(const std::string& topic, Bytes key, Bytes value) override {
    int64_t bytes = static_cast<int64_t>(key.size() + value.size());
    auto r = producer_.Send(topic, std::move(key), std::move(value));
    if (!r.ok()) return r.status();
    Account(bytes);
    return Status::Ok();
  }

  Status SendToPartition(const std::string& topic, int32_t partition, Bytes key,
                         Bytes value) override {
    int64_t bytes = static_cast<int64_t>(key.size() + value.size());
    auto r = producer_.SendTo({topic, partition}, std::move(key), std::move(value));
    if (!r.ok()) return r.status();
    Account(bytes);
    return Status::Ok();
  }

 private:
  void Account(int64_t bytes) const {
    if (rows_out_ != nullptr) rows_out_->Inc();
    if (bytes_out_ != nullptr) bytes_out_->Inc(bytes);
    if (e2e_us_ != nullptr) {
      // The producer already stamped this send's append time; its gap to the
      // inherited ingest stamp is the source-to-sink latency, with no extra
      // clock read on the hot path. -1 means unstamped or a fresh lineage.
      int64_t e2e = producer_.last_e2e_us();
      if (e2e >= 0) e2e_us_->Record(e2e);
    }
  }

  Producer& producer_;
  Counter* rows_out_;
  Counter* bytes_out_;
  Histogram* e2e_us_;
};

}  // namespace

Result<TaskErrorPolicy> ParseTaskErrorPolicy(const std::string& value) {
  if (value.empty() || value == "fail") return TaskErrorPolicy::kFail;
  if (value == "skip") return TaskErrorPolicy::kSkip;
  if (value == "dead-letter") return TaskErrorPolicy::kDeadLetter;
  return Status::InvalidArgument("task.error.policy must be fail|skip|dead-letter, got: " +
                                 value);
}

Result<DeliveryMode> ParseDeliveryMode(const std::string& value) {
  if (value.empty() || value == "at-least-once") return DeliveryMode::kAtLeastOnce;
  if (value == "exactly-once") return DeliveryMode::kExactlyOnce;
  return Status::InvalidArgument(
      "task.delivery must be at-least-once|exactly-once, got: " + value);
}

Result<TaskCorruptPolicy> ParseTaskCorruptPolicy(const std::string& value) {
  if (value.empty() || value == "fail") return TaskCorruptPolicy::kFail;
  if (value == "dead-letter") return TaskCorruptPolicy::kDeadLetter;
  return Status::InvalidArgument(
      "task.corrupt.policy must be fail|dead-letter, got: " + value);
}

Bytes EncodeDeadLetter(const DeadLetterRecord& record) {
  BytesWriter w(64);
  w.WriteString(record.task_name);
  w.WriteString(record.origin.topic);
  w.WriteVarint(record.origin.partition);
  w.WriteVarint(record.offset);
  w.WriteString(record.error);
  w.WriteBytes(record.key);
  w.WriteBytes(record.value);
  // Trace context appended last so records written before it existed still
  // decode (the reader checks AtEnd()).
  w.WriteFixed64(record.trace.trace_id);
  w.WriteFixed64(record.trace.span_id);
  w.WriteBool(record.trace.sampled);
  return w.Take();
}

Result<DeadLetterRecord> DecodeDeadLetter(const Bytes& bytes) {
  BytesReader r(bytes);
  DeadLetterRecord rec;
  SQS_ASSIGN_OR_RETURN(task_name, r.ReadString());
  rec.task_name = std::move(task_name);
  SQS_ASSIGN_OR_RETURN(topic, r.ReadString());
  rec.origin.topic = std::move(topic);
  SQS_ASSIGN_OR_RETURN(partition, r.ReadVarint());
  rec.origin.partition = static_cast<int32_t>(partition);
  SQS_ASSIGN_OR_RETURN(offset, r.ReadVarint());
  rec.offset = offset;
  SQS_ASSIGN_OR_RETURN(error, r.ReadString());
  rec.error = std::move(error);
  SQS_ASSIGN_OR_RETURN(key, r.ReadBytes());
  rec.key = std::move(key);
  SQS_ASSIGN_OR_RETURN(value, r.ReadBytes());
  rec.value = std::move(value);
  if (!r.AtEnd()) {
    SQS_ASSIGN_OR_RETURN(trace_id, r.ReadFixed64());
    rec.trace.trace_id = trace_id;
    SQS_ASSIGN_OR_RETURN(span_id, r.ReadFixed64());
    rec.trace.span_id = span_id;
    SQS_ASSIGN_OR_RETURN(sampled, r.ReadBool());
    rec.trace.sampled = sampled;
  }
  return rec;
}

// One task instance: the user task, its stores, and its commit bookkeeping.
struct Container::TaskInstance : public TaskContext, public TaskCoordinator {
  TaskModel model;
  std::unique_ptr<StreamTask> task;
  std::map<std::string, std::shared_ptr<ChangelogBackedStore>> stores;
  // Next-offset-to-process per input partition (what gets checkpointed).
  Checkpoint processed_positions;
  int64_t since_commit = 0;
  bool commit_requested = false;
  Container* container = nullptr;
  // Exactly-once: the task's own idempotent producer, registered as
  // `<job>.<task>` so a restart bumps this task's epoch and fences its
  // pre-crash zombie; sequences resume from the transactional checkpoint.
  // Null in at-least-once mode (sends go through the container producer).
  std::unique_ptr<Producer> producer;
  // Precomputed `<job>.<task>` span scope (avoids per-message allocation).
  std::string trace_scope;
  // `<job>.<task>.dropped`: messages discarded by skip/dead-letter policy.
  Counter* dropped = nullptr;

  // TaskContext
  const std::string& task_name() const override { return model.task_name; }
  int32_t partition_id() const override { return model.partition_id; }
  const Config& config() const override { return container->config_; }
  MetricsRegistry& metrics() override { return *container->metrics_; }
  std::shared_ptr<Clock> clock() override { return container->clock_; }
  KeyValueStorePtr GetStore(const std::string& name) override {
    auto it = stores.find(name);
    return it == stores.end() ? nullptr : it->second;
  }

  // TaskCoordinator
  void RequestCommit() override { commit_requested = true; }
  void RequestShutdown() override { container->shutdown_requested_ = true; }
};

Container::Container(BrokerPtr broker, Config config, ContainerModel model,
                     std::shared_ptr<Clock> clock,
                     std::shared_ptr<MetricsRegistry> metrics)
    : broker_(std::move(broker)),
      config_(std::move(config)),
      model_(std::move(model)),
      clock_(clock ? std::move(clock) : SystemClock::Instance()),
      metrics_(metrics ? std::move(metrics) : std::make_shared<MetricsRegistry>()) {}

Container::~Container() = default;

Status Container::InitTask(TaskInstance& task) {
  // The full transactional checkpoint is read up front: input positions
  // seed the consumers, changelog high-watermarks bound store restore, and
  // producer sequences resume the idempotent producer — all from the same
  // atomic record, so the three views cannot disagree.
  SQS_ASSIGN_OR_RETURN(checkpoint,
                       checkpoints_->ReadLastTaskCheckpoint(task.model.task_name));

  if (delivery_ == DeliveryMode::kExactlyOnce) {
    task.producer = std::make_unique<Producer>(broker_, clock_);
    task.producer->SetRetryPolicy(retry_policy_);
    task.producer->BindRetryMetrics(m_send_retries_, m_send_giveups_,
                                    m_send_giveup_deadline_);
    task.producer->BindFencingMetric(m_fenced_);
    // Registering under the task name bumps the epoch past any pre-crash
    // incarnation of this task: its in-flight appends are fenced from here.
    SQS_RETURN_IF_ERROR(task.producer->EnableIdempotence(
        config_.Get(cfg::kJobName, "job") + "." + task.model.task_name));
    task.producer->ResumeSequences(checkpoint.producer_sequences);
  }

  // Managed stores: stores.<name>.changelog=<topic>. The changelog topic is
  // created on demand with the same partition count as the job's inputs, and
  // this task uses the partition matching its partition id.
  auto store_props = config_.Subset(cfg::kStoresPrefix);
  std::map<std::string, std::string> changelogs;  // store name -> topic
  for (const auto& [key, value] : store_props) {
    size_t dot = key.find('.');
    if (dot == std::string::npos) continue;
    if (key.substr(dot + 1) == "changelog") changelogs[key.substr(0, dot)] = value;
  }
  for (const auto& [store_name, changelog_topic] : changelogs) {
    if (!broker_->HasTopic(changelog_topic)) {
      TopicConfig tc;
      SQS_ASSIGN_OR_RETURN(nparts,
                           broker_->NumPartitions(task.model.input_partitions[0].topic));
      tc.num_partitions = nparts;
      tc.compacted = true;
      Status st = broker_->CreateTopic(changelog_topic, tc);
      if (!st.ok() && st.code() != ErrorCode::kAlreadyExists) return st;
    }
    KeyValueStorePtr backing = std::make_shared<InMemoryStore>();
    int64_t store_latency = config_.GetInt(cfg::kStoreAccessLatencyNanos, 0);
    if (store_latency > 0) {
      backing = std::make_shared<LatencyStore>(std::move(backing), store_latency);
    }
    auto store = std::make_shared<ChangelogBackedStore>(
        std::move(backing), broker_,
        StreamPartition{changelog_topic, task.model.partition_id});
    // `<job>.<task>.store.<name>.changelog_{writes,bytes}`. Restore() writes
    // straight to the backing store, so replay volume is not counted.
    ScopedMetrics store_scope =
        ScopedMetrics(metrics_.get(), config_.Get(cfg::kJobName, "job"))
            .Sub(task.model.task_name)
            .Sub("store")
            .Sub(store_name);
    store->BindMetrics(&store_scope.counter("changelog_writes"),
                       &store_scope.counter("changelog_bytes"));
    store->SetRetryPolicy(retry_policy_);
    store->BindRetryMetrics(m_changelog_retries_, m_changelog_giveups_,
                            m_changelog_giveup_deadline_);
    // Exactly-once truncates the replay at the checkpointed high-watermark:
    // changelog records appended after the last commit belong to input the
    // restart will reprocess, so replaying them would double-apply state.
    // At-least-once keeps the full replay (state may run ahead of offsets,
    // which replay then reconciles — the duplicate-output case).
    int64_t restore_to = -1;
    if (delivery_ == DeliveryMode::kExactlyOnce) {
      auto hwm = checkpoint.changelog_offsets.find(
          StreamPartition{changelog_topic, task.model.partition_id});
      restore_to = hwm == checkpoint.changelog_offsets.end() ? 0 : hwm->second;
    }
    SQS_RETURN_IF_ERROR(store->Restore(restore_to));
    task.stores[store_name] = std::move(store);
  }

  // Consumer positions: last checkpoint, else log start.
  for (const StreamPartition& sp : task.model.input_partitions) {
    int64_t offset;
    auto it = checkpoint.input_offsets.find(sp);
    if (it != checkpoint.input_offsets.end()) {
      offset = it->second;
    } else {
      SQS_ASSIGN_OR_RETURN(begin, broker_->BeginOffset(sp));
      offset = begin;
    }
    task.processed_positions[sp] = offset;
    bool is_bootstrap = false;
    for (const StreamPartition& b : task.model.bootstrap_partitions) {
      if (b == sp) {
        is_bootstrap = true;
        break;
      }
    }
    SQS_RETURN_IF_ERROR(
        (is_bootstrap ? *bootstrap_consumer_ : *consumer_).Assign(sp, offset));
    dispatch_[sp] = &task;
  }

  SQS_RETURN_IF_ERROR(task.task->Init(task));
  return Status::Ok();
}

Status Container::Start() {
  if (started_) return Status::StateError("container already started");

  ApplyLogConfig(config_);
  // Forensics config: flight-recorder toggle/ring size, crash-dump path +
  // handlers, optional always-on sampling profiler. Process-global like the
  // tracer, so only touch what this job's config actually sets.
  if (config_.Has(cfg::kFlightRecEnable)) {
    FlightRecorder::Instance().SetEnabled(
        config_.GetBool(cfg::kFlightRecEnable, true));
  }
  if (config_.Has(cfg::kFlightRecRingEvents)) {
    FlightRecorder::Instance().SetRingCapacity(static_cast<size_t>(
        config_.GetInt(cfg::kFlightRecRingEvents,
                       static_cast<int64_t>(FlightRecorder::kDefaultRingEvents))));
  }
  std::string dump_path = config_.Get(cfg::kFlightRecDumpPath);
  if (!dump_path.empty()) {
    SetCrashDumpPath(dump_path);
    InstallCrashHandlers();
  }
  double profile_hz = config_.GetDouble(cfg::kProfileHz, 0.0);
  if (profile_hz > 0 && !Profiler::Instance().sampling()) {
    SQS_RETURN_IF_ERROR(Profiler::Instance().StartSampling(profile_hz));
  }
  flight_scope_ = config_.Get(cfg::kJobName, "job") + ".container" +
                  std::to_string(model_.container_id);
  // Latency stamping is process-global like the tracer (stamps cross job
  // boundaries); only touch it when this job's config carries the key.
  if (config_.Has(cfg::kLatencyStampingEnable)) {
    SetLatencyStampingEnabled(config_.GetBool(cfg::kLatencyStampingEnable, true));
  }
  // The tracer is process-global (traces cross job boundaries); only touch
  // it when this job's config actually carries a tracing key, so a job
  // without one does not reset a rate the shell (EXPLAIN ANALYZE) enabled.
  if (config_.Has(cfg::kTracingSampleRate)) {
    Tracer::Instance().Configure(
        config_.GetDouble(cfg::kTracingSampleRate, 0.0),
        static_cast<size_t>(config_.GetInt(
            cfg::kTracingBufferSpans,
            static_cast<int64_t>(Tracer::kDefaultCapacity))));
  }

  producer_ = std::make_unique<Producer>(broker_, clock_);
  int32_t max_poll =
      static_cast<int32_t>(config_.GetInt(cfg::kMaxPollMessages, 256));
  consumer_ = std::make_unique<Consumer>(broker_, max_poll);
  bootstrap_consumer_ = std::make_unique<Consumer>(broker_, max_poll);
  int32_t per_part =
      static_cast<int32_t>(config_.GetInt(cfg::kMaxFetchPerPartition, 0));
  if (per_part > 0) {
    consumer_->SetMaxFetchPerPartition(per_part);
    bootstrap_consumer_->SetMaxFetchPerPartition(per_part);
  }
  int64_t poll_latency = config_.GetInt(cfg::kPollLatencyNanos, 0);
  if (poll_latency > 0) {
    consumer_->SetPollLatencyNanos(poll_latency);
    bootstrap_consumer_->SetPollLatencyNanos(poll_latency);
  }
  if (config_.Get(cfg::kPollLatencyModel, "spin") == "sleep") {
    consumer_->SetPollLatencyModel(Broker::LatencyModel::kSleep);
    bootstrap_consumer_->SetPollLatencyModel(Broker::LatencyModel::kSleep);
  }

  std::string cp_topic = config_.Get(cfg::kCheckpointTopic,
                                     "__checkpoint_" + config_.Get(cfg::kJobName, "job"));
  checkpoints_ = std::make_unique<CheckpointManager>(broker_, cp_topic);
  SQS_RETURN_IF_ERROR(checkpoints_->Start());

  SQS_ASSIGN_OR_RETURN(policy,
                       ParseTaskErrorPolicy(config_.Get(cfg::kTaskErrorPolicy)));
  error_policy_ = policy;
  SQS_ASSIGN_OR_RETURN(delivery, ParseDeliveryMode(config_.Get(cfg::kTaskDelivery)));
  delivery_ = delivery;
  SQS_ASSIGN_OR_RETURN(corrupt_policy,
                       ParseTaskCorruptPolicy(config_.Get(cfg::kTaskCorruptPolicy)));
  corrupt_policy_ = corrupt_policy;
  dlq_topic_ = config_.Get(cfg::kTaskDlqTopic,
                           config_.Get(cfg::kJobName, "job") + ".dlq");

  // Container-scoped instruments: `<job>.container<ID>.*`.
  ScopedMetrics cscope =
      ScopedMetrics(metrics_.get(), config_.Get(cfg::kJobName, "job"))
          .Sub("container" + std::to_string(model_.container_id));
  m_processed_ = &cscope.counter("processed");
  m_commits_ = &cscope.counter("commits");
  m_busy_ns_ = &cscope.timer("busy_ns");
  m_process_latency_ns_ = &cscope.histogram("process_latency_ns");
  checkpoints_->BindMetrics(&cscope.counter("checkpoint_writes"),
                            &cscope.counter("checkpoint_bytes"));
  // Resource-ledger instruments (docs/LATENCY.md): I/O volume, state
  // footprint, and freshness/backlog rollups per container; the e2e/dwell
  // latency histograms are job-scoped so every container of the job records
  // into one pair (the registry is shared across the job's containers).
  m_rows_out_ = &cscope.counter("rows_out");
  m_bytes_in_ = &cscope.counter("bytes_in");
  m_bytes_out_ = &cscope.counter("bytes_out");
  m_state_bytes_ = &cscope.gauge("state_bytes");
  m_state_bytes_hwm_ = &cscope.gauge("state_bytes_hwm");
  m_freshness_ms_ = &cscope.gauge("freshness_lag_ms");
  m_backlog_bytes_ = &cscope.gauge("backlog_bytes");
  ScopedMetrics jscope(metrics_.get(), config_.Get(cfg::kJobName, "job"));
  m_e2e_us_ = &jscope.histogram("e2e_latency_us");
  m_dwell_us_ = &jscope.histogram("dwell_queue_us");

  // One retry budget for every broker data path this container owns:
  // produce, poll, changelog mirror/restore, checkpoint read/write. Retry
  // pressure is counted per operation under
  // `<job>.container<ID>.retry.<op>.{retries,giveups}` — /metrics renders
  // these as one samzasql_retries_total/samzasql_giveups_total family with
  // an `op` label (docs/FAULT_TOLERANCE.md).
  retry_policy_ = RetryPolicy::FromConfig(config_);
  ScopedMetrics rscope = cscope.Sub("retry");
  ScopedMetrics send_scope = rscope.Sub("send");
  m_send_retries_ = &send_scope.counter("retries");
  m_send_giveups_ = &send_scope.counter("giveups");
  m_send_giveup_deadline_ = &send_scope.counter("giveup_deadline");
  ScopedMetrics fetch_scope = rscope.Sub("fetch");
  m_fetch_retries_ = &fetch_scope.counter("retries");
  m_fetch_giveups_ = &fetch_scope.counter("giveups");
  m_fetch_giveup_deadline_ = &fetch_scope.counter("giveup_deadline");
  ScopedMetrics changelog_scope = rscope.Sub("changelog");
  m_changelog_retries_ = &changelog_scope.counter("retries");
  m_changelog_giveups_ = &changelog_scope.counter("giveups");
  m_changelog_giveup_deadline_ = &changelog_scope.counter("giveup_deadline");
  ScopedMetrics checkpoint_scope = rscope.Sub("checkpoint");
  m_checkpoint_retries_ = &checkpoint_scope.counter("retries");
  m_checkpoint_giveups_ = &checkpoint_scope.counter("giveups");
  m_checkpoint_giveup_deadline_ = &checkpoint_scope.counter("giveup_deadline");
  m_fenced_ = &cscope.counter("producer_fenced");
  m_corrupt_ = &cscope.counter("corrupt_records");
  m_dups_dropped_ = &cscope.gauge("broker_dups_dropped");
  producer_->SetRetryPolicy(retry_policy_);
  producer_->BindRetryMetrics(m_send_retries_, m_send_giveups_,
                              m_send_giveup_deadline_);
  producer_->BindFencingMetric(m_fenced_);
  for (Consumer* c : {consumer_.get(), bootstrap_consumer_.get()}) {
    c->SetRetryPolicy(retry_policy_);
    c->BindRetryMetrics(m_fetch_retries_, m_fetch_giveups_,
                        m_fetch_giveup_deadline_);
  }
  checkpoints_->SetRetryPolicy(retry_policy_);
  checkpoints_->BindRetryMetrics(m_checkpoint_retries_, m_checkpoint_giveups_,
                                 m_checkpoint_giveup_deadline_);

  int64_t report_interval = config_.GetInt(cfg::kMetricsReporterIntervalMs, 0);
  if (report_interval > 0) {
    std::string path = config_.Get(cfg::kMetricsReporterPath);
    if (!path.empty()) {
      reporter_ = std::make_unique<MetricsReporter>(
          metrics_, path, report_interval,
          config_.GetInt(cfg::kMetricsReporterMaxBytes, 0), clock_);
    } else {
      reporter_ = std::make_unique<MetricsReporter>(metrics_, &std::cerr,
                                                    report_interval, clock_);
    }
  }

  commit_every_ = config_.GetInt(cfg::kCommitEveryMessages, 0);
  batch_max_ = config_.GetInt(cfg::kBatchMaxMessages, 256);
  if (batch_max_ < 1) batch_max_ = 1;
  window_ms_ = config_.GetInt(cfg::kWindowMs, 0);
  last_window_fire_ms_ = clock_->NowMillis();

  std::string factory_name = config_.Get(cfg::kTaskFactory);
  if (factory_name.empty()) return Status::InvalidArgument("task.factory not set");
  SQS_ASSIGN_OR_RETURN(factory, TaskFactoryRegistry::Instance().Get(factory_name));

  for (const TaskModel& tm : model_.tasks) {
    auto instance = std::make_unique<TaskInstance>();
    instance->model = tm;
    instance->container = this;
    instance->trace_scope =
        config_.Get(cfg::kJobName, "job") + "." + tm.task_name;
    instance->dropped =
        &ScopedMetrics(metrics_.get(), config_.Get(cfg::kJobName, "job"))
             .Sub(tm.task_name)
             .counter("dropped");
    instance->task = factory();
    if (!instance->task) return Status::Internal("task factory returned null");
    SQS_RETURN_IF_ERROR(InitTask(*instance));
    tasks_.push_back(std::move(instance));
  }

  // Per assigned partition: message-count lag, freshness lag (ms), and
  // backlog (bytes) gauges — `<job>.container<ID>.{lag,freshness,backlog}.
  // <topic>.<P>`.
  for (const Consumer* c : {consumer_.get(), bootstrap_consumer_.get()}) {
    for (const auto& [sp, pos] : c->assignments()) {
      (void)pos;
      lag_gauges_[sp] =
          &cscope.Sub("lag").Sub(sp.topic).gauge(std::to_string(sp.partition));
      freshness_gauges_[sp] = &cscope.Sub("freshness")
                                   .Sub(sp.topic)
                                   .gauge(std::to_string(sp.partition));
      backlog_gauges_[sp] = &cscope.Sub("backlog")
                                 .Sub(sp.topic)
                                 .gauge(std::to_string(sp.partition));
    }
  }
  SQS_RETURN_IF_ERROR(UpdateLagGauges());
  // Issue the first fetch now, so the first turn finds it due.
  SQS_ASSIGN_OR_RETURN(bs_caught_up, bootstrap_consumer_->CaughtUp());
  (bs_caught_up ? consumer_ : bootstrap_consumer_)->Prefetch();

  started_ = true;
  last_heartbeat_ms_.store(clock_->NowMillis(), std::memory_order_relaxed);
  FlightRecorder::Record(FlightEventType::kContainerStart, flight_scope_, "",
                         static_cast<int64_t>(tasks_.size()));
  SQS_INFOC("container", "container started",
            {"job", config_.Get(cfg::kJobName, "job")},
            {"id", std::to_string(model_.container_id)},
            {"tasks", std::to_string(tasks_.size())});
  return Status::Ok();
}

Status Container::UpdateLagGauges() {
  for (const Consumer* c : {consumer_.get(), bootstrap_consumer_.get()}) {
    SQS_ASSIGN_OR_RETURN(lags, c->PerPartitionLag());
    for (const auto& [sp, lag] : lags) {
      auto it = lag_gauges_.find(sp);
      if (it != lag_gauges_.end()) it->second->Set(lag);
    }
  }
  // Freshness / backlog accounting (docs/LATENCY.md): for each assigned
  // partition, how many payload bytes sit unfetched past the consumer's
  // position and how stale the oldest of them is. Rollups: max freshness
  // (the partition furthest behind bounds the job's answer staleness) and
  // summed backlog bytes.
  int64_t max_freshness = 0;
  int64_t total_backlog = 0;
  int64_t now_ms = clock_->NowMillis();
  for (const Consumer* c : {consumer_.get(), bootstrap_consumer_.get()}) {
    for (const auto& [sp, pos] : c->assignments()) {
      SQS_ASSIGN_OR_RETURN(backlog, broker_->BacklogFrom(sp, pos));
      int64_t freshness =
          backlog.oldest_append_ms >= 0
              ? std::max<int64_t>(0, now_ms - backlog.oldest_append_ms)
              : 0;
      auto fit = freshness_gauges_.find(sp);
      if (fit != freshness_gauges_.end()) fit->second->Set(freshness);
      auto bit = backlog_gauges_.find(sp);
      if (bit != backlog_gauges_.end()) bit->second->Set(backlog.bytes);
      max_freshness = std::max(max_freshness, freshness);
      total_backlog += backlog.bytes;
    }
  }
  if (m_freshness_ms_ != nullptr) m_freshness_ms_->Set(max_freshness);
  if (m_backlog_bytes_ != nullptr) m_backlog_bytes_->Set(total_backlog);
  // State footprint: resident store bytes across this container's tasks,
  // with a container-lifetime high-water mark for the resource ledger.
  int64_t state_bytes = 0;
  for (const auto& task : tasks_) {
    for (const auto& [name, store] : task->stores) {
      (void)name;
      state_bytes += store->SizeBytes();
    }
  }
  if (state_bytes > state_hwm_) state_hwm_ = state_bytes;
  if (m_state_bytes_ != nullptr) m_state_bytes_->Set(state_bytes);
  if (m_state_bytes_hwm_ != nullptr) m_state_bytes_hwm_->Set(state_hwm_);
  // Broker-wide duplicate-drop total (idempotent dedup activity); sampled
  // here so it moves with the same cadence as the lag gauges.
  if (m_dups_dropped_ != nullptr) m_dups_dropped_->Set(broker_->dups_dropped());
  return Status::Ok();
}

Producer& Container::TaskProducer(TaskInstance& task) {
  return task.producer ? *task.producer : *producer_;
}

Status Container::ProcessOne(TaskInstance& task, const IncomingMessage& msg) {
  ProducerCollector collector(TaskProducer(task), m_rows_out_, m_bytes_out_,
                              m_e2e_us_);
  // Sends issued by Process (including a dead-letter route) inherit the
  // input's ingest stamp.
  IngestScope ingest(msg.message.ingest_us);
  // Per-message span. A message stamped by a producer continues its
  // trace; an untraced message (pre-existing log data) is a
  // head-sampling point, so ingest-rooted traces work on topics written
  // before tracing was on.
  TraceContext parent = msg.message.trace;
  if (!parent.valid()) parent = Tracer::Instance().MaybeStartTrace();
  TraceSpan span(parent, "process", task.trace_scope, msg.origin.partition);
  int64_t t0 = MonotonicNanos();
  Status process_st = task.task->Process(msg, collector, task);
  if (!process_st.ok()) {
    // Transient broker trouble must crash-and-recover, never be dropped:
    // the message itself is fine and replay will succeed. The same goes
    // for a fenced send — a newer incarnation of this task owns the
    // output now, and this container must die without checkpointing.
    // Only data errors are poison, so only they go through the policy.
    if (process_st.code() == ErrorCode::kUnavailable ||
        process_st.code() == ErrorCode::kFenced) {
      return process_st;
    }
    SQS_RETURN_IF_ERROR(HandleProcessError(task, msg, process_st));
  }
  if (m_process_latency_ns_ != nullptr) {
    m_process_latency_ns_->Record(MonotonicNanos() - t0);
  }
  return Status::Ok();
}

Result<int64_t> Container::ProcessBatch(const std::vector<IncomingMessage>& batch) {
  // Fetch-side ledger pass: input payload bytes, and — for stamped
  // messages — broker-queue dwell (now minus this hop's append time).
  int64_t dwell_now_us =
      (m_dwell_us_ != nullptr && LatencyStampingEnabled()) ? clock_->NowMicros()
                                                           : 0;
  if (m_bytes_in_ != nullptr || dwell_now_us > 0) {
    for (const IncomingMessage& im : batch) {
      if (m_bytes_in_ != nullptr) {
        m_bytes_in_->Inc(static_cast<int64_t>(im.message.key.size() +
                                              im.message.value.size()));
      }
      if (dwell_now_us > 0 && im.message.append_us > 0 &&
          (dwell_sample_seq_++ & 15) == 0) {
        m_dwell_us_->Record(
            std::max<int64_t>(0, dwell_now_us - im.message.append_us));
      }
    }
  }
  int64_t processed = 0;
  size_t b = 0;
  while (b < batch.size()) {
    const IncomingMessage& first = batch[b];
    auto it = dispatch_.find(first.origin);
    if (it == dispatch_.end()) {
      return Status::Internal("no task for partition " + first.origin.ToString());
    }
    TaskInstance& task = *it->second;

    // End-to-end integrity gate: a stamped message whose payload no longer
    // matches its CRC32C never reaches Process. Under the fail policy the
    // container crashes and the replay refetches (transient corruption
    // heals); under dead-letter the record is preserved with provenance.
    if (!MessageCrcValid(first.message)) {
      if (m_corrupt_ != nullptr) m_corrupt_->Inc();
      Status bad = Status::DataLoss("crc mismatch on " + first.origin.ToString() +
                                    "@" + std::to_string(first.offset));
      if (corrupt_policy_ == TaskCorruptPolicy::kFail) return bad;
      SQS_RETURN_IF_ERROR(
          ApplyErrorPolicy(TaskErrorPolicy::kDeadLetter, task, first, bad));
    } else if (first.message.trace.valid()) {
      // Producer-traced messages keep the legacy per-message span chain
      // (produce -> process -> operator spans) at message granularity.
      SQS_RETURN_IF_ERROR(ProcessOne(task, first));
    } else {
      // Batch path: slice off the longest contiguous run of CRC-valid,
      // untraced messages owned by this task, capped by
      // task.batch.max.messages and by the commit cadence (so
      // task.commit.max.messages boundaries land exactly where the
      // per-message loop would put them).
      size_t limit = static_cast<size_t>(batch_max_);
      if (commit_every_ > 0) {
        int64_t room = commit_every_ - task.since_commit;
        if (room < 1) room = 1;
        if (static_cast<size_t>(room) < limit) limit = static_cast<size_t>(room);
      }
      size_t end = b + 1;
      while (end < batch.size() && end - b < limit) {
        const IncomingMessage& m = batch[end];
        if (m.message.trace.valid() || !MessageCrcValid(m.message)) break;
        auto it2 = dispatch_.find(m.origin);
        if (it2 == dispatch_.end() || it2->second != &task) break;
        ++end;
      }
      const size_t len = end - b;

      ProducerCollector collector(TaskProducer(task), m_rows_out_,
                                  m_bytes_out_, m_e2e_us_);
      // One "process" span per run: head-sampling moves to batch
      // granularity for untraced traffic (see docs/EXECUTION.md).
      TraceContext parent = Tracer::Instance().MaybeStartTrace();
      size_t consumed = 0;
      Status st;
      int64_t t0 = MonotonicNanos();
      {
        TraceSpan span(parent, "process", task.trace_scope,
                       first.origin.partition);
        st = task.task->ProcessBatch(&batch[b], len, collector, task, &consumed);
      }
      if (m_process_latency_ns_ != nullptr) {
        m_process_latency_ns_->Record(MonotonicNanos() - t0);
      }
      // Batch-run boundary: the flight recorder's record of forward
      // progress (a = messages consumed, b = source partition).
      FlightRecorder::Record(FlightEventType::kBatchRun, task.trace_scope, "",
                             static_cast<int64_t>(consumed),
                             first.origin.partition);
      if (st.ok() && consumed != len) {
        return Status::Internal("task ProcessBatch consumed " +
                                std::to_string(consumed) + " of " +
                                std::to_string(len) + " without error");
      }
      // Fully-processed prefix: advance positions and cadence counters.
      for (size_t i = b; i < b + consumed; ++i) {
        task.processed_positions[batch[i].origin] = batch[i].offset + 1;
      }
      task.since_commit += static_cast<int64_t>(consumed);
      processed += static_cast<int64_t>(consumed);
      b += consumed;
      if (!st.ok()) {
        if (st.code() == ErrorCode::kUnavailable ||
            st.code() == ErrorCode::kFenced) {
          return st;
        }
        // `consumed` names the failing message; everything before it was
        // fully processed (sends issued), so the error policy applies to
        // exactly one record and the loop resumes right after it.
        const IncomingMessage& failing = batch[b];
        SQS_RETURN_IF_ERROR(HandleProcessError(task, failing, st));
        task.processed_positions[failing.origin] = failing.offset + 1;
        task.since_commit++;
        ++processed;
        ++b;
      }
      // A killed container stops mid-batch without its cadence commit:
      // in-memory progress past the last checkpoint is lost, exactly like a
      // process kill between commits.
      if (KillRequested()) break;
      if (task.commit_requested ||
          (commit_every_ > 0 && task.since_commit >= commit_every_)) {
        SQS_RETURN_IF_ERROR(CommitTask(task));
      }
      if (shutdown_requested_) break;
      continue;
    }

    // Solo (CRC-handled or traced) message bookkeeping.
    task.processed_positions[first.origin] = first.offset + 1;
    task.since_commit++;
    ++processed;
    ++b;
    if (KillRequested()) break;
    if (task.commit_requested ||
        (commit_every_ > 0 && task.since_commit >= commit_every_)) {
      SQS_RETURN_IF_ERROR(CommitTask(task));
    }
    if (shutdown_requested_) break;
  }
  // Surface sticky changelog failures at batch granularity: the commit gate
  // alone would let a task compute on a store that is dropping writes until
  // the next commit boundary — which, with commits disabled, is shutdown.
  for (const auto& task : tasks_) {
    for (const auto& [name, store] : task->stores) {
      Status health = store->health();
      if (!health.ok()) {
        return Status(health.code(),
                      "store '" + name + "' unhealthy: " + health.message());
      }
    }
  }
  return processed;
}

Status Container::HandleProcessError(TaskInstance& task, const IncomingMessage& msg,
                                     const Status& error) {
  return ApplyErrorPolicy(error_policy_, task, msg, error);
}

Status Container::ApplyErrorPolicy(TaskErrorPolicy policy, TaskInstance& task,
                                   const IncomingMessage& msg, const Status& error) {
  if (policy == TaskErrorPolicy::kFail) return error;
  if (policy == TaskErrorPolicy::kDeadLetter) {
    if (!broker_->HasTopic(dlq_topic_)) {
      TopicConfig tc;
      SQS_ASSIGN_OR_RETURN(nparts, broker_->NumPartitions(msg.origin.topic));
      tc.num_partitions = nparts;
      Status st = broker_->CreateTopic(dlq_topic_, tc);
      if (!st.ok() && st.code() != ErrorCode::kAlreadyExists) return st;
    }
    DeadLetterRecord rec;
    rec.task_name = task.model.task_name;
    rec.origin = msg.origin;
    rec.offset = msg.offset;
    rec.error = error.ToString();
    rec.key = msg.message.key;
    rec.value = msg.message.value;
    // Keep the message's trace context so the dead-lettered tuple stays
    // correlated with the trace that carried it here.
    rec.trace = msg.message.trace;
    // Same partition id as the input, so DLQ ordering mirrors the source.
    // If even the DLQ write fails (after retries), fall back to failing the
    // container: at-least-once forbids silently losing the message. In
    // exactly-once mode the DLQ write goes through the task's idempotent
    // producer, so a replayed dead-letter dedups like any other send.
    auto sent = TaskProducer(task).SendTo({dlq_topic_, msg.origin.partition},
                                          msg.message.key, EncodeDeadLetter(rec));
    if (!sent.ok()) return sent.status();
  }
  if (task.dropped != nullptr) task.dropped->Inc();
  if (policy == TaskErrorPolicy::kDeadLetter) {
    FlightRecorder::Record(FlightEventType::kDlqDrop, task.trace_scope,
                           error.ToString(), msg.offset,
                           msg.origin.partition);
  }
  const char* action = policy == TaskErrorPolicy::kDeadLetter
                           ? "message dead-lettered"
                           : "message skipped";
  SQS_WARNC("container", action,
            {"task", task.model.task_name}, {"origin", msg.origin.ToString()},
            {"offset", std::to_string(msg.offset)}, {"error", error.ToString()});
  return Status::Ok();
}

Status Container::CommitTask(TaskInstance& task) {
  // A checkpoint must never get ahead of lost state changes: if a changelog
  // write failed (store unhealthy), committing these offsets would make the
  // divergence durable. Fail the task instead; restart replays cleanly.
  for (const auto& [name, store] : task.stores) {
    Status health = store->health();
    if (!health.ok()) {
      return Status(health.code(),
                    "store '" + name + "' unhealthy at commit: " + health.message());
    }
  }
  // Let the task persist replay-horizon state before the offsets commit.
  SQS_RETURN_IF_ERROR(task.task->OnCommit());
  if (delivery_ == DeliveryMode::kExactlyOnce) {
    // Transactional commit: one checkpoint record atomically publishes the
    // input positions, the changelog high-watermark per store (only this
    // task writes its changelog partition, so EndOffset after OnCommit is
    // exactly this task's state frontier), and the producer's sequence per
    // output partition. A restart restores state to the watermark, re-seeks
    // the inputs, and resumes the sequences — replayed sends dedup at the
    // broker instead of re-emitting.
    TaskCheckpoint cp;
    cp.input_offsets = task.processed_positions;
    for (const auto& [name, store] : task.stores) {
      (void)name;
      const StreamPartition& sp = store->changelog_partition();
      SQS_ASSIGN_OR_RETURN(end, broker_->EndOffset(sp));
      cp.changelog_offsets[sp] = end;
    }
    if (task.producer) cp.producer_sequences = task.producer->sequences();
    SQS_RETURN_IF_ERROR(
        checkpoints_->WriteTaskCheckpoint(task.model.task_name, cp));
  } else {
    SQS_RETURN_IF_ERROR(checkpoints_->WriteCheckpoint(task.model.task_name,
                                                      task.processed_positions));
  }
  FlightRecorder::Record(FlightEventType::kCommit, task.trace_scope,
                         delivery_ == DeliveryMode::kExactlyOnce
                             ? "transactional"
                             : "offsets",
                         task.since_commit);
  task.since_commit = 0;
  task.commit_requested = false;
  if (m_commits_ != nullptr) m_commits_->Inc();
  return Status::Ok();
}

Status Container::MaybeFireWindows() {
  if (window_ms_ <= 0) return Status::Ok();
  int64_t now = clock_->NowMillis();
  if (now - last_window_fire_ms_ < window_ms_) return Status::Ok();
  last_window_fire_ms_ = now;
  for (auto& task : tasks_) {
    // No ambient ingest scope here: a timer-driven emission is a new event,
    // so its sends root fresh ingest stamps.
    ProducerCollector collector(TaskProducer(*task), m_rows_out_, m_bytes_out_,
                                m_e2e_us_);
    SQS_RETURN_IF_ERROR(task->task->Window(collector, *task));
  }
  return Status::Ok();
}

Result<Container::Turn> Container::RunTurn() {
  if (!started_) return Status::StateError("container not started");
  Turn turn;
  if (shutdown_requested_ || KillRequested()) {
    turn.idle = true;
    return turn;
  }
  int64_t t0 = MonotonicNanos();
  // Watchdog heartbeat: one store per turn. A task wedged inside Process
  // never returns here, so the heartbeat goes stale and the monitor's stall
  // watchdog fires (docs/PROFILING.md "Stall watchdog").
  last_heartbeat_ms_.store(clock_->NowMillis(), std::memory_order_relaxed);
  busy_.store(true, std::memory_order_relaxed);
  struct BusyReset {
    std::atomic<bool>* flag;
    ~BusyReset() { flag->store(false, std::memory_order_relaxed); }
  } busy_reset{&busy_};
  if (reporter_) reporter_->MaybeReport();

  // Bootstrap phase: deliver only bootstrap partitions until drained
  // (Samza holds back all other inputs, §2 "Bootstrap Streams").
  SQS_ASSIGN_OR_RETURN(bootstrap_done, bootstrap_consumer_->CaughtUp());
  if (bootstrap_done) SQS_RETURN_IF_ERROR(MaybeFireWindows());
  SQS_ASSIGN_OR_RETURN(
      batch, (bootstrap_done ? consumer_ : bootstrap_consumer_)->Poll());
  if (!batch.empty()) {
    SQS_ASSIGN_OR_RETURN(n, ProcessBatch(batch));
    turn.processed = n;
    SQS_RETURN_IF_ERROR(UpdateLagGauges());
  }
  // Keep one fetch in flight, on the consumer the next turn polls.
  SQS_ASSIGN_OR_RETURN(bs_caught_up, bootstrap_consumer_->CaughtUp());
  Consumer& next = bs_caught_up ? *consumer_ : *bootstrap_consumer_;
  next.Prefetch();
  turn.ready_at_ns = next.ReadyAtNanos();
  if (batch.empty() && bs_caught_up) {
    SQS_ASSIGN_OR_RETURN(caught_up, consumer_->CaughtUp());
    turn.idle = caught_up;
  }
  int64_t busy = MonotonicNanos() - t0;
  busy_nanos_.fetch_add(busy, std::memory_order_relaxed);
  processed_total_.fetch_add(turn.processed, std::memory_order_relaxed);
  if (m_processed_ != nullptr) {
    m_processed_->Inc(turn.processed);
    m_busy_ns_->Add(busy);
  }
  return turn;
}

Result<int64_t> Container::RunUntilCaughtUp(int64_t max_messages) {
  if (!started_) return Status::StateError("container not started");
  int64_t processed = 0;
  while (!shutdown_requested_ && !KillRequested() &&
         (max_messages < 0 || processed < max_messages)) {
    SQS_ASSIGN_OR_RETURN(turn, RunTurn());
    processed += turn.processed;
    if (turn.idle) break;
  }
  SQS_RETURN_IF_ERROR(UpdateLagGauges());
  return processed;
}

Status Container::Stop() {
  if (!started_) return Status::Ok();
  for (auto& task : tasks_) {
    SQS_RETURN_IF_ERROR(CommitTask(*task));
    SQS_RETURN_IF_ERROR(task->task->Close());
  }
  // Flush a final report so the tail of the run is never lost to the
  // reporting interval.
  if (reporter_) reporter_->ReportNow();
  std::string trace_path = config_.Get(cfg::kTracingExportPath);
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out.good()) {
      SQS_WARNC("container", "cannot write trace export",
                {"path", trace_path});
    } else {
      std::vector<Span> spans = Tracer::Instance().Spans();
      out << SpansToChromeTraceJson(spans);
      SQS_INFOC("container", "trace export written", {"path", trace_path},
                {"spans", std::to_string(spans.size())});
    }
  }
  started_ = false;
  FlightRecorder::Record(FlightEventType::kContainerStop, flight_scope_, "",
                         processed_total_);
  SQS_INFOC("container", "container stopped",
            {"job", config_.Get(cfg::kJobName, "job")},
            {"id", std::to_string(model_.container_id)},
            {"processed", std::to_string(processed_total_)});
  return Status::Ok();
}

}  // namespace sqs
