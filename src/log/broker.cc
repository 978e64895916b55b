#include "log/broker.h"

#include "common/clock.h"
#include "common/logging.h"
#include "io/crashpoint.h"

#include <chrono>
#include <limits>
#include <map>
#include <set>
#include <thread>

namespace sqs {

Broker::~Broker() {
  // Clean shutdown leaves the disk image fully synced; the SegmentLog
  // destructors close (and therefore flush) each partition behind this.
  if (durable_.load(std::memory_order_acquire)) {
    (void)Broker::SyncDurableLog();
  }
}

Status Broker::CreateTopic(const std::string& name, TopicConfig config) {
  if (name.empty()) return Status::InvalidArgument("empty topic name");
  if (config.num_partitions <= 0) {
    return Status::InvalidArgument("topic " + name + " needs >= 1 partition");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (topics_.count(name)) return Status::AlreadyExists("topic exists: " + name);
  auto topic = std::make_unique<Topic>();
  topic->config = config;
  topic->partitions.reserve(config.num_partitions);
  for (int32_t i = 0; i < config.num_partitions; ++i) {
    topic->partitions.push_back(std::make_unique<Partition>());
  }
  Topic* created = topic.get();
  topics_[name] = std::move(topic);
  if (durable_.load(std::memory_order_acquire)) {
    Status st = BootstrapTopicToDisk(name, created);
    if (!st.ok()) {
      // Keep heap and disk in agreement: a topic the disk could not accept
      // does not exist. The create record may already be durable in the meta
      // log (the bootstrap can fail wiring a partition after the append), so
      // write a tombstone too — otherwise a restart would resurrect a topic
      // the caller was told failed to create.
      TopicMetaRecord tombstone;
      tombstone.deleted = true;
      tombstone.name = name;
      Status tombed =
          AppendMeta(topics_meta_.get(), EncodeTopicMeta(tombstone));
      if (!tombed.ok()) {
        SQS_WARNC("broker", "tombstone for failed topic create not durable",
                  {"topic", name}, {"error", tombed.message()});
      }
      topics_.erase(name);
      return st;
    }
  }
  SQS_DEBUGC("broker", "topic created", {"topic", name},
             {"partitions", std::to_string(config.num_partitions)},
             {"compacted", config.compacted ? "true" : "false"});
  return Status::Ok();
}

bool Broker::HasTopic(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return topics_.count(name) > 0;
}

Result<int32_t> Broker::NumPartitions(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound("no topic: " + topic);
  return static_cast<int32_t>(it->second->partitions.size());
}

std::vector<std::string> Broker::Topics() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(topics_.size());
  for (const auto& [k, _] : topics_) out.push_back(k);
  return out;
}

Result<Broker::Partition*> Broker::GetPartition(const StreamPartition& sp) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = topics_.find(sp.topic);
  if (it == topics_.end()) return Status::NotFound("no topic: " + sp.topic);
  if (sp.partition < 0 ||
      sp.partition >= static_cast<int32_t>(it->second->partitions.size())) {
    return Status::InvalidArgument("no partition " + sp.ToString());
  }
  return it->second->partitions[sp.partition].get();
}

Result<ProducerIdentity> Broker::RegisterProducer(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("empty producer name");
  ProducerIdentity id;
  {
    std::lock_guard<std::mutex> lock(producers_mu_);
    ProducerIdentity& entry = producers_by_name_[name];
    if (entry.pid == 0) entry.pid = next_pid_++;
    ++entry.epoch;  // first registration: -1 -> 0
    id = entry;
  }
  // The identity must be durable before the producer can stamp data with
  // it: a post-restart recovery that finds a pid in a partition log but not
  // in the producer meta log could not rebuild the fencing state.
  if (durable_.load(std::memory_order_acquire)) {
    SQS_RETURN_IF_ERROR(AppendMeta(
        producers_meta_.get(), EncodeProducerMeta({name, id.pid, id.epoch})));
  }
  // Publish the new epoch through the pid's cell. Appends stamped with an
  // older epoch observe the bump on their next fencing check; the release
  // store pairs with the acquire load in Append.
  EpochShard& shard = epoch_shards_[id.pid % kEpochShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::unique_ptr<EpochCell>& cell = shard.cells[id.pid];
    if (!cell) cell = std::make_unique<EpochCell>();
    cell->epoch.store(id.epoch, std::memory_order_release);
  }
  SQS_DEBUGC("broker", "producer registered", {"name", name},
             {"pid", std::to_string(id.pid)},
             {"epoch", std::to_string(id.epoch)});
  return id;
}

Broker::EpochCell* Broker::FindEpochCell(uint64_t pid) const {
  const EpochShard& shard = epoch_shards_[pid % kEpochShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.cells.find(pid);
  return it == shard.cells.end() ? nullptr : it->second.get();
}

void Broker::Spin(int64_t nanos) const {
  int64_t until = MonotonicNanos() + nanos;
  while (MonotonicNanos() < until) {
    // busy-wait: the simulated RTT consumes real CPU time so it shows up in
    // measured container busy time (the single-threaded microbench model)
  }
}

Result<int64_t> Broker::Append(const StreamPartition& sp, Message message) {
  SQS_ASSIGN_OR_RETURN(part, GetPartition(sp));
  // Commit barrier (docs/DURABILITY.md): a record on a barrier topic (the
  // checkpoint topics) must never be durable while data it covers is still
  // in page cache, so every dirty partition log is synced before this
  // append can proceed. Done before taking part->mu — the barrier locks
  // other partitions one at a time and must not nest inside this one.
  // Appends racing in behind the barrier are not covered by this
  // checkpoint (they happen-after its creation), so the gap is harmless.
  bool barrier = false;
  if (durable_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(part->mu);
    barrier = part->fsync_barrier && part->dlog != nullptr;
  }
  if (barrier) {
    io::MaybeCrashAt("checkpoint.barrier.before_sync");
    SQS_RETURN_IF_ERROR(SyncDurableLog());
    io::MaybeCrashAt("checkpoint.barrier.after_sync");
  }
  if (message.producer_id != 0) {
    std::lock_guard<std::mutex> lock(part->mu);
    ProducerSeqState& st = part->producers[message.producer_id];
    if (st.epoch_cell == nullptr) {
      // First append from this pid on this partition: resolve and cache the
      // epoch cell (one shard lock). Steady-state appends skip this branch,
      // so the exactly-once data path takes only the partition lock.
      st.epoch_cell = FindEpochCell(message.producer_id);
      if (st.epoch_cell == nullptr) {
        part->producers.erase(message.producer_id);
        return Status::StateError("append from unregistered producer id " +
                                  std::to_string(message.producer_id));
      }
    }
    int32_t newest_epoch =
        st.epoch_cell->epoch.load(std::memory_order_acquire);
    if (message.producer_epoch < newest_epoch) {
      fenced_appends_.fetch_add(1);
      return Status::Fenced("producer " + std::to_string(message.producer_id) +
                            " epoch " + std::to_string(message.producer_epoch) +
                            " fenced by epoch " + std::to_string(newest_epoch) +
                            " on " + sp.ToString());
    }
    if (st.last_seq >= 0) {
      if (message.sequence <= st.last_seq) {
        // Duplicate of an append already in the log (an idempotent retry or
        // a post-restart replay): ack at the original offset.
        dups_dropped_.fetch_add(1);
        return st.last_offset;
      }
      if (message.sequence > st.last_seq + 1) {
        return Status::StateError(
            "sequence gap on " + sp.ToString() + ": got " +
            std::to_string(message.sequence) + " after " +
            std::to_string(st.last_seq));
      }
    }
    int64_t offset = part->log_start + static_cast<int64_t>(part->records.size());
    // Disk before heap: a record the disk refused was never appended (a
    // failed write or sync rolls the frame back off the file), so a failed
    // append leaves no durable state for a retry to collide with.
    if (part->dlog) {
      SQS_RETURN_IF_ERROR(
          part->dlog->Append(offset, message, part->fsync_barrier));
    }
    st.last_seq = message.sequence;
    st.last_offset = offset;
    part->records.Append(message);
    return offset;
  }
  std::lock_guard<std::mutex> lock(part->mu);
  int64_t offset = part->log_start + static_cast<int64_t>(part->records.size());
  if (part->dlog) {
    SQS_RETURN_IF_ERROR(
        part->dlog->Append(offset, message, part->fsync_barrier));
  }
  part->records.Append(message);
  return offset;
}

Result<std::vector<IncomingMessage>> Broker::Fetch(const StreamPartition& sp,
                                                   int64_t offset,
                                                   int32_t max_messages) const {
  int64_t rtt = fetch_latency_nanos_.load(std::memory_order_relaxed);
  if (rtt > 0) {
    if (fetch_latency_sleeps_.load(std::memory_order_relaxed)) {
      // Sleep: the RTT is wait, not work — concurrent fetchers overlap it
      // (the multicore model; a real broker round-trip leaves the CPU free).
      std::this_thread::sleep_for(std::chrono::nanoseconds(rtt));
    } else {
      Spin(rtt);
    }
  }
  SQS_ASSIGN_OR_RETURN(part, GetPartition(sp));
  std::lock_guard<std::mutex> lock(part->mu);
  if (offset < part->log_start) {
    return Status::StateError("offset " + std::to_string(offset) +
                              " below log start " + std::to_string(part->log_start) +
                              " for " + sp.ToString());
  }
  int64_t end = part->log_start + static_cast<int64_t>(part->records.size());
  std::vector<IncomingMessage> out;
  if (offset >= end) return out;
  int64_t n = std::min<int64_t>(max_messages, end - offset);
  out.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    IncomingMessage& m = out[static_cast<size_t>(i)];
    m.origin = sp;
    m.offset = offset + i;
    // Decode into a fresh Message: a real fetch likewise hands the consumer
    // its own copy of the record bytes.
    part->records.Read(static_cast<size_t>(offset + i - part->log_start),
                       &m.message);
  }
  return out;
}

Result<int64_t> Broker::EndOffset(const StreamPartition& sp) const {
  SQS_ASSIGN_OR_RETURN(part, GetPartition(sp));
  std::lock_guard<std::mutex> lock(part->mu);
  return part->log_start + static_cast<int64_t>(part->records.size());
}

Result<int64_t> Broker::BeginOffset(const StreamPartition& sp) const {
  SQS_ASSIGN_OR_RETURN(part, GetPartition(sp));
  std::lock_guard<std::mutex> lock(part->mu);
  return part->log_start;
}

Status Broker::EnforceRetention(const std::string& topic) {
  TopicConfig config;
  int32_t nparts = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = topics_.find(topic);
    if (it == topics_.end()) return Status::NotFound("no topic: " + topic);
    config = it->second->config;
    nparts = static_cast<int32_t>(it->second->partitions.size());
  }
  if (config.retention_messages <= 0) return Status::Ok();
  for (int32_t p = 0; p < nparts; ++p) {
    SQS_ASSIGN_OR_RETURN(part, GetPartition({topic, p}));
    std::lock_guard<std::mutex> lock(part->mu);
    int64_t excess =
        static_cast<int64_t>(part->records.size()) - config.retention_messages;
    if (excess > 0) {
      part->records.DropFront(static_cast<size_t>(excess));
      part->log_start += excess;
      if (part->dlog) {
        SQS_RETURN_IF_ERROR(part->dlog->Rewrite(part->records, part->log_start));
      }
    }
  }
  return Status::Ok();
}

Status Broker::Compact(const std::string& topic) {
  int32_t nparts = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = topics_.find(topic);
    if (it == topics_.end()) return Status::NotFound("no topic: " + topic);
    if (!it->second->config.compacted) {
      return Status::InvalidArgument("topic not compacted: " + topic);
    }
    nparts = static_cast<int32_t>(it->second->partitions.size());
  }
  for (int32_t p = 0; p < nparts; ++p) {
    SQS_ASSIGN_OR_RETURN(part, GetPartition({topic, p}));
    std::lock_guard<std::mutex> lock(part->mu);
    // Keep only the last occurrence of each key, preserving order. Offsets
    // of survivors are not preserved individually (matching Kafka semantics
    // would require per-entry offsets); instead we rebase the log so the
    // *suffix* keeps its relative order and the log start advances: each
    // survivor moves up by the number of records removed after it, and the
    // end offset stays put. This is sufficient for changelog restore, the
    // only use of compacted topics.
    part->log_start += static_cast<int64_t>(part->records.KeepLastPerKey());
    if (part->dlog) {
      SQS_RETURN_IF_ERROR(part->dlog->Rewrite(part->records, part->log_start));
    }
  }
  return Status::Ok();
}

Result<PartitionBacklog> Broker::BacklogFrom(const StreamPartition& sp,
                                             int64_t offset) const {
  SQS_ASSIGN_OR_RETURN(part, GetPartition(sp));
  std::lock_guard<std::mutex> lock(part->mu);
  PartitionBacklog out;
  int64_t end = part->log_start + static_cast<int64_t>(part->records.size());
  int64_t from = std::max(offset, part->log_start);
  if (from >= end) return out;
  size_t first = static_cast<size_t>(from - part->log_start);
  out.messages = end - from;
  out.bytes = part->records.PayloadBytesFrom(first);
  out.oldest_append_ms = part->records.Timestamp(first);
  return out;
}

Result<int64_t> Broker::TopicSize(const std::string& topic) const {
  SQS_ASSIGN_OR_RETURN(nparts, NumPartitions(topic));
  int64_t total = 0;
  for (int32_t p = 0; p < nparts; ++p) {
    SQS_ASSIGN_OR_RETURN(part, GetPartition({topic, p}));
    std::lock_guard<std::mutex> lock(part->mu);
    total += static_cast<int64_t>(part->records.size());
  }
  return total;
}

Status Broker::DeleteTopic(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = topics_.find(name);
  if (it == topics_.end()) return Status::NotFound("no topic: " + name);
  if (durable_.load(std::memory_order_acquire)) {
    TopicMetaRecord record;
    record.deleted = true;
    record.name = name;
    SQS_RETURN_IF_ERROR(AppendMeta(topics_meta_.get(), EncodeTopicMeta(record)));
  }
  // Destroys the partitions first (closing their segment files), then
  // removes the directory. A crash between the meta append and the removal
  // leaves an orphan dir that the recovery sweep deletes.
  topics_.erase(it);
  if (durable_.load(std::memory_order_acquire)) {
    SQS_RETURN_IF_ERROR(durable_options_.factory->RemoveAllUnder(
        durable_options_.dir + "/" + TopicDirName(name)));
  }
  return Status::Ok();
}

SegmentLogOptions Broker::MakeSegmentOptions(const std::string& scope) const {
  SegmentLogOptions options;
  options.factory = durable_options_.factory;
  options.segment_bytes = durable_options_.segment_bytes;
  options.fsync = durable_options_.fsync;
  options.fsync_interval_ms = durable_options_.fsync_interval_ms;
  options.scope = scope;
  return options;
}

Status Broker::AppendMeta(SegmentLog* meta, Bytes payload) {
  // Meta records (topic creates/deletes, producer registrations) are rare
  // and small: always write-through, whatever the data fsync policy.
  std::lock_guard<std::mutex> lock(meta_mu_);
  SQS_RETURN_IF_ERROR(meta->Append(payload, 0));
  return meta->Sync();
}

Status Broker::WirePartition(const std::string& topic_name,
                             const TopicConfig& config, int32_t partition,
                             Partition* part, bool replace_heap) {
  const std::string dir = durable_options_.dir + "/" + TopicDirName(topic_name) +
                          "/" + std::to_string(partition);
  const std::string scope =
      topic_name + "[" + std::to_string(partition) + "]";
  auto dlog = std::make_shared<DurablePartitionLog>(dir, MakeSegmentOptions(scope));
  RecordLog records;
  int64_t first_offset = -1;
  std::map<uint64_t, ProducerSeqState> producers;
  auto rebuild = [&](int64_t offset, const RecordView& record) {
    if (first_offset < 0) first_offset = offset;
    const Message& meta = record.meta;
    if (meta.producer_id != 0 && meta.sequence >= 0) {
      // Rebuild exactly-once dedup state: sequences ascend within a pid,
      // so the last record scanned is the producer's frontier.
      ProducerSeqState& st = producers[meta.producer_id];
      if (meta.sequence > st.last_seq) {
        st.last_seq = meta.sequence;
        st.last_offset = offset;
      }
    }
    records.Append(record);
  };
  int64_t base_offset = -1;
  SegmentRecovery recovery;
  SQS_RETURN_IF_ERROR(dlog->Open(rebuild, &base_offset, &recovery));
  if (recovery.truncated_bytes > 0 || recovery.dropped_segments > 0) {
    SQS_INFOC("broker", "durable log repaired at recovery", {"partition", scope},
             {"truncated_bytes", std::to_string(recovery.truncated_bytes)},
             {"dropped_segments", std::to_string(recovery.dropped_segments)});
  }

  std::lock_guard<std::mutex> lock(part->mu);
  if (replace_heap) {
    // An empty partition still recovers its log-start offset from the
    // segment file name (retention can empty a partition without resetting
    // its offsets).
    part->log_start =
        records.empty() ? std::max<int64_t>(base_offset, 0) : first_offset;
    part->records = std::move(records);
    part->producers = std::move(producers);
  } else {
    // Bootstrap: the heap contents predate durability; dump them.
    SQS_RETURN_IF_ERROR(dlog->AppendAll(part->records, part->log_start));
  }
  part->dlog = std::move(dlog);
  part->fsync_barrier = config.fsync_barrier;
  return Status::Ok();
}

Status Broker::BootstrapTopicToDisk(const std::string& name, Topic* topic) {
  TopicMetaRecord record;
  record.name = name;
  record.num_partitions = static_cast<int32_t>(topic->partitions.size());
  record.retention_messages = topic->config.retention_messages;
  record.compacted = topic->config.compacted;
  record.fsync_barrier = topic->config.fsync_barrier;
  SQS_RETURN_IF_ERROR(AppendMeta(topics_meta_.get(), EncodeTopicMeta(record)));
  // A stale dir can only exist after a crash between a delete's meta append
  // and its dir removal; this create supersedes it.
  SQS_RETURN_IF_ERROR(durable_options_.factory->RemoveAllUnder(
      durable_options_.dir + "/" + TopicDirName(name)));
  for (size_t p = 0; p < topic->partitions.size(); ++p) {
    SQS_RETURN_IF_ERROR(WirePartition(name, topic->config,
                                      static_cast<int32_t>(p),
                                      topic->partitions[p].get(),
                                      /*replace_heap=*/false));
  }
  return Status::Ok();
}

Status Broker::RecoverFromDir() {
  auto& factory = *durable_options_.factory;
  const std::string& root = durable_options_.dir;
  SQS_RETURN_IF_ERROR(factory.CreateDirs(root));

  SegmentLogOptions meta_options = MakeSegmentOptions("__meta");
  // Meta logs never roll (AppendMeta names every roll target offset 0) and
  // sync explicitly per record.
  meta_options.segment_bytes = std::numeric_limits<int64_t>::max();
  meta_options.fsync = FsyncPolicy::kNever;
  topics_meta_ =
      std::make_unique<SegmentLog>(root + "/__meta/topics", meta_options);
  producers_meta_ =
      std::make_unique<SegmentLog>(root + "/__meta/producers", meta_options);
  std::vector<Bytes> topic_payloads;
  std::vector<Bytes> producer_payloads;
  SQS_RETURN_IF_ERROR(topics_meta_->Open(&topic_payloads, nullptr));
  SQS_RETURN_IF_ERROR(producers_meta_->Open(&producer_payloads, nullptr));

  // Topic registry: replay create/delete in order.
  std::map<std::string, TopicMetaRecord> live;
  for (const auto& payload : topic_payloads) {
    SQS_ASSIGN_OR_RETURN(record, DecodeTopicMeta(payload));
    if (record.deleted) {
      live.erase(record.name);
    } else {
      live[record.name] = record;
    }
  }

  // Producer registry: keep the highest epoch seen per name (concurrent
  // registrations can land their records out of order).
  std::map<std::string, ProducerMetaRecord> producers;
  for (const auto& payload : producer_payloads) {
    SQS_ASSIGN_OR_RETURN(record, DecodeProducerMeta(payload));
    ProducerMetaRecord& entry = producers[record.name];
    if (entry.name.empty() || record.epoch > entry.epoch) entry = record;
  }
  {
    std::lock_guard<std::mutex> plock(producers_mu_);
    if (!producers.empty() && !producers_by_name_.empty()) {
      return Status::StateError(
          "cannot recover producer identities from " + root +
          " into a broker that already registered producers: the pid spaces "
          "cannot be reconciled (enable durability before registering)");
    }
    for (const auto& [name, record] : producers) {
      producers_by_name_[name] = {record.pid, record.epoch};
      if (record.pid >= next_pid_) next_pid_ = record.pid + 1;
      EpochShard& shard = epoch_shards_[record.pid % kEpochShards];
      std::lock_guard<std::mutex> slock(shard.mu);
      std::unique_ptr<EpochCell>& cell = shard.cells[record.pid];
      if (!cell) cell = std::make_unique<EpochCell>();
      cell->epoch.store(record.epoch, std::memory_order_release);
    }
  }

  // Disk topics are authoritative: rebuild their heap state from segments.
  for (const auto& [name, meta] : live) {
    TopicConfig config;
    config.num_partitions = meta.num_partitions;
    config.retention_messages = meta.retention_messages;
    config.compacted = meta.compacted;
    config.fsync_barrier = meta.fsync_barrier;
    Topic* topic;
    auto it = topics_.find(name);
    if (it == topics_.end()) {
      auto fresh = std::make_unique<Topic>();
      topic = fresh.get();
      topics_[name] = std::move(fresh);
    } else {
      topic = it->second.get();
      topic->partitions.clear();
    }
    topic->config = config;
    topic->partitions.reserve(config.num_partitions);
    for (int32_t p = 0; p < config.num_partitions; ++p) {
      topic->partitions.push_back(std::make_unique<Partition>());
    }
    for (int32_t p = 0; p < config.num_partitions; ++p) {
      SQS_RETURN_IF_ERROR(WirePartition(name, config, p,
                                        topic->partitions[p].get(),
                                        /*replace_heap=*/true));
    }
  }

  // Sweep orphan topic dirs: deleted topics whose dir removal was cut short
  // by a crash, or dirs of a generation this meta log never knew.
  std::set<std::string> keep{"__meta"};
  for (const auto& [name, meta] : live) keep.insert(TopicDirName(name));
  SQS_ASSIGN_OR_RETURN(subdirs, factory.ListSubdirs(root));
  for (const auto& name : subdirs) {
    if (keep.count(name)) continue;
    SQS_RETURN_IF_ERROR(factory.RemoveAllUnder(root + "/" + name));
  }

  // Heap-only topics (created before durability was enabled) go to disk.
  for (auto& [name, topic] : topics_) {
    if (live.count(name)) continue;
    SQS_RETURN_IF_ERROR(BootstrapTopicToDisk(name, topic.get()));
  }
  // Heap-only producers likewise (only reachable when the disk image had
  // none — the conflict check above).
  if (producers.empty()) {
    std::vector<ProducerMetaRecord> to_dump;
    {
      std::lock_guard<std::mutex> plock(producers_mu_);
      for (const auto& [name, id] : producers_by_name_) {
        to_dump.push_back({name, id.pid, id.epoch});
      }
    }
    for (const auto& record : to_dump) {
      SQS_RETURN_IF_ERROR(
          AppendMeta(producers_meta_.get(), EncodeProducerMeta(record)));
    }
  }
  return Status::Ok();
}

Status Broker::EnableDurability(DurableLogOptions options) {
  if (!options.enabled) return Status::Ok();
  if (options.dir.empty()) {
    return Status::InvalidArgument("durable log requires log.dir");
  }
  if (!options.factory) options.factory = io::PosixFileFactory::Instance();
  std::lock_guard<std::mutex> lock(mu_);
  if (durable_.load(std::memory_order_acquire)) {
    if (options.dir != durable_options_.dir) {
      return Status::InvalidArgument("durable log already enabled at " +
                                     durable_options_.dir +
                                     ", cannot switch to " + options.dir);
    }
    return Status::Ok();  // idempotent re-enable (job resubmission path)
  }
  durable_options_ = std::move(options);
  Status st = RecoverFromDir();
  if (!st.ok()) {
    // Leave the broker fully non-durable: no half-wired partitions.
    topics_meta_.reset();
    producers_meta_.reset();
    for (auto& [name, topic] : topics_) {
      for (auto& part : topic->partitions) {
        std::lock_guard<std::mutex> plock(part->mu);
        part->dlog.reset();
        part->fsync_barrier = false;
      }
    }
    return st;
  }
  durable_.store(true, std::memory_order_release);
  SQS_INFOC("broker", "durable log enabled", {"dir", durable_options_.dir},
           {"fsync", FsyncPolicyName(durable_options_.fsync)},
           {"segment_bytes", std::to_string(durable_options_.segment_bytes)});
  return Status::Ok();
}

Status Broker::SyncDurableLog() {
  std::vector<Partition*> parts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!durable_.load(std::memory_order_acquire)) return Status::Ok();
    for (auto& [name, topic] : topics_) {
      for (auto& part : topic->partitions) parts.push_back(part.get());
    }
  }
  for (Partition* part : parts) {
    std::lock_guard<std::mutex> lock(part->mu);
    if (part->dlog && part->dlog->dirty()) {
      SQS_RETURN_IF_ERROR(part->dlog->Sync());
    }
  }
  return Status::Ok();
}

}  // namespace sqs
