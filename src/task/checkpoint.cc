#include "task/checkpoint.h"

#include <algorithm>

#include "common/flightrec.h"

namespace sqs {

CheckpointManager::CheckpointManager(BrokerPtr broker, std::string checkpoint_topic)
    : broker_(std::move(broker)), topic_(std::move(checkpoint_topic)) {}

Status CheckpointManager::Start() {
  if (broker_->HasTopic(topic_)) return Status::Ok();
  TopicConfig config;
  config.num_partitions = 1;
  config.compacted = true;
  // Commit barrier: when the durable log is on, a checkpoint record must
  // not reach stable storage ahead of the output it covers
  // (docs/DURABILITY.md, "Write ordering").
  config.fsync_barrier = true;
  Status st = broker_->CreateTopic(topic_, config);
  if (st.code() == ErrorCode::kAlreadyExists) return Status::Ok();
  return st;
}

namespace {

void WriteOffsetMap(BytesWriter& w, const std::map<StreamPartition, int64_t>& map) {
  w.WriteVarint(static_cast<int64_t>(map.size()));
  for (const auto& [sp, offset] : map) {
    w.WriteString(sp.topic);
    w.WriteVarint(sp.partition);
    w.WriteVarint(offset);
  }
}

// `n` is the entry count, already read off the front of the map.
Result<std::map<StreamPartition, int64_t>> ReadOffsetMap(BytesReader& r,
                                                         int64_t n) {
  if (n < 0) return Status::SerdeError("negative checkpoint size");
  std::map<StreamPartition, int64_t> map;
  for (int64_t i = 0; i < n; ++i) {
    SQS_ASSIGN_OR_RETURN(topic, r.ReadString());
    SQS_ASSIGN_OR_RETURN(partition, r.ReadVarint());
    SQS_ASSIGN_OR_RETURN(offset, r.ReadVarint());
    map[{topic, static_cast<int32_t>(partition)}] = offset;
  }
  return map;
}

Result<std::map<StreamPartition, int64_t>> ReadOffsetMap(BytesReader& r) {
  SQS_ASSIGN_OR_RETURN(n, r.ReadVarint());
  return ReadOffsetMap(r, n);
}

// v2 records lead with this marker where a legacy record has its
// (non-negative) entry count, then a version varint.
constexpr int64_t kVersionMarker = -1;
constexpr int64_t kVersionTransactional = 2;

}  // namespace

Bytes CheckpointManager::EncodeTaskCheckpoint(const TaskCheckpoint& cp) {
  // Offsets-only checkpoints (the at-least-once default) keep the legacy
  // encoding, byte-for-byte: old readers and new readers agree on them.
  if (cp.changelog_offsets.empty() && cp.producer_sequences.empty()) {
    BytesWriter w(64);
    WriteOffsetMap(w, cp.input_offsets);
    return w.Take();
  }
  BytesWriter w(128);
  w.WriteVarint(kVersionMarker);
  w.WriteVarint(kVersionTransactional);
  WriteOffsetMap(w, cp.input_offsets);
  WriteOffsetMap(w, cp.changelog_offsets);
  WriteOffsetMap(w, cp.producer_sequences);
  return w.Take();
}

Result<TaskCheckpoint> CheckpointManager::DecodeTaskCheckpoint(const Bytes& bytes) {
  BytesReader r(bytes);
  SQS_ASSIGN_OR_RETURN(first, r.ReadVarint());
  TaskCheckpoint cp;
  if (first != kVersionMarker) {
    // Legacy record: `first` is the entry count of the offsets map.
    SQS_ASSIGN_OR_RETURN(inputs, ReadOffsetMap(r, first));
    cp.input_offsets = std::move(inputs);
    return cp;
  }
  SQS_ASSIGN_OR_RETURN(version, r.ReadVarint());
  if (version != kVersionTransactional) {
    return Status::SerdeError("unknown checkpoint version " + std::to_string(version));
  }
  SQS_ASSIGN_OR_RETURN(inputs, ReadOffsetMap(r));
  cp.input_offsets = std::move(inputs);
  SQS_ASSIGN_OR_RETURN(changelogs, ReadOffsetMap(r));
  cp.changelog_offsets = std::move(changelogs);
  SQS_ASSIGN_OR_RETURN(sequences, ReadOffsetMap(r));
  cp.producer_sequences = std::move(sequences);
  return cp;
}

Status CheckpointManager::WriteTaskCheckpoint(const std::string& task_name,
                                              const TaskCheckpoint& cp) {
  Bytes key = ToBytes(task_name);
  Bytes value = EncodeTaskCheckpoint(cp);
  const int64_t written = static_cast<int64_t>(key.size() + value.size());
  int64_t offset = -1;
  SQS_RETURN_IF_ERROR(retrier_.Run([&]() -> Status {
    Message m;
    m.key = key;
    m.value = value;
    StampMessageCrc(m);
    auto r = broker_->Append({topic_, 0}, std::move(m));
    if (!r.ok()) return r.status();
    offset = r.value();
    return Status::Ok();
  }));
  if (writes_ != nullptr) {
    writes_->Inc();
    bytes_->Inc(written);
  }
  FlightRecorder::Record(FlightEventType::kCheckpoint, task_name,
                         cp.producer_sequences.empty() ? "offsets" : "transactional",
                         written, offset);
  {
    // Keep the cache current without refetching our own write. cache_end_
    // only advances if the write landed exactly at the cached frontier —
    // with concurrent writers the refresh path fills any gap.
    std::lock_guard<std::mutex> lock(mu_);
    cache_[task_name] = cp;
    if (cache_end_ == offset) cache_end_ = offset + 1;
  }
  return Status::Ok();
}

Status CheckpointManager::RefreshCacheLocked() const {
  StreamPartition sp{topic_, 0};
  SQS_ASSIGN_OR_RETURN(begin, broker_->BeginOffset(sp));
  SQS_ASSIGN_OR_RETURN(end, broker_->EndOffset(sp));
  // Compaction can rebase the log-start past our frontier; entries it
  // removed were superseded by newer ones at offsets >= begin, which this
  // pass folds, so jumping forward loses nothing.
  int64_t pos = cache_end_ < begin ? begin : cache_end_;
  while (pos < end) {
    std::vector<IncomingMessage> batch;
    SQS_RETURN_IF_ERROR(retrier_.Run([&]() -> Status {
      auto r = broker_->Fetch(sp, pos, 1024);
      if (!r.ok()) return r.status();
      batch = std::move(r).value();
      // Verify inside the retried fetch: transient corruption (the fault
      // injector flips bits on the returned copies, not the log) heals on
      // the refetch, exactly like a transient fetch failure.
      for (const auto& m : batch) {
        if (!MessageCrcValid(m.message)) {
          return Status::Unavailable("checkpoint crc mismatch at " +
                                     sp.ToString() + "@" +
                                     std::to_string(m.offset));
        }
      }
      return Status::Ok();
    }));
    if (batch.empty()) break;
    for (const auto& m : batch) {
      SQS_ASSIGN_OR_RETURN(cp, DecodeTaskCheckpoint(m.message.value));
      cache_[FromBytes(m.message.key)] = std::move(cp);
    }
    pos += static_cast<int64_t>(batch.size());
    cache_end_ = pos;
  }
  if (cache_end_ < end) cache_end_ = end;
  return Status::Ok();
}

Result<TaskCheckpoint> CheckpointManager::ReadLastTaskCheckpoint(
    const std::string& task_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  SQS_RETURN_IF_ERROR(RefreshCacheLocked());
  auto it = cache_.find(task_name);
  if (it == cache_.end()) return TaskCheckpoint{};
  return it->second;
}

}  // namespace sqs
