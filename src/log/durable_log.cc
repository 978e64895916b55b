#include "log/durable_log.h"

#include <cstdio>
#include <utility>

namespace sqs {

namespace {

constexpr uint8_t kLogRecordVersion = 1;
constexpr uint8_t kTopicMetaVersion = 1;
constexpr uint8_t kProducerMetaVersion = 1;

bool DirSafe(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

}  // namespace

Result<DurableLogOptions> DurableLogOptions::FromConfig(const Config& config) {
  DurableLogOptions options;
  options.enabled = config.GetBool(cfg::kLogDurable, false);
  options.dir = config.Get(cfg::kLogDir);
  if (options.enabled && options.dir.empty()) {
    return Status::InvalidArgument("log.durable=true requires log.dir");
  }
  options.segment_bytes = config.GetInt(cfg::kLogSegmentBytes, 64 << 20);
  if (options.segment_bytes <= 0) {
    return Status::InvalidArgument("log.segment.bytes must be positive");
  }
  SQS_ASSIGN_OR_RETURN(policy,
                       ParseFsyncPolicy(config.Get(cfg::kLogFsync, "always")));
  options.fsync = policy;
  options.fsync_interval_ms = config.GetInt(cfg::kLogFsyncIntervalMs, 50);
  if (options.fsync_interval_ms < 0) {
    return Status::InvalidArgument("log.fsync.interval.ms must be >= 0");
  }
  return options;
}

std::string TopicDirName(const std::string& topic) {
  // The "t_" prefix keeps topic data dirs disjoint from every reserved name:
  // no topic — whatever its characters — can alias the "__meta" dir or a
  // path component ("." / ".." would otherwise escape log.dir entirely and
  // DeleteTopic would RemoveAllUnder its parent).
  std::string out = "t_";
  out.reserve(2 + topic.size());
  for (char c : topic) {
    if (DirSafe(c)) {
      out.push_back(c);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out.append(buf);
    }
  }
  return out;
}

namespace {

// LogRecord v1: version, offset, key, value, then the meta fields.
Bytes EncodeLogRecord(int64_t offset, const Message& meta, ByteSpan key,
                      ByteSpan value) {
  BytesWriter w(32 + key.size() + value.size());
  w.WriteByte(kLogRecordVersion);
  w.WriteVarint(offset);
  w.WriteVarint(static_cast<int64_t>(key.size()));
  w.WriteRaw(key.data(), key.size());
  w.WriteVarint(static_cast<int64_t>(value.size()));
  w.WriteRaw(value.data(), value.size());
  WriteMetaFields(w, meta);
  return w.Take();
}

// Decode in place: `out`'s key and value point into `payload`. Returns the
// record's offset.
Result<int64_t> DecodeLogRecord(const Bytes& payload, RecordView* out) {
  FieldReader r(payload.data(), payload.data() + payload.size());
  uint8_t version = 0;
  if (!r.Byte(&version)) return Status::SerdeError("empty log record");
  if (version != kLogRecordVersion) {
    return Status::SerdeError("unknown log record version " +
                              std::to_string(version));
  }
  int64_t offset = 0;
  if (!r.Varint(&offset) || !r.LengthPrefixed(&out->key) ||
      !r.LengthPrefixed(&out->value) || !ReadMetaFields(r, &out->meta)) {
    return Status::SerdeError("truncated log record");
  }
  return offset;
}

}  // namespace

Bytes EncodeLogRecord(int64_t offset, const Message& message) {
  return EncodeLogRecord(offset, message, message.key, message.value);
}

Result<std::pair<int64_t, Message>> DecodeLogRecord(const Bytes& payload) {
  RecordView record;
  SQS_ASSIGN_OR_RETURN(offset, DecodeLogRecord(payload, &record));
  Message m = std::move(record.meta);
  m.key.assign(record.key.begin(), record.key.end());
  m.value.assign(record.value.begin(), record.value.end());
  return std::make_pair(offset, std::move(m));
}

Bytes EncodeTopicMeta(const TopicMetaRecord& record) {
  BytesWriter w(32 + record.name.size());
  w.WriteByte(kTopicMetaVersion);
  w.WriteBool(record.deleted);
  w.WriteString(record.name);
  w.WriteVarint(record.num_partitions);
  w.WriteVarint(record.retention_messages);
  w.WriteBool(record.compacted);
  w.WriteBool(record.fsync_barrier);
  return w.Take();
}

Result<TopicMetaRecord> DecodeTopicMeta(const Bytes& payload) {
  BytesReader r(payload);
  SQS_ASSIGN_OR_RETURN(version, r.ReadByte());
  if (version != kTopicMetaVersion) {
    return Status::SerdeError("unknown topic meta version " +
                              std::to_string(version));
  }
  TopicMetaRecord record;
  SQS_ASSIGN_OR_RETURN(deleted, r.ReadBool());
  record.deleted = deleted;
  SQS_ASSIGN_OR_RETURN(name, r.ReadString());
  record.name = std::move(name);
  SQS_ASSIGN_OR_RETURN(num_partitions, r.ReadVarint());
  record.num_partitions = static_cast<int32_t>(num_partitions);
  SQS_ASSIGN_OR_RETURN(retention, r.ReadVarint());
  record.retention_messages = retention;
  SQS_ASSIGN_OR_RETURN(compacted, r.ReadBool());
  record.compacted = compacted;
  SQS_ASSIGN_OR_RETURN(fsync_barrier, r.ReadBool());
  record.fsync_barrier = fsync_barrier;
  return record;
}

Bytes EncodeProducerMeta(const ProducerMetaRecord& record) {
  BytesWriter w(16 + record.name.size());
  w.WriteByte(kProducerMetaVersion);
  w.WriteString(record.name);
  w.WriteVarint(static_cast<int64_t>(record.pid));
  w.WriteVarint(record.epoch);
  return w.Take();
}

Result<ProducerMetaRecord> DecodeProducerMeta(const Bytes& payload) {
  BytesReader r(payload);
  SQS_ASSIGN_OR_RETURN(version, r.ReadByte());
  if (version != kProducerMetaVersion) {
    return Status::SerdeError("unknown producer meta version " +
                              std::to_string(version));
  }
  ProducerMetaRecord record;
  SQS_ASSIGN_OR_RETURN(name, r.ReadString());
  record.name = std::move(name);
  SQS_ASSIGN_OR_RETURN(pid, r.ReadVarint());
  record.pid = static_cast<uint64_t>(pid);
  SQS_ASSIGN_OR_RETURN(epoch, r.ReadVarint());
  record.epoch = static_cast<int32_t>(epoch);
  return record;
}

DurablePartitionLog::DurablePartitionLog(std::string dir, SegmentLogOptions options)
    : segments_(std::move(dir), std::move(options)) {}

Status DurablePartitionLog::Open(const RecordSink& sink, int64_t* base_offset,
                                 SegmentRecovery* recovery) {
  SegmentRecovery local;
  if (!recovery) recovery = &local;
  std::vector<Bytes> payloads;
  SQS_RETURN_IF_ERROR(segments_.Open(&payloads, recovery));
  *base_offset = recovery->first_base_offset;
  // Records reach `sink` one behind the scan: a record followed by another
  // at the same offset is an append whose frame reached the file but whose
  // fsync failed (and whose rollback truncation also failed), re-appended
  // by the producer's retry. Keep the last record for the offset — the
  // retry is the acknowledged one.
  RecordView held;
  int64_t held_offset = 0;
  bool holding = false;
  int64_t expect = -1;
  auto release = [&]() -> Status {
    // Offsets must be dense: every append, rewrite, and truncation
    // preserves contiguity, so a hole means the files were tampered with or
    // a codec bug slipped a record.
    if (expect >= 0 && held_offset != expect) {
      return Status::StateError(
          "offset discontinuity in " + segments_.dir() + ": got " +
          std::to_string(held_offset) + " after " + std::to_string(expect - 1));
    }
    expect = held_offset + 1;
    sink(held_offset, held);
    return Status::Ok();
  };
  for (const Bytes& payload : payloads) {
    RecordView record;
    SQS_ASSIGN_OR_RETURN(offset, DecodeLogRecord(payload, &record));
    if (holding && offset == held_offset) {
      ++recovery->duplicate_records;
    } else if (holding) {
      SQS_RETURN_IF_ERROR(release());
    }
    held = std::move(record);
    held_offset = offset;
    holding = true;
  }
  if (holding) SQS_RETURN_IF_ERROR(release());
  return Status::Ok();
}

Status DurablePartitionLog::Append(int64_t offset, const Message& message,
                                   bool sync_now) {
  return segments_.Append(EncodeLogRecord(offset, message), offset, sync_now);
}

Status DurablePartitionLog::AppendAll(const RecordLog& log, int64_t log_start) {
  for (size_t i = 0; i < log.size(); ++i) {
    int64_t offset = log_start + static_cast<int64_t>(i);
    RecordView record = log.View(i);
    SQS_RETURN_IF_ERROR(segments_.Append(
        EncodeLogRecord(offset, record.meta, record.key, record.value), offset));
  }
  return dirty() ? Sync() : Status::Ok();
}

Status DurablePartitionLog::Sync() { return segments_.Sync(); }

Status DurablePartitionLog::Rewrite(const RecordLog& log, int64_t log_start) {
  std::vector<Bytes> records;
  records.reserve(log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    RecordView record = log.View(i);
    records.push_back(EncodeLogRecord(log_start + static_cast<int64_t>(i),
                                      record.meta, record.key, record.value));
  }
  return segments_.Rewrite(records, log_start);
}

Status DurablePartitionLog::Close() { return segments_.Close(); }

}  // namespace sqs
