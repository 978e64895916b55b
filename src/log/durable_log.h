// Durable-log plumbing between the broker and the segment layer
// (docs/DURABILITY.md): configuration (`log.*` keys), the per-partition
// record codec, the DurablePartitionLog writer, and the codecs for the two
// meta logs (`__meta/topics`, `__meta/producers`) that make topic configs
// and producer identities survive a cold restart.
//
// On-disk layout under `log.dir`:
//
//     <log.dir>/__meta/topics/     topic create/delete records
//     <log.dir>/__meta/producers/  producer name -> (pid, epoch), last wins
//     <log.dir>/t_<topic>/<p>/     one SegmentLog per partition
//
// Topic names are percent-escaped into directory names under a "t_" prefix
// that keeps them disjoint from "__meta" and from path components like
// "." / "..". A partition record
// carries the assigned offset plus every Message field except the trace
// context (traces are sampled observability state, not data); it shares
// its field codec with the heap record (log/record_log.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/config.h"
#include "common/status.h"
#include "io/file.h"
#include "log/message.h"
#include "log/record_log.h"
#include "log/segment.h"

namespace sqs {

struct TopicConfig;

// `log.*` configuration keys (docs/CONFIG tables, docs/DURABILITY.md).
namespace cfg {
inline constexpr const char* kLogDurable = "log.durable";
inline constexpr const char* kLogDir = "log.dir";
inline constexpr const char* kLogSegmentBytes = "log.segment.bytes";
inline constexpr const char* kLogFsync = "log.fsync";
inline constexpr const char* kLogFsyncIntervalMs = "log.fsync.interval.ms";
// Crash-point spec (io/crashpoint.h), armed by the executor alongside the
// durability options: "<name>" or "<name>:<n>".
inline constexpr const char* kCrashPoint = "crash.point";
}  // namespace cfg

struct DurableLogOptions {
  bool enabled = false;
  std::string dir;
  int64_t segment_bytes = 64 << 20;
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  int64_t fsync_interval_ms = 50;
  // File layer; tests inject io::FaultInjectingFileFactory here. Defaults
  // to PosixFileFactory.
  io::FileFactoryPtr factory;

  // Parses log.durable / log.dir / log.segment.bytes / log.fsync /
  // log.fsync.interval.ms. `log.durable=true` without a `log.dir` is an
  // error — silently defaulting the data directory invites accidents.
  static Result<DurableLogOptions> FromConfig(const Config& config);
};

// Directory-safe encoding of a topic name: a fixed "t_" prefix (so no name
// can alias "__meta", "." or ".."), then [A-Za-z0-9._-] pass through and
// everything else becomes %XX.
std::string TopicDirName(const std::string& topic);

// --- partition record codec ---

Bytes EncodeLogRecord(int64_t offset, const Message& message);
Result<std::pair<int64_t, Message>> DecodeLogRecord(const Bytes& payload);

// --- meta record codecs ---

struct TopicMetaRecord {
  bool deleted = false;
  std::string name;
  int32_t num_partitions = 1;
  int64_t retention_messages = 0;
  bool compacted = false;
  bool fsync_barrier = false;
};

Bytes EncodeTopicMeta(const TopicMetaRecord& record);
Result<TopicMetaRecord> DecodeTopicMeta(const Bytes& payload);

struct ProducerMetaRecord {
  std::string name;
  uint64_t pid = 0;
  int32_t epoch = -1;
};

Bytes EncodeProducerMeta(const ProducerMetaRecord& record);
Result<ProducerMetaRecord> DecodeProducerMeta(const Bytes& payload);

// The on-disk image of one partition: a SegmentLog plus the record codec.
// Not thread-safe; the broker serializes access under the partition mutex.
class DurablePartitionLog {
 public:
  DurablePartitionLog(std::string dir, SegmentLogOptions options);

  // Receives one recovered record; the view's key and value are valid only
  // for the call.
  using RecordSink = std::function<void(int64_t offset, const RecordView&)>;

  // Recover: pass every record to `sink` in offset order. `base_offset`
  // reports the base offset of the oldest live segment (-1 when the
  // directory held no segments) — it carries the log-start offset across
  // restarts even when retention left the partition empty. A duplicate of
  // the preceding offset (a retried append whose first frame survived a
  // failed fsync) is collapsed keep-last; any other discontinuity is an
  // error.
  Status Open(const RecordSink& sink, int64_t* base_offset,
              SegmentRecovery* recovery);

  // `sync_now` forces the frame to stable storage regardless of the fsync
  // policy (the checkpoint-barrier topics); like a policy-driven sync, a
  // sync failure rolls the frame back off the file before returning.
  Status Append(int64_t offset, const Message& message, bool sync_now = false);
  // Append every record of `log` (offsets log_start + i), then sync: the
  // bootstrap of a partition that predates durability.
  Status AppendAll(const RecordLog& log, int64_t log_start);
  Status Sync();
  bool dirty() const { return segments_.dirty(); }

  // Replace the on-disk image with `log` (offsets log_start + i), the
  // retention/compaction commit path.
  Status Rewrite(const RecordLog& log, int64_t log_start);

  Status Close();

 private:
  SegmentLog segments_;
};

}  // namespace sqs
