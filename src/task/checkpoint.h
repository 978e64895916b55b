// Checkpointing of consumed offsets to a compacted checkpoint topic
// (paper §2 "Durability": on failure, streams replay from the last known
// checkpointed partition offset). Keyed by task name; the latest entry per
// task wins on restore.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "log/broker.h"

namespace sqs {

// Offsets here are "next offset to process" (i.e., position after the last
// processed message), matching Consumer positions.
using Checkpoint = std::map<StreamPartition, int64_t>;

// The transactional checkpoint (docs/FAULT_TOLERANCE.md "Exactly-once"):
// one atomic record carrying everything a task needs to resume without
// reprocessing effects — input positions, the changelog high-watermark per
// store partition (state as of this commit), and the idempotent producer's
// next sequence per output partition (so replayed sends dedup at the
// broker). At-least-once tasks leave the last two maps empty, which encodes
// as the legacy offsets-only record.
struct TaskCheckpoint {
  Checkpoint input_offsets;
  std::map<StreamPartition, int64_t> changelog_offsets;
  std::map<StreamPartition, int64_t> producer_sequences;

  bool empty() const {
    return input_offsets.empty() && changelog_offsets.empty() &&
           producer_sequences.empty();
  }
};

class CheckpointManager {
 public:
  CheckpointManager(BrokerPtr broker, std::string checkpoint_topic);

  // Create the checkpoint topic if missing.
  Status Start();

  // One append = one atomic commit point; either every map is visible to a
  // restarted container or none is.
  Status WriteTaskCheckpoint(const std::string& task_name, const TaskCheckpoint& cp);

  // Latest checkpoint for the task, or empty if none was ever written.
  //
  // Reads are served from a task→latest cache built by scanning the topic
  // once per manager (i.e. once per container), then kept current
  // incrementally: each call fetches only [cache_end, end), and
  // WriteTaskCheckpoint updates the cache in place. A container restoring N
  // tasks therefore pays one pass over checkpoint history, not N.
  Result<TaskCheckpoint> ReadLastTaskCheckpoint(const std::string& task_name) const;

  // v2 wire format when state/sequence maps are present (marker varint -1 +
  // version), legacy offsets-only otherwise — old records decode unchanged.
  static Bytes EncodeTaskCheckpoint(const TaskCheckpoint& cp);
  static Result<TaskCheckpoint> DecodeTaskCheckpoint(const Bytes& bytes);

  // Transient (Unavailable) append/fetch failures on the checkpoint topic
  // are retried by this retrier (policy and counters); default is no retry.
  void SetRetrier(Retrier retrier) { retrier_ = std::move(retrier); }

  // Attach write instruments (scoped `checkpoint_writes` /
  // `checkpoint_bytes` counters). Optional; writes are uncounted until bound.
  void BindMetrics(Counter* writes, Counter* bytes) {
    writes_ = writes;
    bytes_ = bytes;
  }

 private:
  // Fold checkpoint entries in [cache_end_, end) into cache_. Holds mu_.
  Status RefreshCacheLocked() const;

  BrokerPtr broker_;
  std::string topic_;
  mutable Retrier retrier_;
  Counter* writes_ = nullptr;
  Counter* bytes_ = nullptr;

  mutable std::mutex mu_;  // guards cache_ and cache_end_
  mutable std::map<std::string, TaskCheckpoint> cache_;
  mutable int64_t cache_end_ = -1;  // next topic offset to fold; -1 = never scanned
};

}  // namespace sqs
