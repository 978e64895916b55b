// In-process broker: the Kafka substitute. Topics of append-only
// partitions; dense offsets from a log-start offset; fetch by offset with
// batch limits; time/size-based retention that advances the log-start
// offset (old elements become unavailable, like Kafka retention).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "log/durable_log.h"
#include "log/message.h"
#include "log/record_log.h"

namespace sqs {

struct TopicConfig {
  int32_t num_partitions = 1;
  // Retain at most this many messages per partition (0 = unbounded).
  int64_t retention_messages = 0;
  // Log-compacted topic (changelogs): retain only the newest message per
  // key when Compact() runs.
  bool compacted = false;
  // Commit-barrier topic (checkpoint topics): when the durable log is on,
  // an append here first forces every dirty partition log to stable storage
  // and then fsyncs its own record — a checkpoint can never be durable
  // while output it covers is still in page cache (docs/DURABILITY.md).
  bool fsync_barrier = false;
};

// Backlog of one partition beyond a consumer's position: how many messages
// and payload bytes remain unfetched, and the append time of the oldest of
// them (-1 when there is no backlog). `now - oldest_append_ms` is the
// freshness lag the container exports (docs/LATENCY.md).
struct PartitionBacklog {
  int64_t messages = 0;
  int64_t bytes = 0;
  int64_t oldest_append_ms = -1;
};

// Identity handed out by RegisterProducer: a stable id per producer name
// plus a monotonically increasing epoch. Re-registering the same name bumps
// the epoch, fencing every earlier holder (Kafka's producer id/epoch model).
struct ProducerIdentity {
  uint64_t pid = 0;  // 0 = no idempotent identity
  int32_t epoch = -1;
};

// Virtual so decorators (log/fault_broker.h) can interpose on any
// operation; the in-process implementation below is the default.
class Broker {
 public:
  // Out of line: best-effort final sync of the durable log.
  virtual ~Broker();

  // Simulated network round-trip cost charged on every Fetch call. A real
  // Kafka fetch pays a broker RTT regardless of how much data it returns;
  // this knob reproduces that fixed cost so poll batch size affects
  // throughput the way it does on a cluster. Defaults to 0 (off) — the
  // bench harness turns it on. Atomic: the bench/driver thread writes it
  // while container threads read it on every fetch (regression: this was a
  // plain int64_t, a data race under the threaded executor).
  virtual void SetFetchLatencyNanos(int64_t nanos) {
    fetch_latency_nanos_.store(nanos, std::memory_order_relaxed);
  }
  virtual int64_t fetch_latency_nanos() const {
    return fetch_latency_nanos_.load(std::memory_order_relaxed);
  }
  // How the simulated RTT is charged: kSpin burns real CPU (the cost shows
  // up in measured busy time — right for single-threaded microbenches);
  // kSleep blocks the calling thread without consuming CPU (right for the
  // contended multicore bench, where concurrent containers overlap their
  // RTT waits exactly like real network I/O). See docs/EXECUTION.md.
  enum class LatencyModel { kSpin, kSleep };
  virtual void SetFetchLatencyModel(LatencyModel m) {
    fetch_latency_sleeps_.store(m == LatencyModel::kSleep,
                                std::memory_order_relaxed);
  }

  virtual Status CreateTopic(const std::string& name, TopicConfig config);
  virtual bool HasTopic(const std::string& name) const;
  virtual Result<int32_t> NumPartitions(const std::string& topic) const;
  virtual std::vector<std::string> Topics() const;

  // Acquire (or re-acquire) an idempotent-producer identity. The first
  // registration of a name gets a fresh pid at epoch 0; every later
  // registration of the same name keeps the pid and bumps the epoch, so a
  // restarted container fences its pre-crash zombie.
  virtual Result<ProducerIdentity> RegisterProducer(const std::string& name);

  // Idempotence bookkeeping, for tests and gauges: appends dropped as
  // duplicates (sequence already seen) and appends rejected with kFenced.
  virtual int64_t dups_dropped() const { return dups_dropped_.load(); }
  virtual int64_t fenced_appends() const { return fenced_appends_.load(); }

  // Append; returns the assigned offset. A message stamped with a
  // (pid, epoch, seq) is checked against the partition's per-producer state:
  // a stale epoch fails kFenced, an already-seen sequence is dropped and
  // acked at its original offset (the idempotent-retry path), and a
  // sequence gap is a kStateError (messages lost between producer and log).
  virtual Result<int64_t> Append(const StreamPartition& sp, Message message);

  // Fetch up to max_messages starting at `offset`. Returns fewer (possibly
  // zero) if the log is short. Fetching below the log-start offset is an
  // error (the data was retained away); fetching at/after the end offset
  // returns an empty batch.
  virtual Result<std::vector<IncomingMessage>> Fetch(const StreamPartition& sp,
                                                     int64_t offset,
                                                     int32_t max_messages) const;

  // Next offset to be assigned (== high watermark).
  virtual Result<int64_t> EndOffset(const StreamPartition& sp) const;
  // Oldest available offset.
  virtual Result<int64_t> BeginOffset(const StreamPartition& sp) const;

  // Apply retention/compaction policy to all partitions of a topic.
  virtual Status EnforceRetention(const std::string& topic);
  virtual Status Compact(const std::string& topic);

  // Backlog (messages, payload bytes, oldest append time) at/after `offset`.
  // An offset below the log start clamps to it — retained-away data no
  // longer contributes to backlog. O(1): payload bytes come from the record
  // log's cumulative byte ledger, not from walking records.
  virtual Result<PartitionBacklog> BacklogFrom(const StreamPartition& sp,
                                               int64_t offset) const;

  // Total messages currently held in a topic (across partitions).
  virtual Result<int64_t> TopicSize(const std::string& topic) const;

  virtual Status DeleteTopic(const std::string& name);

  // --- durable log (docs/DURABILITY.md) ---
  // Turn on the disk-backed log. With a non-empty `options.dir` image this
  // recovers: topic configs and producer identities replay from the meta
  // logs, partitions rebuild from their segments (truncating torn tails),
  // and the disk image is authoritative for any topic present in both
  // places. Heap-only topics and producers are bootstrapped to disk.
  // Idempotent for the same directory; a second directory is an error, and
  // so is recovering a non-empty producer image into a broker that already
  // handed out producer ids (the pid spaces cannot be reconciled).
  // `options.enabled == false` is a no-op.
  virtual Status EnableDurability(DurableLogOptions options);
  // Force every dirty partition log to stable storage (commit barrier).
  virtual Status SyncDurableLog();
  virtual bool durable() const { return durable_.load(std::memory_order_acquire); }

 private:
  // Newest epoch of one producer id, published by RegisterProducer and read
  // lock-free on the append data path. Cells live in a sharded registry and
  // are never freed while the broker lives, so a Partition may cache a raw
  // pointer to its producer's cell.
  struct EpochCell {
    std::atomic<int32_t> epoch{-1};
  };
  // Last sequence accepted from one producer on one partition; dedup state.
  // `epoch_cell` caches the producer's epoch cell after the first append so
  // the fencing check is a single atomic load under the partition lock —
  // the global producer registry lock never appears on the data path.
  struct ProducerSeqState {
    int64_t last_seq = -1;
    int64_t last_offset = -1;
    EpochCell* epoch_cell = nullptr;
  };
  struct Partition {
    mutable std::mutex mu;
    int64_t log_start = 0;
    RecordLog records;  // record i has offset log_start + i
    std::map<uint64_t, ProducerSeqState> producers;  // by pid
    // Disk image of this partition (null while durability is off). Written
    // under `mu`; shared_ptr so the handle moves without the header needing
    // the complete type's destructor at every use site.
    std::shared_ptr<DurablePartitionLog> dlog;
    bool fsync_barrier = false;  // copied from TopicConfig at wiring time
  };
  struct Topic {
    TopicConfig config;
    std::vector<std::unique_ptr<Partition>> partitions;
  };

  Result<Partition*> GetPartition(const StreamPartition& sp) const;
  // Look up a producer's epoch cell (nullptr if the pid was never
  // registered). Takes only the owning shard's lock; the returned pointer
  // stays valid for the broker's lifetime.
  EpochCell* FindEpochCell(uint64_t pid) const;
  void Spin(int64_t nanos) const;

  // --- durable-log internals (require mu_ unless noted) ---
  SegmentLogOptions MakeSegmentOptions(const std::string& scope) const;
  // Append + fsync one record to a meta log (takes meta_mu_ only).
  Status AppendMeta(SegmentLog* meta, Bytes payload);
  // Replay the meta logs and partition segments under durable_options_.dir
  // into heap state; sweeps orphan topic dirs and staged rewrites.
  Status RecoverFromDir();
  // Write one heap-resident topic (config + all partition contents) to a
  // fresh disk image and wire its partitions' dlogs.
  Status BootstrapTopicToDisk(const std::string& name, Topic* topic);
  // Open (or create) the segment directory of one partition and wire it.
  Status WirePartition(const std::string& topic_name, const TopicConfig& config,
                       int32_t partition, Partition* part, bool replace_heap);

  mutable std::mutex mu_;  // guards the topic map, not partition contents
  std::map<std::string, std::unique_ptr<Topic>> topics_;
  std::atomic<int64_t> fetch_latency_nanos_{0};
  std::atomic<bool> fetch_latency_sleeps_{false};

  // Producer-name registry: control path only (RegisterProducer). The
  // append data path never takes this lock — epoch state lives in the
  // sharded cell registry below.
  mutable std::mutex producers_mu_;
  std::map<std::string, ProducerIdentity> producers_by_name_;
  uint64_t next_pid_ = 1;
  // Sharded pid -> EpochCell registry. Sharding keeps RegisterProducer
  // (epoch bumps during restarts) from contending with first-touch lookups
  // from unrelated producers; steady-state appends bypass the shards
  // entirely via the cached cell pointer.
  static constexpr size_t kEpochShards = 16;
  struct EpochShard {
    mutable std::mutex mu;
    std::map<uint64_t, std::unique_ptr<EpochCell>> cells;
  };
  mutable EpochShard epoch_shards_[kEpochShards];
  std::atomic<int64_t> dups_dropped_{0};
  std::atomic<int64_t> fenced_appends_{0};

  // Durable-log state. `durable_` is the fast-path flag (acquire/release
  // paired with EnableDurability's store); the options and meta logs only
  // change under mu_ while it is false.
  std::atomic<bool> durable_{false};
  DurableLogOptions durable_options_;
  mutable std::mutex meta_mu_;  // serializes the two meta logs
  std::unique_ptr<SegmentLog> topics_meta_;
  std::unique_ptr<SegmentLog> producers_meta_;
};

using BrokerPtr = std::shared_ptr<Broker>;

}  // namespace sqs
