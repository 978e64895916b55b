// Producer: routes messages to partitions. Keyed messages go to
// hash(key) % num_partitions (deterministic, so co-partitioned streams and
// changelogs line up — the paper's stream-to-relation join relies on this,
// §4.4); unkeyed messages round-robin.
//
// With EnableIdempotence(name) the producer acquires a (pid, epoch) from
// the broker and stamps every append with (pid, epoch, seq); the broker
// dedups on seq per (pid, partition) and fences stale epochs, making both
// retries and post-crash replays exactly-once (docs/FAULT_TOLERANCE.md).
// Every send also stamps a CRC32C over key+value, idempotent or not.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/clock.h"
#include "common/hash.h"
#include "common/retry.h"
#include "common/status.h"
#include "log/broker.h"

namespace sqs {

class Producer {
 public:
  explicit Producer(BrokerPtr broker, std::shared_ptr<Clock> clock = nullptr);

  // Transient (Unavailable) append failures are retried by this retrier
  // (policy and counters); default is no retry.
  void SetRetrier(Retrier retrier) { retrier_ = std::move(retrier); }
  const Retrier& retrier() const { return retrier_; }

  // Acquire an idempotent identity from the broker under `name`. A producer
  // for the same name registered later (a restarted container) fences this
  // one: subsequent sends fail kFenced.
  Status EnableIdempotence(const std::string& name);
  bool idempotent() const { return identity_.pid != 0; }
  const ProducerIdentity& identity() const { return identity_; }

  // Sequence counters per output partition — written into the transactional
  // checkpoint at commit, and restored here before the first send so
  // replayed sends carry their original sequences and dedup at the broker.
  void ResumeSequences(const std::map<StreamPartition, int64_t>& sequences) {
    sequences_ = sequences;
  }
  const std::map<StreamPartition, int64_t>& sequences() const { return sequences_; }

  // Optional counter incremented when a send is rejected with kFenced.
  void BindFencingMetric(Counter* fenced) { m_fenced_ = fenced; }

  // Keyed send: partition chosen by key hash. Returns assigned offset.
  Result<int64_t> Send(const std::string& topic, Bytes key, Bytes value);

  // Unkeyed send: round-robin across partitions.
  Result<int64_t> Send(const std::string& topic, Bytes value);

  // Explicit-partition send.
  Result<int64_t> SendTo(const StreamPartition& sp, Bytes key, Bytes value);

  // Source-to-sink latency of the most recent send, in microseconds — the
  // gap between the ambient ingest stamp it inherited and its own append
  // stamp. -1 when the send rooted a new lineage or stamping is off. Reusing
  // the append stamp keeps the e2e histogram off the clock on the hot path
  // (docs/LATENCY.md).
  int64_t last_e2e_us() const { return last_e2e_us_; }

  static int32_t PartitionForKey(const Bytes& key, int32_t num_partitions) {
    return static_cast<int32_t>(Fnv1a64(key) % static_cast<uint64_t>(num_partitions));
  }

 private:
  Result<int64_t> AppendWithRetry(const StreamPartition& sp, Message m);

  BrokerPtr broker_;
  std::shared_ptr<Clock> clock_;
  std::map<std::string, int32_t> round_robin_;
  Retrier retrier_;
  ProducerIdentity identity_;
  std::map<StreamPartition, int64_t> sequences_;  // next seq per partition
  Counter* m_fenced_ = nullptr;
  int64_t last_e2e_us_ = -1;
};

}  // namespace sqs
