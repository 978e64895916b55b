// Polling consumer over a set of assigned stream partitions.
//
// The poll model matters for the evaluation: the paper observes *sublinear*
// scaling because partition count is fixed (32) while task count grows, so
// each task's fetches return fewer messages and fixed per-poll overhead is
// amortized over less data (§5.1). This consumer has exactly that cost
// structure: one Poll() visits each assigned partition once (round-robin
// start for fairness), paying a per-partition fetch, and returns at most
// `max_poll_messages` in total.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "log/broker.h"

namespace sqs {

class Consumer {
 public:
  explicit Consumer(BrokerPtr broker, int32_t max_poll_messages = 256)
      : broker_(std::move(broker)), max_poll_messages_(max_poll_messages) {}

  // Transient (Unavailable) fetch failures inside Poll() are retried by
  // this retrier (policy and counters); default is no retry. Metadata reads
  // (CaughtUp/Lag) are not retried — they are cheap and their callers
  // tolerate an error round.
  void SetRetrier(Retrier retrier) { retrier_ = std::move(retrier); }

  // Cap messages returned per partition per poll (Kafka's
  // max.partition.fetch.bytes analogue). With this set, a container
  // assigned fewer partitions gets smaller poll batches, so fixed per-poll
  // overhead is amortized over less data — the mechanism behind the
  // paper's sublinear container scaling.
  void SetMaxFetchPerPartition(int32_t n) { max_fetch_per_partition_ = n; }

  // Fixed cost charged once per Poll() — the broker round trip a real Kafka
  // fetch request pays. One poll returns up to (assigned partitions x
  // per-partition cap) messages, so consumers with fewer partitions
  // amortize this worse: the mechanism behind the paper's sublinear
  // container scaling (§5.1).
  void SetPollLatencyNanos(int64_t nanos) { poll_latency_nanos_ = nanos; }
  // How the per-poll RTT is charged: kSpin burns real CPU inside Poll()
  // (single-threaded microbenches, where the cost must appear in busy
  // time); kSleep pipelines the fetch: Poll() issues the next fetch as soon
  // as it hands out a batch, and that fetch is ready at a deadline one RTT
  // later, so the round trip overlaps the processing of the batch the way
  // Kafka's fetcher and Samza's BrokerProxy prefetch (the multicore model).
  void SetPollLatencyModel(Broker::LatencyModel m) { poll_latency_model_ = m; }

  // Issue a fetch if none is in flight. The broker is read only when the
  // fetch completes inside Poll(), so it sees every append made before then.
  void Prefetch();
  // Monotonic-clock deadline (ns) at which the in-flight fetch completes; 0
  // when none is in flight. Only the kSleep model sets a future deadline.
  int64_t ReadyAtNanos() const { return std::max<int64_t>(0, fetch_ready_at_); }

  // Assign a partition starting at `offset`. Assign, Unassign and Seek
  // cancel an in-flight fetch.
  Status Assign(const StreamPartition& sp, int64_t offset);
  Status Unassign(const StreamPartition& sp);
  bool IsAssigned(const StreamPartition& sp) const { return positions_.count(sp) > 0; }

  // Current fetch position (next offset to fetch) for an assigned partition.
  Result<int64_t> Position(const StreamPartition& sp) const;
  Status Seek(const StreamPartition& sp, int64_t offset);

  // Complete the in-flight fetch (issuing one first if none is), blocking
  // until its deadline, and deliver the next batch across assigned
  // partitions; then issue the next fetch. Empty result means fully caught
  // up. Positions advance only here, on delivery.
  Result<std::vector<IncomingMessage>> Poll();

  // True when every assigned partition's position has reached the end
  // offset (used for bootstrap-stream drain detection).
  Result<bool> CaughtUp() const;

  // Messages remaining across assigned partitions (end - position).
  Result<int64_t> Lag() const;

  // Per-partition lag (end - position) for every assigned partition. Feeds
  // the container's `lag.<topic>.<partition>` gauges.
  Result<std::map<StreamPartition, int64_t>> PerPartitionLag() const;

  const std::map<StreamPartition, int64_t>& assignments() const { return positions_; }

 private:
  BrokerPtr broker_;
  int32_t max_poll_messages_;
  int32_t max_fetch_per_partition_ = 0;  // 0 = unlimited
  int64_t poll_latency_nanos_ = 0;
  Broker::LatencyModel poll_latency_model_ = Broker::LatencyModel::kSpin;
  int64_t fetch_ready_at_ = -1;  // -1 = no fetch in flight
  std::map<StreamPartition, int64_t> positions_;
  size_t next_start_ = 0;  // round-robin start index over assignments
  Retrier retrier_;
};

}  // namespace sqs
