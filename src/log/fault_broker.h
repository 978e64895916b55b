// FaultInjectingBroker: a decorator over the Broker interface that injects
// seeded, reproducible failures into the data path — the harness behind the
// crash-recovery tests (docs/FAULT_TOLERANCE.md). Injection covers Append
// and Fetch only; metadata operations (offsets, topic lookup) always pass
// through, matching the failure modes a Kafka client actually retries.
//
// Three failure shapes:
//  - transient: each Append/Fetch independently fails with Unavailable at a
//    configured probability (seeded RNG, so a failure schedule is a pure
//    function of the seed and the operation sequence);
//  - forced: FailNextAppends/FailNextFetches deterministically fail the next
//    N operations — tests use this to place a fault at an exact point;
//  - permanent: a blacked-out partition fails every data operation until
//    Heal()/HealAll() — models a broker node outage.
// Injected latency (a real CPU spin, like the broker's simulated RTT) can be
// attached to a random fraction of data operations.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "log/broker.h"

namespace sqs {

// The failure schedule, set in code by the test or harness that builds the
// decorator. Every rate is a probability in [0,1].
struct FaultPolicy {
  // RNG seed of the transient-failure schedule.
  uint64_t seed = 1;
  // Chance that an Append / Fetch fails with Unavailable.
  double append_fail_rate = 0.0;
  double fetch_fail_rate = 0.0;
  // CPU-spin `latency_nanos` on a `latency_rate` fraction of data operations.
  int64_t latency_nanos = 0;
  double latency_rate = 0.0;
  std::vector<std::string> topics;  // empty = inject everywhere
  // Chance that a fetched message has one payload bit flipped in transit
  // (caught downstream by the CRC32C check).
  double corrupt_rate = 0.0;
  std::vector<std::string> corrupt_topics;  // empty = fall back to `topics`
};

class FaultInjectingBroker : public Broker {
 public:
  FaultInjectingBroker(BrokerPtr inner, FaultPolicy policy);

  // --- test-driven fault control ---
  // Deterministically fail the next n data operations (regardless of rate).
  void FailNextAppends(int32_t n) { forced_append_failures_.store(n); }
  void FailNextFetches(int32_t n) { forced_fetch_failures_.store(n); }
  // Deterministically corrupt (bit-flip) the next n fetched messages.
  void CorruptNextMessages(int32_t n) { forced_corruptions_.store(n); }
  // Permanent failure of one partition's data path until healed.
  void BlackoutPartition(const StreamPartition& sp);
  void Heal(const StreamPartition& sp);
  void HealAll();

  // --- observability for tests ---
  int64_t injected_append_failures() const { return append_failures_.load(); }
  int64_t injected_fetch_failures() const { return fetch_failures_.load(); }
  int64_t injected_corruptions() const { return corruptions_.load(); }
  // Data operations observed per topic (successful or failed). The
  // checkpoint-manager scan-once test counts fetches through these.
  int64_t AppendCount(const std::string& topic) const;
  int64_t FetchCount(const std::string& topic) const;

  const BrokerPtr& inner() const { return inner_; }

  // --- Broker interface: delegation with injection on the data path ---
  void SetFetchLatencyNanos(int64_t nanos) override {
    inner_->SetFetchLatencyNanos(nanos);
  }
  int64_t fetch_latency_nanos() const override {
    return inner_->fetch_latency_nanos();
  }
  void SetFetchLatencyModel(LatencyModel m) override {
    inner_->SetFetchLatencyModel(m);
  }
  Status CreateTopic(const std::string& name, TopicConfig config) override {
    return inner_->CreateTopic(name, std::move(config));
  }
  bool HasTopic(const std::string& name) const override {
    return inner_->HasTopic(name);
  }
  Result<int32_t> NumPartitions(const std::string& topic) const override {
    return inner_->NumPartitions(topic);
  }
  std::vector<std::string> Topics() const override { return inner_->Topics(); }

  // Idempotence is broker state: delegate so producers registered through
  // the decorator fence/dedup against the shared inner registry.
  Result<ProducerIdentity> RegisterProducer(const std::string& name) override {
    return inner_->RegisterProducer(name);
  }
  int64_t dups_dropped() const override { return inner_->dups_dropped(); }
  int64_t fenced_appends() const override { return inner_->fenced_appends(); }

  Result<int64_t> Append(const StreamPartition& sp, Message message) override;
  Result<std::vector<IncomingMessage>> Fetch(const StreamPartition& sp,
                                             int64_t offset,
                                             int32_t max_messages) const override;

  Result<int64_t> EndOffset(const StreamPartition& sp) const override {
    return inner_->EndOffset(sp);
  }
  Result<int64_t> BeginOffset(const StreamPartition& sp) const override {
    return inner_->BeginOffset(sp);
  }
  Status EnforceRetention(const std::string& topic) override {
    return inner_->EnforceRetention(topic);
  }
  Status Compact(const std::string& topic) override { return inner_->Compact(topic); }
  Result<PartitionBacklog> BacklogFrom(const StreamPartition& sp,
                                       int64_t offset) const override {
    return inner_->BacklogFrom(sp, offset);
  }
  Result<int64_t> TopicSize(const std::string& topic) const override {
    return inner_->TopicSize(topic);
  }
  Status DeleteTopic(const std::string& name) override {
    return inner_->DeleteTopic(name);
  }

  // Durability is broker state: delegate so the disk image lives behind the
  // shared inner broker regardless of which handle enabled it.
  Status EnableDurability(DurableLogOptions options) override {
    return inner_->EnableDurability(std::move(options));
  }
  Status SyncDurableLog() override { return inner_->SyncDurableLog(); }
  bool durable() const override { return inner_->durable(); }

 private:
  bool TopicCovered(const std::string& topic) const;
  bool CorruptionCovers(const std::string& topic) const;
  // Flip one deterministic payload bit of `m` (value if present, else key).
  void CorruptMessage(Message& m) const;
  bool Blackout(const StreamPartition& sp) const;
  // Draw in [0,1) from the seeded schedule (thread-safe).
  double NextUniform() const;
  void MaybeInjectLatency() const;
  void CountOp(std::map<std::string, int64_t>& counts, const std::string& topic) const;

  BrokerPtr inner_;
  FaultPolicy policy_;

  mutable std::mutex mu_;  // guards rng_, blackouts_, op counts
  mutable uint64_t rng_;   // SplitMix64 state
  std::set<StreamPartition> blackouts_;
  mutable std::map<std::string, int64_t> append_counts_;
  mutable std::map<std::string, int64_t> fetch_counts_;

  std::atomic<int32_t> forced_append_failures_{0};
  mutable std::atomic<int32_t> forced_fetch_failures_{0};
  mutable std::atomic<int32_t> forced_corruptions_{0};
  std::atomic<int64_t> append_failures_{0};
  mutable std::atomic<int64_t> fetch_failures_{0};
  mutable std::atomic<int64_t> corruptions_{0};
};

}  // namespace sqs
