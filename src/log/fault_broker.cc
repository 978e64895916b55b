#include "log/fault_broker.h"

#include <chrono>

#include "common/clock.h"

namespace sqs {
namespace {

// SplitMix64: tiny, seedable, and good enough for a Bernoulli schedule.
uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void SpinFor(int64_t nanos) {
  int64_t start = MonotonicNanos();
  while (MonotonicNanos() - start < nanos) {
    // busy-wait: injected latency must consume time even under ManualClock
  }
}

}  // namespace

FaultInjectingBroker::FaultInjectingBroker(BrokerPtr inner, FaultPolicy policy)
    : inner_(std::move(inner)), policy_(std::move(policy)), rng_(policy_.seed) {}

void FaultInjectingBroker::BlackoutPartition(const StreamPartition& sp) {
  std::lock_guard<std::mutex> lock(mu_);
  blackouts_.insert(sp);
}

void FaultInjectingBroker::Heal(const StreamPartition& sp) {
  std::lock_guard<std::mutex> lock(mu_);
  blackouts_.erase(sp);
}

void FaultInjectingBroker::HealAll() {
  std::lock_guard<std::mutex> lock(mu_);
  blackouts_.clear();
}

int64_t FaultInjectingBroker::AppendCount(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = append_counts_.find(topic);
  return it == append_counts_.end() ? 0 : it->second;
}

int64_t FaultInjectingBroker::FetchCount(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fetch_counts_.find(topic);
  return it == fetch_counts_.end() ? 0 : it->second;
}

bool FaultInjectingBroker::TopicCovered(const std::string& topic) const {
  if (policy_.topics.empty()) return true;
  for (const auto& t : policy_.topics) {
    if (t == topic) return true;
  }
  return false;
}

bool FaultInjectingBroker::CorruptionCovers(const std::string& topic) const {
  if (policy_.corrupt_topics.empty()) return TopicCovered(topic);
  for (const auto& t : policy_.corrupt_topics) {
    if (t == topic) return true;
  }
  return false;
}

void FaultInjectingBroker::CorruptMessage(Message& m) const {
  // Flip one bit of the payload, never the size or the idempotence header —
  // this models wire/disk corruption of the bytes the CRC actually covers.
  Bytes& target = m.value.empty() ? m.key : m.value;
  if (target.empty()) return;
  uint64_t draw;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draw = SplitMix64(rng_);
  }
  size_t byte_index = static_cast<size_t>(draw >> 3) % target.size();
  target[byte_index] ^= static_cast<uint8_t>(1u << (draw & 7));
  corruptions_.fetch_add(1);
}

bool FaultInjectingBroker::Blackout(const StreamPartition& sp) const {
  std::lock_guard<std::mutex> lock(mu_);
  return blackouts_.count(sp) > 0;
}

double FaultInjectingBroker::NextUniform() const {
  std::lock_guard<std::mutex> lock(mu_);
  // 53 random bits → uniform double in [0,1).
  return static_cast<double>(SplitMix64(rng_) >> 11) * 0x1.0p-53;
}

void FaultInjectingBroker::MaybeInjectLatency() const {
  if (policy_.latency_nanos <= 0 || policy_.latency_rate <= 0) return;
  if (NextUniform() < policy_.latency_rate) SpinFor(policy_.latency_nanos);
}

void FaultInjectingBroker::CountOp(std::map<std::string, int64_t>& counts,
                                   const std::string& topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts[topic];
}

Result<int64_t> FaultInjectingBroker::Append(const StreamPartition& sp,
                                             Message message) {
  CountOp(append_counts_, sp.topic);
  if (TopicCovered(sp.topic)) {
    if (Blackout(sp)) {
      append_failures_.fetch_add(1);
      return Status::Unavailable("partition blackout: " + sp.ToString());
    }
    // fetch_sub so concurrent callers can't both consume the last token.
    if (forced_append_failures_.load() > 0 &&
        forced_append_failures_.fetch_sub(1) > 0) {
      append_failures_.fetch_add(1);
      return Status::Unavailable("injected append failure: " + sp.ToString());
    }
    MaybeInjectLatency();
    if (policy_.append_fail_rate > 0 && NextUniform() < policy_.append_fail_rate) {
      append_failures_.fetch_add(1);
      return Status::Unavailable("injected append failure: " + sp.ToString());
    }
  }
  return inner_->Append(sp, std::move(message));
}

Result<std::vector<IncomingMessage>> FaultInjectingBroker::Fetch(
    const StreamPartition& sp, int64_t offset, int32_t max_messages) const {
  CountOp(fetch_counts_, sp.topic);
  if (TopicCovered(sp.topic)) {
    if (Blackout(sp)) {
      fetch_failures_.fetch_add(1);
      return Status::Unavailable("partition blackout: " + sp.ToString());
    }
    if (forced_fetch_failures_.load() > 0 &&
        forced_fetch_failures_.fetch_sub(1) > 0) {
      fetch_failures_.fetch_add(1);
      return Status::Unavailable("injected fetch failure: " + sp.ToString());
    }
    MaybeInjectLatency();
    if (policy_.fetch_fail_rate > 0 && NextUniform() < policy_.fetch_fail_rate) {
      fetch_failures_.fetch_add(1);
      return Status::Unavailable("injected fetch failure: " + sp.ToString());
    }
  }
  auto fetched = inner_->Fetch(sp, offset, max_messages);
  if (!fetched.ok()) return fetched;
  // Corruption happens on the returned copies only — the log stays intact,
  // so a refetch after a CRC failure observes clean bytes (transient
  // corruption, the case the crash-and-replay policy is built for).
  if (CorruptionCovers(sp.topic)) {
    for (IncomingMessage& m : fetched.value()) {
      if (forced_corruptions_.load() > 0 && forced_corruptions_.fetch_sub(1) > 0) {
        CorruptMessage(m.message);
      } else if (policy_.corrupt_rate > 0 && NextUniform() < policy_.corrupt_rate) {
        CorruptMessage(m.message);
      }
    }
  }
  return fetched;
}

}  // namespace sqs
