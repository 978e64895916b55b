// Local key-value state stores, mirroring Samza's managed task-local
// storage (§2 "Fault-tolerant Local State"). Byte-oriented interface with
// ordered iteration (needed by the sliding-window operator's time-indexed
// message store).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace sqs {

class KeyValueStore {
 public:
  virtual ~KeyValueStore() = default;

  virtual std::optional<Bytes> Get(const Bytes& key) const = 0;
  virtual void Put(const Bytes& key, Bytes value) = 0;
  virtual void Delete(const Bytes& key) = 0;

  // In-order scan of [from, to). Callback returns false to stop early.
  using RangeCallback = std::function<bool(const Bytes& key, const Bytes& value)>;
  virtual void Range(const Bytes& from, const Bytes& to, const RangeCallback& cb) const = 0;

  // In-order scan of the whole store.
  virtual void All(const RangeCallback& cb) const = 0;

  virtual size_t Size() const = 0;

  // Resident payload bytes (keys + values). Feeds the per-job resource
  // ledger's state high-water mark (docs/LATENCY.md); stores that cannot
  // account cheaply may report 0.
  virtual int64_t SizeBytes() const { return 0; }

  virtual void Clear() = 0;
};

using KeyValueStorePtr = std::shared_ptr<KeyValueStore>;

// Ordered in-memory store (std::map keyed bytewise). Plays the role of
// Samza's RocksDB-backed store; bytewise ordering matches EncodeOrderedKey.
class InMemoryStore : public KeyValueStore {
 public:
  std::optional<Bytes> Get(const Bytes& key) const override {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  void Put(const Bytes& key, Bytes value) override {
    auto it = map_.find(key);
    if (it == map_.end()) {
      bytes_ += static_cast<int64_t>(key.size() + value.size());
      map_.emplace(key, std::move(value));
    } else {
      bytes_ += static_cast<int64_t>(value.size()) -
                static_cast<int64_t>(it->second.size());
      it->second = std::move(value);
    }
  }
  void Delete(const Bytes& key) override {
    auto it = map_.find(key);
    if (it == map_.end()) return;
    bytes_ -= static_cast<int64_t>(it->first.size() + it->second.size());
    map_.erase(it);
  }

  void Range(const Bytes& from, const Bytes& to, const RangeCallback& cb) const override {
    for (auto it = map_.lower_bound(from); it != map_.end() && it->first < to; ++it) {
      if (!cb(it->first, it->second)) return;
    }
  }
  void All(const RangeCallback& cb) const override {
    for (const auto& [k, v] : map_) {
      if (!cb(k, v)) return;
    }
  }

  size_t Size() const override { return map_.size(); }
  int64_t SizeBytes() const override { return bytes_; }
  void Clear() override {
    map_.clear();
    bytes_ = 0;
  }

 private:
  std::map<Bytes, Bytes> map_;
  int64_t bytes_ = 0;  // incremental Σ key+value sizes of live entries
};

// Models the access latency of a disk-backed store (the paper's task-local
// stores are RocksDB instances whose read/write cost dominates the sliding
// window throughput, Figure 6; on EC2 they even hit I/O throttling). Each
// Get/Put/Delete spins for `latency_nanos` of real CPU time on top of the
// wrapped store's work, so measured throughput reflects store-bound
// behaviour. Scans charge once per visited entry.
class LatencyStore : public KeyValueStore {
 public:
  LatencyStore(KeyValueStorePtr backing, int64_t latency_nanos)
      : backing_(std::move(backing)), latency_nanos_(latency_nanos) {}

  std::optional<Bytes> Get(const Bytes& key) const override {
    Spin(latency_nanos_);
    return backing_->Get(key);
  }
  void Put(const Bytes& key, Bytes value) override {
    Spin(latency_nanos_);
    backing_->Put(key, std::move(value));
  }
  void Delete(const Bytes& key) override {
    Spin(latency_nanos_);
    backing_->Delete(key);
  }
  void Range(const Bytes& from, const Bytes& to, const RangeCallback& cb) const override {
    backing_->Range(from, to, [&](const Bytes& k, const Bytes& v) {
      Spin(latency_nanos_ / 4);  // sequential reads are cheaper than seeks
      return cb(k, v);
    });
  }
  void All(const RangeCallback& cb) const override {
    backing_->All(cb);
  }
  size_t Size() const override { return backing_->Size(); }
  int64_t SizeBytes() const override { return backing_->SizeBytes(); }
  void Clear() override { backing_->Clear(); }

 private:
  static void Spin(int64_t nanos);

  KeyValueStorePtr backing_;
  int64_t latency_nanos_;
};

}  // namespace sqs
