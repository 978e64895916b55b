// Changelog-backed store: every write is mirrored to one partition of a
// (compacted) changelog topic; Restore() rebuilds the in-memory state by
// replaying that partition. This is how Samza makes task-local state
// fault tolerant (§2), and how the paper's sliding-window operator and
// stream-to-relation join survive task failure (§4.3–4.4).
#pragma once

#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "kv/store.h"
#include "log/broker.h"

namespace sqs {

class ChangelogBackedStore : public KeyValueStore {
 public:
  // `sp` is the changelog partition for this task (same partition id as the
  // task's input partitions, so restore-after-reschedule finds its data).
  ChangelogBackedStore(KeyValueStorePtr backing, BrokerPtr broker, StreamPartition sp)
      : backing_(std::move(backing)), broker_(std::move(broker)), sp_(std::move(sp)) {}

  std::optional<Bytes> Get(const Bytes& key) const override { return backing_->Get(key); }

  // Put/Delete mirror the write to the changelog first. A broker append
  // failure (after retries) does NOT throw and does NOT apply the write to
  // the backing store — it records a sticky error instead, which the
  // container checks via health() before committing. KeyValueStore's write
  // signatures stay void, so operator code is unchanged; the failure
  // surfaces as a clean task error at the commit boundary rather than an
  // exception unwinding through Status-based code.
  void Put(const Bytes& key, Bytes value) override;
  void Delete(const Bytes& key) override;

  // Ok until a changelog append has permanently failed; then the first
  // failure, sticky until Restore() rebuilds consistent state.
  Status health() const { return health_; }

  void Range(const Bytes& from, const Bytes& to, const RangeCallback& cb) const override {
    backing_->Range(from, to, cb);
  }
  void All(const RangeCallback& cb) const override { backing_->All(cb); }
  size_t Size() const override { return backing_->Size(); }
  int64_t SizeBytes() const override { return backing_->SizeBytes(); }
  void Clear() override;

  // Replay the changelog partition from the beginning into the (cleared)
  // backing store. An empty changelog value is a tombstone (delete).
  // Success resets the sticky health error: replayed state is exactly what
  // the changelog holds, so the store is consistent again.
  //
  // `up_to` < 0 replays everything (the at-least-once default); otherwise
  // replay stops at that offset (exclusive) — exactly-once restore truncates
  // at the checkpointed high-watermark so state never gets ahead of the
  // committed input position. Records are CRC-verified as they are fetched.
  Status Restore(int64_t up_to = -1);

  const StreamPartition& changelog_partition() const { return sp_; }

  // Transient (Unavailable) changelog append/fetch failures are retried by
  // this retrier (policy and counters); default is no retry.
  void SetRetrier(Retrier retrier) { retrier_ = std::move(retrier); }

  // Attach write-volume instruments (scoped `changelog_writes` /
  // `changelog_bytes` counters). Optional; writes are uncounted until bound.
  void BindMetrics(Counter* writes, Counter* bytes) {
    writes_ = writes;
    bytes_ = bytes;
  }

 private:
  Status AppendWithRetry(const Bytes& key, const Bytes& value);
  void CountWrite(size_t key_bytes, size_t value_bytes) {
    if (writes_ == nullptr) return;
    writes_->Inc();
    bytes_->Inc(static_cast<int64_t>(key_bytes + value_bytes));
  }

  KeyValueStorePtr backing_;
  BrokerPtr broker_;
  StreamPartition sp_;
  Status health_;  // sticky first changelog failure
  Retrier retrier_;
  Counter* writes_ = nullptr;  // changelog appends (puts + tombstones)
  Counter* bytes_ = nullptr;   // key + value bytes appended
};

}  // namespace sqs
