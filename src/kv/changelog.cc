#include "kv/changelog.h"

#include <algorithm>

#include "common/logging.h"

namespace sqs {

Status ChangelogBackedStore::AppendWithRetry(const Bytes& key, const Bytes& value) {
  return retrier_.Run([&]() -> Status {
    Message m;
    m.key = key;
    m.value = value;
    StampMessageCrc(m);
    auto r = broker_->Append(sp_, std::move(m));
    return r.ok() ? Status::Ok() : r.status();
  });
}

void ChangelogBackedStore::Put(const Bytes& key, Bytes value) {
  if (!health_.ok()) return;  // already failed; don't diverge further
  Status st = AppendWithRetry(key, value);
  if (!st.ok()) {
    health_ = st;
    SQS_ERRORC("changelog", "append failed, store unhealthy until restore",
               {"partition", sp_.ToString()}, {"error", st.ToString()});
    return;  // backing store untouched: it never holds un-logged state
  }
  CountWrite(key.size(), value.size());
  backing_->Put(key, std::move(value));
}

void ChangelogBackedStore::Delete(const Bytes& key) {
  if (!health_.ok()) return;
  Status st = AppendWithRetry(key, Bytes{});  // tombstone
  if (!st.ok()) {
    health_ = st;
    SQS_ERRORC("changelog", "tombstone append failed, store unhealthy until restore",
               {"partition", sp_.ToString()}, {"error", st.ToString()});
    return;
  }
  CountWrite(key.size(), 0);
  backing_->Delete(key);
}

void ChangelogBackedStore::Clear() { backing_->Clear(); }

Status ChangelogBackedStore::Restore(int64_t up_to) {
  backing_->Clear();
  SQS_ASSIGN_OR_RETURN(begin, broker_->BeginOffset(sp_));
  SQS_ASSIGN_OR_RETURN(end, broker_->EndOffset(sp_));
  if (up_to >= 0 && up_to < end) end = up_to;
  int64_t pos = begin;
  int64_t restored = 0;
  while (pos < end) {
    std::vector<IncomingMessage> batch;
    int32_t limit = static_cast<int32_t>(std::min<int64_t>(1024, end - pos));
    SQS_RETURN_IF_ERROR(retrier_.Run([&]() -> Status {
      auto r = broker_->Fetch(sp_, pos, limit);
      if (!r.ok()) return r.status();
      batch = std::move(r).value();
      // CRC check inside the retried fetch: the injector corrupts the
      // fetched copies, not the log, so a refetch heals it — the same
      // transient class as an Unavailable fetch.
      for (const auto& m : batch) {
        if (!MessageCrcValid(m.message)) {
          return Status::Unavailable("changelog crc mismatch at " +
                                     sp_.ToString() + "@" +
                                     std::to_string(m.offset));
        }
      }
      return Status::Ok();
    }));
    if (batch.empty()) break;
    for (auto& m : batch) {
      if (m.message.value.empty()) {
        backing_->Delete(m.message.key);
      } else {
        backing_->Put(m.message.key, std::move(m.message.value));
      }
      ++restored;
    }
    pos += static_cast<int64_t>(batch.size());
  }
  // Replayed state matches the changelog exactly — any sticky write failure
  // from the previous incarnation is moot now.
  health_ = Status::Ok();
  SQS_DEBUGC("kv", "restored " << restored << " changelog entries from " << sp_.ToString());
  return Status::Ok();
}

}  // namespace sqs
