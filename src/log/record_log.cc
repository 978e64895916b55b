#include "log/record_log.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <unordered_map>

namespace sqs {

namespace {

constexpr uint8_t kTraceSampled = 1;
constexpr uint8_t kTraceHasId = 2;
constexpr uint8_t kTraceHasSpan = 4;

// Upper bound of a record's encoded size: ten bytes per varint, four for
// the crc, one per bool and per flags byte.
size_t MaxRecordBytes(size_t key_n, size_t value_n) {
  constexpr size_t kMeta = 6 * 10 + 4 + 1;
  constexpr size_t kTrace = 1 + 2 * 10;
  return kMeta + kTrace + 2 * 10 + key_n + value_n;
}

// BytesWriter's encodings into space the caller has already reserved.
class RawWriter {
 public:
  explicit RawWriter(uint8_t* p) : p_(p) {}
  uint8_t* position() const { return p_; }

  void WriteByte(uint8_t b) { *p_++ = b; }
  void WriteBool(bool b) { *p_++ = b ? 1 : 0; }
  void WriteVarint(int64_t v) {
    uint64_t z = (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
    while (z >= 0x80) {
      *p_++ = static_cast<uint8_t>(z) | 0x80;
      z >>= 7;
    }
    *p_++ = static_cast<uint8_t>(z);
  }
  void WriteFixed32(uint32_t v) {
    for (int i = 0; i < 4; ++i) *p_++ = static_cast<uint8_t>(v >> (8 * i));
  }
  void WriteLengthPrefixed(ByteSpan b) {
    WriteVarint(static_cast<int64_t>(b.size()));
    if (!b.empty()) std::memcpy(p_, b.data(), b.size());
    p_ += b.size();
  }

 private:
  uint8_t* p_;
};

// Records in a log are written by Append, so a failed read is a bug in
// this file, not bad input.
void CheckDecoded(bool ok) {
  if (!ok) std::abort();
}

}  // namespace

void RecordLog::Append(const Message& meta, ByteSpan key, ByteSpan value) {
  size_t bound = MaxRecordBytes(key.size(), value.size());
  if (chunks_.empty() || chunks_.back().capacity - chunks_.back().used < bound) {
    size_t capacity = std::max(kChunkBytes, bound);
    chunks_.push_back(
        {std::make_unique_for_overwrite<uint8_t[]>(capacity), 0,
         static_cast<uint32_t>(capacity)});
  }
  Chunk& chunk = chunks_.back();
  RawWriter w(chunk.data.get() + chunk.used);
  WriteMetaFields(w, meta);
  const TraceContext& trace = meta.trace;
  w.WriteByte((trace.sampled ? kTraceSampled : 0) |
              (trace.trace_id != 0 ? kTraceHasId : 0) |
              (trace.span_id != 0 ? kTraceHasSpan : 0));
  if (trace.trace_id != 0) w.WriteVarint(static_cast<int64_t>(trace.trace_id));
  if (trace.span_id != 0) w.WriteVarint(static_cast<int64_t>(trace.span_id));
  w.WriteLengthPrefixed(key);
  w.WriteLengthPrefixed(value);

  slots_.push_back({first_chunk_ + static_cast<uint32_t>(chunks_.size() - 1),
                    chunk.used});
  chunk.used = static_cast<uint32_t>(w.position() - chunk.data.get());
  int64_t prev = cum_bytes_.empty() ? bytes_base_ : cum_bytes_.back();
  cum_bytes_.push_back(prev + static_cast<int64_t>(key.size() + value.size()));
}

FieldReader RecordLog::ReaderAt(size_t i) const {
  const Slot& slot = slots_[i];
  const Chunk& chunk = chunks_[slot.chunk - first_chunk_];
  return FieldReader(chunk.data.get() + slot.pos, chunk.data.get() + chunk.used);
}

void RecordLog::Decode(size_t i, Message* meta, ByteSpan* key,
                       ByteSpan* value) const {
  FieldReader r = ReaderAt(i);
  bool ok = ReadMetaFields(r, meta);
  uint8_t flags = 0;
  int64_t trace_id = 0;
  int64_t span_id = 0;
  ok = ok && r.Byte(&flags);
  if (ok && (flags & kTraceHasId)) ok = r.Varint(&trace_id);
  if (ok && (flags & kTraceHasSpan)) ok = r.Varint(&span_id);
  meta->trace = {static_cast<uint64_t>(trace_id), static_cast<uint64_t>(span_id),
                 (flags & kTraceSampled) != 0};
  ok = ok && r.LengthPrefixed(key) && r.LengthPrefixed(value);
  CheckDecoded(ok);
}

RecordView RecordLog::View(size_t i) const {
  RecordView out;
  Decode(i, &out.meta, &out.key, &out.value);
  return out;
}

void RecordLog::Read(size_t i, Message* out) const {
  ByteSpan key;
  ByteSpan value;
  Decode(i, out, &key, &value);
  out->key.assign(key.begin(), key.end());
  out->value.assign(value.begin(), value.end());
}

int64_t RecordLog::Timestamp(size_t i) const {
  FieldReader r = ReaderAt(i);
  int64_t timestamp = 0;
  CheckDecoded(r.Varint(&timestamp));
  return timestamp;
}

int64_t RecordLog::PayloadBytesFrom(size_t i) const {
  if (i >= slots_.size()) return 0;
  int64_t before = i == 0 ? bytes_base_ : cum_bytes_[i - 1];
  return cum_bytes_.back() - before;
}

void RecordLog::DropFront(size_t n) {
  n = std::min(n, slots_.size());
  if (n == 0) return;
  bytes_base_ = cum_bytes_[n - 1];
  slots_.erase(slots_.begin(), slots_.begin() + static_cast<ptrdiff_t>(n));
  cum_bytes_.erase(cum_bytes_.begin(),
                   cum_bytes_.begin() + static_cast<ptrdiff_t>(n));
  // Every chunk before the one holding the new first record is dead; with
  // no record left, so is the last one.
  uint32_t keep_from = slots_.empty()
                           ? first_chunk_ + static_cast<uint32_t>(chunks_.size())
                           : slots_.front().chunk;
  chunks_.erase(chunks_.begin(),
                chunks_.begin() + static_cast<ptrdiff_t>(keep_from - first_chunk_));
  first_chunk_ = keep_from;
}

size_t RecordLog::KeepLastPerKey() {
  auto key_of = [this](size_t i) {
    ByteSpan key = View(i).key;
    return std::string_view(reinterpret_cast<const char*>(key.data()), key.size());
  };
  // Keys are viewed in place: the map holds no copy of any key.
  std::unordered_map<std::string_view, size_t> last;
  last.reserve(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) last[key_of(i)] = i;
  if (last.size() == slots_.size()) return 0;
  RecordLog kept;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (last[key_of(i)] == i) kept.Append(View(i));
  }
  size_t removed = slots_.size() - kept.size();
  *this = std::move(kept);
  return removed;
}

}  // namespace sqs
