// The heap image of one partition (docs/DURABILITY.md "Heap image"): its
// records encoded back to back in fixed-size chunks, with one 8-byte index
// slot per record, instead of one `Message` and two heap buffers each.
//
// Also home of the per-field codec that the heap record and the on-disk
// `LogRecord` (log/durable_log.h) share: both formats encode and decode the
// `Message` metadata through `ForEachMetaField`, so a field added there
// reaches both formats.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "log/message.h"

namespace sqs {

using ByteSpan = std::span<const uint8_t>;

// Every `Message` field that both record formats store (all but the key,
// the value and the trace context), in the order both store them.
template <class M, class Visit>
void ForEachMetaField(M& m, Visit&& visit) {
  visit(m.timestamp);
  visit(m.ingest_us);
  visit(m.append_us);
  visit(m.producer_id);
  visit(m.producer_epoch);
  visit(m.sequence);
  visit(m.crc);
  visit(m.has_crc);
}

// Field encodings: bools are one byte, `crc` is fixed32 little-endian, every
// other integer a zigzag varint (common/bytes.h). `Writer` is BytesWriter or
// any type with the same three methods.
template <class Writer>
void WriteMetaFields(Writer& w, const Message& m) {
  ForEachMetaField(m, [&w](const auto& field) {
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, bool>) {
      w.WriteBool(field);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      w.WriteFixed32(field);
    } else {
      w.WriteVarint(static_cast<int64_t>(field));
    }
  });
}

// Bounds-checked decoder over a byte range for both record formats: each
// read returns false instead of running past `end`.
class FieldReader {
 public:
  FieldReader(const uint8_t* p, const uint8_t* end) : p_(p), end_(end) {}

  bool Byte(uint8_t* out) {
    if (p_ == end_) return false;
    *out = *p_++;
    return true;
  }
  bool Varint(int64_t* out) {
    uint64_t z = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      if (p_ == end_) return false;
      uint8_t b = *p_++;
      z |= static_cast<uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) {
        *out = static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
        return true;
      }
    }
    return false;  // longer than ten bytes
  }
  bool Fixed32(uint32_t* out) {
    if (end_ - p_ < 4) return false;
    *out = static_cast<uint32_t>(p_[0]) | static_cast<uint32_t>(p_[1]) << 8 |
           static_cast<uint32_t>(p_[2]) << 16 | static_cast<uint32_t>(p_[3]) << 24;
    p_ += 4;
    return true;
  }
  // A varint length and that many bytes, returned as a view in place.
  bool LengthPrefixed(ByteSpan* out) {
    int64_t n = 0;
    if (!Varint(&n) || n < 0 || n > end_ - p_) return false;
    *out = ByteSpan(p_, static_cast<size_t>(n));
    p_ += n;
    return true;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

template <class Reader>
bool ReadMetaFields(Reader& r, Message* m) {
  bool ok = true;
  ForEachMetaField(*m, [&](auto& field) {
    using T = std::decay_t<decltype(field)>;
    if (!ok) return;
    if constexpr (std::is_same_v<T, bool>) {
      uint8_t b = 0;
      ok = r.Byte(&b);
      field = b != 0;
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      ok = r.Fixed32(&field);
    } else {
      int64_t v = 0;
      ok = r.Varint(&v);
      field = static_cast<T>(v);
    }
  });
  return ok;
}

// One record read in place: `meta` carries every field but the key and the
// value (left empty), which point into the log's storage and stay valid
// until the log is next modified.
struct RecordView {
  Message meta;
  ByteSpan key;
  ByteSpan value;
};

// Records encoded back to back in chunks of kChunkBytes; a record that
// does not fit an empty chunk gets a chunk of its own. Each heap record is
//
//     meta fields (ForEachMetaField order, `timestamp` first)
//     u8 trace flags (1 sampled, 2 trace_id follows, 4 span_id follows)
//     [varint trace_id] [varint span_id]
//     varint key length, key bytes
//     varint value length, value bytes
//
// Record i is the i-th appended record still held. Not thread-safe: the
// broker serializes access under the partition mutex.
class RecordLog {
 public:
  static constexpr size_t kChunkBytes = 64 << 10;

  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  void Append(const Message& m) { Append(m, m.key, m.value); }
  void Append(const RecordView& r) { Append(r.meta, r.key, r.value); }

  // Decode record i into `out`: two allocations, one per key and value.
  void Read(size_t i, Message* out) const;
  RecordView View(size_t i) const;
  // Record i's `timestamp`, read without touching its key or value.
  int64_t Timestamp(size_t i) const;
  // Key plus value bytes of records i..size()-1, in O(1).
  int64_t PayloadBytesFrom(size_t i) const;

  // Drop records 0..n-1 (retention), freeing every chunk that held only
  // dropped records.
  void DropFront(size_t n);
  // Keep only the newest record of each key, in their order (compaction).
  // Returns how many records were removed.
  size_t KeepLastPerKey();

 private:
  struct Chunk {
    std::unique_ptr<uint8_t[]> data;
    uint32_t used = 0;
    uint32_t capacity = 0;
  };
  // Where a record starts: `chunk` counts every chunk ever opened, so slots
  // stay valid when retention frees chunks at the front.
  struct Slot {
    uint32_t chunk;
    uint32_t pos;
  };

  // `meta`'s own key and value are ignored.
  void Append(const Message& meta, ByteSpan key, ByteSpan value);
  // A reader from the start of record i to the end of its chunk's data.
  FieldReader ReaderAt(size_t i) const;
  // Decode record i's fields into `meta` (its key and value untouched) and
  // point `key` and `value` at the record's bytes.
  void Decode(size_t i, Message* meta, ByteSpan* key, ByteSpan* value) const;

  // A vector, not a deque: an empty log allocates nothing, and retention,
  // the only removal at the front, is rare.
  std::vector<Chunk> chunks_;
  uint32_t first_chunk_ = 0;  // `chunk` number of chunks_.front()
  std::vector<Slot> slots_;
  // Byte ledger: cum_bytes_[i] is bytes_base_ plus the key and value bytes
  // of records 0..i.
  std::vector<int64_t> cum_bytes_;
  int64_t bytes_base_ = 0;
};

}  // namespace sqs
