// Row serdes. Mirrors the paper's message-format layer (§2 "Serde API"):
//
//  - AvroRowSerde: schema-driven compact binary, no field names on the wire,
//    fields encoded positionally (like Avro). Fast path.
//  - ReflectiveRowSerde: self-describing binary that writes field names and
//    type tags and resolves them by name on read (like Kryo's generic object
//    graph serialization). Deliberately the slow path: the paper attributes
//    the ~2x join slowdown to Kryo-based deserialization in the KV store.
//  - JsonRowSerde: textual JSON, for interop tests and model files.
//
// All serdes converge on Row (vector<Value>) + Schema.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "common/value.h"
#include "serde/schema.h"

namespace sqs {

class RowSerde {
 public:
  virtual ~RowSerde() = default;
  virtual std::string name() const = 0;
  virtual Status Serialize(const Row& row, BytesWriter& out) const = 0;
  virtual Result<Row> Deserialize(BytesReader& in) const = 0;

  // Decode only the fields whose index is set in `wanted`; every other slot
  // in the returned row is Null. Positions past the highest wanted index may
  // be left unread (lazy decode — malformed trailing bytes are tolerated).
  // The default is the full decode; encodings that can skip fields without
  // materializing them override this.
  virtual Result<Row> DeserializeProjected(BytesReader& in,
                                           const std::vector<bool>& wanted) const {
    (void)wanted;
    return Deserialize(in);
  }

  Bytes SerializeToBytes(const Row& row) const {
    BytesWriter w(64);
    Status st = Serialize(row, w);
    if (!st.ok()) throw std::runtime_error("serialize failed: " + st.ToString());
    return w.Take();
  }
  Result<Row> DeserializeBytes(const Bytes& bytes) const {
    BytesReader r(bytes);
    return Deserialize(r);
  }
};

using RowSerdePtr = std::shared_ptr<const RowSerde>;

// Schema-driven positional binary encoding (Avro-style). Nullable fields are
// preceded by a one-byte union index, exactly like Avro's ["null", T] unions.
class AvroRowSerde : public RowSerde {
 public:
  explicit AvroRowSerde(SchemaPtr schema) : schema_(std::move(schema)) {}

  std::string name() const override { return "avro"; }
  const SchemaPtr& schema() const { return schema_; }

  Status Serialize(const Row& row, BytesWriter& out) const override;
  Result<Row> Deserialize(BytesReader& in) const override;
  // Positional encoding skips unwanted fields without materializing values
  // and stops reading after the last wanted field.
  Result<Row> DeserializeProjected(BytesReader& in,
                                   const std::vector<bool>& wanted) const override;

 private:
  SchemaPtr schema_;
};

// Self-describing encoding: writes (field count, then per field: name,
// type tag, value). Reading resolves each field name against the target
// schema — the per-field string decode + name lookup is what makes this
// "Kryo-like" path measurably slower than the Avro path.
class ReflectiveRowSerde : public RowSerde {
 public:
  explicit ReflectiveRowSerde(SchemaPtr schema) : schema_(std::move(schema)) {}

  std::string name() const override { return "reflective"; }

  Status Serialize(const Row& row, BytesWriter& out) const override;
  Result<Row> Deserialize(BytesReader& in) const override;

 private:
  SchemaPtr schema_;
};

// Decode / skip one positionally-encoded (Avro-style) value of `type`.
// Exposed for the fused-stage kernel, which interleaves decoding wanted
// fields with skipping unwanted ones.
Result<Value> DeserializeTypedValue(const FieldType& type, BytesReader& in);
Status SkipTypedValue(const FieldType& type, BytesReader& in);

// Serialize a single Value with a type tag (used by collection encodings,
// the reflective serde, and KV-store key encoding).
Status SerializeTaggedValue(const Value& v, BytesWriter& out);
Result<Value> DeserializeTaggedValue(BytesReader& in);

// Order-preserving key encoding for KV stores: encoded keys compare
// bytewise in the same order as Value::Compare for same-kind scalars.
Bytes EncodeOrderedKey(const Value& v);
Bytes EncodeOrderedKey(const Row& values);

// Fixed-width parts of the window and join state keys. A timestamp (or
// offset) is 8 big-endian bytes of offset binary, so bytewise order is
// numeric order; a partition is 4 big-endian bytes. Inline because the
// window and the join build a key per message.
inline void AppendOrderedTs(Bytes& key, int64_t ts) {
  uint64_t u = static_cast<uint64_t>(ts) ^ (1ull << 63);
  for (int i = 7; i >= 0; --i) key.push_back(static_cast<uint8_t>(u >> (8 * i)));
}

inline int64_t DecodeOrderedTs(const Bytes& key, size_t pos) {
  uint64_t u = 0;
  for (int i = 0; i < 8; ++i) u = (u << 8) | key[pos + static_cast<size_t>(i)];
  return static_cast<int64_t>(u ^ (1ull << 63));
}

inline void AppendFixed32(Bytes& key, uint32_t v) {
  for (int i = 3; i >= 0; --i) key.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

}  // namespace sqs
