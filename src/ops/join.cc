#include "ops/join.h"

#include <cmath>
#include <limits>

namespace sqs::ops {

namespace {

bool Truthy(const Value& v) { return v.kind() == TypeKind::kBool && v.as_bool(); }

// 2^53: every integer up to here is exactly representable as a double.
constexpr double kMaxExactDouble = 9007199254740992.0;

// Encodes one non-NULL key value with numbers in one canonical kind: every
// integer as BIGINT, and integral doubles that are exact as integers as
// BIGINT too (-0.0 included).
Bytes EncodeKeyValue(const Value& v) {
  switch (v.kind()) {
    case TypeKind::kInt32:
      return EncodeOrderedKey(Value(v.ToInt64()));
    case TypeKind::kDouble: {
      const double d = v.as_double();
      if (std::trunc(d) == d && std::fabs(d) <= kMaxExactDouble) {
        return EncodeOrderedKey(Value(static_cast<int64_t>(d)));
      }
      return EncodeOrderedKey(v);
    }
    default:
      return EncodeOrderedKey(v);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// JoinKey
// ---------------------------------------------------------------------------

JoinKey JoinKey::Left(const std::vector<std::pair<int, int>>& equi_keys) {
  std::vector<int> columns;
  for (const auto& [l, r] : equi_keys) {
    (void)r;
    columns.push_back(l);
  }
  return JoinKey(std::move(columns));
}

JoinKey JoinKey::Right(const std::vector<std::pair<int, int>>& equi_keys) {
  std::vector<int> columns;
  for (const auto& [l, r] : equi_keys) {
    (void)l;
    columns.push_back(r);
  }
  return JoinKey(std::move(columns));
}

bool JoinKey::Encode(const Row& row, Bytes* out) const {
  out->clear();
  for (int c : columns_) {
    const Value& v = row[static_cast<size_t>(c)];
    if (v.is_null()) return false;
    Bytes part = EncodeKeyValue(v);
    if (out->empty()) {
      *out = std::move(part);
    } else {
      out->insert(out->end(), part.begin(), part.end());
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// StreamTableJoinOperator
// ---------------------------------------------------------------------------

Status StreamTableJoinOperator::Init(OperatorContext& ctx) {
  if (residual_) {
    SQS_ASSIGN_OR_RETURN(compiled, sql::CompiledExpr::Compile(*residual_));
    compiled_residual_ = std::move(compiled);
  }
  table_ = ctx.task->GetStore(store_prefix_ + "-table");
  if (!table_) {
    return Status::StateError("join table store not configured: " + store_prefix_ +
                              "-table");
  }
  rows_.clear();
  return Status::Ok();
}

Result<const Row*> StreamTableJoinOperator::Lookup(const Bytes& key) {
  auto it = rows_.find(key);
  if (it != rows_.end()) return &it->second;
  std::optional<Bytes> stored = table_->Get(key);
  if (!stored) return static_cast<const Row*>(nullptr);
  SQS_ASSIGN_OR_RETURN(row, right_serde_->DeserializeBytes(*stored));
  return &rows_.emplace(key, std::move(row)).first->second;
}

Status StreamTableJoinOperator::DoProcess(const TupleEvent& event, OperatorContext& ctx) {
  Bytes key;
  if (event.side == 1) {
    // Relation changelog tuple: upsert into the cached table keyed by the
    // join key (last write wins — changelog semantics). A NULL-keyed row can
    // never match, so it is not stored. The decoded row is dropped, not
    // replaced: a failed changelog append leaves the store unchanged.
    if (!right_key_.Encode(event.row, &key)) return Status::Ok();
    BytesWriter writer(64);
    SQS_RETURN_IF_ERROR(right_serde_->Serialize(event.row, writer));
    table_->Put(key, writer.Take());
    rows_.erase(key);
    return Status::Ok();
  }

  // Stream tuple: lookup. This path decodes on every probe, as the paper's
  // join does; only the fused stage probes through Lookup.
  std::optional<Bytes> stored;
  if (left_key_.Encode(event.row, &key)) stored = table_->Get(key);
  if (!stored) {
    CountDropped();  // inner join: no match, no output
    return Status::Ok();
  }

  // The deserialization below is the paper's identified join cost center —
  // with the reflective ("kryo") serde it is what makes SQL ~2x slower.
  SQS_ASSIGN_OR_RETURN(right_row, right_serde_->DeserializeBytes(*stored));

  TupleEvent out;
  out.row = event.row;
  out.row.insert(out.row.end(), right_row.begin(), right_row.end());
  out.rowtime = event.rowtime;
  out.partition = event.partition;
  out.offset = event.offset;
  if (compiled_residual_ && !Truthy(compiled_residual_->Eval(out.row))) {
    return Status::Ok();
  }
  return EmitNext(std::move(out), ctx);
}

// ---------------------------------------------------------------------------
// StreamStreamJoinOperator
// ---------------------------------------------------------------------------

Status StreamStreamJoinOperator::Init(OperatorContext& ctx) {
  if (residual_) {
    SQS_ASSIGN_OR_RETURN(compiled, sql::CompiledExpr::Compile(*residual_));
    compiled_residual_ = std::move(compiled);
  }
  left_ = ctx.task->GetStore(store_prefix_ + "-left");
  right_ = ctx.task->GetStore(store_prefix_ + "-right");
  meta_ = ctx.task->GetStore(store_prefix_ + "-meta");
  if (!left_ || !right_ || !meta_) {
    return Status::StateError("stream-stream join stores not configured: " +
                              store_prefix_);
  }
  auto load = [&](const char* key, int64_t& out) -> Status {
    if (auto v = meta_->Get(ToBytes(key))) {
      BytesReader reader(*v);
      SQS_ASSIGN_OR_RETURN(wm, reader.ReadVarint());
      out = wm;
    }
    return Status::Ok();
  };
  left_watermark_ = INT64_MIN;
  right_watermark_ = INT64_MIN;
  SQS_RETURN_IF_ERROR(load("lwm", left_watermark_));
  SQS_RETURN_IF_ERROR(load("rwm", right_watermark_));
  return Status::Ok();
}

Status StreamStreamJoinOperator::SaveWatermark(const char* key, int64_t value) {
  BytesWriter writer(8);
  writer.WriteVarint(value);
  meta_->Put(ToBytes(key), writer.Take());
  return Status::Ok();
}

Status StreamStreamJoinOperator::Purge(KeyValueStore& store, int64_t cutoff_ts) {
  Bytes upper;
  AppendOrderedTs(upper, cutoff_ts);
  std::vector<Bytes> expired;
  store.Range(Bytes{}, upper, [&](const Bytes& k, const Bytes&) {
    expired.push_back(k);
    return true;
  });
  for (const Bytes& k : expired) store.Delete(k);
  return Status::Ok();
}

Status StreamStreamJoinOperator::DoProcess(const TupleEvent& event, OperatorContext& ctx) {
  const bool is_left = event.side == 0;
  KeyValueStore& own = is_left ? *left_ : *right_;
  KeyValueStore& other = is_left ? *right_ : *left_;
  const RowSerde& own_serde = is_left ? *left_serde_ : *right_serde_;
  const RowSerde& other_serde = is_left ? *right_serde_ : *left_serde_;

  int64_t ts = event.row[static_cast<size_t>(is_left ? left_ts_index_
                                                     : right_ts_index_)]
                   .ToInt64();

  // Buffer the tuple, keyed by (ts, partition, offset) for idempotence.
  Bytes key;
  AppendOrderedTs(key, ts);
  AppendFixed32(key, static_cast<uint32_t>(event.partition));
  AppendOrderedTs(key, event.offset);
  if (!own.Get(key)) {
    BytesWriter writer(64);
    SQS_RETURN_IF_ERROR(own_serde.Serialize(event.row, writer));
    own.Put(key, writer.Take());
  }

  // Matching time range on the other side:
  //   left arrival:  rts in [lts - after, lts + before]
  //   right arrival: lts in [rts - before, rts + after]
  int64_t lo = is_left ? ts - after_ms_ : ts - before_ms_;
  int64_t hi = is_left ? ts + before_ms_ : ts + after_ms_;
  Bytes from, to;
  AppendOrderedTs(from, lo);
  AppendOrderedTs(to, hi + 1);

  std::vector<Row> matches;
  other.Range(from, to, [&](const Bytes&, const Bytes& v) {
    auto row = other_serde.DeserializeBytes(v);
    if (row.ok()) matches.push_back(std::move(row).value());
    return true;
  });

  for (Row& match : matches) {
    // Combined row is always [left fields..., right fields...].
    TupleEvent out;
    if (is_left) {
      out.row = event.row;
      out.row.insert(out.row.end(), match.begin(), match.end());
    } else {
      out.row = std::move(match);
      out.row.insert(out.row.end(), event.row.begin(), event.row.end());
    }
    const size_t right_base = out.row.size() - (is_left ? out.row.size() - event.row.size()
                                                        : event.row.size());
    bool keys_match = true;
    for (const auto& [l, r] : equi_keys_) {
      const Value& lv = out.row[static_cast<size_t>(l)];
      const Value& rv = out.row[right_base + static_cast<size_t>(r)];
      if (lv.is_null() || rv.is_null() || lv.Compare(rv) != 0) {
        keys_match = false;
        break;
      }
    }
    if (!keys_match) continue;
    if (compiled_residual_ && !Truthy(compiled_residual_->Eval(out.row))) continue;
    int64_t lts = out.row[static_cast<size_t>(left_ts_index_)].ToInt64();
    int64_t rts = out.row[right_base + static_cast<size_t>(right_ts_index_)].ToInt64();
    out.rowtime = std::max(lts, rts);
    out.partition = event.partition;
    out.offset = event.offset;
    SQS_RETURN_IF_ERROR(EmitNext(std::move(out), ctx));
  }

  // Advance watermarks and purge the *other* side's no-longer-matchable
  // entries (plus our own on our watermark).
  if (is_left) {
    if (ts > left_watermark_) {
      left_watermark_ = ts;
      SQS_RETURN_IF_ERROR(SaveWatermark("lwm", left_watermark_));
      // Right entries with rts < lwm - after can never match future lefts
      // (left timestamps are monotonic per partition, §3.8.1).
      SQS_RETURN_IF_ERROR(Purge(*right_, left_watermark_ - after_ms_ - grace_ms_));
    }
  } else {
    if (ts > right_watermark_) {
      right_watermark_ = ts;
      SQS_RETURN_IF_ERROR(SaveWatermark("rwm", right_watermark_));
      SQS_RETURN_IF_ERROR(Purge(*left_, right_watermark_ - before_ms_ - grace_ms_));
    }
  }
  return Status::Ok();
}

}  // namespace sqs::ops
