// Join operators.
//
// StreamTableJoinOperator — paper §4.4: the relation is materialized into a
// task-local KV store from its changelog stream, which the job consumes as
// a *bootstrap stream* (fully drained before any other input). Stream
// tuples then look up the cached relation rows by equi-key and emit joined
// rows. Stored rows pass through a pluggable serde — the paper's SQL
// implementation used Kryo-style generic serialization here, which is why
// its join was ~2x slower than the native task (§5.1); ours defaults to
// the reflective serde to reproduce that, switchable for the ablation.
//
// StreamStreamJoinOperator — paper §3.8.1: windowed join over two streams.
// Each side's recent tuples are kept in a time-indexed KV store; an
// arriving tuple scans the other side's store over the time bound, filters
// by equi-key + residual, and emits combined rows. Expired entries are
// purged using the opposite side's watermark.
#pragma once

#include <optional>

#include "kv/store.h"
#include "ops/operator.h"
#include "sql/expr.h"
#include "sql/logical.h"

namespace sqs::ops {

// The equi-join key of a row, encoded for the relation store. The relation
// upsert and every probe, interpreted or fused, encode through this one
// helper, so streaming key equality is the batch oracle's (sql/batch_eval.cc
// EvalJoin, Value::Compare):
//  - a NULL key column never matches: Encode returns false, and the row is
//    neither stored nor looked up;
//  - numbers of different kinds that compare equal encode alike: INT 1,
//    BIGINT 1 and DOUBLE 1.0 are one key. Integral doubles are exact as
//    integers only up to 2^53; beyond that a double matches only a double.
class JoinKey {
 public:
  JoinKey() = default;
  explicit JoinKey(std::vector<int> columns) : columns_(std::move(columns)) {}

  // The key columns of the left (stream) or right (relation) side of
  // (left, right) equi-key pairs.
  static JoinKey Left(const std::vector<std::pair<int, int>>& equi_keys);
  static JoinKey Right(const std::vector<std::pair<int, int>>& equi_keys);

  bool Encode(const Row& row, Bytes* out) const;

 private:
  std::vector<int> columns_;
};

class StreamTableJoinOperator : public Operator {
 public:
  // `equi_keys`: (left index, right index) pairs. `right_serde` stores and
  // loads the relation rows. Needs task store "<prefix>-table".
  StreamTableJoinOperator(std::vector<std::pair<int, int>> equi_keys,
                          sql::ExprPtr residual, RowSerdePtr right_serde,
                          std::string store_prefix)
      : left_key_(JoinKey::Left(equi_keys)),
        right_key_(JoinKey::Right(equi_keys)),
        residual_(std::move(residual)),
        right_serde_(std::move(right_serde)),
        store_prefix_(std::move(store_prefix)) {}

  std::string name() const override { return "stream-table-join"; }
  Status Init(OperatorContext& ctx) override;

  static std::vector<std::string> RequiredStores(const std::string& prefix) {
    return {prefix + "-table"};
  }

 protected:
  Status DoProcess(const TupleEvent& event, OperatorContext& ctx) override;

 public:

  size_t table_size() const { return table_ ? table_->Size() : 0; }

 private:
  JoinKey left_key_;
  JoinKey right_key_;
  sql::ExprPtr residual_;
  RowSerdePtr right_serde_;
  std::string store_prefix_;
  std::optional<sql::CompiledExpr> compiled_residual_;
  KeyValueStorePtr table_;
};

class StreamStreamJoinOperator : public Operator {
 public:
  // Accepts combined rows where left.ts - right.ts in [-before, +after].
  // Needs task stores "<prefix>-left", "<prefix>-right", "<prefix>-meta".
  StreamStreamJoinOperator(std::vector<std::pair<int, int>> equi_keys,
                           int left_ts_index, int right_ts_index,
                           int64_t before_ms, int64_t after_ms, sql::ExprPtr residual,
                           RowSerdePtr left_serde, RowSerdePtr right_serde,
                           std::string store_prefix, int64_t grace_ms = 0)
      : equi_keys_(std::move(equi_keys)),
        left_ts_index_(left_ts_index),
        right_ts_index_(right_ts_index),
        before_ms_(before_ms),
        after_ms_(after_ms),
        residual_(std::move(residual)),
        left_serde_(std::move(left_serde)),
        right_serde_(std::move(right_serde)),
        store_prefix_(std::move(store_prefix)),
        grace_ms_(grace_ms) {}

  std::string name() const override { return "stream-stream-join"; }
  Status Init(OperatorContext& ctx) override;

  static std::vector<std::string> RequiredStores(const std::string& prefix) {
    return {prefix + "-left", prefix + "-right", prefix + "-meta"};
  }

 protected:
  Status DoProcess(const TupleEvent& event, OperatorContext& ctx) override;

 public:

  size_t left_buffer_size() const { return left_ ? left_->Size() : 0; }
  size_t right_buffer_size() const { return right_ ? right_->Size() : 0; }

 private:
  Status Purge(KeyValueStore& store, int64_t cutoff_ts);
  Status SaveWatermark(const char* key, int64_t value);

  std::vector<std::pair<int, int>> equi_keys_;
  int left_ts_index_;
  int right_ts_index_;
  int64_t before_ms_;
  int64_t after_ms_;
  sql::ExprPtr residual_;
  RowSerdePtr left_serde_;
  RowSerdePtr right_serde_;
  std::string store_prefix_;
  int64_t grace_ms_;

  std::optional<sql::CompiledExpr> compiled_residual_;
  KeyValueStorePtr left_;   // enc(ts)|part|offset -> serialized left row
  KeyValueStorePtr right_;  // enc(ts)|part|offset -> serialized right row
  KeyValueStorePtr meta_;   // watermarks
  int64_t left_watermark_ = INT64_MIN;
  int64_t right_watermark_ = INT64_MIN;
};

}  // namespace sqs::ops
