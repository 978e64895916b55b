// Window operators.
//
// SlidingWindowOperator — paper §4.3 / Algorithm 1. For each OVER call:
// messages are saved into a KV-backed message store keyed by
// (partition-key, timestamp, input partition, offset); on each arrival the
// window advances (expired entries purged, running aggregates adjusted) and
// the latest aggregate value is appended to the tuple and sent downstream.
// All state lives in changelog-backed task stores, so a task failure
// restores the window (message store + aggregate values + bounds) and
// replayed inputs are absorbed idempotently (the (partition, offset) key
// dedupes re-deliveries), giving deterministic window output under
// re-delivery — the paper's §1 claim.
//
// WindowAggregateOperator — hopping/tumbling GROUP BY windows (paper §3.6;
// listed as future work item 4, implemented here). State per
// (group key, window start) is a set of running aggregates; windows emit
// when the per-partition watermark (max rowtime seen) passes window end,
// and late tuples beyond the grace period are discarded — the paper's §3
// early-results/timeout policy.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "kv/store.h"
#include "ops/operator.h"
#include "sql/expr.h"
#include "sql/functions.h"
#include "sql/logical.h"

namespace sqs::ops {

class SlidingWindowOperator : public Operator {
 public:
  // `store_prefix`: task stores "<prefix>-msgs-<i>" and "<prefix>-agg-<i>"
  // must be configured for each window call i.
  SlidingWindowOperator(std::vector<sql::WindowCallSpec> calls, std::string store_prefix)
      : calls_(std::move(calls)), store_prefix_(std::move(store_prefix)) {}

  std::string name() const override { return "sliding-window"; }
  Status Init(OperatorContext& ctx) override;
  // Persists the committed watermark: the replay-safe physical purge
  // horizon (entries older than committed watermark - window width can no
  // longer be needed by any replayed tuple).
  Status OnCommit(OperatorContext& ctx) override;

 protected:
  Status DoProcess(const TupleEvent& event, OperatorContext& ctx) override;

 public:
  // Store names this operator needs, given the call count (used by the job
  // config generator).
  static std::vector<std::string> RequiredStores(const std::string& prefix,
                                                 size_t num_calls);

 private:
  struct CallRuntime {
    sql::AggKind kind = sql::AggKind::kSum;
    std::optional<sql::CompiledExpr> arg;  // empty for COUNT(*)
    std::vector<sql::CompiledExpr> partition_by;
    KeyValueStorePtr messages;  // (pkey, ts, part, offset) -> tagged arg value
    KeyValueStorePtr aggs;      // pkey -> bound + count + encoded AggState
    // Highest event time seen / persisted at the last checkpoint.
    int64_t watermark = std::numeric_limits<int64_t>::min();
    int64_t committed_watermark = std::numeric_limits<int64_t>::min();
  };

  Result<Value> ProcessCall(size_t index, const sql::WindowCallSpec& spec,
                            CallRuntime& rt, const TupleEvent& event);

  std::vector<sql::WindowCallSpec> calls_;
  std::string store_prefix_;
  std::vector<CallRuntime> runtimes_;
};

class WindowAggregateOperator : public Operator {
 public:
  // Needs task stores "<prefix>-state" (window agg state) configured.
  WindowAggregateOperator(std::vector<sql::ExprPtr> group_exprs,
                          sql::GroupWindowSpec window,
                          std::vector<sql::AggCallSpec> aggs, std::string store_prefix,
                          int64_t grace_ms = 0)
      : group_exprs_(std::move(group_exprs)),
        window_(window),
        aggs_(std::move(aggs)),
        store_prefix_(std::move(store_prefix)),
        grace_ms_(grace_ms) {}

  std::string name() const override { return "window-aggregate"; }
  Status Init(OperatorContext& ctx) override;
  // Early-results emission (paper §3: partial results as soon as a window
  // boundary condition is met): OnTimer emits current partials for all open
  // windows without closing them.
  Status OnTimer(OperatorContext& ctx) override;

 protected:
  Status DoProcess(const TupleEvent& event, OperatorContext& ctx) override;

 public:

  static std::vector<std::string> RequiredStores(const std::string& prefix);

  int64_t discarded_late() const { return discarded_late_; }

 private:
  // Emit [groups..., window_start, window_end, aggs...] downstream.
  Status EmitWindow(const Bytes& state_key, const Bytes& state_value,
                    const TupleEvent& source, OperatorContext& ctx);
  Status AdvanceWatermark(int64_t watermark, const TupleEvent& source,
                          OperatorContext& ctx);

  std::vector<sql::ExprPtr> group_exprs_;
  sql::GroupWindowSpec window_;
  std::vector<sql::AggCallSpec> aggs_;
  std::string store_prefix_;
  int64_t grace_ms_;

  std::vector<sql::CompiledExpr> compiled_groups_;
  std::vector<std::optional<sql::CompiledExpr>> compiled_args_;
  // One accumulator per aggregate, built at Init and reused: each window's
  // state is decoded into it, updated and encoded back.
  std::vector<std::unique_ptr<sql::Accumulator>> accumulators_;
  Bytes empty_state_;  // the accumulators' encodings before any Add
  KeyValueStorePtr state_;     // (window_start, group key) -> agg states
  KeyValueStorePtr bookkeep_;  // watermark + per-partition applied offsets
  int64_t watermark_ = INT64_MIN;
  int64_t discarded_late_ = 0;
  // Replay-idempotence high-water marks (cache of bookkeep_ entries).
  std::map<int32_t, int64_t> applied_offsets_;
};

}  // namespace sqs::ops
