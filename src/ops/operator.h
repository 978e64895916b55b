// Physical operator layer (paper §4.2–4.4). A SamzaSQL task hosts a
// *message router*: a DAG of operators built from the physical plan at task
// init. Scan operators sit at the leaves (one per input stream) and convert
// serialized records to the tuple-as-array representation (AvroToArray);
// the stream-insert operator at the root converts back (ArrayToAvro) and
// writes to the output stream — exactly the message processing flow of
// Figure 4, including its overheads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/tracing.h"
#include "common/value.h"
#include "serde/serde.h"
#include "task/api.h"

namespace sqs::ops {

// A tuple flowing between operators.
struct TupleEvent {
  Row row;
  int64_t rowtime = 0;      // event time from the tuple (0 when absent)
  int32_t partition = 0;    // originating input partition id
  int64_t offset = 0;       // originating input offset (for idempotence)
  int side = 0;             // for joins: 0 = left input, 1 = right input
  TraceContext trace;       // sampled-tracing context (invalid = untraced)
};

class Operator;
using OperatorPtr = std::shared_ptr<Operator>;

// Shared services available to operators at init time.
struct OperatorContext {
  TaskContext* task = nullptr;                 // stores, config, metrics
  MessageCollector* collector = nullptr;       // bound per Process call
};

// A raw-message entry point into the operator DAG. Interpreted scans and
// fused stages both implement it, so the router dispatches input messages
// to either through one interface (see docs/EXECUTION.md).
class SourceOperator {
 public:
  virtual ~SourceOperator() = default;

  // Feed one raw input message.
  virtual Status ProcessMessage(const IncomingMessage& message,
                                OperatorContext& ctx) = 0;

  // Feed a contiguous run of messages. On success `consumed` (if non-null)
  // is `count`; on error it is the index of the failing message, and every
  // message before it has been fully processed (its sends issued) — the
  // container's error policy resumes after that message. The default is the
  // per-message loop; fused stages override it to amortize per-message
  // overheads.
  virtual Status ProcessMessages(const IncomingMessage* msgs, size_t count,
                                 OperatorContext& ctx, size_t* consumed) {
    for (size_t i = 0; i < count; ++i) {
      if (consumed) *consumed = i;
      SQS_RETURN_IF_ERROR(ProcessMessage(msgs[i], ctx));
    }
    if (consumed) *consumed = count;
    return Status::Ok();
  }
};

class Operator {
 public:
  virtual ~Operator() = default;

  virtual std::string name() const = 0;

  // One-time setup (compile expressions, open stores). Called at task init —
  // the paper's task-side "operator code generation" step.
  virtual Status Init(OperatorContext& ctx) = 0;

  // Registers the operator's scoped instruments (`<job>.<task>.<metric_id>.*`)
  // in task.metrics() and binds its span identity (name = metric id, scope =
  // `<job>.<task>`). MessageRouter::Init binds every operator before its
  // Init; an operator driven on its own must be bound before it processes.
  void BindMetrics(TaskContext& task);

  // Instrumented entry point: counts the tuple, times DoProcess (inclusive
  // of downstream operators — see docs/METRICS.md), and advances the
  // event-time watermark gauges. When the event carries a sampled trace
  // context, the call is also wrapped in a span named after the plan-unique
  // operator id, scoped `<job>.<task>`.
  Status Process(const TupleEvent& event, OperatorContext& ctx);

  // Timer callback (window emission). Default: no-op.
  virtual Status OnTimer(OperatorContext& /*ctx*/) { return Status::Ok(); }

  // Called just before the task's offsets are checkpointed (replay-safe
  // cleanup barrier). Default: no-op.
  virtual Status OnCommit(OperatorContext& /*ctx*/) { return Status::Ok(); }

  // Wire a downstream operator. `side` tells a binary downstream operator
  // (join) which input this edge feeds.
  void SetNext(OperatorPtr next, int side = 0) {
    next_ = std::move(next);
    next_side_ = side;
  }
  Operator* next() const { return next_.get(); }

  // Metric namespace segment for this operator. The router sets plan-unique
  // ids ("op2-filter"); an operator bound without one uses name().
  void set_metric_id(std::string id) { metric_id_ = std::move(id); }

 protected:
  // Process one tuple, forwarding results downstream via EmitNext().
  virtual Status DoProcess(const TupleEvent& event, OperatorContext& ctx) = 0;

  // Forward an event downstream, tagging the configured side. The ambient
  // trace context (this operator's span, if sampled) becomes the emitted
  // event's parent, so derived tuples — window emissions, join outputs —
  // chain to the operator that produced them.
  Status EmitNext(TupleEvent event, OperatorContext& ctx) {
    if (!next_) return Status::Ok();
    event.side = next_side_;
    event.trace = CurrentTraceContext();
    return next_->Process(event, ctx);
  }

  // Count one processed tuple: latency sample plus watermark / watermark-lag
  // gauge updates (rowtime 0 means "no event time" and is skipped).
  void RecordTuple(int64_t latency_nanos, int64_t rowtime);

  // Batch-mode accounting (see docs/METRICS.md "Batch semantics"): counts
  // `n` processed tuples but records ONE latency sample covering the whole
  // run; `rowtime` is the run's max event time.
  void RecordBatch(int64_t latency_nanos, int64_t n, int64_t rowtime);

  // Count a tuple this operator intentionally did not forward (filter miss,
  // late arrival past the grace period).
  void CountDropped(int64_t n = 1) { dropped_->Inc(n); }

  // Span identity for instrumented entry points (Process, scan's
  // ProcessMessage), bound by BindMetrics.
  const std::string& TraceName() const { return metric_id_; }
  const std::string& TraceScopeName() const { return trace_scope_; }

 private:
  OperatorPtr next_;
  int next_side_ = 0;
  std::string metric_id_;
  std::string trace_scope_;  // `<job>.<task>`

  void UpdateWatermark(int64_t rowtime);

  // Scoped instruments, bound by BindMetrics.
  Counter* processed_ = nullptr;
  Counter* dropped_ = nullptr;
  Histogram* latency_ = nullptr;
  Gauge* watermark_ = nullptr;
  Gauge* watermark_lag_ = nullptr;
  std::shared_ptr<Clock> clock_;
  int64_t max_rowtime_seen_ = INT64_MIN;
};

}  // namespace sqs::ops
