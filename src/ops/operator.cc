#include "ops/operator.h"

namespace sqs::ops {

void Operator::BindMetrics(TaskContext& task) {
  if (metric_id_.empty()) metric_id_ = name();
  const std::string job = task.config().Get(cfg::kJobName, "job");
  trace_scope_ = job + "." + task.task_name();
  ScopedMetrics scope =
      ScopedMetrics(&task.metrics(), job).Sub(task.task_name()).Sub(metric_id_);
  processed_ = &scope.counter("processed");
  dropped_ = &scope.counter("dropped");
  latency_ = &scope.histogram("latency_ns");
  watermark_ = &scope.gauge("watermark_ms");
  watermark_lag_ = &scope.gauge("watermark_lag_ms");
  clock_ = task.clock();
}

void Operator::UpdateWatermark(int64_t rowtime) {
  if (rowtime == 0) return;
  if (rowtime > max_rowtime_seen_) {
    max_rowtime_seen_ = rowtime;
    watermark_->Set(rowtime);
  }
  // Lag of the tuple being processed right now behind wall (or simulated)
  // clock time — the operator's view of event-time progress.
  if (clock_) watermark_lag_->Set(clock_->NowMillis() - rowtime);
}

void Operator::RecordTuple(int64_t latency_nanos, int64_t rowtime) {
  processed_->Inc();
  latency_->Record(latency_nanos);
  UpdateWatermark(rowtime);
}

void Operator::RecordBatch(int64_t latency_nanos, int64_t n, int64_t rowtime) {
  if (n <= 0) return;
  processed_->Inc(n);
  latency_->Record(latency_nanos);
  UpdateWatermark(rowtime);
}

Status Operator::Process(const TupleEvent& event, OperatorContext& ctx) {
  TraceSpan span(event.trace, metric_id_, trace_scope_, event.partition);
  int64_t rowtime = event.rowtime;
  int64_t t0 = MonotonicNanos();
  Status st = DoProcess(event, ctx);
  RecordTuple(MonotonicNanos() - t0, rowtime);
  return st;
}

}  // namespace sqs::ops
