#include "ops/basic.h"

#include "common/latency.h"

namespace sqs::ops {

Status ScanOperator::ProcessMessage(const IncomingMessage& message,
                                    OperatorContext& ctx) {
  // Parent preference: the container's per-message "process" span (ambient)
  // when running inside a container loop; the message's own stamped context
  // when fed directly (tests, native harnesses).
  TraceContext parent = CurrentTraceContext();
  if (!parent.valid()) parent = message.message.trace;
  TraceSpan span(parent, TraceName(), TraceScopeName(), message.origin.partition);
  // Ambient latency scope for the whole operator chain: any send the
  // downstream operators issue (InsertOperator through the collector)
  // inherits this input's ingest stamp (common/latency.h).
  IngestScope ingest(message.message.ingest_us);
  int64_t t0 = MonotonicNanos();
  Status st = DecodeAndEmit(message, ctx);
  // rowtime is only known post-decode; the router-facing watermark for scan
  // falls back to the message's log-append timestamp.
  RecordTuple(MonotonicNanos() - t0, message.message.timestamp);
  return st;
}

Status ScanOperator::DecodeAndEmit(const IncomingMessage& message,
                                   OperatorContext& ctx) {
  SQS_ASSIGN_OR_RETURN(record, serde_->DeserializeBytes(message.message.value));
  TupleEvent event;
  event.rowtime = rowtime_index_ >= 0
                      ? record[static_cast<size_t>(rowtime_index_)].ToInt64()
                      : message.message.timestamp;
  // RecordToArray (Figure 4): the decoded record is validated against the
  // declared schema (SamzaSQL "requires all the messages in a topic to be in
  // the same message format with the same schema", §3.1) and copied
  // field-by-field into the array representation the generated expressions
  // run over. Native tasks skip both steps.
  SQS_RETURN_IF_ERROR(schema_->Validate(record));
  event.row.reserve(record.size());
  for (const Value& field : record) event.row.push_back(field);
  event.partition = message.origin.partition;
  event.offset = message.offset;
  return EmitNext(std::move(event), ctx);
}

Status FilterOperator::Init(OperatorContext&) {
  SQS_ASSIGN_OR_RETURN(compiled, sql::CompiledExpr::Compile(*predicate_));
  compiled_ = std::move(compiled);
  return Status::Ok();
}

Status FilterOperator::DoProcess(const TupleEvent& event, OperatorContext& ctx) {
  Value v = compiled_->Eval(event.row);
  if (v.kind() == TypeKind::kBool && v.as_bool()) {
    return EmitNext(event, ctx);
  }
  CountDropped();
  return Status::Ok();
}

Status ProjectOperator::Init(OperatorContext&) {
  compiled_.clear();
  compiled_.reserve(exprs_.size());
  for (const auto& e : exprs_) {
    SQS_ASSIGN_OR_RETURN(compiled, sql::CompiledExpr::Compile(*e));
    compiled_.push_back(std::move(compiled));
  }
  return Status::Ok();
}

Status ProjectOperator::DoProcess(const TupleEvent& event, OperatorContext& ctx) {
  TupleEvent out;
  out.row.reserve(compiled_.size());
  for (const auto& c : compiled_) out.row.push_back(c.Eval(event.row));
  out.rowtime = out_rowtime_index_ >= 0
                    ? out.row[static_cast<size_t>(out_rowtime_index_)].ToInt64()
                    : event.rowtime;
  out.partition = event.partition;
  out.offset = event.offset;
  return EmitNext(std::move(out), ctx);
}

Status InsertOperator::DoProcess(const TupleEvent& event, OperatorContext& ctx) {
  BytesWriter writer(64);
  // ArrayToRecord (Figure 4): rebuild the output record from the array
  // before serializing — the second conversion the paper profiles.
  Row record;
  record.reserve(event.row.size());
  for (const Value& field : event.row) record.push_back(field);
  SQS_RETURN_IF_ERROR(serde_->Serialize(record, writer));
  ++emitted_;
  if (key_index_ >= 0) {
    Bytes key = EncodeOrderedKey(event.row[static_cast<size_t>(key_index_)]);
    return ctx.collector->Send(topic_, std::move(key), writer.Take());
  }
  return ctx.collector->SendToPartition(topic_, event.partition, Bytes{}, writer.Take());
}

}  // namespace sqs::ops
