#include "ops/fused.h"

#include "common/latency.h"

namespace sqs::ops {

namespace {

bool Truthy(const Value& v) { return v.kind() == TypeKind::kBool && v.as_bool(); }

}  // namespace

bool FusedStageCanPassthrough(const sql::FusedStageSpec& spec,
                              const RowSerde& input_serde,
                              const RowSerde& output_serde) {
  if (spec.probe || !spec.projections.empty()) return false;
  const auto* in = dynamic_cast<const AvroRowSerde*>(&input_serde);
  const auto* out = dynamic_cast<const AvroRowSerde*>(&output_serde);
  if (in == nullptr || out == nullptr) return false;
  const Schema& a = *in->schema();
  const Schema& b = *out->schema();
  if (a.num_fields() != b.num_fields()) return false;
  for (size_t i = 0; i < a.num_fields(); ++i) {
    // Positional encoding: field names are not on the wire, so only the
    // kind/element/nullability layout must match.
    if (!(a.field(i).type == b.field(i).type) ||
        a.field(i).nullable != b.field(i).nullable) {
      return false;
    }
  }
  return true;
}

Status FusedStageOperator::Init(OperatorContext&) {
  // Keyed output needs the key column's decoded value, so it stays on the
  // re-serialize path (key sends are rare for filter/project pipelines).
  passthrough_ = key_index_ < 0 &&
                 FusedStageCanPassthrough(*spec_, *input_serde_, *output_serde_);
  std::vector<int> extra;
  if (key_index_ >= 0 && !spec_->probe) extra.push_back(key_index_);
  SQS_ASSIGN_OR_RETURN(kernel,
                       sql::FusedStageKernel::Compile(*spec_, input_serde_,
                                                      passthrough_, extra));
  kernel_ = std::move(kernel);
  if (spec_->probe) SQS_RETURN_IF_ERROR(CompileProbe());
  return Status::Ok();
}

Status FusedStageOperator::CompileProbe() {
  const sql::FusedProbeSpec& spec = *spec_->probe;
  if (join_ == nullptr) {
    return Status::Internal("fused probe stage without its join operator");
  }
  Probe probe;
  probe.key = JoinKey::Left(spec.equi_keys);
  probe.prefix_arity = spec.prefix_arity;
  if (spec.residual) {
    SQS_ASSIGN_OR_RETURN(compiled, sql::CompiledExpr::Compile(*spec.residual));
    probe.residual = std::move(compiled);
  }
  for (const sql::ExprPtr& p : spec.predicates) {
    SQS_ASSIGN_OR_RETURN(compiled, sql::CompiledExpr::Compile(*p));
    probe.predicates.push_back(std::move(compiled));
  }
  bool all_columns = !spec.projections.empty();
  for (const sql::ExprPtr& e : spec.projections) {
    ProbeProjection proj;
    if (e->kind == sql::ExprKind::kColumnRef && e->resolved_index >= 0) {
      proj.column = e->resolved_index;
    } else {
      SQS_ASSIGN_OR_RETURN(compiled, sql::CompiledExpr::Compile(*e));
      proj.expr = std::move(compiled);
      all_columns = false;
    }
    probe.projections.push_back(std::move(proj));
  }
  probe.needs_joined_row =
      probe.residual.has_value() || !probe.predicates.empty() || !all_columns;
  probe_ = std::move(probe);
  return Status::Ok();
}

Status FusedStageOperator::Evaluate(const IncomingMessage& msg, PendingSend& out) {
  SQS_ASSIGN_OR_RETURN(result, kernel_.Apply(msg.message.value));
  out.fate = result.pass ? Fate::kSend : Fate::kDrop;
  if (result.pass && !passthrough_) out.row = std::move(result.row);
  return Status::Ok();
}

Status FusedStageOperator::ProbeOne(PendingSend& pending) {
  const Probe& probe = *probe_;
  Bytes key;
  const Row* found = nullptr;
  if (probe.key.Encode(pending.row, &key)) {
    SQS_ASSIGN_OR_RETURN(cached, join_->Lookup(key));
    found = cached;
  }
  if (found == nullptr) {
    pending.fate = Fate::kDrop;  // inner join: no match, no output
    return Status::Ok();
  }
  // The relation decode, the paper's join cost centre (§5.1), happened
  // once for this key in Lookup; only the projected columns are copied.
  const Row& relation = *found;
  const Row& prefix = pending.row;

  if (!probe.needs_joined_row) {
    Row out;
    out.reserve(probe.projections.size());
    for (const ProbeProjection& proj : probe.projections) {
      const size_t c = static_cast<size_t>(proj.column);
      out.push_back(c < probe.prefix_arity ? prefix[c]
                                           : relation[c - probe.prefix_arity]);
    }
    pending.row = std::move(out);
    return Status::Ok();
  }

  Row joined;
  joined.reserve(prefix.size() + relation.size());
  joined.insert(joined.end(), std::make_move_iterator(pending.row.begin()),
                std::make_move_iterator(pending.row.end()));
  joined.insert(joined.end(), relation.begin(), relation.end());
  if (probe.residual && !Truthy(probe.residual->Eval(joined))) {
    pending.fate = Fate::kResidualMiss;
    return Status::Ok();
  }
  for (const sql::CompiledExpr& pred : probe.predicates) {
    if (!Truthy(pred.Eval(joined))) {
      pending.fate = Fate::kDrop;
      return Status::Ok();
    }
  }
  if (probe.projections.empty()) {
    pending.row = std::move(joined);
    return Status::Ok();
  }
  Row out;
  out.reserve(probe.projections.size());
  for (const ProbeProjection& proj : probe.projections) {
    out.push_back(proj.column >= 0 ? joined[static_cast<size_t>(proj.column)]
                                   : proj.expr.Eval(joined));
  }
  pending.row = std::move(out);
  return Status::Ok();
}

Status FusedStageOperator::SendOne(const IncomingMessage& msg, PendingSend& pending,
                                   OperatorContext& ctx) {
  // Every send funnels through here, so this one scope propagates the
  // input's ingest stamp onto every fused-stage output (common/latency.h).
  IngestScope ingest(msg.message.ingest_us);
  if (passthrough_) {
    ++emitted_;
    return ctx.collector->SendToPartition(topic_, msg.origin.partition, Bytes{},
                                          Bytes(msg.message.value));
  }
  BytesWriter writer(64);
  SQS_RETURN_IF_ERROR(output_serde_->Serialize(pending.row, writer));
  ++emitted_;
  if (key_index_ >= 0) {
    return ctx.collector->Send(
        topic_, EncodeOrderedKey(pending.row[static_cast<size_t>(key_index_)]),
        writer.Take());
  }
  return ctx.collector->SendToPartition(topic_, msg.origin.partition, Bytes{},
                                        writer.Take());
}

Status FusedStageOperator::ProcessMessage(const IncomingMessage& message,
                                          OperatorContext& ctx) {
  size_t consumed = 0;
  return ProcessMessages(&message, 1, ctx, &consumed);
}

Status FusedStageOperator::ProcessMessages(const IncomingMessage* msgs, size_t count,
                                           OperatorContext& ctx, size_t* consumed) {
  if (count == 0) {
    if (consumed) *consumed = 0;
    return Status::Ok();
  }
  TraceContext parent = CurrentTraceContext();  // the batch's "process" span
  if (!parent.valid()) parent = msgs[0].message.trace;
  TraceSpan span(parent, TraceName(), TraceScopeName(), msgs[0].origin.partition);
  int64_t t0 = MonotonicNanos();

  // Phase 1: run the kernel (and the probe) over the whole run. On an error
  // the already-evaluated prefix still gets sent below, then the error is
  // surfaced with `consumed` at the failing message.
  std::vector<PendingSend> pendings(count);
  size_t evaluated = count;
  Status result;
  {
    TraceSpan decode(CurrentTraceContext(), "decode", TraceScopeName(),
                     msgs[0].origin.partition);
    for (size_t i = 0; i < count; ++i) {
      Status st = Evaluate(msgs[i], pendings[i]);
      if (!st.ok()) {
        result = st;
        evaluated = i;
        break;
      }
    }
  }
  if (probe_) {
    TraceSpan probe(CurrentTraceContext(), "probe", TraceScopeName(),
                    msgs[0].origin.partition);
    for (size_t i = 0; i < evaluated; ++i) {
      if (pendings[i].fate != Fate::kSend) continue;
      Status st = ProbeOne(pendings[i]);
      if (!st.ok()) {
        result = st;
        evaluated = i;
        break;
      }
    }
  }

  // Phase 2: send survivors in input order (per-message producer sequencing,
  // so exactly-once replay is indistinguishable from the per-message path).
  size_t done = evaluated;
  {
    TraceSpan encode(CurrentTraceContext(), "encode", TraceScopeName(),
                     msgs[0].origin.partition);
    for (size_t i = 0; i < evaluated; ++i) {
      if (pendings[i].fate == Fate::kDrop) CountDropped();
      if (pendings[i].fate != Fate::kSend) continue;
      Status st = SendOne(msgs[i], pendings[i], ctx);
      if (!st.ok()) {
        result = st;
        done = i;
        break;
      }
    }
  }

  int64_t max_ts = 0;
  for (size_t i = 0; i < done; ++i) {
    if (msgs[i].message.timestamp > max_ts) max_ts = msgs[i].message.timestamp;
  }
  RecordBatch(MonotonicNanos() - t0, static_cast<int64_t>(done), max_ts);
  if (consumed) *consumed = done;
  return result;
}

}  // namespace sqs::ops
