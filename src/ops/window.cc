#include "ops/window.h"

#include <limits>

#include "common/logging.h"

namespace sqs::ops {

namespace {

Value EvalArg(const std::optional<sql::CompiledExpr>& arg, const Row& row) {
  return arg ? arg->Eval(row) : Value(int64_t{1});
}

// Aligned start of the newest window containing ts.
int64_t AlignedStart(int64_t ts, int64_t emit_ms, int64_t align_ms) {
  int64_t shifted = ts - align_ms;
  int64_t q = shifted / emit_ms;
  if (shifted < 0 && shifted % emit_ms != 0) --q;
  return q * emit_ms + align_ms;
}

}  // namespace

// ---------------------------------------------------------------------------
// SlidingWindowOperator
// ---------------------------------------------------------------------------

std::vector<std::string> SlidingWindowOperator::RequiredStores(
    const std::string& prefix, size_t num_calls) {
  std::vector<std::string> out;
  for (size_t i = 0; i < num_calls; ++i) {
    out.push_back(prefix + "-msgs-" + std::to_string(i));
    out.push_back(prefix + "-agg-" + std::to_string(i));
  }
  return out;
}

Status SlidingWindowOperator::Init(OperatorContext& ctx) {
  runtimes_.clear();
  for (size_t i = 0; i < calls_.size(); ++i) {
    const sql::WindowCallSpec& spec = calls_[i];
    CallRuntime rt;
    SQS_ASSIGN_OR_RETURN(kind, sql::FunctionRegistry::Instance().GetBuiltinAggregate(
                                   spec.func_id));
    rt.kind = kind;
    if (spec.arg) {
      SQS_ASSIGN_OR_RETURN(compiled, sql::CompiledExpr::Compile(*spec.arg));
      rt.arg = std::move(compiled);
    }
    for (const auto& p : spec.partition_by) {
      SQS_ASSIGN_OR_RETURN(compiled, sql::CompiledExpr::Compile(*p));
      rt.partition_by.push_back(std::move(compiled));
    }
    rt.messages = ctx.task->GetStore(store_prefix_ + "-msgs-" + std::to_string(i));
    rt.aggs = ctx.task->GetStore(store_prefix_ + "-agg-" + std::to_string(i));
    if (!rt.messages || !rt.aggs) {
      return Status::StateError("sliding window stores not configured under prefix " +
                                store_prefix_);
    }
    // Restore the committed watermark (replay-safe purge horizon).
    static const Bytes kMetaKey = {0xFF, 'c', 'w', 'm'};
    if (auto cwm = rt.aggs->Get(kMetaKey)) {
      BytesReader reader(*cwm);
      SQS_ASSIGN_OR_RETURN(v, reader.ReadVarint());
      rt.committed_watermark = v;
      rt.watermark = v;
    }
    runtimes_.push_back(std::move(rt));
  }
  return Status::Ok();
}

Result<Value> SlidingWindowOperator::ProcessCall(size_t /*index*/,
                                                 const sql::WindowCallSpec& spec,
                                                 CallRuntime& rt,
                                                 const TupleEvent& event) {
  // Partition key prefix.
  Row pkey_values;
  pkey_values.reserve(rt.partition_by.size());
  for (const auto& p : rt.partition_by) pkey_values.push_back(p.Eval(event.row));
  Bytes prefix = EncodeOrderedKey(pkey_values);

  int64_t ts = event.row[static_cast<size_t>(spec.ts_index)].ToInt64();
  Value arg_value = EvalArg(rt.arg, event.row);

  // Message-store key: (pkey, ts, input partition, input offset) — the
  // offset component makes re-deliveries idempotent (Algorithm 1 restores
  // the message store and replays; an existing key means "already applied").
  Bytes msg_key = prefix;
  AppendOrderedTs(msg_key, ts);
  AppendFixed32(msg_key, static_cast<uint32_t>(event.partition));
  AppendOrderedTs(msg_key, event.offset);

  if (ts > rt.watermark) rt.watermark = ts;

  // Load running aggregate state:
  //   varint(logical lower bound) + varint(window row count) + AggState.
  auto agg_bytes = rt.aggs->Get(prefix);
  int64_t bound = std::numeric_limits<int64_t>::min();
  int64_t window_count = 0;
  sql::AggState state(rt.kind);
  if (agg_bytes) {
    BytesReader reader(*agg_bytes);
    SQS_ASSIGN_OR_RETURN(b, reader.ReadVarint());
    bound = b;
    SQS_ASSIGN_OR_RETURN(count, reader.ReadVarint());
    window_count = count;
    SQS_RETURN_IF_ERROR(state.DecodeFrom(reader));
  }

  const bool duplicate = rt.messages->Get(msg_key).has_value();
  const bool need_recompute = !sql::AggState::SupportsRemove(rt.kind);

  if (duplicate) {
    // Replayed tuple (restore + replay after a failure): recompute its
    // original aggregate from the message store over exactly its logical
    // window [ts - W, ts], bounded above by this tuple's own key so that
    // entries that originally arrived later are excluded. Entries in that
    // range are guaranteed present: physical purging stops at the committed
    // watermark (below), and replay never rewinds past a checkpoint.
    if (!spec.range_based) {
      // ROWS windows purge eagerly (bounded count, not time); replays are
      // absorbed idempotently but recompute over the retained rows.
      sql::AggState fresh(rt.kind);
      Bytes upper = prefix;
      AppendOrderedTs(upper, std::numeric_limits<int64_t>::max());
      rt.messages->Range(prefix, upper, [&](const Bytes&, const Bytes& v) {
        BytesReader r(v);
        auto val = DeserializeTaggedValue(r);
        if (val.ok()) fresh.Add(val.value());
        return true;
      });
      return fresh.Result();
    }
    sql::AggState fresh(rt.kind);
    Bytes lower = prefix;
    AppendOrderedTs(lower, ts - spec.preceding_ms);
    Bytes upper = msg_key;
    upper.push_back(0);  // half-open range -> include msg_key itself
    rt.messages->Range(lower, upper, [&](const Bytes&, const Bytes& v) {
      BytesReader r(v);
      auto val = DeserializeTaggedValue(r);
      if (val.ok()) fresh.Add(val.value());
      return true;
    });
    return fresh.Result();
  }

  // Save message in the message store (Algorithm 1 line 1).
  BytesWriter value_writer(16);
  SQS_RETURN_IF_ERROR(SerializeTaggedValue(arg_value, value_writer));
  rt.messages->Put(msg_key, value_writer.Take());
  ++window_count;

  if (spec.range_based) {
    // Logical window advance: retract entries in [bound, ts - W) from the
    // running aggregates. The entries stay in the store until the committed
    // watermark passes them (replayed tuples may still need them).
    int64_t new_bound = ts - spec.preceding_ms;
    if (new_bound > bound) {
      if (!need_recompute) {
        Bytes lower = prefix;
        AppendOrderedTs(lower, bound);
        Bytes upper = prefix;
        AppendOrderedTs(upper, new_bound);
        rt.messages->Range(lower, upper, [&](const Bytes&, const Bytes& v) {
          BytesReader r(v);
          auto val = DeserializeTaggedValue(r);
          if (val.ok()) {
            state.Remove(val.value());
            --window_count;
          }
          return true;
        });
      }
      bound = new_bound;
    }
    // Physical purge up to the replay-safe horizon. Before the first commit
    // nothing may be purged (replay can rewind to the very beginning).
    int64_t horizon = std::numeric_limits<int64_t>::min();
    if (rt.committed_watermark != std::numeric_limits<int64_t>::min()) {
      horizon = std::min(bound, rt.committed_watermark - spec.preceding_ms);
    }
    if (horizon > std::numeric_limits<int64_t>::min()) {
      Bytes upper = prefix;
      AppendOrderedTs(upper, horizon);
      std::vector<Bytes> expired;
      rt.messages->Range(prefix, upper, [&](const Bytes& k, const Bytes&) {
        expired.push_back(k);
        return true;
      });
      for (const Bytes& k : expired) rt.messages->Delete(k);
    }
  } else {
    // ROWS window: drop oldest entries beyond preceding_rows + 1 (eager;
    // the logical and physical windows coincide).
    int64_t excess = window_count - (spec.preceding_rows + 1);
    if (excess > 0) {
      Bytes upper = prefix;
      AppendOrderedTs(upper, std::numeric_limits<int64_t>::max());
      std::vector<Bytes> expired;
      rt.messages->Range(prefix, upper, [&](const Bytes& k, const Bytes& v) {
        if (static_cast<int64_t>(expired.size()) >= excess) return false;
        expired.push_back(k);
        if (!need_recompute) {
          BytesReader r(v);
          auto val = DeserializeTaggedValue(r);
          if (val.ok()) state.Remove(val.value());
        }
        return true;
      });
      for (const Bytes& k : expired) rt.messages->Delete(k);
      window_count -= static_cast<int64_t>(expired.size());
    }
  }

  // Fold in the current tuple (Algorithm 1 "compute new aggregate values
  // adding current tuple").
  Value result;
  if (need_recompute) {
    // MIN/MAX (no retraction): recompute over the logical window.
    sql::AggState fresh(rt.kind);
    Bytes lower = prefix;
    if (spec.range_based) {
      AppendOrderedTs(lower, ts - spec.preceding_ms);
    }
    Bytes upper = prefix;
    AppendOrderedTs(upper, std::numeric_limits<int64_t>::max());
    rt.messages->Range(lower, upper, [&](const Bytes&, const Bytes& v) {
      BytesReader r(v);
      auto val = DeserializeTaggedValue(r);
      if (val.ok()) fresh.Add(val.value());
      return true;
    });
    result = fresh.Result();
  } else {
    state.Add(arg_value);
    result = state.Result();
  }

  BytesWriter agg_writer(32);
  agg_writer.WriteVarint(bound);
  agg_writer.WriteVarint(window_count);
  SQS_RETURN_IF_ERROR(state.EncodeTo(agg_writer));
  rt.aggs->Put(prefix, agg_writer.Take());
  return result;
}

Status SlidingWindowOperator::OnCommit(OperatorContext&) {
  // Persist the committed watermark: replay never rewinds past this commit,
  // so entries older than (committed watermark - window) become physically
  // purgeable. Stored under a key no EncodeOrderedKey prefix can produce.
  static const Bytes kMetaKey = {0xFF, 'c', 'w', 'm'};
  for (auto& rt : runtimes_) {
    if (rt.watermark == std::numeric_limits<int64_t>::min()) continue;
    BytesWriter writer(8);
    writer.WriteVarint(rt.watermark);
    rt.aggs->Put(kMetaKey, writer.Take());
    rt.committed_watermark = rt.watermark;
  }
  return Status::Ok();
}

Status SlidingWindowOperator::DoProcess(const TupleEvent& event, OperatorContext& ctx) {
  TupleEvent out = event;
  for (size_t i = 0; i < calls_.size(); ++i) {
    SQS_ASSIGN_OR_RETURN(value, ProcessCall(i, calls_[i], runtimes_[i], event));
    out.row.push_back(std::move(value));
  }
  return EmitNext(std::move(out), ctx);
}

// ---------------------------------------------------------------------------
// WindowAggregateOperator
// ---------------------------------------------------------------------------

std::vector<std::string> WindowAggregateOperator::RequiredStores(
    const std::string& prefix) {
  return {prefix + "-state", prefix + "-meta"};
}

Status WindowAggregateOperator::Init(OperatorContext& ctx) {
  compiled_groups_.clear();
  for (const auto& g : group_exprs_) {
    SQS_ASSIGN_OR_RETURN(compiled, sql::CompiledExpr::Compile(*g));
    compiled_groups_.push_back(std::move(compiled));
  }
  compiled_args_.clear();
  accumulators_.clear();
  BytesWriter empty;
  for (const auto& a : aggs_) {
    SQS_ASSIGN_OR_RETURN(fn, sql::FunctionRegistry::Instance().GetAggregate(a.func_id));
    accumulators_.push_back(fn->factory());
    SQS_RETURN_IF_ERROR(accumulators_.back()->EncodeTo(empty));
    if (a.arg) {
      SQS_ASSIGN_OR_RETURN(compiled, sql::CompiledExpr::Compile(*a.arg));
      compiled_args_.push_back(std::move(compiled));
    } else {
      compiled_args_.push_back(std::nullopt);
    }
  }
  empty_state_ = empty.Take();
  state_ = ctx.task->GetStore(store_prefix_ + "-state");
  bookkeep_ = ctx.task->GetStore(store_prefix_ + "-meta");
  if (!state_ || !bookkeep_) {
    return Status::StateError("window aggregate stores not configured under prefix " +
                              store_prefix_);
  }
  watermark_ = INT64_MIN;
  applied_offsets_.clear();
  if (auto wm = bookkeep_->Get(ToBytes("wm"))) {
    BytesReader reader(*wm);
    SQS_ASSIGN_OR_RETURN(v, reader.ReadVarint());
    watermark_ = v;
  }
  return Status::Ok();
}

Status WindowAggregateOperator::EmitWindow(const Bytes& state_key,
                                           const Bytes& state_value,
                                           const TupleEvent& source,
                                           OperatorContext& ctx) {
  int64_t window_start = DecodeOrderedTs(state_key, 0);
  BytesReader reader(state_value);
  // State layout: group row (tagged) + one accumulator per aggregate.
  SQS_ASSIGN_OR_RETURN(group_row_value, DeserializeTaggedValue(reader));
  TupleEvent out;
  out.partition = source.partition;
  out.offset = source.offset;
  out.rowtime = window_start;
  for (const Value& g : group_row_value.as_array()) out.row.push_back(g);
  out.row.push_back(Value(window_start));
  out.row.push_back(Value(window_start + window_.retain_ms));
  for (const auto& acc : accumulators_) {
    SQS_RETURN_IF_ERROR(acc->DecodeFrom(reader));
    out.row.push_back(acc->Result());
  }
  return EmitNext(std::move(out), ctx);
}

Status WindowAggregateOperator::AdvanceWatermark(int64_t watermark,
                                                 const TupleEvent& source,
                                                 OperatorContext& ctx) {
  if (watermark <= watermark_) return Status::Ok();
  watermark_ = watermark;
  BytesWriter writer(8);
  writer.WriteVarint(watermark_);
  bookkeep_->Put(ToBytes("wm"), writer.Take());

  // Close every window whose end + grace has passed. Keys are ordered by
  // window start, so scan from the beginning and stop at the first open one.
  std::vector<std::pair<Bytes, Bytes>> closed;
  state_->All([&](const Bytes& k, const Bytes& v) {
    int64_t start = DecodeOrderedTs(k, 0);
    if (start + window_.retain_ms + grace_ms_ > watermark_) return false;
    closed.emplace_back(k, v);
    return true;
  });
  for (const auto& [k, v] : closed) {
    SQS_RETURN_IF_ERROR(EmitWindow(k, v, source, ctx));
    state_->Delete(k);
  }
  return Status::Ok();
}

Status WindowAggregateOperator::DoProcess(const TupleEvent& event, OperatorContext& ctx) {
  // Replay idempotence: per input partition, offsets arrive in order, so a
  // tuple at or below the applied high-water mark has already been folded
  // into the (changelog-restored) window state — re-applying it would
  // double count. Its window either is still open (will emit correctly) or
  // already emitted before the failure (the output topic is durable).
  {
    auto it = applied_offsets_.find(event.partition);
    if (it == applied_offsets_.end()) {
      Bytes key = {0xFF, 'o', 'f', 'f'};
      AppendFixed32(key, static_cast<uint32_t>(event.partition));
      int64_t stored = std::numeric_limits<int64_t>::min();
      if (auto v = bookkeep_->Get(key)) {
        BytesReader reader(*v);
        SQS_ASSIGN_OR_RETURN(off, reader.ReadVarint());
        stored = off;
      }
      it = applied_offsets_.emplace(event.partition, stored).first;
    }
    if (event.offset <= it->second) return Status::Ok();  // replayed duplicate
    it->second = event.offset;
    Bytes key = {0xFF, 'o', 'f', 'f'};
    AppendFixed32(key, static_cast<uint32_t>(event.partition));
    BytesWriter writer(8);
    writer.WriteVarint(event.offset);
    bookkeep_->Put(key, writer.Take());
  }

  const bool windowed = window_.type != sql::GroupWindowSpec::Type::kNone;
  int64_t ts = windowed
                   ? event.row[static_cast<size_t>(window_.ts_index)].ToInt64()
                   : 0;

  // Which windows does this tuple fall into?
  std::vector<int64_t> starts;
  if (windowed) {
    int64_t newest = AlignedStart(ts, window_.emit_ms, window_.align_ms);
    for (int64_t s = newest; s > ts - window_.retain_ms; s -= window_.emit_ms) {
      starts.push_back(s);
    }
  } else {
    starts.push_back(0);
  }

  Row group_values;
  group_values.reserve(compiled_groups_.size());
  for (const auto& g : compiled_groups_) group_values.push_back(g.Eval(event.row));
  Bytes group_key = EncodeOrderedKey(group_values);

  for (int64_t start : starts) {
    // Late beyond grace: the window was already emitted and purged — the
    // tuple is discarded (paper §3 timeout policy).
    if (windowed && start + window_.retain_ms + grace_ms_ <= watermark_) {
      ++discarded_late_;
      CountDropped();
      continue;
    }
    Bytes key;
    AppendOrderedTs(key, start);
    key.insert(key.end(), group_key.begin(), group_key.end());

    // State layout: group row (tagged) + one accumulator per aggregate; a
    // new window starts from the accumulators' empty encodings.
    auto existing = state_->Get(key);
    BytesReader reader(existing ? *existing : empty_state_);
    if (existing) {
      SQS_ASSIGN_OR_RETURN(group_row, DeserializeTaggedValue(reader));
      (void)group_row;
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      SQS_RETURN_IF_ERROR(accumulators_[i]->DecodeFrom(reader));
      accumulators_[i]->Add(EvalArg(compiled_args_[i], event.row));
    }
    BytesWriter writer(64);
    SQS_RETURN_IF_ERROR(SerializeTaggedValue(Value(ValueArray(group_values.begin(),
                                                              group_values.end())),
                                             writer));
    for (const auto& acc : accumulators_) SQS_RETURN_IF_ERROR(acc->EncodeTo(writer));
    state_->Put(key, writer.Take());
  }

  if (windowed) {
    SQS_RETURN_IF_ERROR(AdvanceWatermark(ts, event, ctx));
  }
  return Status::Ok();
}

Status WindowAggregateOperator::OnTimer(OperatorContext& ctx) {
  // Early results: emit current partial aggregates for all open windows
  // (without purging — the final emission still happens at close).
  std::vector<std::pair<Bytes, Bytes>> open;
  state_->All([&](const Bytes& k, const Bytes& v) {
    open.emplace_back(k, v);
    return true;
  });
  TupleEvent source;  // partition 0: timer emissions are task-local
  for (const auto& [k, v] : open) {
    SQS_RETURN_IF_ERROR(EmitWindow(k, v, source, ctx));
  }
  return Status::Ok();
}

}  // namespace sqs::ops
