#include "baseline/native_tasks.h"

#include <limits>

namespace sqs::baseline {

namespace {

// Field indexes in Orders (hard-coded, the way a hand-written task would).
constexpr size_t kRowtime = 0;
constexpr size_t kProductId = 1;
constexpr size_t kOrderId = 2;
constexpr size_t kUnits = 3;

}  // namespace

SchemaPtr NativeOrdersSchema() {
  static SchemaPtr schema =
      Schema::Make("Orders", {{"rowtime", FieldType::Int64(), false},
                              {"productId", FieldType::Int32(), false},
                              {"orderId", FieldType::Int64(), false},
                              {"units", FieldType::Int32(), false},
                              {"pad", FieldType::String(), true}});
  return schema;
}

SchemaPtr NativeProductsSchema() {
  static SchemaPtr schema =
      Schema::Make("Products", {{"productId", FieldType::Int32(), false},
                                {"name", FieldType::String(), false},
                                {"supplierId", FieldType::Int32(), false}});
  return schema;
}

Status NativeFilterTask::Process(const IncomingMessage& message,
                                 MessageCollector& collector, TaskCoordinator&) {
  SQS_ASSIGN_OR_RETURN(record, serde_.DeserializeBytes(message.message.value));
  if (record[kUnits].as_int32() > threshold_) {
    // Forward the original bytes untouched — no re-serialization.
    return collector.SendToPartition(output_topic_, message.origin.partition,
                                     message.message.key, message.message.value);
  }
  return Status::Ok();
}

NativeProjectTask::NativeProjectTask(std::string output_topic)
    : output_topic_(std::move(output_topic)),
      in_serde_(NativeOrdersSchema()),
      out_serde_(Schema::Make("OrdersProjected",
                              {{"rowtime", FieldType::Int64(), false},
                               {"productId", FieldType::Int32(), false},
                               {"units", FieldType::Int32(), false}})) {}

Status NativeProjectTask::Process(const IncomingMessage& message,
                                  MessageCollector& collector, TaskCoordinator&) {
  SQS_ASSIGN_OR_RETURN(record, in_serde_.DeserializeBytes(message.message.value));
  // Build the output record directly from the input record.
  Row out{record[kRowtime], record[kProductId], record[kUnits]};
  BytesWriter writer(32);
  SQS_RETURN_IF_ERROR(out_serde_.Serialize(out, writer));
  return collector.SendToPartition(output_topic_, message.origin.partition, Bytes{},
                                   writer.Take());
}

NativeJoinTask::NativeJoinTask(std::string output_topic, std::string products_topic)
    : output_topic_(std::move(output_topic)),
      products_topic_(std::move(products_topic)),
      orders_serde_(NativeOrdersSchema()),
      products_serde_(NativeProductsSchema()),
      out_serde_(Schema::Make("OrdersEnriched",
                              {{"rowtime", FieldType::Int64(), false},
                               {"orderId", FieldType::Int64(), false},
                               {"productId", FieldType::Int32(), false},
                               {"units", FieldType::Int32(), false},
                               {"supplierId", FieldType::Int32(), false}})) {}

Status NativeJoinTask::Init(TaskContext& context) {
  table_ = context.GetStore("native-join-table");
  if (!table_) return Status::StateError("store native-join-table not configured");
  return Status::Ok();
}

Status NativeJoinTask::Process(const IncomingMessage& message,
                               MessageCollector& collector, TaskCoordinator&) {
  if (message.origin.topic == products_topic_) {
    // Bootstrap phase: cache the product row, keyed by productId, using
    // Avro serialization (the fast path the paper's native task uses).
    SQS_ASSIGN_OR_RETURN(product, products_serde_.DeserializeBytes(message.message.value));
    table_->Put(EncodeOrderedKey(product[0]), message.message.value);
    return Status::Ok();
  }
  SQS_ASSIGN_OR_RETURN(order, orders_serde_.DeserializeBytes(message.message.value));
  auto cached = table_->Get(EncodeOrderedKey(order[kProductId]));
  if (!cached) return Status::Ok();
  SQS_ASSIGN_OR_RETURN(product, products_serde_.DeserializeBytes(*cached));
  Row out{order[kRowtime], order[kOrderId], order[kProductId], order[kUnits],
          product[2]};
  BytesWriter writer(48);
  SQS_RETURN_IF_ERROR(out_serde_.Serialize(out, writer));
  return collector.SendToPartition(output_topic_, message.origin.partition, Bytes{},
                                   writer.Take());
}

NativeSlidingWindowTask::NativeSlidingWindowTask(std::string output_topic,
                                                 int64_t window_ms)
    : output_topic_(std::move(output_topic)),
      window_ms_(window_ms),
      in_serde_(NativeOrdersSchema()),
      out_serde_(Schema::Make("OrdersWindowed",
                              {{"rowtime", FieldType::Int64(), false},
                               {"productId", FieldType::Int32(), false},
                               {"units", FieldType::Int32(), false},
                               {"windowSum", FieldType::Int64(), true}})) {}

Status NativeSlidingWindowTask::Init(TaskContext& context) {
  messages_ = context.GetStore("native-win-msgs");
  aggs_ = context.GetStore("native-win-agg");
  if (!messages_ || !aggs_) {
    return Status::StateError("native window stores not configured");
  }
  return Status::Ok();
}

Status NativeSlidingWindowTask::Process(const IncomingMessage& message,
                                        MessageCollector& collector, TaskCoordinator&) {
  SQS_ASSIGN_OR_RETURN(order, in_serde_.DeserializeBytes(message.message.value));
  int64_t ts = order[kRowtime].as_int64();
  int64_t units = order[kUnits].as_int32();

  // Same Algorithm-1 structure as the SQL operator, with hard-coded fields:
  // message store keyed by (productId, ts, partition, offset).
  Bytes prefix = EncodeOrderedKey(order[kProductId]);
  Bytes msg_key = prefix;
  AppendOrderedTs(msg_key, ts);
  AppendFixed32(msg_key, static_cast<uint32_t>(message.origin.partition));
  AppendOrderedTs(msg_key, message.offset);

  int64_t sum = 0;
  if (auto agg = aggs_->Get(prefix)) {
    BytesReader reader(*agg);
    SQS_ASSIGN_OR_RETURN(s, reader.ReadVarint());
    sum = s;
  }

  if (!messages_->Get(msg_key)) {
    BytesWriter value(8);
    value.WriteVarint(units);
    messages_->Put(msg_key, value.Take());

    // Purge expired entries, retracting their units from the running sum.
    Bytes upper = prefix;
    AppendOrderedTs(upper, ts - window_ms_);
    std::vector<Bytes> expired;
    messages_->Range(prefix, upper, [&](const Bytes& k, const Bytes& v) {
      expired.push_back(k);
      BytesReader reader(v);
      auto u = reader.ReadVarint();
      if (u.ok()) sum -= u.value();
      return true;
    });
    for (const Bytes& k : expired) messages_->Delete(k);

    sum += units;
    BytesWriter agg_value(8);
    agg_value.WriteVarint(sum);
    aggs_->Put(prefix, agg_value.Take());
  } else {
    // Re-delivery: recompute deterministically from the stored window.
    sum = 0;
    Bytes upper = prefix;
    AppendOrderedTs(upper, std::numeric_limits<int64_t>::max());
    messages_->Range(prefix, upper, [&](const Bytes&, const Bytes& v) {
      BytesReader reader(v);
      auto u = reader.ReadVarint();
      if (u.ok()) sum += u.value();
      return true;
    });
  }

  Row out{order[kRowtime], order[kProductId], order[kUnits], Value(sum)};
  BytesWriter writer(48);
  SQS_RETURN_IF_ERROR(out_serde_.Serialize(out, writer));
  return collector.SendToPartition(output_topic_, message.origin.partition, Bytes{},
                                   writer.Take());
}

}  // namespace sqs::baseline
