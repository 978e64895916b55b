// Stateless operators: scan (deserialize + record->array), filter, project,
// and stream-insert (array->record + serialize + send).
#pragma once

#include "ops/operator.h"
#include "sql/expr.h"
#include "sql/logical.h"

namespace sqs::ops {

// Leaf operator: deserializes an incoming message into a record and copies
// it into the tuple-as-array working representation — the explicit
// "AvroToArray" step of Figure 4 that the paper's CPU profiling identified
// as the main SQL overhead. Hand-written native tasks skip this copy (they
// work on the decoded record directly).
class ScanOperator : public Operator, public SourceOperator {
 public:
  ScanOperator(RowSerdePtr serde, SchemaPtr schema, int rowtime_index)
      : serde_(std::move(serde)),
        schema_(std::move(schema)),
        rowtime_index_(rowtime_index) {}

  std::string name() const override { return "scan"; }
  Status Init(OperatorContext&) override { return Status::Ok(); }

  // Scan is fed raw bytes by the router, not TupleEvents. Instrumented the
  // same way as Process: the latency sample covers deserialize + validate +
  // RecordToArray + the entire downstream pipeline.
  Status ProcessMessage(const IncomingMessage& message,
                        OperatorContext& ctx) override;

 protected:
  Status DoProcess(const TupleEvent& event, OperatorContext& ctx) override {
    return EmitNext(event, ctx);  // pre-decoded path (used in tests)
  }

 private:
  Status DecodeAndEmit(const IncomingMessage& message, OperatorContext& ctx);

  RowSerdePtr serde_;
  SchemaPtr schema_;
  int rowtime_index_;
};

class FilterOperator : public Operator {
 public:
  explicit FilterOperator(sql::ExprPtr predicate) : predicate_(std::move(predicate)) {}

  std::string name() const override { return "filter"; }
  Status Init(OperatorContext&) override;

 protected:
  Status DoProcess(const TupleEvent& event, OperatorContext& ctx) override;

 private:
  sql::ExprPtr predicate_;
  std::optional<sql::CompiledExpr> compiled_;
};

class ProjectOperator : public Operator {
 public:
  explicit ProjectOperator(std::vector<sql::ExprPtr> exprs, int out_rowtime_index)
      : exprs_(std::move(exprs)), out_rowtime_index_(out_rowtime_index) {}

  std::string name() const override { return "project"; }
  Status Init(OperatorContext&) override;

 protected:
  Status DoProcess(const TupleEvent& event, OperatorContext& ctx) override;

 private:
  std::vector<sql::ExprPtr> exprs_;
  int out_rowtime_index_;
  std::vector<sql::CompiledExpr> compiled_;
};

// Root operator: serializes the Row back into the output message format and
// sends it to the output topic (the "ArrayToAvro" + insert step of Fig. 4).
// Partition-preserving by default so per-partition ordering survives the
// pipeline; set a key index to hash-partition by a column instead.
class InsertOperator : public Operator {
 public:
  InsertOperator(std::string output_topic, RowSerdePtr serde, int key_index = -1)
      : topic_(std::move(output_topic)),
        serde_(std::move(serde)),
        key_index_(key_index) {}

  std::string name() const override { return "insert"; }
  Status Init(OperatorContext&) override { return Status::Ok(); }

  int64_t emitted() const { return emitted_; }

 protected:
  Status DoProcess(const TupleEvent& event, OperatorContext& ctx) override;

 private:
  std::string topic_;
  RowSerdePtr serde_;
  int key_index_;
  int64_t emitted_ = 0;
};

}  // namespace sqs::ops
