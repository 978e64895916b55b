// The SQL function table. Every function a query can call is one entry in
// one table: the scalar built-ins, the built-in aggregates (with the group
// window bounds START/END), user-defined scalar functions (UDFs) and
// user-defined aggregates (UDAFs). Paper §7 item 4: the prototype "does not
// provide a concrete API to define user defined aggregates even though it is
// theoretically possible" — RegisterScalar/RegisterAggregate are that API.
//
// Resolution (ResolveExpr) looks a call's name up once and stores the
// entry's id in the expression; the planner's aggregate specs carry the same
// id. The interpreter, the compiled expression programs and the aggregate
// operators then run that entry. A name belongs to exactly one entry, at any
// arity, and names are case-insensitive.
//
// The built-ins are registered when the table is first used. Entries are
// append-only and never move, so compiled code holds a pointer to its entry
// and evaluates it without a lock.
//
// The table is process-global: a UDF must be registered in every process
// that plans or executes queries using it — the same contract as
// registering a UDF jar with every Samza job.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/value.h"
#include "serde/schema.h"

namespace sqs::sql {

// Incremental aggregate state that round-trips through bytes: window
// aggregate state lives in changelog-backed stores, for fault tolerance.
class Accumulator {
 public:
  Accumulator() = default;
  virtual ~Accumulator() = default;
  Accumulator(const Accumulator&) = delete;
  Accumulator& operator=(const Accumulator&) = delete;

  virtual void Add(const Value& v) = 0;
  virtual Value Result() const = 0;
  virtual Status EncodeTo(BytesWriter& out) const = 0;
  // Replaces the whole state with what EncodeTo wrote.
  virtual Status DecodeFrom(BytesReader& in) = 0;
};

enum class AggKind { kCount, kSum, kMin, kMax, kAvg, kStart, kEnd };

// Built-in aggregate state. START/END track window bounds and are fed by
// the operator, not by Add().
class AggState final : public Accumulator {
 public:
  explicit AggState(AggKind kind) : kind_(kind) {}

  void Add(const Value& v) override;
  // Retract a previously added value (sliding-window purge). Only valid for
  // COUNT/SUM/AVG; MIN/MAX windows recompute instead (see SlidingWindowOp).
  void Remove(const Value& v);
  static bool SupportsRemove(AggKind kind) {
    return kind == AggKind::kCount || kind == AggKind::kSum || kind == AggKind::kAvg;
  }

  Value Result() const override;
  Status EncodeTo(BytesWriter& out) const override;
  Status DecodeFrom(BytesReader& in) override;

 private:
  AggKind kind_;
  int64_t count_ = 0;       // non-null values seen
  int64_t sum_i_ = 0;       // integer sum
  double sum_d_ = 0;        // double sum
  bool is_double_ = false;  // any double fed in
  Value extreme_;           // MIN/MAX current
};

// One entry of the function table.
struct Function {
  using TypeFn = std::function<Result<FieldType>(const std::vector<FieldType>&)>;
  using EvalFn = std::function<Value(const std::vector<Value>&)>;
  using Factory = std::function<std::unique_ptr<Accumulator>()>;

  int32_t id = -1;     // index in the table, set on registration
  std::string name;    // upper-cased
  size_t min_arity = 0;
  size_t max_arity = 0;
  bool user_defined = false;
  // Result type given argument types (also validates argument types).
  TypeFn type_fn;
  // Scalar functions: evaluation. Must be pure (the optimizer may
  // constant-fold it).
  EvalFn eval_fn;
  // Aggregates: a fresh accumulator.
  Factory factory;
  // Built-in aggregates: the AggState kind (the OVER operator runs AggState
  // inline, and START/END map to window bound columns).
  std::optional<AggKind> builtin_agg;

  bool is_aggregate() const { return static_cast<bool>(factory); }
};

struct ScalarUdf {
  std::string name;
  size_t min_arity = 0;
  size_t max_arity = 0;
  Function::TypeFn type_fn;
  Function::EvalFn eval_fn;
};

// User-defined aggregate over one argument.
struct AggregateUdf {
  std::string name;
  // Result type given the argument type (also validates it).
  std::function<Result<FieldType>(const FieldType&)> type_fn;
  Function::Factory factory;
};

class FunctionRegistry {
 public:
  static FunctionRegistry& Instance();

  // Registration fails with AlreadyExists when any entry holds the name.
  Status RegisterScalar(ScalarUdf udf);
  // Convenience: fixed arity, fixed result type, no argument validation.
  Status RegisterScalar(const std::string& name, size_t arity, FieldType result_type,
                        Function::EvalFn eval_fn);
  // A user-defined aggregate, usable in GROUP BY queries.
  Status RegisterAggregate(AggregateUdf udaf);

  // The entry named `name` (any case), or null.
  const Function* Find(const std::string& name) const;
  // The entry with this id, or null. Entries never move: the pointer stays
  // valid for the life of the process.
  const Function* Get(int32_t id) const;
  int32_t size() const;
  // The aggregate entry with this id (AggCallSpec::func_id), or an error.
  Result<const Function*> GetAggregate(int32_t id) const;
  // The AggState kind of the built-in aggregate with this id
  // (WindowCallSpec::func_id), or an error.
  Result<AggKind> GetBuiltinAggregate(int32_t id) const;

 private:
  FunctionRegistry();
  Status Add(Function fn);

  mutable std::mutex mu_;
  std::deque<Function> entries_;  // id = index; push_back never moves entries
  std::map<std::string, int32_t> by_name_;
};

}  // namespace sqs::sql
