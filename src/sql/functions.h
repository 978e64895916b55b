// User-defined scalar functions (paper §7 item 4: the prototype "does not
// provide a concrete API to define user defined aggregates even though it
// is theoretically possible" — this is that concrete API, for the scalar
// case; built-in aggregates cover the aggregate case).
//
// UDFs registered here are visible to the planner (name resolution + result
// typing), the interpreter, and the compiled expression programs. Names are
// resolved case-insensitively like built-ins and must not collide with
// built-in function names.
//
// The registry is process-global: a UDF must be registered in every process
// that plans or executes queries using it — the same contract as
// registering a UDF jar with every Samza job.
#pragma once

#include <cstdint>
#include <memory>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/value.h"
#include "serde/schema.h"

namespace sqs::sql {

struct ScalarUdf {
  std::string name;      // upper-cased
  size_t min_arity = 0;
  size_t max_arity = 0;
  // Result type given argument types (also validates argument types).
  std::function<Result<FieldType>(const std::vector<FieldType>&)> type_fn;
  // Evaluation. Must be pure (the optimizer may constant-fold it).
  std::function<Value(const std::vector<Value>&)> eval_fn;
};

// User-defined aggregate: incremental accumulator with serializable state
// (window aggregate state is kept in changelog-backed stores, so it must
// round-trip through bytes for fault tolerance).
class UdafAccumulator {
 public:
  virtual ~UdafAccumulator() = default;
  virtual void Add(const Value& v) = 0;
  virtual Value Result() const = 0;
  virtual void EncodeTo(BytesWriter& out) const = 0;
  virtual Status DecodeFrom(BytesReader& in) = 0;
};

struct AggregateUdf {
  std::string name;  // upper-cased
  // Result type given the argument type (also validates it).
  std::function<Result<FieldType>(const FieldType&)> type_fn;
  std::function<std::unique_ptr<UdafAccumulator>()> factory;
};

class FunctionRegistry {
 public:
  static FunctionRegistry& Instance();

  // Registers a UDF. Fails on collisions with built-ins or existing UDFs.
  Status RegisterScalar(ScalarUdf udf);

  // Registers a user-defined aggregate (usable in GROUP BY queries).
  Status RegisterAggregate(AggregateUdf udaf);
  bool HasAggregate(const std::string& name) const;
  Result<int32_t> LookupAggregate(const std::string& name) const;
  Result<FieldType> AggregateResultType(int32_t id, const FieldType& arg) const;
  std::unique_ptr<UdafAccumulator> CreateAccumulator(int32_t id) const;

  // Convenience: fixed arity, fixed result type, no argument validation.
  Status RegisterScalar(const std::string& name, size_t arity, FieldType result_type,
                        std::function<Value(const std::vector<Value>&)> eval_fn);

  // Lookup by (name, arity). Returns a stable id usable by compiled code.
  Result<int32_t> Lookup(const std::string& name, size_t arity) const;
  Result<FieldType> ResultType(const std::string& name,
                               const std::vector<FieldType>& args) const;
  Value Eval(int32_t id, const std::vector<Value>& args) const;

  bool Has(const std::string& name) const;

  // Testing hook: remove a UDF.
  void Unregister(const std::string& name);

 private:
  mutable std::mutex mu_;
  std::vector<ScalarUdf> udfs_;                 // id = index (ids are stable)
  std::map<std::string, int32_t> by_name_;
  std::vector<AggregateUdf> udafs_;
  std::map<std::string, int32_t> udaf_by_name_;
};

}  // namespace sqs::sql
