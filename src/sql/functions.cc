#include "sql/functions.h"

#include "sql/expr.h"
#include "sql/lexer.h"

namespace sqs::sql {

FunctionRegistry& FunctionRegistry::Instance() {
  static FunctionRegistry registry;
  return registry;
}

Status FunctionRegistry::RegisterScalar(ScalarUdf udf) {
  udf.name = ToUpper(udf.name);
  if (udf.name.empty()) return Status::InvalidArgument("UDF needs a name");
  if (!udf.type_fn || !udf.eval_fn) {
    return Status::InvalidArgument("UDF " + udf.name + " needs type and eval functions");
  }
  if (udf.min_arity > udf.max_arity) {
    return Status::InvalidArgument("UDF " + udf.name + " arity range inverted");
  }
  // Collisions with built-ins (any arity in the range) are rejected.
  for (size_t a = udf.min_arity; a <= udf.max_arity; ++a) {
    if (LookupScalarFunc(udf.name, a).ok()) {
      return Status::AlreadyExists("UDF collides with built-in function: " + udf.name);
    }
  }
  if (IsAggFuncName(udf.name)) {
    return Status::AlreadyExists("UDF collides with aggregate function: " + udf.name);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (by_name_.count(udf.name)) {
    return Status::AlreadyExists("UDF already registered: " + udf.name);
  }
  udfs_.push_back(std::move(udf));
  by_name_[udfs_.back().name] = static_cast<int32_t>(udfs_.size() - 1);
  return Status::Ok();
}

Status FunctionRegistry::RegisterScalar(
    const std::string& name, size_t arity, FieldType result_type,
    std::function<Value(const std::vector<Value>&)> eval_fn) {
  ScalarUdf udf;
  udf.name = name;
  udf.min_arity = arity;
  udf.max_arity = arity;
  udf.type_fn = [result_type](const std::vector<FieldType>&) -> Result<FieldType> {
    return result_type;
  };
  udf.eval_fn = std::move(eval_fn);
  return RegisterScalar(std::move(udf));
}

Result<int32_t> FunctionRegistry::Lookup(const std::string& name, size_t arity) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(ToUpper(name));
  if (it == by_name_.end()) return Status::NotFound("no UDF " + name);
  const ScalarUdf& udf = udfs_[static_cast<size_t>(it->second)];
  if (arity < udf.min_arity || arity > udf.max_arity) {
    return Status::ValidationError("UDF " + udf.name + " takes " +
                                   std::to_string(udf.min_arity) + ".." +
                                   std::to_string(udf.max_arity) + " arguments, got " +
                                   std::to_string(arity));
  }
  return it->second;
}

Result<FieldType> FunctionRegistry::ResultType(const std::string& name,
                                               const std::vector<FieldType>& args) const {
  SQS_ASSIGN_OR_RETURN(id, Lookup(name, args.size()));
  std::lock_guard<std::mutex> lock(mu_);
  return udfs_[static_cast<size_t>(id)].type_fn(args);
}

Value FunctionRegistry::Eval(int32_t id, const std::vector<Value>& args) const {
  std::function<Value(const std::vector<Value>&)> fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id < 0 || id >= static_cast<int32_t>(udfs_.size())) return Value::Null();
    fn = udfs_[static_cast<size_t>(id)].eval_fn;
  }
  return fn(args);
}

Status FunctionRegistry::RegisterAggregate(AggregateUdf udaf) {
  udaf.name = ToUpper(udaf.name);
  if (udaf.name.empty()) return Status::InvalidArgument("UDAF needs a name");
  if (!udaf.type_fn || !udaf.factory) {
    return Status::InvalidArgument("UDAF " + udaf.name + " needs type and factory");
  }
  if (IsAggFuncName(udaf.name)) {
    return Status::AlreadyExists("UDAF collides with built-in aggregate: " + udaf.name);
  }
  if (LookupScalarFunc(udaf.name, 1).ok()) {
    return Status::AlreadyExists("UDAF collides with built-in function: " + udaf.name);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (udaf_by_name_.count(udaf.name) || by_name_.count(udaf.name)) {
    return Status::AlreadyExists("function already registered: " + udaf.name);
  }
  udafs_.push_back(std::move(udaf));
  udaf_by_name_[udafs_.back().name] = static_cast<int32_t>(udafs_.size() - 1);
  return Status::Ok();
}

bool FunctionRegistry::HasAggregate(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return udaf_by_name_.count(ToUpper(name)) > 0;
}

Result<int32_t> FunctionRegistry::LookupAggregate(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = udaf_by_name_.find(ToUpper(name));
  if (it == udaf_by_name_.end()) return Status::NotFound("no UDAF " + name);
  return it->second;
}

Result<FieldType> FunctionRegistry::AggregateResultType(int32_t id,
                                                        const FieldType& arg) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int32_t>(udafs_.size())) {
    return Status::NotFound("bad UDAF id");
  }
  return udafs_[static_cast<size_t>(id)].type_fn(arg);
}

std::unique_ptr<UdafAccumulator> FunctionRegistry::CreateAccumulator(int32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int32_t>(udafs_.size())) return nullptr;
  return udafs_[static_cast<size_t>(id)].factory();
}

bool FunctionRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_name_.count(ToUpper(name)) > 0;
}

void FunctionRegistry::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  by_name_.erase(ToUpper(name));  // ids stay stable; slot becomes unreachable
}

}  // namespace sqs::sql
