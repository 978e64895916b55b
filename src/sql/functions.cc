#include "sql/functions.h"

#include <cctype>
#include <cmath>
#include <limits>

#include "serde/serde.h"
#include "sql/expr.h"
#include "sql/lexer.h"

namespace sqs::sql {

namespace {

using Types = std::vector<FieldType>;
using Values = std::vector<Value>;

constexpr size_t kVariadic = std::numeric_limits<size_t>::max();

struct BuiltinScalar {
  const char* name;
  size_t min_arity;
  size_t max_arity;
  Result<FieldType> (*type)(const Types&);
  Value (*eval)(const Values&);
};

Result<FieldType> FirstArgType(const Types& args) { return args[0]; }
Result<FieldType> Int32Type(const Types&) { return FieldType::Int32(); }
Result<FieldType> Int64Type(const Types&) { return FieldType::Int64(); }
Result<FieldType> DoubleType(const Types&) { return FieldType::Double(); }
Result<FieldType> StringType(const Types&) { return FieldType::String(); }

// Non-numeric GREATEST/LEAST keep the first argument's type.
Result<FieldType> ExtremeType(const Types& args) {
  if (args[0].kind == TypeKind::kString) return args[0];
  FieldType t = args[0];
  for (const FieldType& a : args) t = NumericResultType(t, a);
  return t;
}

// GREATEST (sign 1) / LEAST (sign -1); any NULL argument gives NULL.
Value Extreme(const Values& args, int sign) {
  Value best = Value::Null();
  for (const Value& v : args) {
    if (v.is_null()) return Value::Null();
    if (best.is_null() || best.Compare(v) * sign < 0) best = v;
  }
  return best;
}

Value Substring(const Values& args) {
  if (args[0].is_null() || args[1].is_null()) return Value::Null();
  const std::string& s = args[0].as_string();
  int64_t from = args[1].ToInt64();  // 1-based, SQL style
  int64_t len = args.size() == 3 && !args[2].is_null() ? args[2].ToInt64()
                                                       : static_cast<int64_t>(s.size());
  if (from < 1) from = 1;
  if (from > static_cast<int64_t>(s.size()) || len <= 0) return Value(std::string());
  return Value(s.substr(static_cast<size_t>(from - 1),
                        static_cast<size_t>(std::min<int64_t>(
                            len, static_cast<int64_t>(s.size()) - (from - 1)))));
}

// FLOOR(x) rounds a number down; FLOOR(ts TO unit) floors a timestamp.
const BuiltinScalar kBuiltinScalars[] = {
    {"FLOOR", 1, 2,
     [](const Types& args) -> Result<FieldType> {
       return args.size() == 2 ? FieldType::Int64() : args[0];
     },
     [](const Values& args) {
       const Value& v = args[0];
       if (v.is_null()) return Value::Null();
       if (args.size() == 2) {
         auto r = FloorTimestampTo(v.ToInt64(), args[1].as_string());
         return r.ok() ? Value(r.value()) : Value::Null();
       }
       if (v.kind() == TypeKind::kDouble) return Value(std::floor(v.as_double()));
       return v;
     }},
    {"CEIL", 1, 1, FirstArgType,
     [](const Values& args) {
       const Value& v = args[0];
       if (v.is_null()) return Value::Null();
       if (v.kind() == TypeKind::kDouble) return Value(std::ceil(v.as_double()));
       return v;
     }},
    {"ABS", 1, 1, FirstArgType,
     [](const Values& args) {
       const Value& v = args[0];
       if (v.is_null()) return Value::Null();
       if (v.kind() == TypeKind::kDouble) return Value(std::abs(v.as_double()));
       if (v.kind() == TypeKind::kInt32) {
         return Value(static_cast<int32_t>(std::abs(v.as_int32())));
       }
       return Value(std::abs(v.ToInt64()));
     }},
    {"MOD", 2, 2, Int64Type,
     [](const Values& args) { return EvalBinaryOp(BinaryOp::kMod, args[0], args[1]); }},
    {"GREATEST", 2, kVariadic, ExtremeType,
     [](const Values& args) { return Extreme(args, 1); }},
    {"LEAST", 2, kVariadic, ExtremeType,
     [](const Values& args) { return Extreme(args, -1); }},
    {"UPPER", 1, 1, StringType,
     [](const Values& args) {
       if (args[0].is_null()) return Value::Null();
       return Value(ToUpper(args[0].as_string()));
     }},
    {"LOWER", 1, 1, StringType,
     [](const Values& args) {
       if (args[0].is_null()) return Value::Null();
       std::string s = args[0].as_string();
       for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
       return Value(std::move(s));
     }},
    {"CHAR_LENGTH", 1, 1, Int32Type,
     [](const Values& args) {
       if (args[0].is_null()) return Value::Null();
       return Value(static_cast<int32_t>(args[0].as_string().size()));
     }},
    {"SUBSTRING", 2, 3, StringType, Substring},
    {"CONCAT", 1, kVariadic, StringType,
     [](const Values& args) {
       std::string out;
       for (const Value& v : args) {
         if (!v.is_null()) out += v.ToString();
       }
       return Value(std::move(out));
     }},
    {"COALESCE", 1, kVariadic, FirstArgType,
     [](const Values& args) {
       for (const Value& v : args) {
         if (!v.is_null()) return v;
       }
       return Value::Null();
     }},
    {"SQRT", 1, 1, DoubleType,
     [](const Values& args) {
       if (args[0].is_null()) return Value::Null();
       return Value(std::sqrt(args[0].ToDouble()));
     }},
    {"POWER", 2, 2, DoubleType,
     [](const Values& args) {
       if (args[0].is_null() || args[1].is_null()) return Value::Null();
       return Value(std::pow(args[0].ToDouble(), args[1].ToDouble()));
     }},
};

const std::pair<const char*, AggKind> kBuiltinAggregates[] = {
    {"COUNT", AggKind::kCount}, {"SUM", AggKind::kSum},     {"MIN", AggKind::kMin},
    {"MAX", AggKind::kMax},     {"AVG", AggKind::kAvg},     {"START", AggKind::kStart},
    {"END", AggKind::kEnd},
};

Result<FieldType> AggResultType(AggKind kind, const FieldType& arg) {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kStart:
    case AggKind::kEnd:
      return FieldType::Int64();
    case AggKind::kSum:
      return arg.kind == TypeKind::kDouble ? FieldType::Double() : FieldType::Int64();
    case AggKind::kAvg:
      return FieldType::Double();
    case AggKind::kMin:
    case AggKind::kMax:
      return arg;
  }
  return Status::Internal("unhandled aggregate type");
}

}  // namespace

// ---------------------------------------------------------------------------
// AggState
// ---------------------------------------------------------------------------

void AggState::Add(const Value& v) {
  if (v.is_null()) return;
  ++count_;
  switch (kind_) {
    case AggKind::kSum:
    case AggKind::kAvg:
      if (v.kind() == TypeKind::kDouble) {
        is_double_ = true;
        sum_d_ += v.as_double();
      } else {
        sum_i_ += v.ToInt64();
        sum_d_ += static_cast<double>(v.ToInt64());
      }
      break;
    case AggKind::kMin:
      if (extreme_.is_null() || v.Compare(extreme_) < 0) extreme_ = v;
      break;
    case AggKind::kMax:
      if (extreme_.is_null() || v.Compare(extreme_) > 0) extreme_ = v;
      break;
    default:
      break;
  }
}

void AggState::Remove(const Value& v) {
  if (v.is_null()) return;
  --count_;
  if (kind_ == AggKind::kSum || kind_ == AggKind::kAvg) {
    if (v.kind() == TypeKind::kDouble) {
      sum_d_ -= v.as_double();
    } else {
      sum_i_ -= v.ToInt64();
      sum_d_ -= static_cast<double>(v.ToInt64());
    }
  }
}

Value AggState::Result() const {
  switch (kind_) {
    case AggKind::kCount:
      return Value(count_);
    case AggKind::kSum:
      if (count_ == 0) return Value::Null();
      return is_double_ ? Value(sum_d_) : Value(sum_i_);
    case AggKind::kAvg:
      if (count_ == 0) return Value::Null();
      return Value(sum_d_ / static_cast<double>(count_));
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kStart:
    case AggKind::kEnd:
      return extreme_;
  }
  return Value::Null();
}

Status AggState::EncodeTo(BytesWriter& out) const {
  out.WriteVarint(count_);
  out.WriteVarint(sum_i_);
  out.WriteDouble(sum_d_);
  out.WriteBool(is_double_);
  return SerializeTaggedValue(extreme_, out);
}

Status AggState::DecodeFrom(BytesReader& in) {
  SQS_ASSIGN_OR_RETURN(count, in.ReadVarint());
  SQS_ASSIGN_OR_RETURN(sum_i, in.ReadVarint());
  SQS_ASSIGN_OR_RETURN(sum_d, in.ReadDouble());
  SQS_ASSIGN_OR_RETURN(is_double, in.ReadBool());
  SQS_ASSIGN_OR_RETURN(extreme, DeserializeTaggedValue(in));
  count_ = count;
  sum_i_ = sum_i;
  sum_d_ = sum_d;
  is_double_ = is_double;
  extreme_ = std::move(extreme);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// FunctionRegistry
// ---------------------------------------------------------------------------

FunctionRegistry& FunctionRegistry::Instance() {
  static FunctionRegistry registry;
  return registry;
}

FunctionRegistry::FunctionRegistry() {
  for (const BuiltinScalar& b : kBuiltinScalars) {
    Function fn;
    fn.name = b.name;
    fn.min_arity = b.min_arity;
    fn.max_arity = b.max_arity;
    fn.type_fn = b.type;
    fn.eval_fn = b.eval;
    (void)Add(std::move(fn));
  }
  for (const auto& [name, kind] : kBuiltinAggregates) {
    Function fn;
    fn.name = name;
    fn.min_arity = 1;
    fn.max_arity = 1;
    fn.type_fn = [kind = kind](const Types& args) { return AggResultType(kind, args[0]); };
    fn.factory = [kind = kind] { return std::make_unique<AggState>(kind); };
    fn.builtin_agg = kind;
    (void)Add(std::move(fn));
  }
}

Status FunctionRegistry::Add(Function fn) {
  fn.name = ToUpper(fn.name);
  if (fn.name.empty()) return Status::InvalidArgument("function needs a name");
  if (!fn.type_fn || (!fn.eval_fn == !fn.factory)) {
    return Status::InvalidArgument("function " + fn.name +
                                   " needs a type function and either an eval "
                                   "function or an accumulator factory");
  }
  if (fn.min_arity > fn.max_arity) {
    return Status::InvalidArgument("function " + fn.name + " arity range inverted");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (by_name_.count(fn.name)) {
    return Status::AlreadyExists("function already registered: " + fn.name);
  }
  fn.id = static_cast<int32_t>(entries_.size());
  by_name_[fn.name] = fn.id;
  entries_.push_back(std::move(fn));
  return Status::Ok();
}

Status FunctionRegistry::RegisterScalar(ScalarUdf udf) {
  Function fn;
  fn.name = std::move(udf.name);
  fn.min_arity = udf.min_arity;
  fn.max_arity = udf.max_arity;
  fn.user_defined = true;
  fn.type_fn = std::move(udf.type_fn);
  fn.eval_fn = std::move(udf.eval_fn);
  return Add(std::move(fn));
}

Status FunctionRegistry::RegisterScalar(const std::string& name, size_t arity,
                                        FieldType result_type, Function::EvalFn eval_fn) {
  ScalarUdf udf;
  udf.name = name;
  udf.min_arity = arity;
  udf.max_arity = arity;
  udf.type_fn = [result_type](const Types&) -> Result<FieldType> { return result_type; };
  udf.eval_fn = std::move(eval_fn);
  return RegisterScalar(std::move(udf));
}

Status FunctionRegistry::RegisterAggregate(AggregateUdf udaf) {
  Function fn;
  fn.name = std::move(udaf.name);
  fn.min_arity = 1;
  fn.max_arity = 1;
  fn.user_defined = true;
  if (udaf.type_fn) {
    fn.type_fn = [type_fn = std::move(udaf.type_fn)](const Types& args) {
      return type_fn(args[0]);
    };
  }
  fn.factory = std::move(udaf.factory);
  return Add(std::move(fn));
}

const Function* FunctionRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(ToUpper(name));
  return it == by_name_.end() ? nullptr : &entries_[static_cast<size_t>(it->second)];
}

const Function* FunctionRegistry::Get(int32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= entries_.size()) return nullptr;
  return &entries_[static_cast<size_t>(id)];
}

int32_t FunctionRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int32_t>(entries_.size());
}

Result<const Function*> FunctionRegistry::GetAggregate(int32_t id) const {
  const Function* fn = Get(id);
  if (!fn || !fn->is_aggregate()) {
    return Status::InvalidArgument("aggregate call has no aggregate function");
  }
  return fn;
}

Result<AggKind> FunctionRegistry::GetBuiltinAggregate(int32_t id) const {
  const Function* fn = Get(id);
  if (!fn || !fn->builtin_agg) {
    return Status::InvalidArgument("window call has no built-in aggregate");
  }
  return *fn->builtin_agg;
}

}  // namespace sqs::sql
