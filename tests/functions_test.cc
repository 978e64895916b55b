// User-defined function tests: registry rules, planner visibility,
// interpreter + compiled evaluation, constant folding, and end-to-end use
// in a streaming query.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/executor.h"
#include "sql/functions.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "workload/generators.h"

namespace sqs::sql {
namespace {

// Registers DOUBLE_IT / TAX once for the whole test binary.
void RegisterTestUdfs() {
  static bool done = [] {
    auto& reg = FunctionRegistry::Instance();
    Status st = reg.RegisterScalar(
        "DOUBLE_IT", 1, FieldType::Int64(), [](const std::vector<Value>& args) {
          if (args[0].is_null()) return Value::Null();
          return Value(args[0].ToInt64() * 2);
        });
    if (!st.ok()) std::abort();
    ScalarUdf tax;
    tax.name = "tax";  // case-insensitive registration
    tax.min_arity = 1;
    tax.max_arity = 2;
    tax.type_fn = [](const std::vector<FieldType>& args) -> Result<FieldType> {
      if (args[0].kind == TypeKind::kString) {
        return Status::ValidationError("TAX needs a numeric argument");
      }
      return FieldType::Double();
    };
    tax.eval_fn = [](const std::vector<Value>& args) {
      double rate = args.size() == 2 ? args[1].ToDouble() : 0.1;
      return Value(args[0].ToDouble() * rate);
    };
    st = reg.RegisterScalar(std::move(tax));
    if (!st.ok()) std::abort();
    return true;
  }();
  (void)done;
}

// SUMSQ(x): sum of squares, with serializable state.
class SumSqAccumulator : public Accumulator {
 public:
  void Add(const Value& v) override {
    if (v.is_null()) return;
    double d = v.ToDouble();
    sum_ += d * d;
  }
  Value Result() const override { return Value(sum_); }
  Status EncodeTo(BytesWriter& out) const override {
    out.WriteDouble(sum_);
    return Status::Ok();
  }
  Status DecodeFrom(BytesReader& in) override {
    SQS_ASSIGN_OR_RETURN(s, in.ReadDouble());
    sum_ = s;
    return Status::Ok();
  }

 private:
  double sum_ = 0;
};

void RegisterSumSq() {
  static bool done = [] {
    AggregateUdf udaf;
    udaf.name = "SUMSQ";
    udaf.type_fn = [](const FieldType& arg) -> Result<FieldType> {
      if (arg.kind == TypeKind::kString) {
        return Status::ValidationError("SUMSQ needs a numeric argument");
      }
      return FieldType::Double();
    };
    udaf.factory = [] { return std::make_unique<SumSqAccumulator>(); };
    if (!FunctionRegistry::Instance().RegisterAggregate(std::move(udaf)).ok()) {
      std::abort();
    }
    return true;
  }();
  (void)done;
}

ColumnResolver UnitsResolver() {
  return [](const std::string&,
            const std::string& c) -> Result<std::pair<int, FieldType>> {
    if (c == "units") return std::make_pair(0, FieldType::Int32());
    return Status::NotFound(c);
  };
}

TEST(UdfTest, RegistryRejectsCollisions) {
  RegisterTestUdfs();
  auto& reg = FunctionRegistry::Instance();
  // Built-in scalar collision.
  EXPECT_EQ(reg.RegisterScalar("FLOOR", 1, FieldType::Int64(),
                               [](const std::vector<Value>&) { return Value::Null(); })
                .code(),
            ErrorCode::kAlreadyExists);
  // Aggregate collision.
  EXPECT_EQ(reg.RegisterScalar("COUNT", 1, FieldType::Int64(),
                               [](const std::vector<Value>&) { return Value::Null(); })
                .code(),
            ErrorCode::kAlreadyExists);
  // Duplicate UDF.
  EXPECT_EQ(reg.RegisterScalar("DOUBLE_IT", 1, FieldType::Int64(),
                               [](const std::vector<Value>&) { return Value::Null(); })
                .code(),
            ErrorCode::kAlreadyExists);
  // A UDF named like an existing UDAF.
  RegisterSumSq();
  EXPECT_EQ(reg.RegisterScalar("SUMSQ", 1, FieldType::Double(),
                               [](const std::vector<Value>&) { return Value::Null(); })
                .code(),
            ErrorCode::kAlreadyExists);
}

// Registration appends to the table while compiled programs call earlier
// entries without a lock (run under TSan in CI).
TEST(UdfTest, RegistrationDoesNotDisturbCompiledCalls) {
  RegisterTestUdfs();
  auto e = ParseExpression("DOUBLE_IT(units)").value();
  ASSERT_TRUE(ResolveExpr(*e, UnitsResolver(), false).ok());
  auto compiled = CompiledExpr::Compile(*e).value();
  std::atomic<bool> stop{false};
  std::vector<std::thread> evaluators;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 2; ++t) {
    evaluators.emplace_back([&] {
      Row row = {Value(int32_t{21})};
      while (!stop.load()) {
        if (compiled.Eval(row) != Value(int64_t{42})) ++mismatches;
      }
    });
  }
  static std::atomic<int> next{0};
  for (int i = 0; i < 200; ++i) {
    std::string name = "RACE_FN_" + std::to_string(next++);
    EXPECT_TRUE(FunctionRegistry::Instance()
                    .RegisterScalar(name, 1, FieldType::Int64(),
                                    [](const std::vector<Value>& args) { return args[0]; })
                    .ok());
  }
  stop = true;
  for (auto& t : evaluators) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(UdfTest, ResolvesAndEvaluatesInterpreted) {
  RegisterTestUdfs();
  auto e = ParseExpression("DOUBLE_IT(units) + 1").value();
  ASSERT_TRUE(ResolveExpr(*e, UnitsResolver(), false).ok());
  EXPECT_EQ(e->resolved_type.kind, TypeKind::kInt64);
  EXPECT_EQ(EvalExpr(*e, {Value(int32_t{21})}), Value(int64_t{43}));
}

TEST(UdfTest, CompiledEvaluationMatches) {
  RegisterTestUdfs();
  auto e = ParseExpression("tax(units, 0.25)").value();
  ASSERT_TRUE(ResolveExpr(*e, UnitsResolver(), false).ok());
  auto compiled = CompiledExpr::Compile(*e);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  Row row = {Value(int32_t{100})};
  EXPECT_EQ(compiled.value().Eval(row), Value(25.0));
  EXPECT_EQ(EvalExpr(*e, row), compiled.value().Eval(row));
}

TEST(UdfTest, VariadicArityChecked) {
  RegisterTestUdfs();
  auto ok1 = ParseExpression("TAX(units)").value();
  EXPECT_TRUE(ResolveExpr(*ok1, UnitsResolver(), false).ok());
  auto bad = ParseExpression("TAX(units, 1, 2)").value();
  EXPECT_FALSE(ResolveExpr(*bad, UnitsResolver(), false).ok());
}

TEST(UdfTest, TypeFunctionValidatesArguments) {
  RegisterTestUdfs();
  auto resolver = [](const std::string&,
                     const std::string& c) -> Result<std::pair<int, FieldType>> {
    if (c == "pad") return std::make_pair(0, FieldType::String());
    return Status::NotFound(c);
  };
  auto e = ParseExpression("TAX(pad)").value();
  auto st = ResolveExpr(*e, resolver, false);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("numeric"), std::string::npos);
}

TEST(UdfTest, UnknownFunctionStillFails) {
  auto e = ParseExpression("NO_SUCH_FN(1)").value();
  auto st = ResolveExpr(*e, UnitsResolver(), false);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unknown function"), std::string::npos);
}

TEST(UdfTest, ConstantFoldingAppliesToPureUdfs) {
  RegisterTestUdfs();
  auto e = ParseExpression("DOUBLE_IT(21)").value();
  ASSERT_TRUE(ResolveExpr(*e, UnitsResolver(), false).ok());
  EXPECT_TRUE(FoldConstants(*e));
  EXPECT_EQ(e->kind, ExprKind::kLiteral);
  EXPECT_EQ(e->literal, Value(int64_t{42}));
}

TEST(UdfTest, EndToEndInStreamingQuery) {
  RegisterTestUdfs();
  auto env = core::SamzaSqlEnvironment::Make();
  ASSERT_TRUE(workload::SetupPaperSources(*env, 2).ok());
  workload::OrdersGenerator gen(*env, {});
  ASSERT_TRUE(gen.Produce(300).ok());
  core::QueryExecutor executor(env);
  auto submitted = executor.Execute(
      "SELECT STREAM orderId, DOUBLE_IT(units) AS du FROM Orders WHERE "
      "DOUBLE_IT(units) > 150");
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(executor.RunJobsUntilQuiescent().ok());
  auto rows = executor.ReadOutputRows(submitted.value().output_topic).value();
  auto oracle =
      executor.Execute("SELECT orderId, DOUBLE_IT(units) AS du FROM Orders "
                       "WHERE DOUBLE_IT(units) > 150");
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(rows.size(), oracle.value().rows.size());
  EXPECT_GT(rows.size(), 0u);
  for (const Row& r : rows) {
    EXPECT_GT(r[1].ToInt64(), 150);
    EXPECT_EQ(r[1].ToInt64() % 2, 0);
  }
}

TEST(UdafTest, RegistryRejectsCollisions) {
  RegisterSumSq();
  auto& reg = FunctionRegistry::Instance();
  AggregateUdf dup;
  dup.name = "SUM";  // built-in aggregate
  dup.type_fn = [](const FieldType&) -> Result<FieldType> { return FieldType::Double(); };
  dup.factory = [] { return std::make_unique<SumSqAccumulator>(); };
  EXPECT_EQ(reg.RegisterAggregate(std::move(dup)).code(), ErrorCode::kAlreadyExists);
  AggregateUdf dup2;
  dup2.name = "sumsq";
  dup2.type_fn = [](const FieldType&) -> Result<FieldType> { return FieldType::Double(); };
  dup2.factory = [] { return std::make_unique<SumSqAccumulator>(); };
  EXPECT_EQ(reg.RegisterAggregate(std::move(dup2)).code(), ErrorCode::kAlreadyExists);
  // A built-in scalar of another arity: POWER takes two arguments.
  AggregateUdf power;
  power.name = "POWER";
  power.type_fn = [](const FieldType&) -> Result<FieldType> { return FieldType::Double(); };
  power.factory = [] { return std::make_unique<SumSqAccumulator>(); };
  EXPECT_EQ(reg.RegisterAggregate(std::move(power)).code(), ErrorCode::kAlreadyExists);
}

TEST(UdafTest, AccumulatorStateRoundTrips) {
  RegisterSumSq();
  const Function* sumsq = FunctionRegistry::Instance().Find("SUMSQ");
  ASSERT_NE(sumsq, nullptr);
  auto acc = sumsq->factory();
  acc->Add(Value(int64_t{3}));
  acc->Add(Value(int64_t{4}));
  EXPECT_EQ(acc->Result(), Value(25.0));
  BytesWriter writer;
  ASSERT_TRUE(acc->EncodeTo(writer).ok());
  Bytes bytes = writer.Take();
  BytesReader reader(bytes);
  auto restored = sumsq->factory();
  ASSERT_TRUE(restored->DecodeFrom(reader).ok());
  EXPECT_EQ(restored->Result(), Value(25.0));
}

TEST(UdafTest, BatchGroupByUsesUdaf) {
  RegisterSumSq();
  auto env = core::SamzaSqlEnvironment::Make();
  ASSERT_TRUE(workload::SetupPaperSources(*env, 2).ok());
  workload::OrdersGenerator gen(*env, {});
  ASSERT_TRUE(gen.Produce(50).ok());
  core::QueryExecutor executor(env);
  auto result = executor.Execute(
      "SELECT SUMSQ(units) AS ss, SUM(units) AS s FROM Orders "
      "GROUP BY FLOOR(rowtime TO DAY)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 1u);
  double ss = result.value().rows[0][0].as_double();
  int64_t sum = result.value().rows[0][1].as_int64();
  EXPECT_GT(ss, static_cast<double>(sum));  // sum of squares > sum for units > 1
}

TEST(UdafTest, StreamingWindowedUdafMatchesBatch) {
  RegisterSumSq();
  auto env = core::SamzaSqlEnvironment::Make();
  ASSERT_TRUE(workload::SetupPaperSources(*env, 4).ok());
  workload::OrdersGeneratorOptions options;
  options.num_products = 8;
  options.rowtime_step_ms = 400;
  workload::OrdersGenerator gen(*env, options);
  ASSERT_TRUE(gen.Produce(800).ok());
  // Watermark sentinels to close all windows.
  auto schema = env->catalog->GetSource("Orders").value().schema;
  AvroRowSerde serde(schema);
  Producer producer(env->broker, env->clock);
  for (int32_t p = 0; p < 4; ++p) {
    Row row{Value(gen.last_rowtime() + 3'600'000), Value(int32_t{9999}),
            Value(int64_t{-1}), Value(int32_t{0}), Value("s")};
    ASSERT_TRUE(
        producer.SendTo({"Orders", p}, Bytes{}, serde.SerializeToBytes(row)).ok());
  }
  Config defaults;
  defaults.SetInt(cfg::kContainerCount, 2);
  defaults.SetInt(cfg::kCommitEveryMessages, 64);
  core::QueryExecutor executor(env, defaults);
  auto submitted = executor.Execute(
      "SELECT STREAM productId, START(rowtime) AS ws, SUMSQ(units) AS ss "
      "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '20' SECOND), productId");
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(executor.RunJobsUntilQuiescent().ok());
  auto rows = executor.ReadOutputRows(submitted.value().output_topic).value();
  auto oracle = executor.Execute(
      "SELECT productId, START(rowtime) AS ws, SUMSQ(units) AS ss "
      "FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '20' SECOND), productId");
  ASSERT_TRUE(oracle.ok());
  std::multiset<std::string> got, expected;
  for (const Row& r : rows) {
    if (r[0] != Value(int32_t{9999})) got.insert(RowToString(r));
  }
  for (const Row& r : oracle.value().rows) {
    if (r[0] != Value(int32_t{9999})) expected.insert(RowToString(r));
  }
  EXPECT_EQ(got, expected);
  EXPECT_GT(got.size(), 10u);
}

TEST(UdafTest, UdafRejectedWithoutAggregateContext) {
  RegisterSumSq();
  auto resolver = [](const std::string&,
                     const std::string& c) -> Result<std::pair<int, FieldType>> {
    if (c == "units") return std::make_pair(0, FieldType::Int32());
    return Status::NotFound(c);
  };
  auto e = ParseExpression("SUMSQ(units)").value();
  EXPECT_FALSE(ResolveExpr(*e, resolver, false).ok());  // not an agg context
  auto e2 = ParseExpression("SUMSQ(units)").value();
  EXPECT_TRUE(ResolveExpr(*e2, resolver, true).ok());
  EXPECT_EQ(e2->kind, ExprKind::kAggCall);
  EXPECT_EQ(e2->resolved_type.kind, TypeKind::kDouble);
}

}  // namespace
}  // namespace sqs::sql
