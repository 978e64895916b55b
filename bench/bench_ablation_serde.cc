// Ablation A2 — the paper's §5.1 join analysis: "Kryo based Java object
// deserialization used in SamzaSQL implementation is more than two times
// slower than Avro based deserialization used in Samza's Java API based
// implementation". Two measurements:
//  1. Serde microbenchmarks: reflective (Kryo-model) vs Avro round trips
//     on the Products row — the >=2x per-record gap itself.
//  2. The join query with the SQL state serde switched from reflective to
//     avro — how much of the Figure 5c gap the serde alone explains — on
//     the fused mainline (sql.fusion=on) and on the paper-faithful
//     interpreted operator DAG (sql.fusion=off).
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace sqs::bench {
namespace {

SchemaPtr ProductsSchema() {
  return Schema::Make("Products", {{"productId", FieldType::Int32(), false},
                                   {"name", FieldType::String(), false},
                                   {"supplierId", FieldType::Int32(), false}});
}

Row SampleProduct() {
  return {Value(int32_t{17}), Value("product-17"), Value(int32_t{3})};
}

void BM_Serde_AvroDeserialize(benchmark::State& state) {
  AvroRowSerde serde(ProductsSchema());
  Bytes bytes = serde.SerializeToBytes(SampleProduct());
  for (auto _ : state) {
    auto row = serde.DeserializeBytes(bytes);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Serde_ReflectiveDeserialize(benchmark::State& state) {
  ReflectiveRowSerde serde(ProductsSchema());
  Bytes bytes = serde.SerializeToBytes(SampleProduct());
  for (auto _ : state) {
    auto row = serde.DeserializeBytes(bytes);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}

constexpr int64_t kMessages = 60'000;
constexpr int32_t kProducts = 1'000;

void RunJoin(benchmark::State& state, const char* label, const char* state_serde,
             bool fusion) {
  for (auto _ : state) {
    auto env = MakeBenchEnv();
    workload::OrdersGeneratorOptions options;
    options.num_products = kProducts;
    workload::OrdersGenerator gen(*env, options);
    auto produced = gen.Produce(kMessages);
    if (!produced.ok()) state.SkipWithError(produced.status().ToString().c_str());
    Status st = workload::ProduceProducts(*env, kProducts);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    Config config = BenchJobConfig(1);
    config.Set(core::sqlcfg::kStateSerde, state_serde);
    config.Set(core::sqlcfg::kFusion, fusion ? "on" : "off");
    auto r = MeasureSqlQuery(
        env,
        "SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, "
        "Orders.units, Products.supplierId FROM Orders JOIN Products ON "
        "Orders.productId = Products.productId",
        std::move(config));
    state.counters["job_msgs_per_s"] = r.job_tput;
    ReportThroughput("A2", label, 1, r);
  }
}

void BM_Join_ReflectiveState(benchmark::State& state) {
  RunJoin(state, "kryo", "reflective", true);
}
void BM_Join_AvroState(benchmark::State& state) {
  RunJoin(state, "avro", "avro", true);
}
void BM_Join_ReflectiveState_Interpreted(benchmark::State& state) {
  RunJoin(state, "kryo-off", "reflective", false);
}
void BM_Join_AvroState_Interpreted(benchmark::State& state) {
  RunJoin(state, "avro-off", "avro", false);
}

BENCHMARK(BM_Serde_AvroDeserialize);
BENCHMARK(BM_Serde_ReflectiveDeserialize);
BENCHMARK(BM_Join_ReflectiveState)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_AvroState)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_ReflectiveState_Interpreted)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_AvroState_Interpreted)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqs::bench

BENCHMARK_MAIN();
