// Figure 5c: Stream-to-relation join throughput, SamzaSQL vs native Samza
// API, vs container count (fixed 32 partitions).
//   Join: SELECT STREAM o.rowtime, o.orderId, o.productId, o.units,
//         p.supplierId FROM Orders o JOIN Products p
//         ON o.productId = p.productId
// Expected shape (paper §5.1): SQL is ~2x slower — "mainly due to key-value
// store deserialization overhead" (Kryo-style generic deserialization vs
// the native task's Avro) "and overheads of the operator router layer".
// The SQL job runs twice: on the fused mainline (sql.fusion=on, one stage
// with the relation probe inside, no router layer on the stream path) and
// paper-faithful on the interpreted operator DAG (sql.fusion=off).
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace sqs::bench {
namespace {

constexpr int64_t kMessages = 60'000;
constexpr int32_t kProducts = 1'000;

core::EnvironmentPtr MakeJoinEnv() {
  auto env = MakeBenchEnv();
  workload::OrdersGeneratorOptions options;
  options.num_products = kProducts;
  workload::OrdersGenerator gen(*env, options);
  auto produced = gen.Produce(kMessages);
  if (!produced.ok()) throw std::runtime_error(produced.status().ToString());
  Status st = workload::ProduceProducts(*env, kProducts);
  if (!st.ok()) throw std::runtime_error(st.ToString());
  return env;
}

void BM_Join_Native(benchmark::State& state) {
  const int containers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto env = MakeJoinEnv();
    Config config = BenchJobConfig(containers);
    config.Set("stores.native-join-table.changelog", "native-join-table-changelog");
    auto r = MeasureNativeJob(
        env, config, "bench-native-join",
        [] {
          return std::make_unique<baseline::NativeJoinTask>("native-join-out", "Products");
        },
        "Orders,Products", "Products", "native-join-out");
    state.counters["job_msgs_per_s"] = r.job_tput;
    state.counters["avg_container_msgs_per_s"] = r.avg_container_tput;
    ReportThroughput("Fig5c", "native", containers, r);
  }
}

void RunSqlJoin(benchmark::State& state, const char* label, bool fusion) {
  const int containers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto env = MakeJoinEnv();
    Config config = BenchJobConfig(containers);
    config.Set(core::sqlcfg::kFusion, fusion ? "on" : "off");
    auto r = MeasureSqlQuery(
        env,
        "SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, "
        "Orders.units, Products.supplierId FROM Orders JOIN Products ON "
        "Orders.productId = Products.productId",
        std::move(config));
    state.counters["job_msgs_per_s"] = r.job_tput;
    state.counters["avg_container_msgs_per_s"] = r.avg_container_tput;
    ReportThroughput("Fig5c", label, containers, r);
  }
}

void BM_Join_SamzaSQL(benchmark::State& state) { RunSqlJoin(state, "sql", true); }
void BM_Join_SamzaSQL_Interpreted(benchmark::State& state) {
  RunSqlJoin(state, "sql-off", false);
}

BENCHMARK(BM_Join_Native)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_SamzaSQL)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_SamzaSQL_Interpreted)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqs::bench

BENCHMARK_MAIN();
