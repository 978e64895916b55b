// Figure 5b: Project query throughput, SamzaSQL vs native Samza API, vs
// container count (fixed 32 partitions).
//   Project: SELECT STREAM rowtime, productId, units FROM Orders
// Expected shape: native wins by 30-40% (SQL pays record<->array
// conversions + schema validation; native builds the small output record
// directly from the decoded input); sublinear scaling for both.
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace sqs::bench {
namespace {

constexpr int64_t kMessages = 120'000;

void BM_Project_Native(benchmark::State& state) {
  const int containers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto env = MakeBenchEnv();
    workload::OrdersGenerator gen(*env, {});
    auto produced = gen.Produce(kMessages);
    if (!produced.ok()) state.SkipWithError(produced.status().ToString().c_str());
    auto r = MeasureNativeJob(
        env, BenchJobConfig(containers), "bench-native-project",
        [] { return std::make_unique<baseline::NativeProjectTask>("native-project-out"); },
        "Orders", "", "native-project-out");
    state.counters["job_msgs_per_s"] = r.job_tput;
    state.counters["avg_container_msgs_per_s"] = r.avg_container_tput;
    ReportThroughput("Fig5b", "native", containers, r);
  }
}

void BM_Project_SamzaSQL(benchmark::State& state) {
  const int containers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto env = MakeBenchEnv();
    workload::OrdersGenerator gen(*env, {});
    auto produced = gen.Produce(kMessages);
    if (!produced.ok()) state.SkipWithError(produced.status().ToString().c_str());
    auto r = MeasureSqlQuery(
        env, "SELECT STREAM rowtime, productId, units FROM Orders",
        BenchJobConfig(containers));
    state.counters["job_msgs_per_s"] = r.job_tput;
    state.counters["avg_container_msgs_per_s"] = r.avg_container_tput;
    ReportThroughput("Fig5b", "sql", containers, r);
  }
}

BENCHMARK(BM_Project_Native)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Project_SamzaSQL)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqs::bench

BENCHMARK_MAIN();
