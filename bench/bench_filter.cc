// Figure 5a: Filter query throughput, SamzaSQL vs native Samza API, as a
// function of container count (fixed 32 partitions).
//   Filter: SELECT STREAM * FROM Orders WHERE units > 50
// Expected shape (paper §5.1): native wins by 30-40% (the SQL pipeline pays
// the Avro->Array->Avro conversions of Figure 4); both scale sublinearly
// because per-container poll batches shrink with fewer partitions each.
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace sqs::bench {
namespace {

constexpr int64_t kMessages = 120'000;

void BM_Filter_Native(benchmark::State& state) {
  const int containers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto env = MakeBenchEnv();
    workload::OrdersGenerator gen(*env, {});
    auto produced = gen.Produce(kMessages);
    if (!produced.ok()) state.SkipWithError(produced.status().ToString().c_str());
    auto r = MeasureNativeJob(
        env, BenchJobConfig(containers), "bench-native-filter",
        [] {
          return std::make_unique<baseline::NativeFilterTask>("native-filter-out", 50);
        },
        "Orders", "", "native-filter-out");
    state.counters["job_msgs_per_s"] = r.job_tput;
    state.counters["avg_container_msgs_per_s"] = r.avg_container_tput;
    ReportThroughput("Fig5a", "native", containers, r);
  }
}

void BM_Filter_SamzaSQL(benchmark::State& state) {
  const int containers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto env = MakeBenchEnv();
    workload::OrdersGenerator gen(*env, {});
    auto produced = gen.Produce(kMessages);
    if (!produced.ok()) state.SkipWithError(produced.status().ToString().c_str());
    auto r = MeasureSqlQuery(env, "SELECT STREAM * FROM Orders WHERE units > 50",
                             BenchJobConfig(containers));
    state.counters["job_msgs_per_s"] = r.job_tput;
    state.counters["avg_container_msgs_per_s"] = r.avg_container_tput;
    ReportThroughput("Fig5a", "sql", containers, r);
  }
}

BENCHMARK(BM_Filter_Native)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Filter_SamzaSQL)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqs::bench

BENCHMARK_MAIN();
