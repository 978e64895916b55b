// Figure 6: Sliding-window operator throughput, SamzaSQL vs native Samza
// API (single machine in the paper too — EC2 I/O throttling forced the
// authors onto an iMac).
//   Window: SELECT STREAM rowtime, productId, units, SUM(units) OVER
//           (PARTITION BY productId ORDER BY rowtime
//            RANGE INTERVAL '5' MINUTE PRECEDING) FROM Orders
// Expected shape (paper §5.1): near parity — "throughput is dominated by
// access to the key-value store, and this makes the overhead of message
// transformations negligible". Both implementations here run Algorithm 1
// against changelog-backed KV stores with the same access pattern.
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace sqs::bench {
namespace {

constexpr int64_t kMessages = 40'000;
// With rowtime_step 25ms and 100 products, a 5-minute window holds
// ~120 entries per product — enough KV traffic to dominate.
constexpr int64_t kWindowMs = 5 * 60 * 1000;
// RocksDB-model store access latency (see LatencyStore): makes KV access
// dominate, as in the paper's Figure 6 analysis.
constexpr int64_t kStoreLatencyNanos = 2000;

void BM_Window_Native(benchmark::State& state) {
  const int containers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto env = MakeBenchEnv();
    workload::OrdersGenerator gen(*env, {});
    auto produced = gen.Produce(kMessages);
    if (!produced.ok()) state.SkipWithError(produced.status().ToString().c_str());
    Config config = BenchJobConfig(containers);
    config.SetInt(cfg::kStoreAccessLatencyNanos, kStoreLatencyNanos);
    config.Set("stores.native-win-msgs.changelog", "native-win-msgs-changelog");
    config.Set("stores.native-win-agg.changelog", "native-win-agg-changelog");
    auto r = MeasureNativeJob(
        env, config, "bench-native-window",
        [] {
          return std::make_unique<baseline::NativeSlidingWindowTask>("native-window-out",
                                                                     kWindowMs);
        },
        "Orders", "", "native-window-out");
    state.counters["job_msgs_per_s"] = r.job_tput;
    state.counters["avg_container_msgs_per_s"] = r.avg_container_tput;
    ReportThroughput("Fig6", "native", containers, r);
  }
}

void BM_Window_SamzaSQL(benchmark::State& state) {
  const int containers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto env = MakeBenchEnv();
    workload::OrdersGenerator gen(*env, {});
    auto produced = gen.Produce(kMessages);
    if (!produced.ok()) state.SkipWithError(produced.status().ToString().c_str());
    Config config = BenchJobConfig(containers);
    config.SetInt(cfg::kStoreAccessLatencyNanos, kStoreLatencyNanos);
    auto r = MeasureSqlQuery(
        env,
        "SELECT STREAM rowtime, productId, units, SUM(units) OVER "
        "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' MINUTE "
        "PRECEDING) AS unitsLastFiveMinutes FROM Orders",
        std::move(config));
    state.counters["job_msgs_per_s"] = r.job_tput;
    state.counters["avg_container_msgs_per_s"] = r.avg_container_tput;
    ReportThroughput("Fig6", "sql", containers, r);
  }
}

BENCHMARK(BM_Window_Native)->Arg(1)->Arg(2)->Arg(4)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Window_SamzaSQL)->Arg(1)->Arg(2)->Arg(4)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqs::bench

BENCHMARK_MAIN();
