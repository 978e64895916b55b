// Contended multicore bench: 8 containers driven by the executor, serial
// (executor.threads=1) vs threaded (8 pool workers), on the filter and
// windowed-aggregation arms. Unlike the Figure 5/6 benches this reports
// *measured wall-clock* throughput — messages divided by the time
// RunJobsUntilQuiescent took — so the threaded speedup is real, not
// derived (EXPERIMENTS.md "Contended multicore execution").
//
// Both arms charge the simulated broker RTT with the "sleep" latency model:
// a broker round trip is wait, not work, so concurrently running containers
// overlap their RTTs exactly like real network I/O. The spin model would
// make the comparison meaningless on a small machine (spinning containers
// contend for the very cores the others need).
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench_common.h"

namespace sqs::bench {
namespace {

// 2 ms RTT per poll: a remote-broker figure (same order as a cross-rack
// Kafka fetch), large enough that overlap — not scheduler noise — dominates
// the serial/threaded gap.
constexpr int64_t kMulticorePollLatencyNanos = 2'000'000;
constexpr int kContainers = 8;
constexpr int kThreads = 8;

int64_t MessageCount() {
  const char* env = std::getenv("BENCH_MULTICORE_MESSAGES");
  if (env != nullptr) {
    long long v = std::atoll(env);
    if (v > 0) return static_cast<int64_t>(v);
  }
  return 80'000;
}

Config MulticoreConfig(int threads) {
  Config config = BenchJobConfig(kContainers);
  config.SetInt(cfg::kPollLatencyNanos, kMulticorePollLatencyNanos);
  config.Set(cfg::kPollLatencyModel, "sleep");
  config.SetInt(cfg::kExecutorThreads, threads);
  return config;
}

constexpr const char* kFilterSql =
    "SELECT STREAM * FROM Orders WHERE units > 50";
constexpr const char* kAggSql =
    "SELECT STREAM rowtime, productId, units, SUM(units) OVER "
    "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' MINUTE "
    "PRECEDING) AS unitsLastFiveMinutes FROM Orders";

void RunArm(benchmark::State& state, const char* arm, const char* sql,
            int threads) {
  for (auto _ : state) {
    auto env = MakeBenchEnv();
    workload::OrdersGenerator gen(*env, {});
    auto produced = gen.Produce(MessageCount());
    if (!produced.ok()) state.SkipWithError(produced.status().ToString().c_str());
    auto r = MeasureSqlQueryWallClock(env, sql, MulticoreConfig(threads));
    state.counters["measured_msgs_per_s"] = r.tput;
    state.counters["wall_seconds"] = r.wall_seconds;
    std::string variant =
        std::string(arm) + (threads == 1 ? "/serial" : "/threaded");
    ReportWallClock("Multicore", variant.c_str(), kContainers, r);
  }
}

void BM_Multicore_Filter_Serial(benchmark::State& state) {
  RunArm(state, "filter", kFilterSql, 1);
}
void BM_Multicore_Filter_Threaded(benchmark::State& state) {
  RunArm(state, "filter", kFilterSql, kThreads);
}
void BM_Multicore_Agg_Serial(benchmark::State& state) {
  RunArm(state, "agg", kAggSql, 1);
}
void BM_Multicore_Agg_Threaded(benchmark::State& state) {
  RunArm(state, "agg", kAggSql, kThreads);
}

BENCHMARK(BM_Multicore_Filter_Serial)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Multicore_Filter_Threaded)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Multicore_Agg_Serial)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Multicore_Agg_Threaded)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqs::bench

BENCHMARK_MAIN();
