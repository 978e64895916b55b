// End-to-end latency benches (docs/LATENCY.md):
//  - BM_E2eLatency_{SamzaSQL,Native}: source-to-sink latency distribution
//    (p50/p99 from the job's `e2e_latency_us` histogram) for the Figure 5a
//    filter at 1/2/4/8 containers. The backlog is produced before the job
//    drains it, so latency is catch-up style — dominated by broker queue
//    wait — and tracks drain throughput as containers are added.
//  - BM_StampOverhead_Filter: throughput with latency stamping on vs off.
//    The stamp is two clock reads plus two int64 copies per send; the run
//    fails (SkipWithError) if the measured tax exceeds 2%.
//
// BENCH_LATENCY_MESSAGES / BENCH_LATENCY_REPS override the workload size so
// the CI smoke arm can run the full matrix in seconds. Numbers live in
// EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "bench_common.h"
#include "common/latency.h"

namespace sqs::bench {
namespace {

constexpr const char* kFilterSql =
    "SELECT STREAM * FROM Orders WHERE units > 50";

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? std::atoll(value) : fallback;
}

int64_t Messages() { return EnvInt("BENCH_LATENCY_MESSAGES", 120'000); }
int Reps() { return static_cast<int>(EnvInt("BENCH_LATENCY_REPS", 13)); }

HistogramStats JobE2e(JobRunner& job) {
  MetricsSnapshot snap = job.metrics_registry()->Snapshot();
  auto it = snap.histograms.find(job.job_name() + ".e2e_latency_us");
  return it == snap.histograms.end() ? HistogramStats{} : it->second;
}

void ReportLatency(const char* variant, int containers,
                   const ThroughputResult& r, const HistogramStats& e2e) {
  std::printf("E2eLatency %-8s containers=%d  msgs=%lld  job=%.0f msg/s  "
              "e2e_p50=%lldus p99=%lldus max=%lldus (n=%lld)\n",
              variant, containers, static_cast<long long>(r.messages),
              r.job_tput, static_cast<long long>(e2e.p50),
              static_cast<long long>(e2e.p99), static_cast<long long>(e2e.max),
              static_cast<long long>(e2e.count));
  std::fflush(stdout);
}

void BM_E2eLatency_SamzaSQL(benchmark::State& state) {
  const int containers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto env = MakeBenchEnv();
    workload::OrdersGenerator gen(*env, {});
    auto produced = gen.Produce(Messages());
    if (!produced.ok()) state.SkipWithError(produced.status().ToString().c_str());
    core::QueryExecutor executor(env, BenchJobConfig(containers));
    auto submitted = executor.Execute(kFilterSql);
    if (!submitted.ok()) state.SkipWithError(submitted.status().ToString().c_str());
    JobRunner* job = executor.job(submitted.value().job_index);
    ThroughputResult r = MeasureJob(*job);
    HistogramStats e2e = JobE2e(*job);
    Status st = job->Stop();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    state.counters["e2e_p50_us"] = static_cast<double>(e2e.p50);
    state.counters["e2e_p99_us"] = static_cast<double>(e2e.p99);
    state.counters["job_msgs_per_s"] = r.job_tput;
    ReportLatency("sql", containers, r, e2e);
  }
}

void BM_E2eLatency_Native(benchmark::State& state) {
  const int containers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto env = MakeBenchEnv();
    workload::OrdersGenerator gen(*env, {});
    auto produced = gen.Produce(Messages());
    if (!produced.ok()) state.SkipWithError(produced.status().ToString().c_str());
    if (!env->broker->HasTopic("native-filter-out")) {
      Status ct = env->broker->CreateTopic("native-filter-out",
                                           {.num_partitions = kPartitions});
      if (!ct.ok()) state.SkipWithError(ct.ToString().c_str());
    }
    Config config = BenchJobConfig(containers);
    config.Set(cfg::kJobName, "bench-lat-native");
    config.Set(cfg::kTaskInputs, "Orders");
    const TaskFactory factory = [] {
      return std::make_unique<baseline::NativeFilterTask>("native-filter-out", 50);
    };
    JobRunner job(env->broker, config, factory, env->clock);
    Status st = job.Start();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    ThroughputResult r = MeasureJob(job);
    HistogramStats e2e = JobE2e(job);
    st = job.Stop();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    state.counters["e2e_p50_us"] = static_cast<double>(e2e.p50);
    state.counters["e2e_p99_us"] = static_cast<double>(e2e.p99);
    state.counters["job_msgs_per_s"] = r.job_tput;
    ReportLatency("native", containers, r, e2e);
  }
}

// One filter run with the stamping toggle pinned; returns the job-aggregate
// throughput. The global toggle is set before generation so the inputs the
// job consumes are stamped (or not) consistently with the arm — an on-arm
// fed unstamped inputs would skip the dwell/e2e work it is supposed to pay.
double RunStampArm(bool stamping) {
  SetLatencyStampingEnabled(stamping);
  auto env = MakeBenchEnv();
  workload::OrdersGenerator gen(*env, {});
  auto produced = gen.Produce(Messages());
  if (!produced.ok()) throw std::runtime_error(produced.status().ToString());
  Config config = BenchJobConfig(1);
  config.SetBool(cfg::kLatencyStampingEnable, stamping);
  ThroughputResult r = MeasureSqlQuery(env, kFilterSql, config);
  return r.job_tput;
}

void BM_StampOverhead_Filter(benchmark::State& state) {
  for (auto _ : state) {
    // Back-to-back on/off pairs share ambient machine conditions, so each
    // pair's throughput ratio isolates the stamp; alternating the order
    // within pairs cancels thermal/frequency drift, and the median across
    // pairs rejects the outlier pairs a noisy box produces.
    std::vector<double> taxes;
    double best_on = 0, best_off = 0;
    for (int rep = 0; rep < Reps(); ++rep) {
      const bool on_first = (rep % 2) == 0;
      double first = RunStampArm(on_first);
      double second = RunStampArm(!on_first);
      double on = on_first ? first : second;
      double off = on_first ? second : first;
      best_on = std::max(best_on, on);
      best_off = std::max(best_off, off);
      taxes.push_back(off > 0 ? 100.0 * (off - on) / off : 0.0);
    }
    std::sort(taxes.begin(), taxes.end());
    const double overhead_pct = taxes[taxes.size() / 2];
    const double iqr = taxes[taxes.size() * 3 / 4] - taxes[taxes.size() / 4];
    state.counters["overhead_pct"] = overhead_pct;
    state.counters["tax_iqr_pct"] = iqr;
    state.counters["on_msgs_per_s"] = best_on;
    state.counters["off_msgs_per_s"] = best_off;
    std::printf("StampOverhead on=%.0f msg/s  off=%.0f msg/s  "
                "median_tax=%.2f%%  iqr=%.2f%%  (budget 2%%)\n",
                best_on, best_off, overhead_pct, iqr);
    std::fflush(stdout);
    // The tax is a fixed per-message cost, so it only measures cleanly
    // against a full-size drain — tiny smoke runs are dominated by one-time
    // work (cold histogram buckets, first polls) and are not asserted. And
    // a shared box can lose half its cycles to a co-tenant mid-pair, which
    // swamps a ~1.5% effect, so assert only when the pairs agree with each
    // other (tight IQR) — a wide spread means the box, not the stamp.
    if (overhead_pct > 2.0 && Messages() >= 100'000) {
      if (iqr <= 2.0) {
        state.SkipWithError("latency stamping tax exceeds the 2% budget");
      } else {
        std::printf("StampOverhead measurement unstable (IQR %.2f%% > 2%%); "
                    "not asserting\n", iqr);
        std::fflush(stdout);
      }
    }
  }
  // The toggle is process-global; leave it on for any later benchmarks.
  SetLatencyStampingEnabled(true);
}

BENCHMARK(BM_E2eLatency_Native)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2eLatency_SamzaSQL)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StampOverhead_Filter)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqs::bench

BENCHMARK_MAIN();
