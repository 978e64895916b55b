// Figure 4 cost anatomy, measured instead of argued: run the Figure 5a
// filter/project query with distributed tracing enabled and split the
// container's busy time into serde and relational operator work from the
// recorded spans. On the fused mainline (sql.fusion=on, the default) serde
// is the fused stage's decode/encode child spans; with sql.fusion=off it is
// the interpreted scan/insert operator self time. Also measures the tracing
// tax itself (rate 0 vs 1% vs fully sampled) and writes a Chrome trace
// (chrome://tracing / Perfetto) export of the sampled run.
#include <benchmark/benchmark.h>

#include <fstream>

#include "bench_common.h"
#include "common/tracing.h"

namespace sqs::bench {
namespace {

constexpr int64_t kMessages = 20'000;
// Fully sampled, interpreted mode: ~6 spans per tuple (produce, process,
// scan, filter, project, insert) — size the ring so nothing is evicted
// mid-run. Fused mode telescopes to batch granularity (~4 spans per run of
// up to 256 tuples) and needs far less.
constexpr size_t kSpanCapacity = 1 << 18;
constexpr const char* kExportPath = "bench_trace_profile.json";

// state.range(0) = sample rate in permille (0, 10, 1000).
void BM_TraceProfile_Filter(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 1000.0;
  for (auto _ : state) {
    Tracer::Instance().Reset();
    Tracer::Instance().Configure(rate, kSpanCapacity);
    auto env = MakeBenchEnv();
    workload::OrdersGenerator gen(*env, {});
    auto produced = gen.Produce(kMessages);
    if (!produced.ok()) state.SkipWithError(produced.status().ToString().c_str());
    auto r = MeasureSqlQuery(
        env, "SELECT STREAM orderId, units * 2 AS doubled FROM Orders WHERE units > 50",
        BenchJobConfig(1));
    state.counters["job_msgs_per_s"] = r.job_tput;

    std::vector<Span> spans = Tracer::Instance().Spans();
    std::map<std::string, SpanStats> stats =
        ComputeSpanStats(spans, "samzasql-query-0.");
    int64_t busy_ns = 0, serde_ns = 0, operator_ns = 0;
    for (const auto& [name, st] : stats) {
      if (name == "process") {
        busy_ns = st.inclusive_ns;
        continue;
      }
      operator_ns += st.self_ns;
      // Fused mainline: serde is the stage's decode/encode child spans.
      if (name == "decode" || name == "encode") {
        serde_ns += st.self_ns;
        continue;
      }
      // Interpreted fallback (sql.fusion=off): scan/insert operator spans.
      size_t dash = name.rfind('-');
      if (dash != std::string::npos) {
        std::string op = name.substr(dash + 1);
        if (op == "scan" || op == "insert") serde_ns += st.self_ns;
      }
    }
    if (busy_ns > 0) {
      state.counters["serde_pct_of_busy"] =
          100.0 * static_cast<double>(serde_ns) / static_cast<double>(busy_ns);
      state.counters["operator_pct_of_busy"] =
          100.0 * static_cast<double>(operator_ns) / static_cast<double>(busy_ns);
    }
    state.counters["spans"] = static_cast<double>(spans.size());

    std::printf("TraceProfile rate=%.3f  job=%.0f msg/s  spans=%zu  "
                "serde=%.1f%% of busy  operators=%.1f%% of busy  evicted=%lld\n",
                rate, r.job_tput, spans.size(),
                busy_ns > 0 ? 100.0 * static_cast<double>(serde_ns) /
                                  static_cast<double>(busy_ns)
                            : 0.0,
                busy_ns > 0 ? 100.0 * static_cast<double>(operator_ns) /
                                  static_cast<double>(busy_ns)
                            : 0.0,
                static_cast<long long>(Tracer::Instance().evicted()));
    std::fflush(stdout);

    if (rate >= 1.0) {
      std::ofstream out(kExportPath);
      out << SpansToChromeTraceJson(spans);
      std::printf("TraceProfile chrome trace written to %s\n", kExportPath);
    }
    Tracer::Instance().Reset();
  }
}

BENCHMARK(BM_TraceProfile_Filter)
    ->Arg(0)      // tracing off: the Figure 5a baseline path
    ->Arg(10)     // 1% head-based sampling: the always-on production setting
    ->Arg(1000)   // fully sampled: EXPLAIN ANALYZE mode + Chrome export
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqs::bench

BENCHMARK_MAIN();
