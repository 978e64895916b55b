// Shared benchmark harness reproducing the paper's measurement methodology
// (§5.1):
//  - 32-partition topics, ~100-byte messages;
//  - single-core figures (Fig 5/6 shapes) drive containers serially and
//    aggregate throughput the way the paper does: "The average throughput
//    across containers was multiplied by the container count";
//  - the contended multicore bench (bench_multicore.cc) instead measures
//    wall-clock throughput through the executor's scheduler, serial vs
//    threaded (see EXPERIMENTS.md §methodology);
//  - the broker charges a fixed simulated round-trip per consumer poll and
//    caps per-partition fetch size, so per-container read throughput drops
//    as partitions-per-container shrink — the paper's stated cause of
//    sublinear scaling (fixed partition count across container counts).
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseline/native_tasks.h"
#include "common/clock.h"
#include "core/executor.h"
#include "workload/generators.h"

namespace sqs::bench {

inline constexpr int32_t kPartitions = 32;
inline constexpr int64_t kPollLatencyNanos = 500'000;  // 0.5 ms broker RTT
inline constexpr int32_t kMaxFetchPerPartition = 100;  // ~100 msgs/partition/poll

struct ThroughputResult {
  int64_t messages = 0;
  double avg_container_tput = 0;  // messages/s, averaged over containers
  double job_tput = 0;            // avg container throughput x container count
};

// Fresh environment with the paper's sources at 32 partitions.
inline core::EnvironmentPtr MakeBenchEnv() {
  auto env = core::SamzaSqlEnvironment::Make();
  Status st = workload::SetupPaperSources(*env, kPartitions);
  if (!st.ok()) throw std::runtime_error(st.ToString());
  return env;
}

// Baseline job config shared by native and SQL jobs.
inline Config BenchJobConfig(int containers) {
  Config config;
  config.SetInt(cfg::kContainerCount, containers);
  config.SetInt(cfg::kMaxPollMessages, 8192);
  config.SetInt(cfg::kMaxFetchPerPartition, kMaxFetchPerPartition);
  config.SetInt(cfg::kPollLatencyNanos, kPollLatencyNanos);
  config.SetInt(cfg::kCommitEveryMessages, 0);  // commit on stop only
  return config;
}

// Run all containers of a started job serially to completion and compute
// the paper's throughput aggregate. Throughput is derived from the job's
// shared metrics registry — the same snapshots the periodic reporter and
// the shell's SHOW METRICS read (`<job>.container<N>.processed` counters
// and `.busy_ns` timers) — so benches and observability share one
// measurement path.
inline ThroughputResult MeasureJob(JobRunner& job) {
  ThroughputResult result;
  for (size_t c = 0; c < job.NumContainers(); ++c) {
    auto container = job.container(static_cast<int32_t>(c));
    auto processed = container->RunUntilCaughtUp();
    if (!processed.ok()) throw std::runtime_error(processed.status().ToString());
    result.messages += processed.value();
  }
  MetricsSnapshot snap = job.metrics_registry()->Snapshot();
  double tput_sum = 0;
  int counted = 0;
  for (const auto& [name, processed] : snap.counters) {
    // Container-scope processed counters are `<job>.container<N>.processed`
    // (operator counters have a task segment instead and never match).
    constexpr const char* kSuffix = ".processed";
    const size_t suffix_len = 10;
    if (name.size() <= suffix_len ||
        name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
      continue;
    }
    std::string scope = name.substr(0, name.size() - suffix_len);
    size_t dot = scope.rfind('.');
    if (dot == std::string::npos ||
        scope.compare(dot + 1, 9, "container") != 0) {
      continue;
    }
    auto busy = snap.timers.find(scope + ".busy_ns");
    if (busy == snap.timers.end() || busy->second <= 0) continue;
    double seconds = static_cast<double>(busy->second) / 1e9;
    tput_sum += static_cast<double>(processed) / seconds;
    ++counted;
  }
  if (counted > 0) {
    result.avg_container_tput = tput_sum / counted;
    result.job_tput = result.avg_container_tput * static_cast<double>(counted);
  }
  return result;
}

// Submit + measure a SamzaSQL query on a fresh executor.
inline ThroughputResult MeasureSqlQuery(core::EnvironmentPtr env, const std::string& sql,
                                        Config config) {
  core::QueryExecutor executor(env, std::move(config));
  auto submitted = executor.Execute(sql);
  if (!submitted.ok()) throw std::runtime_error(submitted.status().ToString());
  JobRunner* job = executor.job(submitted.value().job_index);
  ThroughputResult result = MeasureJob(*job);
  Status st = job->Stop();
  if (!st.ok()) throw std::runtime_error(st.ToString());
  return result;
}

// Create output topic + run a registered native task factory as a job.
inline ThroughputResult MeasureNativeJob(core::EnvironmentPtr env, Config config,
                                         const std::string& factory,
                                         const std::string& inputs,
                                         const std::string& bootstrap_inputs,
                                         const std::string& output_topic) {
  if (!env->broker->HasTopic(output_topic)) {
    Status st =
        env->broker->CreateTopic(output_topic, {.num_partitions = kPartitions});
    if (!st.ok()) throw std::runtime_error(st.ToString());
  }
  config.Set(cfg::kJobName, factory + "-job");
  config.Set(cfg::kTaskInputs, inputs);
  if (!bootstrap_inputs.empty()) config.Set(cfg::kBootstrapInputs, bootstrap_inputs);
  config.Set(cfg::kTaskFactory, factory);
  JobRunner job(env->broker, config, env->clock);
  Status st = job.Start();
  if (!st.ok()) throw std::runtime_error(st.ToString());
  ThroughputResult result = MeasureJob(job);
  st = job.Stop();
  if (!st.ok()) throw std::runtime_error(st.ToString());
  return result;
}

// Measured wall-clock result of one scheduler-driven run: unlike
// ThroughputResult (average x count), `tput` here is messages divided by
// the wall time RunJobsUntilQuiescent actually took, so serial and threaded
// executor modes are compared on the same honest scale.
struct WallClockResult {
  int64_t messages = 0;
  double wall_seconds = 0;
  double tput = 0;  // messages / wall-clock second
};

// Submit a query and drive it to quiescence through the executor's
// scheduler (executor.mode / executor.threads in `config` pick the mode),
// timing the run wall-clock.
inline WallClockResult MeasureSqlQueryWallClock(core::EnvironmentPtr env,
                                                const std::string& sql,
                                                Config config) {
  core::QueryExecutor executor(env, std::move(config));
  auto submitted = executor.Execute(sql);
  if (!submitted.ok()) throw std::runtime_error(submitted.status().ToString());
  int64_t t0 = MonotonicNanos();
  auto processed = executor.RunJobsUntilQuiescent();
  if (!processed.ok()) throw std::runtime_error(processed.status().ToString());
  WallClockResult result;
  result.wall_seconds = static_cast<double>(MonotonicNanos() - t0) / 1e9;
  result.messages = processed.value();
  if (result.wall_seconds > 0) {
    result.tput = static_cast<double>(result.messages) / result.wall_seconds;
  }
  JobRunner* job = executor.job(submitted.value().job_index);
  Status st = job->Stop();
  if (!st.ok()) throw std::runtime_error(st.ToString());
  return result;
}

inline void ReportWallClock(const char* figure, const char* variant,
                            int containers, const WallClockResult& r) {
  std::printf("%-10s %-16s containers=%d  msgs=%lld  wall=%.3f s  "
              "measured=%.0f msg/s\n",
              figure, variant, containers, static_cast<long long>(r.messages),
              r.wall_seconds, r.tput);
  std::fflush(stdout);
}

inline void ReportThroughput(const char* figure, const char* variant, int containers,
                             const ThroughputResult& r) {
  std::printf("%-10s %-8s containers=%d  msgs=%lld  avg_container=%.0f msg/s  "
              "job=%.0f msg/s\n",
              figure, variant, containers, static_cast<long long>(r.messages),
              r.avg_container_tput, r.job_tput);
  std::fflush(stdout);
}

}  // namespace sqs::bench
