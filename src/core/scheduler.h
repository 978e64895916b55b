// JobScheduler: how QueryExecutor drives its submitted jobs' containers to
// quiescence (docs/EXECUTION.md "Threaded execution"). Both modes run the
// one ready-queue driver, JobRunner::RunPipeline:
//  - executor.mode=threaded (the default): executor.threads workers (0 = one
//    per container) take containers in fetch-deadline order. This is the
//    paper's execution model — partition-parallel containers (§5.1 /
//    Figure 5) — and what the benchmarks measure.
//  - executor.mode=serial: one worker takes containers in FIFO order.
//    Deterministic interleaving; determinism-sensitive tests pin it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "task/runner.h"

namespace sqs::core {

enum class ExecutorMode { kSerial, kThreaded };

Result<ExecutorMode> ParseExecutorMode(const std::string& value);

class JobScheduler {
 public:
  JobScheduler(ExecutorMode mode, int threads) : mode_(mode), threads_(threads) {}
  // Drive every container of every job until globally quiescent; returns
  // messages processed. `jobs` may form a pipeline chained through
  // intermediate topics — quiescence waits for every upstream job's output.
  Result<int64_t> RunUntilQuiescent(const std::vector<JobRunner*>& jobs) const {
    return mode_ == ExecutorMode::kSerial
               ? JobRunner::RunPipeline(jobs, 1, /*fifo=*/true)
               : JobRunner::RunPipeline(jobs, threads_);
  }

 private:
  ExecutorMode mode_;
  int threads_;
};

// Build the scheduler `config` asks for: executor.mode (default "threaded")
// and executor.threads (default 0). An unknown mode is an error surfaced on
// first use, not silently mapped.
Result<std::unique_ptr<JobScheduler>> MakeScheduler(const Config& config);

}  // namespace sqs::core
