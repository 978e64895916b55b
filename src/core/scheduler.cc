#include "core/scheduler.h"

#include "task/api.h"

namespace sqs::core {

Result<ExecutorMode> ParseExecutorMode(const std::string& value) {
  if (value == "serial") return ExecutorMode::kSerial;
  if (value == "threaded") return ExecutorMode::kThreaded;
  return Status::InvalidArgument("unknown executor.mode: '" + value +
                                 "' (want serial|threaded)");
}

Result<std::unique_ptr<JobScheduler>> MakeScheduler(const Config& config) {
  SQS_ASSIGN_OR_RETURN(mode,
                       ParseExecutorMode(config.Get(cfg::kExecutorMode,
                                                    "threaded")));
  int threads = static_cast<int>(config.GetInt(cfg::kExecutorThreads, 0));
  if (threads < 0) {
    return Status::InvalidArgument("executor.threads must be >= 0, got " +
                                   std::to_string(threads));
  }
  return std::make_unique<JobScheduler>(mode, threads);
}

}  // namespace sqs::core
