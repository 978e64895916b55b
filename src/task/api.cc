#include "task/api.h"

#include "common/flightrec.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/tracing.h"

namespace sqs {

TaskFactoryRegistry& TaskFactoryRegistry::Instance() {
  static TaskFactoryRegistry registry;
  return registry;
}

void TaskFactoryRegistry::Register(const std::string& name, TaskFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  factories_[name] = std::move(factory);
}

void TaskFactoryRegistry::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  factories_.erase(name);
}

Result<TaskFactory> TaskFactoryRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    return Status::NotFound("no task factory registered: " + name);
  }
  return it->second;
}

Status ApplyProcessSettings(const Config& config) {
  ApplyLogConfig(config);
  if (config.Has(cfg::kFlightRecEnable)) {
    FlightRecorder::Instance().SetEnabled(config.GetBool(cfg::kFlightRecEnable, true));
  }
  if (config.Has(cfg::kFlightRecRingEvents)) {
    FlightRecorder::Instance().SetRingCapacity(static_cast<size_t>(
        config.GetInt(cfg::kFlightRecRingEvents,
                      static_cast<int64_t>(FlightRecorder::kDefaultRingEvents))));
  }
  std::string dump_path = config.Get(cfg::kFlightRecDumpPath);
  if (!dump_path.empty()) {
    SetCrashDumpPath(dump_path);
    InstallCrashHandlers();
  }
  if (config.Has(cfg::kLatencyStampingEnable)) {
    SetLatencyStampingEnabled(config.GetBool(cfg::kLatencyStampingEnable, true));
  }
  // Without a tracing key the tracer keeps its rate, so a job does not
  // reset one the shell (EXPLAIN ANALYZE) enabled.
  if (config.Has(cfg::kTracingSampleRate)) {
    Tracer::Instance().Configure(
        config.GetDouble(cfg::kTracingSampleRate, 0.0),
        static_cast<size_t>(config.GetInt(
            cfg::kTracingBufferSpans, static_cast<int64_t>(Tracer::kDefaultCapacity))));
  }
  double profile_hz = config.GetDouble(cfg::kProfileHz, 0.0);
  if (profile_hz > 0 && !Profiler::Instance().sampling()) {
    return Profiler::Instance().StartSampling(profile_hz);
  }
  return Status::Ok();
}

}  // namespace sqs
