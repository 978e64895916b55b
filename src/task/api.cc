#include "task/api.h"

#include "common/flightrec.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/tracing.h"

namespace sqs {

Status ApplyProcessSettings(const Config& config) {
  ApplyLogConfig(config);
  if (config.Has(cfg::kFlightRecEnable)) {
    FlightRecorder::Instance().SetEnabled(config.GetBool(cfg::kFlightRecEnable, true));
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
    Tracer::Instance().Configure(config.GetDouble(cfg::kTracingSampleRate, 0.0));
  }
  double profile_hz = config.GetDouble(cfg::kProfileHz, 0.0);
  if (profile_hz > 0 && !Profiler::Instance().sampling()) {
    return Profiler::Instance().StartSampling(profile_hz);
  }
  return Status::Ok();
}

}  // namespace sqs
