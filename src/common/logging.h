// Structured leveled logger. Every record carries a timestamp, a component
// scope ("shell", "container", "broker", ...) and optional key=value fields,
// rendered either as aligned plain text or as JSON lines (`log.format`).
// Disabled below the configured level at runtime; the macros check the level
// before formatting anything, and hot paths never log — the single sink
// mutex is therefore not a throughput concern.
#pragma once

#include <iosfwd>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace sqs {

class Config;

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };
enum class LogFormat { kPlain = 0, kJson = 1 };

// Ordered key=value pairs attached to one record.
using LogFields = std::vector<std::pair<std::string, std::string>>;

class Logger {
 public:
  static Logger& Instance() {
    static Logger logger;
    return logger;
  }

  void SetLevel(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }
  void SetFormat(LogFormat format) { format_ = format; }
  LogFormat format() const { return format_; }
  // Redirect records (tests); nullptr = stderr. The sink must outlive use.
  void SetSink(std::ostream* sink) { sink_ = sink; }
  // Timestamp source; nullptr = system clock (deterministic tests inject).
  void SetClock(std::shared_ptr<Clock> clock) { clock_ = std::move(clock); }

  // Plain:  2026-08-06T12:00:00.123Z INFO  [container] started job=q0 id=1
  // JSON:   {"ts_ms":...,"level":"INFO","component":"container",
  //          "msg":"started","job":"q0","id":"1"}
  void Log(LogLevel level, std::string_view component, std::string_view msg,
           const LogFields& fields = {});

  // Flush the sink stream. Part of the crash-forensics path: the fatal
  // signal / terminate handlers call this before writing the flight
  // recorder dump so buffered records are not lost with the process.
  void Flush();

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
  LogFormat format_ = LogFormat::kPlain;
  std::ostream* sink_ = nullptr;
  std::shared_ptr<Clock> clock_;
  std::mutex mu_;
};

// Apply `log.level` (debug|info|warn|error|off) and `log.format`
// (plain|json) from a job config; keys that are absent leave the current
// setting untouched.
void ApplyLogConfig(const Config& config);

// Component-scoped structured record; trailing arguments are {key, value}
// field initializers:
//   SQS_LOGC(::sqs::LogLevel::kInfo, "container", "started",
//            {"job", job_name}, {"id", std::to_string(id)});
#define SQS_LOGC(lvl, component, expr, ...)                         \
  do {                                                              \
    if (static_cast<int>(lvl) >=                                    \
        static_cast<int>(::sqs::Logger::Instance().level())) {      \
      std::ostringstream _os;                                       \
      _os << expr;                                                  \
      ::sqs::Logger::Instance().Log(lvl, component, _os.str(),      \
                                    ::sqs::LogFields{__VA_ARGS__}); \
    }                                                               \
  } while (0)

#define SQS_DEBUGC(component, expr, ...) \
  SQS_LOGC(::sqs::LogLevel::kDebug, component, expr, ##__VA_ARGS__)
#define SQS_INFOC(component, expr, ...) \
  SQS_LOGC(::sqs::LogLevel::kInfo, component, expr, ##__VA_ARGS__)
#define SQS_WARNC(component, expr, ...) \
  SQS_LOGC(::sqs::LogLevel::kWarn, component, expr, ##__VA_ARGS__)
#define SQS_ERRORC(component, expr, ...) \
  SQS_LOGC(::sqs::LogLevel::kError, component, expr, ##__VA_ARGS__)

}  // namespace sqs
