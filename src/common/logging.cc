#include "common/logging.h"

#include <cstdio>
#include <ctime>
#include <iostream>

#include "common/config.h"
#include "common/json_escape.h"

namespace sqs {

namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

// 2026-08-06T12:00:00.123Z
std::string FormatTimestamp(int64_t epoch_ms) {
  std::time_t secs = static_cast<std::time_t>(epoch_ms / 1000);
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[48];  // sized for %04d expanding on out-of-range tm_year
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(epoch_ms % 1000));
  return buf;
}

}  // namespace

void Logger::Log(LogLevel level, std::string_view component,
                 std::string_view msg, const LogFields& fields) {
  if (static_cast<int>(level) < static_cast<int>(level_)) return;
  int64_t now_ms = clock_ ? clock_->NowMillis() : SystemClock().NowMillis();
  std::lock_guard<std::mutex> lock(mu_);
  std::ostream& os = sink_ ? *sink_ : std::cerr;
  if (format_ == LogFormat::kJson) {
    os << "{\"ts_ms\":" << now_ms << ",\"level\":\"" << LevelName(level)
       << "\",\"component\":\"";
    os << JsonEscape(component);
    os << "\",\"msg\":\"";
    os << JsonEscape(msg);
    os << "\"";
    for (const auto& [key, value] : fields) {
      os << ",\"";
      os << JsonEscape(key);
      os << "\":\"";
      os << JsonEscape(value);
      os << "\"";
    }
    os << "}\n";
  } else {
    char padded[8];
    std::snprintf(padded, sizeof(padded), "%-5s", LevelName(level));
    os << FormatTimestamp(now_ms) << " " << padded << " [" << component << "] "
       << msg;
    for (const auto& [key, value] : fields) {
      os << " " << key << "=" << value;
    }
    os << "\n";
  }
  os.flush();
}

void Logger::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  (sink_ ? *sink_ : std::cerr).flush();
}

void ApplyLogConfig(const Config& config) {
  Logger& logger = Logger::Instance();
  std::string level = config.Get("log.level");
  if (level == "debug") {
    logger.SetLevel(LogLevel::kDebug);
  } else if (level == "info") {
    logger.SetLevel(LogLevel::kInfo);
  } else if (level == "warn") {
    logger.SetLevel(LogLevel::kWarn);
  } else if (level == "error") {
    logger.SetLevel(LogLevel::kError);
  } else if (level == "off") {
    logger.SetLevel(LogLevel::kOff);
  }
  std::string format = config.Get("log.format");
  if (format == "json") {
    logger.SetFormat(LogFormat::kJson);
  } else if (format == "plain") {
    logger.SetFormat(LogFormat::kPlain);
  }
}

}  // namespace sqs
