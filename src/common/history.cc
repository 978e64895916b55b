#include "common/history.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/json_escape.h"

namespace sqs {

MetricsHistory::MetricsHistory(size_t max_samples_per_key)
    : max_samples_(std::max<size_t>(2, max_samples_per_key)) {}

void MetricsHistory::Append(const std::string& key, int64_t ts_ms, double value) {
  Ring& ring = series_[key];
  if (ring.points.empty()) ring.points.resize(max_samples_);
  ring.points[ring.next] = {ts_ms, value};
  ring.next = (ring.next + 1) % max_samples_;
  if (ring.size < max_samples_) ++ring.size;
}

void MetricsHistory::Record(int64_t ts_ms, const MetricsSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, v] : snapshot.counters) {
    Append(k, ts_ms, static_cast<double>(v));
  }
  for (const auto& [k, v] : snapshot.gauges) {
    Append(k, ts_ms, static_cast<double>(v));
  }
  for (const auto& [k, v] : snapshot.timers) {
    Append(k, ts_ms, static_cast<double>(v));
  }
  for (const auto& [k, h] : snapshot.histograms) {
    Append(k + ".count", ts_ms, static_cast<double>(h.count));
    Append(k + ".p99", ts_ms, static_cast<double>(h.p99));
  }
}

std::vector<MetricsHistory::Point> MetricsHistory::Unroll(const Ring& ring) const {
  std::vector<Point> out;
  out.reserve(ring.size);
  size_t start = (ring.next + max_samples_ - ring.size) % max_samples_;
  for (size_t i = 0; i < ring.size; ++i) {
    out.push_back(ring.points[(start + i) % max_samples_]);
  }
  return out;
}

std::vector<std::string> MetricsHistory::Keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  keys.reserve(series_.size());
  for (const auto& [k, ring] : series_) keys.push_back(k);
  return keys;
}

std::vector<MetricsHistory::Point> MetricsHistory::Series(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(key);
  if (it == series_.end()) return {};
  return Unroll(it->second);
}

double MetricsHistory::RateOf(const std::vector<Point>& points) {
  if (points.size() < 2) return 0;
  int64_t dt_ms = points.back().ts_ms - points.front().ts_ms;
  if (dt_ms <= 0) return 0;
  return (points.back().value - points.front().value) * 1000.0 /
         static_cast<double>(dt_ms);
}

double MetricsHistory::RatePerSec(const std::string& key) const {
  return RateOf(Series(key));
}

std::string MetricsHistory::ToJson(const std::string& key_prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"samples\":" << max_samples_ << ",\"series\":[";
  bool first = true;
  for (const auto& [key, ring] : series_) {
    if (!key_prefix.empty() &&
        key.compare(0, key_prefix.size(), key_prefix) != 0) {
      continue;
    }
    std::vector<Point> points = Unroll(ring);
    if (!first) os << ",";
    first = false;
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.6g", RateOf(points));
    os << "{\"name\":\"" << JsonEscape(key) << "\",\"rate_per_s\":" << rate
       << ",\"points\":[";
    for (size_t i = 0; i < points.size(); ++i) {
      if (i) os << ",";
      char value[32];
      std::snprintf(value, sizeof(value), "%.10g", points[i].value);
      os << "[" << points[i].ts_ms << "," << value << "]";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

void MetricsHistory::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
}

std::string AsciiSparkline(const std::vector<MetricsHistory::Point>& points) {
  static constexpr char kRamp[] = " .:-=+*#%@";
  constexpr int kLevels = sizeof(kRamp) - 2;  // highest usable index
  if (points.empty()) return "";
  double lo = points[0].value, hi = points[0].value;
  for (const auto& p : points) {
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  std::string out;
  out.reserve(points.size());
  for (const auto& p : points) {
    int level = 0;
    if (hi > lo) {
      level = static_cast<int>((p.value - lo) / (hi - lo) * kLevels + 0.5);
      level = std::clamp(level, 0, kLevels);
    }
    out += kRamp[level];
  }
  return out;
}

}  // namespace sqs
