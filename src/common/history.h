// MetricsHistory: a fixed-capacity time-series ring over registry snapshots.
// The monitor samples every job's registry on a clock-driven interval
// (`metrics.history.interval.ms`), keeping the most recent
// kDefaultSamples points per metric key, so rates (msgs/sec, lag
// slope) can be computed without an external scraper. Counters, gauges and
// timers record their value; histograms record `<name>.count` and
// `<name>.p99`. Readers (the HTTP /history endpoint, the shell's
// SHOW HISTORY, the alert engine's rate rules) and the sampling writer run
// on different threads, so every entry point locks.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace sqs {

class MetricsHistory {
 public:
  struct Point {
    int64_t ts_ms = 0;
    double value = 0;
  };

  static constexpr size_t kDefaultSamples = 120;

  explicit MetricsHistory(size_t max_samples_per_key = kDefaultSamples);

  // Append one sample per scalar series in the snapshot.
  void Record(int64_t ts_ms, const MetricsSnapshot& snapshot);

  std::vector<std::string> Keys() const;

  // Retained points in chronological order; empty for unknown keys.
  std::vector<Point> Series(const std::string& key) const;

  // Change per second across the retained window: (last - first) / elapsed.
  // 0 with fewer than two samples or no elapsed time. Meaningful as a rate
  // for counters and as a slope for gauges (e.g. consumer lag growth).
  double RatePerSec(const std::string& key) const;

  size_t max_samples() const { return max_samples_; }

  // {"samples":N,"series":[{"name":...,"rate_per_s":...,"points":[[ts,v],...]},...]}
  // restricted to keys starting with `key_prefix` (empty = all).
  std::string ToJson(const std::string& key_prefix = "") const;

  void Clear();

 private:
  struct Ring {
    std::vector<Point> points;  // capacity max_samples_, circular
    size_t next = 0;            // insert position
    size_t size = 0;
  };

  void Append(const std::string& key, int64_t ts_ms, double value);
  std::vector<Point> Unroll(const Ring& ring) const;
  static double RateOf(const std::vector<Point>& points);

  mutable std::mutex mu_;
  size_t max_samples_;
  std::map<std::string, Ring> series_;
};

// Fixed-ramp ASCII sparkline of a value series (min..max scaled over
// " .:-=+*#%@"); a flat series renders at the low end. Used by SHOW HISTORY.
std::string AsciiSparkline(const std::vector<MetricsHistory::Point>& points);

}  // namespace sqs
