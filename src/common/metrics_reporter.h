// MetricsReporter: turns MetricsRegistry snapshots into (a) JSON lines for
// offline analysis and (b) an aligned human-readable table (the shell's
// SHOW METRICS). A reporter instance wraps one registry and emits to a
// stream on a clock-driven interval; the free functions are the shared
// formatting path so the shell, the reporter, and tests render identically.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"

namespace sqs {

// Merge histogram snapshots into one distribution: cumulative bucket counts
// become per-bucket deltas, summed across the parts, then percentiles are
// re-estimated by a cumulative walk. The estimate uses each bucket's upper
// bound clamped to the observed range, so it carries the same bounded
// relative error as the parts' own stats.
HistogramStats MergeHistogramStats(const std::vector<HistogramStats>& parts);

// Union of several snapshots (e.g. one per job). Same-name collisions:
// counters and timers sum, gauges keep the latest (last snapshot wins),
// histograms merge their buckets (MergeHistogramStats).
MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& snapshots);

// One JSON object per metric per line, e.g.
//   {"ts_ms":170...,"name":"job.container0.processed","type":"counter","value":42}
// Histogram lines carry count/sum/min/max/p50/p95/p99 instead of "value".
std::string SnapshotToJsonLines(const MetricsSnapshot& snapshot, int64_t ts_ms);

// Aligned table with one row per metric: name | type | value. Histograms
// render their count and percentiles in the value column.
std::string SnapshotToTable(const MetricsSnapshot& snapshot);

// The JSON-lines file behind every file-backed reporter on one path
// (metrics_reporter.cc).
class MetricsFileSink;

class MetricsReporter {
 public:
  // Emits JSON lines for `registry` to `out` every `interval_ms` of clock
  // time. `out` must outlive the reporter.
  MetricsReporter(std::shared_ptr<MetricsRegistry> registry, std::ostream* out,
                  int64_t interval_ms, std::shared_ptr<Clock> clock = nullptr);

  // File-backed variant: appends to `path` through the path's shared
  // MetricsFileSink, which — when `max_bytes` > 0 — rolls the file to
  // `<path>.1` (replacing any previous roll) before a report would push it
  // past `max_bytes`, so long-running jobs keep at most ~2x max_bytes of
  // metrics on disk.
  MetricsReporter(std::shared_ptr<MetricsRegistry> registry, std::string path,
                  int64_t interval_ms, int64_t max_bytes,
                  std::shared_ptr<Clock> clock = nullptr);

  // Unregisters the crash-flush hook the constructors installed (the fatal
  // signal / terminate handlers flush every live reporter so the tail of
  // the JSON-lines file survives a crash — see common/flightrec.h).
  ~MetricsReporter();

  // Emits if at least interval_ms elapsed since the last report. Returns
  // true when a report was written. Safe to call from several threads: each
  // due interval is claimed by one compare-exchange, so exactly one caller
  // emits it.
  bool MaybeReport();

  // Unconditional snapshot + emit (also the flush-on-shutdown path).
  void ReportNow();

  int64_t interval_ms() const { return interval_ms_; }
  // Bytes currently in the active file (file-backed reporters only).
  int64_t bytes_written() const;
  const std::string& path() const { return path_; }

 private:
  void Emit(const std::string& payload);

  std::shared_ptr<MetricsRegistry> registry_;
  std::ostream* out_;
  int64_t interval_ms_;
  std::shared_ptr<Clock> clock_;
  std::atomic<int64_t> last_report_ms_;
  // Serializes writers (the interval's claimant, ReportNow). Recursive so a
  // crash flush raised inside Emit on the same thread re-enters instead of
  // deadlocking.
  std::recursive_mutex emit_mu_;
  // File-backed mode.
  std::string path_;
  std::shared_ptr<MetricsFileSink> sink_;
};

}  // namespace sqs
