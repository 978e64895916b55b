#include "common/metrics_reporter.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>

#include "common/flightrec.h"
#include "common/json_escape.h"

namespace sqs {

namespace {

void CrashFlushReporter(void* arg) {
  static_cast<MetricsReporter*>(arg)->ReportNow();
}

}  // namespace

HistogramStats MergeHistogramStats(const std::vector<HistogramStats>& parts) {
  HistogramStats out;
  out.min = INT64_MAX;
  std::map<int64_t, int64_t> deltas;  // inclusive upper bound -> merged count
  for (const HistogramStats& h : parts) {
    if (h.count <= 0) continue;
    out.count += h.count;
    out.sum += h.sum;
    out.min = std::min(out.min, h.min);
    out.max = std::max(out.max, h.max);
    int64_t prev = 0;
    for (const auto& [le, cumulative] : h.buckets) {
      deltas[le] += cumulative - prev;
      prev = cumulative;
    }
  }
  if (out.count <= 0) return HistogramStats{};
  const double targets[] = {50.0, 95.0, 99.0};
  int64_t* fields[] = {&out.p50, &out.p95, &out.p99};
  size_t next = 0;
  int64_t cumulative = 0;
  for (const auto& [le, n] : deltas) {
    cumulative += n;
    out.buckets.emplace_back(le, cumulative);
    while (next < 3) {
      int64_t rank = static_cast<int64_t>(
          targets[next] / 100.0 * static_cast<double>(out.count) + 0.5);
      if (rank < 1) rank = 1;
      if (cumulative < rank) break;
      *fields[next] = std::min(std::max(le, out.min), out.max);
      ++next;
    }
  }
  for (; next < 3; ++next) *fields[next] = out.max;
  return out;
}

MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& snapshots) {
  MetricsSnapshot merged;
  for (const MetricsSnapshot& s : snapshots) {
    for (const auto& [k, v] : s.counters) merged.counters[k] += v;
    for (const auto& [k, v] : s.gauges) merged.gauges[k] = v;
    for (const auto& [k, v] : s.timers) merged.timers[k] += v;
    for (const auto& [k, v] : s.histograms) {
      auto [it, inserted] = merged.histograms.emplace(k, v);
      if (!inserted) it->second = MergeHistogramStats({it->second, v});
    }
  }
  return merged;
}

std::string SnapshotToJsonLines(const MetricsSnapshot& snapshot, int64_t ts_ms) {
  std::ostringstream os;
  auto scalar = [&](const std::string& name, const char* type, int64_t value) {
    os << "{\"ts_ms\":" << ts_ms << ",\"name\":\"" << JsonEscape(name)
       << "\",\"type\":\"" << type << "\",\"value\":" << value << "}\n";
  };
  for (const auto& [k, v] : snapshot.counters) scalar(k, "counter", v);
  for (const auto& [k, v] : snapshot.gauges) scalar(k, "gauge", v);
  for (const auto& [k, v] : snapshot.timers) scalar(k, "timer", v);
  for (const auto& [k, h] : snapshot.histograms) {
    os << "{\"ts_ms\":" << ts_ms << ",\"name\":\"" << JsonEscape(k)
       << "\",\"type\":\"histogram\",\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"min\":" << h.min << ",\"max\":" << h.max << ",\"p50\":" << h.p50
       << ",\"p95\":" << h.p95 << ",\"p99\":" << h.p99 << "}\n";
  }
  return os.str();
}

std::string SnapshotToTable(const MetricsSnapshot& snapshot) {
  struct RowText {
    std::string name, type, value;
  };
  std::vector<RowText> rows;
  for (const auto& [k, v] : snapshot.counters) {
    rows.push_back({k, "counter", std::to_string(v)});
  }
  for (const auto& [k, v] : snapshot.gauges) {
    rows.push_back({k, "gauge", std::to_string(v)});
  }
  for (const auto& [k, v] : snapshot.timers) {
    rows.push_back({k, "timer", std::to_string(v) + " ns"});
  }
  for (const auto& [k, h] : snapshot.histograms) {
    std::ostringstream v;
    v << "count=" << h.count << " min=" << h.min << " p50=" << h.p50
      << " p95=" << h.p95 << " p99=" << h.p99 << " max=" << h.max;
    rows.push_back({k, "histogram", v.str()});
  }
  std::sort(rows.begin(), rows.end(),
            [](const RowText& a, const RowText& b) { return a.name < b.name; });

  size_t name_w = 6, type_w = 4, value_w = 5;
  for (const RowText& r : rows) {
    name_w = std::max(name_w, r.name.size());
    type_w = std::max(type_w, r.type.size());
    value_w = std::max(value_w, r.value.size());
  }
  std::ostringstream os;
  auto rule = [&] {
    os << '+' << std::string(name_w + 2, '-') << '+' << std::string(type_w + 2, '-')
       << '+' << std::string(value_w + 2, '-') << "+\n";
  };
  auto line = [&](const std::string& a, const std::string& b, const std::string& c) {
    os << "| " << a << std::string(name_w - a.size() + 1, ' ') << "| " << b
       << std::string(type_w - b.size() + 1, ' ') << "| " << c
       << std::string(value_w - c.size() + 1, ' ') << "|\n";
  };
  rule();
  line("metric", "type", "value");
  rule();
  for (const RowText& r : rows) line(r.name, r.type, r.value);
  rule();
  os << rows.size() << " metric(s)\n";
  return os.str();
}

// The JSON-lines file behind every file-backed reporter on one path. Sinks
// are keyed by path for the whole process, so reporters of several jobs that
// share a `metrics.reporter.path` append through one stream and one byte
// count drives rotation: one job's roll can never move a file another job is
// still writing. The first reporter to open a path sets its `max_bytes`.
class MetricsFileSink {
 public:
  static std::shared_ptr<MetricsFileSink> Open(const std::string& path,
                                               int64_t max_bytes);

  // Appends one report, first rolling the file to `<path>.1` (replacing any
  // previous roll) when `max_bytes` > 0 and the report would push it past.
  void Append(const std::string& payload);
  int64_t bytes_written() const;

  MetricsFileSink(std::string path, int64_t max_bytes);

 private:
  const std::string path_;
  const int64_t max_bytes_;
  // Recursive so a crash flush raised inside Append on the same thread
  // re-enters instead of deadlocking.
  mutable std::recursive_mutex mu_;
  int64_t bytes_written_ = 0;
  std::ofstream file_;
};

std::shared_ptr<MetricsFileSink> MetricsFileSink::Open(const std::string& path,
                                                      int64_t max_bytes) {
  static std::mutex mu;
  static std::map<std::string, std::weak_ptr<MetricsFileSink>> open;
  std::lock_guard<std::mutex> lock(mu);
  std::shared_ptr<MetricsFileSink> sink = open[path].lock();
  if (!sink) {
    sink = std::make_shared<MetricsFileSink>(path, max_bytes);
    open[path] = sink;
  }
  return sink;
}

MetricsFileSink::MetricsFileSink(std::string path, int64_t max_bytes)
    : path_(std::move(path)), max_bytes_(max_bytes) {
  // Rotation counts from the file's existing size, so restarted jobs
  // appending to a previous run's file still honor the cap.
  std::ifstream existing(path_, std::ios::binary | std::ios::ate);
  if (existing) bytes_written_ = static_cast<int64_t>(existing.tellg());
  file_.open(path_, std::ios::app);
}

void MetricsFileSink::Append(const std::string& payload) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (max_bytes_ > 0 && bytes_written_ > 0 &&
      bytes_written_ + static_cast<int64_t>(payload.size()) > max_bytes_) {
    file_.close();
    std::rename(path_.c_str(), (path_ + ".1").c_str());
    file_.open(path_, std::ios::trunc);
    bytes_written_ = 0;
  }
  file_ << payload;
  file_.flush();
  bytes_written_ += static_cast<int64_t>(payload.size());
}

int64_t MetricsFileSink::bytes_written() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return bytes_written_;
}

MetricsReporter::MetricsReporter(std::shared_ptr<MetricsRegistry> registry,
                                 std::ostream* out, int64_t interval_ms,
                                 std::shared_ptr<Clock> clock)
    : registry_(std::move(registry)),
      out_(out),
      interval_ms_(interval_ms),
      clock_(clock ? std::move(clock) : SystemClock::Instance()),
      last_report_ms_(clock_->NowMillis()) {
  RegisterCrashFlush(&CrashFlushReporter, this);
}

MetricsReporter::MetricsReporter(std::shared_ptr<MetricsRegistry> registry,
                                 std::string path, int64_t interval_ms,
                                 int64_t max_bytes, std::shared_ptr<Clock> clock)
    : registry_(std::move(registry)),
      out_(nullptr),
      interval_ms_(interval_ms),
      clock_(clock ? std::move(clock) : SystemClock::Instance()),
      last_report_ms_(clock_->NowMillis()),
      path_(std::move(path)),
      sink_(MetricsFileSink::Open(path_, max_bytes)) {
  RegisterCrashFlush(&CrashFlushReporter, this);
}

MetricsReporter::~MetricsReporter() { UnregisterCrashFlush(this); }

int64_t MetricsReporter::bytes_written() const {
  return sink_ ? sink_->bytes_written() : 0;
}

void MetricsReporter::Emit(const std::string& payload) {
  std::lock_guard<std::recursive_mutex> lock(emit_mu_);
  if (out_ != nullptr) {
    *out_ << payload;
    out_->flush();
    return;
  }
  sink_->Append(payload);
}

bool MetricsReporter::MaybeReport() {
  int64_t now = clock_->NowMillis();
  int64_t last = last_report_ms_.load(std::memory_order_relaxed);
  if (now - last < interval_ms_) return false;
  // Claim the interval: of the callers that saw it due, only the one whose
  // exchange lands emits.
  if (!last_report_ms_.compare_exchange_strong(last, now)) return false;
  Emit(SnapshotToJsonLines(registry_->Snapshot(), now));
  return true;
}

void MetricsReporter::ReportNow() {
  int64_t now = clock_->NowMillis();
  last_report_ms_.store(now);
  Emit(SnapshotToJsonLines(registry_->Snapshot(), now));
}

}  // namespace sqs
