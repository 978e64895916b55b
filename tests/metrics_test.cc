// Unit tests for the metrics layer: log-bucketed histograms, scoped
// registries, snapshot/merge semantics, and the periodic reporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/metrics_reporter.h"

namespace sqs {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucketing

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (int64_t v = 0; v < 16; ++v) h.Record(v);
  EXPECT_EQ(h.Count(), 16);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 15);
  EXPECT_EQ(h.Sum(), 120);
  // Values below 2^kSubBucketBits land in their own bucket, so every
  // percentile of a single recorded value is that value exactly.
  Histogram single;
  single.Record(7);
  EXPECT_EQ(single.Percentile(50), 7);
  EXPECT_EQ(single.Percentile(99), 7);
}

TEST(HistogramTest, BucketIndexMonotoneAndBoundsConsistent) {
  int last = -1;
  for (int64_t v : std::vector<int64_t>{0, 1, 15, 16, 17, 31, 32, 100, 1000,
                                        1'000'000, 1'000'000'000, INT64_MAX / 2}) {
    int idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, last) << "bucket index must be monotone in value, v=" << v;
    last = idx;
    EXPECT_LE(Histogram::BucketLowerBound(idx), v)
        << "lower bound exceeds value for v=" << v;
    if (idx + 1 < Histogram::kNumBuckets) {
      EXPECT_GT(Histogram::BucketLowerBound(idx + 1), v)
          << "value should not reach the next bucket, v=" << v;
    }
  }
}

TEST(HistogramTest, RelativeErrorBoundedByBucketWidth) {
  // With 16 sub-buckets per power of two, the bucket midpoint is within
  // ~1/16 (6.25%) of any value in the bucket; allow 7% slack.
  Histogram h;
  const int64_t value = 123'456'789;
  h.Record(value);
  int64_t p50 = h.Percentile(50);
  double rel = std::abs(static_cast<double>(p50 - value)) / value;
  EXPECT_LT(rel, 0.07);
}

TEST(HistogramTest, PercentilesOrderedAndClamped) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v * 1000);
  HistogramStats s = h.GetStats();
  EXPECT_EQ(s.count, 1000);
  EXPECT_EQ(s.min, 1000);
  EXPECT_EQ(s.max, 1'000'000);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p99, s.max);
  // p50 of a uniform 1k..1M spread is near 500k; bucket error is <7%.
  EXPECT_GT(s.p50, 450'000);
  EXPECT_LT(s.p50, 550'000);
  h.Reset();
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.GetStats().p99, 0);
}

TEST(HistogramTest, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Record((t + 1) * 100 + i % 16);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.Count(), static_cast<int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.Min(), 100);
  EXPECT_EQ(h.Max(), 415);
}

// ---------------------------------------------------------------------------
// Registry + scopes

TEST(MetricsRegistryTest, SnapshotCoversAllFamilies) {
  MetricsRegistry registry;
  registry.GetCounter("c").Inc(3);
  registry.GetGauge("g").Set(-7);
  registry.GetTimer("t").Add(1000);
  registry.GetHistogram("h").Record(42);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("c"), 3);
  EXPECT_EQ(snap.gauges.at("g"), -7);
  EXPECT_EQ(snap.timers.at("t"), 1000);
  EXPECT_EQ(snap.histograms.at("h").count, 1);
  EXPECT_FALSE(snap.empty());
  EXPECT_TRUE(MetricsSnapshot{}.empty());
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  EXPECT_EQ(&registry.GetCounter("x"), &registry.GetCounter("x"));
  EXPECT_EQ(&registry.GetHistogram("x"), &registry.GetHistogram("x"));
}

TEST(ScopedMetricsTest, SubBuildsDottedScopesAndSanitizes) {
  EXPECT_EQ(ScopedMetrics::Sanitize("Partition 0"), "Partition_0");
  EXPECT_EQ(ScopedMetrics::Sanitize("a.b c"), "a_b_c");
  MetricsRegistry registry;
  ScopedMetrics scope(&registry, "my job");
  scope.Sub("Partition 0").Sub("filter").counter("processed").Inc();
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("my_job.Partition_0.filter.processed"), 1);
}

TEST(ScopedMetricsTest, DefaultConstructedIsUnbound) {
  ScopedMetrics scope;
  EXPECT_FALSE(scope.bound());
}

// ---------------------------------------------------------------------------
// Merge + rendering

TEST(MergeSnapshotsTest, CountersSumGaugesLastWinHistogramsMergeBuckets) {
  MetricsRegistry a, b;
  a.GetCounter("c").Inc(2);
  b.GetCounter("c").Inc(5);
  a.GetGauge("g").Set(1);
  b.GetGauge("g").Set(9);
  a.GetTimer("t").Add(10);
  b.GetTimer("t").Add(20);
  a.GetHistogram("h").Record(1);
  b.GetHistogram("h").Record(1);
  b.GetHistogram("h").Record(2);
  MetricsSnapshot merged = MergeSnapshots({a.Snapshot(), b.Snapshot()});
  EXPECT_EQ(merged.counters.at("c"), 7);
  EXPECT_EQ(merged.gauges.at("g"), 9);
  EXPECT_EQ(merged.timers.at("t"), 30);
  // Same-name histograms merge bucket by bucket: {1} + {1, 2}.
  const HistogramStats& h = merged.histograms.at("h");
  EXPECT_EQ(h.count, 3);
  EXPECT_EQ(h.sum, 4);
  EXPECT_EQ(h.min, 1);
  EXPECT_EQ(h.max, 2);
  EXPECT_EQ(h.p50, 1);
  EXPECT_EQ(h.p99, 2);
  EXPECT_EQ(h.buckets, (std::vector<std::pair<int64_t, int64_t>>{{1, 2}, {2, 3}}));
}

TEST(RenderTest, JsonLinesOneObjectPerMetric) {
  MetricsRegistry registry;
  registry.GetCounter("job.t.op.processed").Inc(12);
  registry.GetGauge("job.t.op.watermark_ms").Set(5000);
  registry.GetHistogram("job.t.op.latency_ns").Record(1000);
  std::string lines = SnapshotToJsonLines(registry.Snapshot(), 1234);
  std::istringstream in(lines);
  std::string line;
  int n = 0;
  while (std::getline(in, line)) {
    ++n;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"ts_ms\":1234"), std::string::npos);
  }
  EXPECT_EQ(n, 3);
  EXPECT_NE(lines.find("\"name\":\"job.t.op.processed\",\"type\":\"counter\",\"value\":12"),
            std::string::npos);
  EXPECT_NE(lines.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(lines.find("\"p99\":"), std::string::npos);
}

TEST(RenderTest, TableListsEveryMetricSorted) {
  MetricsRegistry registry;
  registry.GetCounter("b.counter").Inc(1);
  registry.GetGauge("a.gauge").Set(2);
  registry.GetHistogram("c.hist").Record(3);
  std::string table = SnapshotToTable(registry.Snapshot());
  size_t pa = table.find("a.gauge");
  size_t pb = table.find("b.counter");
  size_t pc = table.find("c.hist");
  ASSERT_NE(pa, std::string::npos);
  ASSERT_NE(pb, std::string::npos);
  ASSERT_NE(pc, std::string::npos);
  EXPECT_LT(pa, pb);
  EXPECT_LT(pb, pc);
  EXPECT_NE(table.find("3 metric(s)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Reporter

TEST(MetricsReporterTest, ReportsOnlyAfterIntervalElapses) {
  auto registry = std::make_shared<MetricsRegistry>();
  registry->GetCounter("job.c").Inc(1);
  auto clock = std::make_shared<ManualClock>(1000);
  std::ostringstream out;
  MetricsReporter reporter(registry, &out, /*interval_ms=*/100, clock);
  EXPECT_FALSE(reporter.MaybeReport());
  clock->Advance(99);
  EXPECT_FALSE(reporter.MaybeReport());
  clock->Advance(1);
  EXPECT_TRUE(reporter.MaybeReport());
  EXPECT_NE(out.str().find("\"name\":\"job.c\""), std::string::npos);
  // Interval restarts from the report.
  EXPECT_FALSE(reporter.MaybeReport());
  clock->Advance(100);
  EXPECT_TRUE(reporter.MaybeReport());
}

// The job's pool workers share one reporter: however their calls
// interleave, each due interval is emitted by exactly one MaybeReport.
TEST(MetricsReporterTest, ConcurrentCallersEmitEachIntervalOnce) {
  auto registry = std::make_shared<MetricsRegistry>();
  registry->GetCounter("job.c").Inc(1);
  auto clock = std::make_shared<ManualClock>(1000);
  std::ostringstream out;
  MetricsReporter reporter(registry, &out, /*interval_ms=*/100, clock);
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::atomic<int> emitted{0};
  for (int round = 0; round < kRounds; ++round) {
    clock->Advance(100);
    std::atomic<int> arrived{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        // Release every caller at once so the calls overlap.
        arrived.fetch_add(1);
        while (arrived.load() < kThreads) std::this_thread::yield();
        if (reporter.MaybeReport()) emitted.fetch_add(1);
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(emitted.load(), kRounds);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), kRounds);
}

TEST(MetricsReporterTest, ReportNowIgnoresInterval) {
  auto registry = std::make_shared<MetricsRegistry>();
  registry->GetCounter("job.c").Inc(4);
  auto clock = std::make_shared<ManualClock>(0);
  std::ostringstream out;
  MetricsReporter reporter(registry, &out, /*interval_ms=*/1'000'000, clock);
  reporter.ReportNow();
  EXPECT_NE(out.str().find("\"value\":4"), std::string::npos);
}

TEST(MetricsReporterTest, FileBackedReporterRotatesAtMaxBytes) {
  std::string dir = ::testing::TempDir();
  std::string path = dir + "/reporter_rotation.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  auto registry = std::make_shared<MetricsRegistry>();
  registry->GetCounter("job.container0.processed").Inc(1);
  auto clock = std::make_shared<ManualClock>(0);
  int64_t report_bytes =
      static_cast<int64_t>(SnapshotToJsonLines(registry->Snapshot(), 0).size());
  // Cap below two reports: the second report must roll the file.
  MetricsReporter reporter(registry, path, /*interval_ms=*/1,
                           /*max_bytes=*/report_bytes + report_bytes / 2, clock);
  reporter.ReportNow();
  EXPECT_EQ(reporter.bytes_written(), report_bytes);
  EXPECT_FALSE(std::ifstream(path + ".1").good());

  reporter.ReportNow();
  // The first report moved to <path>.1; the active file holds only the second.
  EXPECT_EQ(reporter.bytes_written(), report_bytes);
  std::ifstream rolled(path + ".1", std::ios::binary | std::ios::ate);
  ASSERT_TRUE(rolled.good());
  EXPECT_EQ(static_cast<int64_t>(rolled.tellg()), report_bytes);
  std::ifstream active(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(active.good());
  EXPECT_EQ(static_cast<int64_t>(active.tellg()), report_bytes);

  // A third report replaces the previous roll instead of accumulating files.
  reporter.ReportNow();
  std::ifstream rolled2(path + ".1", std::ios::binary | std::ios::ate);
  EXPECT_EQ(static_cast<int64_t>(rolled2.tellg()), report_bytes);
}

TEST(MetricsReporterTest, FileBackedReporterResumesExistingFileSize) {
  std::string dir = ::testing::TempDir();
  std::string path = dir + "/reporter_resume.jsonl";
  {
    std::ofstream seed(path, std::ios::trunc);
    seed << "previous run\n";
  }
  auto registry = std::make_shared<MetricsRegistry>();
  auto clock = std::make_shared<ManualClock>(0);
  MetricsReporter reporter(registry, path, /*interval_ms=*/1, /*max_bytes=*/0,
                           clock);
  // Rotation accounting starts from the pre-existing size, and max_bytes=0
  // disables rotation entirely.
  EXPECT_EQ(reporter.bytes_written(), 13);
  reporter.ReportNow();
  EXPECT_FALSE(std::ifstream(path + ".1").good());
}

TEST(RenderTest, TableHistogramRowShowsMinAndMax) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("job.latency_ns");
  h.Record(3);
  h.Record(900);
  std::string table = SnapshotToTable(registry.Snapshot());
  EXPECT_NE(table.find("min=3"), std::string::npos) << table;
  EXPECT_NE(table.find("max=900"), std::string::npos) << table;
}

TEST(HistogramTest, EmptyStatsAreAllZero) {
  Histogram h;
  HistogramStats s = h.GetStats();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.sum, 0);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 0);
  EXPECT_EQ(s.p50, 0);
  EXPECT_EQ(s.p99, 0);
  EXPECT_TRUE(s.buckets.empty());
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_EQ(h.Percentile(99), 0);
}

TEST(HistogramTest, StatsIncludeMinMaxAndOccupiedBuckets) {
  Histogram h;
  for (int64_t v : {2, 2, 50, 7000}) h.Record(v);
  HistogramStats s = h.GetStats();
  EXPECT_EQ(s.min, 2);
  EXPECT_EQ(s.max, 7000);
  // Three distinct buckets (2, ~50, ~7000), cumulative counts ending at 4.
  ASSERT_EQ(s.buckets.size(), 3u);
  EXPECT_EQ(s.buckets[0].second, 2);
  EXPECT_EQ(s.buckets.back().second, 4);
  for (const auto& [le, cumulative] : s.buckets) {
    (void)cumulative;
    EXPECT_GE(le, 0);
  }
  // Every recorded value is covered by a bucket whose bound is >= it.
  EXPECT_GE(s.buckets.back().first, 7000);
}

}  // namespace
}  // namespace sqs
