#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/pietql/evaluator.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "workload/scenario.h"

namespace piet::obs {
namespace {

// Each TEST runs as its own ctest process (gtest_discover_tests), so
// toggling the process-global enable gate, the registry, and the global
// flight recorder here cannot leak into other tests.

std::string ReadGolden(const char* name) {
  const std::filesystem::path path =
      std::filesystem::path(PIET_SOURCE_DIR) / "tests" / "golden" / name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// MetricRing

TEST(MetricRingTest, WrapsOverwritingOldest) {
  MetricRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (uint64_t i = 0; i < 6; ++i) {
    ring.Push({i, static_cast<int64_t>(i * 10), static_cast<int64_t>(i + 1)});
  }
  ASSERT_EQ(ring.size(), 4u);
  // Ticks 0 and 1 were overwritten; reads come back oldest first.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.at(i).tick, i + 2);
    EXPECT_EQ(ring.at(i).value, static_cast<int64_t>(i + 3));
  }
  EXPECT_EQ(ring.WindowSum(), 3 + 4 + 5 + 6);
  std::vector<TimeSeriesPoint> points = ring.Points();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points.front().tick, 2u);
  EXPECT_EQ(points.back().tick, 5u);
}

TEST(MetricRingTest, PartialFillReadsInOrder) {
  MetricRing ring(8);
  ring.Push({0, 0, 7});
  ring.Push({1, 1, 9});
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.at(0).value, 7);
  EXPECT_EQ(ring.at(1).value, 9);
  EXPECT_EQ(ring.WindowSum(), 16);
}

// ---------------------------------------------------------------------------
// Histogram quantiles

TEST(HistogramQuantileTest, InterpolatesWithinBucket) {
  HistogramData h;
  h.buckets.assign(kNumBuckets, 0);
  h.buckets[1] = 100;  // All records in (1us, 4us].
  h.count = 100;
  // Rank 50 of 100 lands halfway through the bucket: 1000 + 0.5 * 3000.
  EXPECT_DOUBLE_EQ(h.QuantileNs(0.5), 2500.0);
  EXPECT_DOUBLE_EQ(h.QuantileNs(1.0), 4000.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.QuantileNs(0.5), h.QuantileNs(0.95));
  EXPECT_LE(h.QuantileNs(0.95), h.QuantileNs(0.99));
}

TEST(HistogramQuantileTest, SpansBuckets) {
  HistogramData h;
  h.buckets.assign(kNumBuckets, 0);
  h.buckets[0] = 50;  // <= 1us
  h.buckets[2] = 50;  // (4us, 16us]
  h.count = 100;
  // p25 is inside the first bucket, p75 inside the third.
  EXPECT_DOUBLE_EQ(h.QuantileNs(0.25), 500.0);
  EXPECT_DOUBLE_EQ(h.QuantileNs(0.75), 10000.0);
}

TEST(HistogramQuantileTest, OverflowClampsToLastBound) {
  HistogramData h;
  h.buckets.assign(kNumBuckets, 0);
  h.buckets[kNumBuckets - 1] = 10;  // All in the overflow bucket.
  h.count = 10;
  EXPECT_DOUBLE_EQ(h.QuantileNs(0.5),
                   static_cast<double>(kBucketBoundsNs.back()));
  EXPECT_DOUBLE_EQ(h.QuantileNs(0.99),
                   static_cast<double>(kBucketBoundsNs.back()));
}

TEST(HistogramQuantileTest, CountPastBucketSumStaysInsideBounds) {
  // A racing Observe bumps the shard count before its bucket, so a
  // snapshot can see count > sum(buckets). High ranks then land past
  // every populated bucket; the scan must fall through to the last
  // finite bound, never read past the bucket array or extrapolate.
  HistogramData h;
  h.buckets.assign(kNumBuckets, 0);
  h.buckets[1] = 10;  // (1us, 4us]
  h.count = 40;       // 30 observations not yet bucketed.
  EXPECT_DOUBLE_EQ(h.QuantileNs(1.0),
                   static_cast<double>(kBucketBoundsNs.back()));
  EXPECT_DOUBLE_EQ(h.QuantileNs(0.99),
                   static_cast<double>(kBucketBoundsNs.back()));
  // Ranks within the bucketed population still interpolate normally.
  EXPECT_DOUBLE_EQ(h.QuantileNs(0.125), 2500.0);
}

TEST(HistogramQuantileTest, EmptyBucketsWithNonzeroCountIsLastBound) {
  // The degenerate partner of the race above: counted observations, none
  // bucketed yet. The scan finds no populated bucket and falls through to
  // the last finite bound rather than reading past the array.
  HistogramData h;
  h.buckets.assign(kNumBuckets, 0);
  h.count = 5;
  EXPECT_DOUBLE_EQ(h.QuantileNs(0.5),
                   static_cast<double>(kBucketBoundsNs.back()));
}

TEST(HistogramQuantileTest, AllOverflowSingleObservationEveryQuantile) {
  // One observation in the overflow bucket: every quantile, including the
  // extremes, clamps to the last finite bound (there is no upper edge to
  // interpolate toward).
  HistogramData h;
  h.buckets.assign(kNumBuckets, 0);
  h.buckets[kNumBuckets - 1] = 1;
  h.count = 1;
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.QuantileNs(q),
                     static_cast<double>(kBucketBoundsNs.back()))
        << "q=" << q;
  }
}

TEST(HistogramQuantileTest, EmptyIsZeroAndRenderingsCarryQuantiles) {
  HistogramData empty;
  EXPECT_DOUBLE_EQ(empty.QuantileNs(0.5), 0.0);

  SetEnabled(true);
  auto& registry = MetricsRegistry::Global();
  registry.Reset();
  Histogram& h = registry.GetHistogram("test.quantile.hist");
  h.RecordNanos(2'000);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_NE(snap.ToText().find("p95_us="), std::string::npos);
  EXPECT_NE(snap.ToJson().find("\"p50_ns\":"), std::string::npos);
  EXPECT_NE(snap.ToJson().find("\"p99_ns\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TelemetrySampler

TEST(TelemetrySamplerTest, TickRecordsExactDeltasAndLevels) {
  SetEnabled(true);
  auto& registry = MetricsRegistry::Global();
  registry.Reset();
  Counter& c = registry.GetCounter("test.ts.counter");
  Gauge& g = registry.GetGauge("test.ts.gauge");
  Histogram& h = registry.GetHistogram("test.ts.hist");

  TelemetrySampler::Options opts;
  opts.ring_capacity = 16;
  TelemetrySampler sampler(opts);

  c.Add(5);
  g.Set(100);
  h.RecordNanos(1'000);
  EXPECT_EQ(sampler.Tick(), 1u);
  c.Add(7);
  g.Set(42);
  h.RecordNanos(1'000);
  h.RecordNanos(1'000);
  EXPECT_EQ(sampler.Tick(), 2u);
  EXPECT_EQ(sampler.Tick(), 3u);  // Idle tick: zero deltas, same level.

  std::vector<TimeSeriesPoint> counter_pts = sampler.Series("test.ts.counter");
  ASSERT_EQ(counter_pts.size(), 3u);
  EXPECT_EQ(counter_pts[0].value, 5);
  EXPECT_EQ(counter_pts[1].value, 7);
  EXPECT_EQ(counter_pts[2].value, 0);
  EXPECT_EQ(sampler.WindowDelta("test.ts.counter"), 12);

  std::vector<TimeSeriesPoint> hist_pts = sampler.Series("test.ts.hist.count");
  ASSERT_EQ(hist_pts.size(), 3u);
  EXPECT_EQ(hist_pts[0].value, 1);
  EXPECT_EQ(hist_pts[1].value, 2);
  EXPECT_EQ(hist_pts[2].value, 0);

  std::vector<TimeSeriesPoint> gauge_pts = sampler.Series("test.ts.gauge");
  ASSERT_EQ(gauge_pts.size(), 3u);
  EXPECT_EQ(gauge_pts[0].value, 100);
  EXPECT_EQ(gauge_pts[1].value, 42);
  EXPECT_EQ(gauge_pts[2].value, 42);

  const std::string text = sampler.ToText();
  EXPECT_NE(text.find("test.ts.counter"), std::string::npos);
  EXPECT_NE(text.find("window_delta=12"), std::string::npos);
}

// The delta between two ticks must be the exact number of Adds regardless
// of how many pool threads produced them (sharded counters merge on read).
TEST(TelemetrySamplerTest, DeltasExactUnderParallelFor) {
  SetEnabled(true);
  auto& registry = MetricsRegistry::Global();
  registry.Reset();
  Counter& c = registry.GetCounter("test.ts.parallel");
  TelemetrySampler sampler;
  sampler.Tick();
  constexpr size_t kN = 100'000;
  parallel::ParallelFor(/*threads=*/4, kN,
                        [&](size_t /*chunk*/, size_t begin, size_t end) {
                          for (size_t i = begin; i < end; ++i) {
                            c.Add(1);
                          }
                        });
  sampler.Tick();
  std::vector<TimeSeriesPoint> pts = sampler.Series("test.ts.parallel");
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[1].value, static_cast<int64_t>(kN));
}

TEST(TelemetrySamplerTest, CollectorsRunBeforeEachSnapshot) {
  SetEnabled(true);
  auto& registry = MetricsRegistry::Global();
  registry.Reset();
  TelemetrySampler sampler;
  int calls = 0;
  sampler.AddCollector([&calls, &registry] {
    ++calls;
    registry.GetGauge("test.ts.pull").Set(calls * 10);
  });
  sampler.Tick();
  sampler.Tick();
  EXPECT_EQ(calls, 2);
  std::vector<TimeSeriesPoint> pts = sampler.Series("test.ts.pull");
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].value, 10);
  EXPECT_EQ(pts[1].value, 20);
}

// A constructed-but-gated-off sampler is free: a Tick while disabled runs
// no collector, takes no snapshot, and moves no counter.
TEST(TelemetrySamplerTest, DisabledTickMutatesNothing) {
  SetEnabled(false);
  auto& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.GetCounter("test.ts.disabled");  // Registered, stays at 0.
  TelemetrySampler sampler;
  bool collector_ran = false;
  sampler.AddCollector([&collector_ran] { collector_ran = true; });
  EXPECT_EQ(sampler.Tick(), 0u);
  EXPECT_EQ(sampler.Tick(), 0u);
  EXPECT_EQ(sampler.ticks(), 0u);
  EXPECT_FALSE(collector_ran);
  EXPECT_TRUE(sampler.SeriesNames().empty());

  // Re-enabling makes the very next tick count from the current values.
  SetEnabled(true);
  registry.GetCounter("test.ts.disabled").Add(3);
  EXPECT_EQ(sampler.Tick(), 1u);
  EXPECT_EQ(sampler.WindowDelta("test.ts.disabled"), 3);
  SetEnabled(false);
}

TEST(TelemetrySamplerTest, BackgroundThreadTicksOnInterval) {
  SetEnabled(true);
  MetricsRegistry::Global().Reset();
  TelemetrySampler::Options opts;
  opts.interval_ms = 2;
  TelemetrySampler sampler(opts);
  EXPECT_FALSE(sampler.running());
  sampler.Start();
  EXPECT_TRUE(sampler.running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sampler.ticks() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.ticks(), 3u);
  const uint64_t after_stop = sampler.ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(sampler.ticks(), after_stop);
}

TEST(TelemetrySamplerTest, OptionsFromEnvReadsSampleMs) {
  setenv("PIET_OBS_SAMPLE_MS", "250", 1);
  EXPECT_EQ(TelemetrySampler::Options::FromEnv().interval_ms, 250);
  setenv("PIET_OBS_SAMPLE_MS", "-5", 1);
  EXPECT_EQ(TelemetrySampler::Options::FromEnv().interval_ms, 0);
  unsetenv("PIET_OBS_SAMPLE_MS");
  EXPECT_EQ(TelemetrySampler::Options::FromEnv().interval_ms, 0);
}

// ---------------------------------------------------------------------------
// FlightRecorder

QueryRecord MakeRecord(const std::string& text, int64_t wall_ns) {
  QueryRecord rec;
  rec.text = text;
  rec.wall_ns = wall_ns;
  return rec;
}

TEST(FlightRecorderTest, RingWrapsAndSlowLogRetains) {
  SetEnabled(true);
  FlightRecorder::Options opts;
  opts.capacity = 3;
  opts.slow_capacity = 2;
  opts.slow_threshold_ms = 1;
  FlightRecorder rec(opts);
  EXPECT_TRUE(rec.active());

  rec.Record(MakeRecord("q0", 500));            // Fast.
  rec.Record(MakeRecord("q1", 2'000'000));      // Slow.
  rec.Record(MakeRecord("q2", 600));            // Fast.
  rec.Record(MakeRecord("q3", 3'000'000));      // Slow.
  rec.Record(MakeRecord("q4", 4'000'000));      // Slow.
  rec.Record(MakeRecord("q5", 700));            // Fast.

  EXPECT_EQ(rec.total_recorded(), 6u);
  std::vector<QueryRecord> flight = rec.Snapshot();
  ASSERT_EQ(flight.size(), 3u);  // q0..q2 were evicted.
  EXPECT_EQ(flight[0].text, "q3");
  EXPECT_EQ(flight[1].text, "q4");
  EXPECT_EQ(flight[2].text, "q5");
  EXPECT_EQ(flight[0].seq, 3u);
  EXPECT_TRUE(flight[0].slow);
  EXPECT_FALSE(flight[2].slow);

  // The slow ring survives the fast-query churn (q1 evicted by capacity 2).
  std::vector<QueryRecord> slow = rec.SlowLog();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].text, "q3");
  EXPECT_EQ(slow[1].text, "q4");

  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.slow_size(), 0u);
  // The sequence counter keeps counting after Clear.
  rec.Record(MakeRecord("q6", 1));
  EXPECT_EQ(rec.Snapshot()[0].seq, 6u);
}

TEST(FlightRecorderTest, DisabledOrZeroCapacityMutatesNothing) {
  SetEnabled(false);
  FlightRecorder::Options opts;
  opts.capacity = 4;
  FlightRecorder rec(opts);
  rec.Record(MakeRecord("q", 1'000'000'000));
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);

  SetEnabled(true);
  FlightRecorder::Options off;
  off.capacity = 0;
  FlightRecorder zero(off);
  EXPECT_FALSE(zero.active());
  zero.Record(MakeRecord("q", 1'000'000'000));
  EXPECT_EQ(zero.size(), 0u);
  EXPECT_EQ(zero.total_recorded(), 0u);
  SetEnabled(false);
}

TEST(FlightRecorderTest, JsonlSinkAppendsOneObjectPerRecord) {
  SetEnabled(true);
  const std::string path =
      (std::filesystem::temp_directory_path() / "piet_flight_test.jsonl")
          .string();
  std::remove(path.c_str());
  {
    FlightRecorder::Options opts;
    opts.capacity = 8;
    opts.jsonl_path = path;
    FlightRecorder rec(opts);
    QueryRecord with_escapes = MakeRecord("SELECT \"x\"\nline2", 5);
    with_escapes.profile.name = "query";
    rec.Record(with_escapes);
    rec.Record(MakeRecord("plain", 6));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].front(), '{');
  EXPECT_EQ(lines[0].back(), '}');
  EXPECT_NE(lines[0].find("\"text\":\"SELECT \\\"x\\\"\\nline2\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"profile\":{\"name\":\"query\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":1"), std::string::npos);
  std::remove(path.c_str());
  SetEnabled(false);
}

TEST(FlightRecorderTest, OptionsFromEnvReadsKnobs) {
  setenv("PIET_OBS_FLIGHT_N", "7", 1);
  setenv("PIET_SLOW_QUERY_MS", "250", 1);
  FlightRecorder::Options opts = FlightRecorder::Options::FromEnv();
  EXPECT_EQ(opts.capacity, 7u);
  EXPECT_EQ(opts.slow_threshold_ms, 250);
  setenv("PIET_OBS_FLIGHT_N", "0", 1);
  EXPECT_EQ(FlightRecorder::Options::FromEnv().capacity, 0u);
  unsetenv("PIET_OBS_FLIGHT_N");
  unsetenv("PIET_SLOW_QUERY_MS");
  EXPECT_EQ(FlightRecorder::Options::FromEnv().capacity, 64u);
  EXPECT_EQ(FlightRecorder::Options::FromEnv().slow_threshold_ms, 100);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(PrometheusExportTest, NameMangling) {
  EXPECT_EQ(PrometheusName("engine.query.count_in_region.latency"),
            "piet_engine_query_count_in_region_latency");
  EXPECT_EQ(PrometheusName("with-dash and space"),
            "piet_with_dash_and_space");
}

MetricsSnapshot GoldenSnapshot() {
  MetricsSnapshot snap;
  snap.counters["engine.queries"] = 8;
  snap.counters["pietql.tuples"] = 1234;
  snap.gauges["db.moft.resident_bytes"] = 4096;
  snap.gauges["db.overlay.epoch"] = 3;
  HistogramData h;
  h.buckets.assign(kNumBuckets, 0);
  h.buckets[1] = 100;                // (1us, 4us]
  h.buckets[kNumBuckets - 1] = 2;    // Overflow.
  h.count = 102;
  h.sum_ns = 8'850'000;
  snap.histograms["engine.query.sample_region.latency"] = h;
  return snap;
}

TEST(PrometheusExportTest, MatchesGolden) {
  EXPECT_EQ(ToPrometheusText(GoldenSnapshot()), ReadGolden("metrics.prom"));
}

TEST(PrometheusExportTest, FileExportPicksFormatByExtension) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string prom = (dir / "piet_export_test.prom").string();
  const std::string json = (dir / "piet_export_test.json").string();
  ASSERT_TRUE(ExportSnapshotToFile(GoldenSnapshot(), prom));
  ASSERT_TRUE(ExportSnapshotToFile(GoldenSnapshot(), json));
  std::ifstream pin(prom);
  std::string first;
  std::getline(pin, first);
  EXPECT_EQ(first.rfind("# HELP ", 0), 0u);
  std::ifstream jin(json);
  std::getline(jin, first);
  EXPECT_EQ(first.front(), '{');
  EXPECT_NE(first.find("\"counters\""), std::string::npos);
  std::remove(prom.c_str());
  std::remove(json.c_str());

  std::string error;
  EXPECT_FALSE(ExportSnapshotToFile(GoldenSnapshot(),
                                    "/nonexistent-dir/x.prom", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Evaluator integration over the Figure 1 scenario

class FlightSixBusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = workload::BuildFigure1Scenario();
    ASSERT_TRUE(scenario.ok());
    scenario_ = std::move(scenario).ValueOrDie();
  }
  workload::Figure1Scenario scenario_;
};

constexpr const char* kInsideCount =
    "SELECT layer.Ln; FROM PietSchema; WHERE ATTR(layer.Ln, income) < 1500 "
    "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE INSIDE RESULT";

TEST_F(FlightSixBusTest, EvaluatorFilesRecordsWithResourceCounts) {
  SetEnabled(true);
  MetricsRegistry::Global().Reset();
  FlightRecorder::Options opts;
  opts.capacity = 8;
  opts.slow_threshold_ms = 0;  // Everything is "slow": span trees retained.
  FlightRecorder::Global().Configure(opts);

  core::pietql::Evaluator eval(scenario_.db.get());
  auto result = eval.EvaluateString(kInsideCount);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<QueryRecord> flight = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(flight.size(), 1u);
  const QueryRecord& rec = flight[0];
  EXPECT_EQ(rec.text, kInsideCount);
  EXPECT_EQ(rec.clause, "inside_result");
  EXPECT_TRUE(rec.error.empty());
  EXPECT_GT(rec.wall_ns, 0);
  EXPECT_GT(rec.rows_scanned, 0);
  EXPECT_TRUE(rec.slow);
  EXPECT_EQ(rec.profile.name, "query");
  EXPECT_NE(rec.profile.Find("moft_intersect"), nullptr);
  EXPECT_NE(rec.ToLine().find("clause=inside_result"), std::string::npos);

  // At threshold 0 the slow log mirrors the flight ring.
  ASSERT_EQ(FlightRecorder::Global().SlowLog().size(), 1u);

  // An erroring query is recorded with its status string.
  ASSERT_FALSE(eval.EvaluateString("SELECT layer.Bogus; FROM S;").ok());
  flight = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(flight.size(), 2u);
  EXPECT_NE(flight[1].error.find("Not found"), std::string::npos);

  // EXPLAIN ANALYZE paths file records too, with the parse span retained.
  auto profiled = eval.EvaluateStringProfiled(kInsideCount);
  ASSERT_TRUE(profiled.ok());
  flight = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(flight.size(), 3u);
  EXPECT_NE(flight[2].profile.Find("parse"), nullptr);

  FlightRecorder::Options off;
  off.capacity = 0;
  FlightRecorder::Global().Configure(off);
  SetEnabled(false);
}

// Telemetry must never change answers: every query type evaluates
// bit-identically with the whole subsystem on (flight recorder + sampler
// + registry) and off, serial and with 4 worker threads.
TEST_F(FlightSixBusTest, ResultsBitIdenticalWithTelemetryOnAndOff) {
  const std::vector<std::string> queries = {
      kInsideCount,
      "SELECT layer.Ln; FROM PietSchema; WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE PASSES THROUGH RESULT",
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus WHERE NEAR(layer.Ls, 10)",
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus WHERE T BETWEEN 3600 AND 10800",
      "SELECT layer.Ln; FROM PietSchema; WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT RATE PER HOUR FROM FMbus WHERE INSIDE RESULT "
      "AND TIME.timeOfDay = 'Morning'",
      "SELECT layer.Ln; FROM PietSchema; WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT COUNT(*) FROM FMbus WHERE INSIDE RESULT GROUP BY TIME.hour",
      "SELECT layer.Ln, layer.Lr; FROM PietSchema; "
      "WHERE INTERSECTION(layer.Ln, layer.Lr)",
  };

  auto run_all = [&](int threads) {
    core::pietql::Evaluator eval(scenario_.db.get());
    eval.set_num_threads(threads);
    std::vector<std::string> rendered;
    for (const std::string& q : queries) {
      auto r = eval.EvaluateString(q);
      EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      rendered.push_back(r.ok() ? r.ValueOrDie().ToString() : "<error>");
    }
    return rendered;
  };

  SetEnabled(false);
  const std::vector<std::string> baseline = run_all(1);
  const std::vector<std::string> baseline4 = run_all(4);

  SetEnabled(true);
  // The sampler's first tick reads the counters' whole history, so queries
  // of earlier tests in this process must not be in it.
  MetricsRegistry::Global().Reset();
  FlightRecorder::Options opts;
  opts.capacity = 16;
  opts.slow_threshold_ms = 0;
  FlightRecorder::Global().Configure(opts);
  TelemetrySampler sampler;
  sampler.Tick();
  const std::vector<std::string> telemetry1 = run_all(1);
  sampler.Tick();
  const std::vector<std::string> telemetry4 = run_all(4);
  sampler.Tick();

  EXPECT_EQ(baseline, baseline4);
  EXPECT_EQ(baseline, telemetry1);
  EXPECT_EQ(baseline, telemetry4);
  // Every query was recorded in both telemetry passes.
  EXPECT_EQ(FlightRecorder::Global().size(), 2 * queries.size());
  // The sampler saw the per-pass query count as an exact window delta.
  EXPECT_EQ(sampler.WindowDelta("pietql.queries"),
            static_cast<int64_t>(2 * queries.size()));

  FlightRecorder::Options off;
  off.capacity = 0;
  FlightRecorder::Global().Configure(off);
  SetEnabled(false);
}

TEST_F(FlightSixBusTest, PublishStorageGaugesExposesTiers) {
  SetEnabled(true);
  MetricsRegistry::Global().Reset();
  scenario_.db->PublishStorageGauges();
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  // The six-bus MOFT is resident and hot; nothing is compressed or spilled.
  EXPECT_GT(snap.gauge("db.moft.resident_bytes"), 0);
  EXPECT_EQ(snap.gauge("db.moft.compressed_bytes"), 0);
  EXPECT_EQ(snap.gauge("db.moft.spilled_bytes"), 0);
  EXPECT_EQ(snap.gauge("db.moft.live_pins"), 0);
  EXPECT_EQ(snap.gauge("db.moft.hot_tiers"), 1);
  SetEnabled(false);

  // Disabled: publishing mutates nothing, not even lazy registration.
  MetricsRegistry::Global().Reset();
  const std::string before = MetricsRegistry::Global().DumpJson();
  scenario_.db->PublishStorageGauges();
  EXPECT_EQ(MetricsRegistry::Global().DumpJson(), before);
}

}  // namespace
}  // namespace piet::obs
