#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/parallel.h"
#include "core/engine.h"
#include "core/pietql/evaluator.h"
#include "obs/metrics.h"
#include "workload/scenario.h"

namespace piet::obs {
namespace {

// Each TEST runs as its own ctest process (gtest_discover_tests), so
// toggling the process-global enable gate and resetting the registry here
// cannot leak into other tests.

TEST(ObsEnabledTest, SetEnabledWinsOverEnvironment) {
  SetEnabled(true);
  EXPECT_TRUE(Enabled());
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
  SetEnabled(true);
  EXPECT_TRUE(Enabled());
}

TEST(ObsMetricsTest, CounterGaugeHistogramBasics) {
  SetEnabled(true);
  auto& registry = MetricsRegistry::Global();
  registry.Reset();

  Counter& c = registry.GetCounter("test.counter");
  c.Add(3);
  c.Add(4);
  EXPECT_EQ(c.Value(), 7);
  // GetCounter returns the same handle for the same name.
  EXPECT_EQ(&registry.GetCounter("test.counter"), &c);

  Gauge& g = registry.GetGauge("test.gauge");
  g.Set(42);
  EXPECT_EQ(g.Value(), 42);
  g.Set(-5);
  EXPECT_EQ(g.Value(), -5);

  Histogram& h = registry.GetHistogram("test.hist");
  h.RecordNanos(500);            // Below the first bound (1us) -> bucket 0.
  h.RecordNanos(2'000);          // In (1us, 4us] -> bucket 1.
  h.RecordNanos(5'000'000'000);  // Beyond the last bound -> overflow bucket.
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.SumNanos(), 500 + 2'000 + 5'000'000'000);
  std::vector<uint64_t> buckets = h.Buckets();
  ASSERT_EQ(buckets.size(), kNumBuckets);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[kNumBuckets - 1], 1u);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("test.counter"), 7);
  EXPECT_EQ(snap.gauge("test.gauge"), -5);
  ASSERT_NE(snap.histogram("test.hist"), nullptr);
  EXPECT_EQ(snap.histogram("test.hist")->count, 3u);
  EXPECT_EQ(snap.counter("no.such.counter"), 0);
  EXPECT_EQ(snap.histogram("no.such.hist"), nullptr);

  std::string text = registry.DumpText();
  EXPECT_NE(text.find("test.counter"), std::string::npos);
  std::string json = registry.DumpJson();
  EXPECT_NE(json.find("\"test.gauge\":-5"), std::string::npos);

  registry.Reset();
  EXPECT_EQ(c.Value(), 0);           // Handles stay valid across Reset.
  EXPECT_EQ(h.Count(), 0u);
}

TEST(ObsMetricsTest, ScopedTimerRecordsOnce) {
  SetEnabled(true);
  auto& registry = MetricsRegistry::Global();
  registry.Reset();
  Histogram& h = registry.GetHistogram("test.timer");
  {
    ScopedTimer timer(&h);
  }
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_GE(h.SumNanos(), 0);
  {
    ScopedTimer noop(nullptr);  // Null histogram: the disabled path.
  }
  EXPECT_EQ(h.Count(), 1u);
}

// The satellite concurrency check: concurrent relaxed adds from the pool
// must merge to the exact total (run under TSan with PIET_THREADS=4 in CI).
TEST(ObsMetricsTest, ShardedCounterExactUnderParallelFor) {
  SetEnabled(true);
  auto& registry = MetricsRegistry::Global();
  registry.Reset();
  Counter& c = registry.GetCounter("test.sharded");
  constexpr size_t kN = 200'000;
  parallel::ParallelFor(/*threads=*/4, kN,
                        [&](size_t /*chunk*/, size_t begin, size_t end) {
                          for (size_t i = begin; i < end; ++i) {
                            c.Add(1);
                          }
                        });
  EXPECT_EQ(c.Value(), static_cast<int64_t>(kN));
}

class ObsSixBusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = workload::BuildFigure1Scenario();
    ASSERT_TRUE(scenario.ok());
    scenario_ = std::move(scenario).ValueOrDie();
  }
  workload::Figure1Scenario scenario_;
};

// Runs all eight engine query types once over the six-bus scenario.
void RunAllQueryTypes(const core::GeoOlapDatabase& db) {
  core::QueryEngine engine(&db);
  core::TimePredicate always;
  core::GeometryPredicate all = core::GeometryPredicate::All();
  ASSERT_TRUE(engine.SamplesMatchingTime("FMbus", always).ok());
  ASSERT_TRUE(
      engine.SampleRegion("FMbus", "Ln", all, always, core::Strategy::kIndexed)
          .ok());
  ASSERT_TRUE(engine.SamplesOnPolylines("FMbus", "Lr", 5.0, always).ok());
  ASSERT_TRUE(engine.SamplesNearNodes("FMbus", "Ls", 10.0, always).ok());
  ASSERT_TRUE(
      engine.SnapshotInRegion("FMbus", "Ln", all, temporal::TimePoint(7200))
          .ok());
  ASSERT_TRUE(engine.TrajectoryRegion("FMbus", "Ln", all, always).ok());
  ASSERT_TRUE(engine.TrajectoryNearNodes("FMbus", "Ls", 10.0, always).ok());
  ASSERT_TRUE(engine.TrajectoryAggregates("FMbus", "Ln", all).ok());
}

// The disabled gate means *zero* registry mutations: no counter bumps and
// no lazily-created metric entries, across a full eight-query-type run.
TEST_F(ObsSixBusTest, DisabledRunMutatesNothing) {
  SetEnabled(false);
  auto& registry = MetricsRegistry::Global();
  registry.Reset();
  const std::string before = registry.DumpJson();
  RunAllQueryTypes(*scenario_.db);
  core::pietql::Evaluator eval(scenario_.db.get());
  ASSERT_TRUE(eval.EvaluateString("SELECT layer.Ln; FROM PietSchema; "
                                  "| SELECT COUNT(*) FROM FMbus")
                  .ok());
  EXPECT_EQ(registry.DumpJson(), before);
}

// Enabled-mode counters must be exact, hand-computable values on the
// Figure 1 six-bus example — not merely positive.
TEST_F(ObsSixBusTest, EnabledCountersExactOnSixBus) {
  SetEnabled(true);
  auto& registry = MetricsRegistry::Global();
  registry.Reset();

  core::GeoOlapDatabase& db = *scenario_.db;
  const auto* moft = db.GetMoft("FMbus").ValueOrDie();
  const int64_t n = static_cast<int64_t>(moft->num_samples());
  ASSERT_GT(n, 0);

  core::QueryEngine engine(&db);
  auto table = engine.SamplesMatchingTime("FMbus", core::TimePredicate());
  ASSERT_TRUE(table.ok());
  const int64_t rows = static_cast<int64_t>(table.ValueOrDie().num_rows());

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("engine.queries"), 1);
  // Unconstrained time predicate scans every sample exactly once, and
  // every sample matches.
  EXPECT_EQ(snap.counter("engine.rows_scanned"), n);
  EXPECT_EQ(snap.counter("engine.rows_matched"), rows);
  EXPECT_EQ(rows, n);
  const HistogramData* latency =
      snap.histogram("engine.query.samples_matching_time.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 1u);

  // Classification cache: first overlay query misses, second hits.
  ASSERT_TRUE(db.BuildOverlay({"Ln"}).ok());
  auto first = db.ClassifySamples("FMbus", "Ln");
  ASSERT_TRUE(first.ok());
  auto second = db.ClassifySamples("FMbus", "Ln");
  ASSERT_TRUE(second.ok());
  snap = db.Stats();
  EXPECT_EQ(snap.counter("db.classify.cache_misses"), 1);
  EXPECT_EQ(snap.counter("db.classify.cache_hits"), 1);
  // BuildOverlay invalidated once more on top of the scenario loads done
  // before Reset, so exactly one invalidation is visible here.
  EXPECT_EQ(snap.counter("db.classify.invalidations"), 1);
  EXPECT_EQ(snap.counter("overlay.builds"), 1);
  // One point location per sample, flushed once per batch.
  EXPECT_EQ(snap.counter("overlay.locate.points"), n);

  // MOFT counters: a duplicate (oid, t) add is rejected and counted; the
  // seal on first scan is counted with the staged row count.
  moving::Moft fresh;
  ASSERT_TRUE(fresh.Add(1, temporal::TimePoint(10), {0, 0}).ok());
  ASSERT_TRUE(fresh.Add(1, temporal::TimePoint(20), {1, 1}).ok());
  ASSERT_TRUE(fresh.Add(1, temporal::TimePoint(10), {0, 0}).ok());  // Dup.
  (void)fresh.Scan();  // Forces the seal.
  snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("moft.duplicates_rejected"), 1);
  EXPECT_GE(snap.counter("moft.seals"), 1);
  EXPECT_GE(snap.counter("moft.rows_staged"), 2);
}

// A classification lives as long as the overlay, so its bytes show in the
// storage gauges: published once it is cached, unchanged by an AddMoft of
// another table, and 0 once BuildOverlay drops it.
TEST_F(ObsSixBusTest, ClassifyBytesGaugeTracksRetainedClassifications) {
  SetEnabled(true);
  core::GeoOlapDatabase& db = *scenario_.db;
  ASSERT_TRUE(db.BuildOverlay({"Ln"}).ok());
  EXPECT_EQ(db.Stats().gauge("db.classify.bytes"), 0);

  auto cls = db.ClassifySamples("FMbus", "Ln");
  ASSERT_TRUE(cls.ok());
  db.PublishStorageGauges();
  const gis::BatchHits& hits = cls.ValueOrDie()->hits;
  const int64_t bytes = db.Stats().gauge("db.classify.bytes");
  EXPECT_GT(bytes, 0);
  EXPECT_EQ(bytes, static_cast<int64_t>(
                       hits.offsets.capacity() * sizeof(uint32_t) +
                       hits.ids.capacity() * sizeof(gis::GeometryId)));

  moving::Moft other;
  ASSERT_TRUE(other.Add(1, temporal::TimePoint(0), {0, 0}).ok());
  ASSERT_TRUE(db.AddMoft("other", std::move(other)).ok());
  EXPECT_EQ(db.Stats().gauge("db.classify.bytes"), bytes);
  EXPECT_EQ(db.Stats().gauge("db.classify.entries"), 1);

  ASSERT_TRUE(db.BuildOverlay({"Ln"}).ok());
  EXPECT_EQ(db.Stats().gauge("db.classify.bytes"), 0);
  EXPECT_EQ(db.Stats().gauge("db.classify.entries"), 0);
  SetEnabled(false);
}

}  // namespace
}  // namespace piet::obs
