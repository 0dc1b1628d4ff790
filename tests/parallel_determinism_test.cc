// Determinism contract of the parallel execution layer: every parallel
// path must produce results bit-identical to `threads = 1` (the serial
// code path) for any thread count, because chunk boundaries depend only on
// the input size and per-chunk outputs merge in chunk order.
//
// Also covers the per-(MOFT, overlay-epoch) classification cache:
// ClassifySamples is served from cache on repeat, and AddMoft /
// BuildOverlay invalidate it.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "analysis/lint/query_lint.h"
#include "common/parallel.h"
#include "core/engine.h"
#include "core/pietql/evaluator.h"
#include "core/pietql/parser.h"
#include "core/pietql/printer.h"
#include "core/queries.h"
#include "gis/overlay.h"
#include "obs/metrics.h"
#include "workload/city.h"
#include "workload/scenario.h"
#include "workload/trajectories.h"

namespace piet {
namespace {

using core::GeometryPredicate;
using core::QueryEngine;
using core::Strategy;
using core::TimePredicate;
using geometry::Point;
using olap::FactTable;
using workload::City;
using workload::CityConfig;
using workload::TrajectoryConfig;

// ---------------------------------------------------------------------------
// Runtime primitives.

TEST(ParallelRuntimeTest, PlanChunksCoversRangeExactly) {
  for (size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 1000u, 4096u}) {
    parallel::ChunkPlan plan = parallel::PlanChunks(n);
    if (n == 0) {
      EXPECT_EQ(plan.num_chunks, 0u);
      continue;
    }
    ASSERT_GE(plan.num_chunks, 1u);
    ASSERT_LE(plan.num_chunks, parallel::kMaxChunks);
    size_t expect_begin = 0;
    for (size_t i = 0; i < plan.num_chunks; ++i) {
      auto [begin, end] = plan.Chunk(i);
      EXPECT_EQ(begin, expect_begin);
      EXPECT_LT(begin, end);
      expect_begin = end;
    }
    EXPECT_EQ(expect_begin, n);
  }
}

TEST(ParallelRuntimeTest, ChunkingIsThreadCountIndependent) {
  // The plan depends only on n — nothing else may shift the boundaries,
  // since the determinism contract keys on it.
  parallel::ChunkPlan a = parallel::PlanChunks(12345);
  parallel::ChunkPlan b = parallel::PlanChunks(12345);
  ASSERT_EQ(a.num_chunks, b.num_chunks);
  for (size_t i = 0; i < a.num_chunks; ++i) {
    EXPECT_EQ(a.Chunk(i), b.Chunk(i));
  }
}

TEST(ParallelRuntimeTest, ResolveThreadsPrefersExplicit) {
  EXPECT_EQ(parallel::ResolveThreads(3), 3);
  EXPECT_EQ(parallel::ResolveThreads(1), 1);
  EXPECT_GE(parallel::ResolveThreads(0), 1);  // Env var or hardware.
}

TEST(ParallelRuntimeTest, ParallelForVisitsEveryIndexOnce) {
  for (int threads : {1, 2, 4, 7}) {
    const size_t n = 997;
    std::vector<std::atomic<int>> visits(n);
    parallel::ParallelFor(threads, n,
                          [&](size_t /*chunk*/, size_t begin, size_t end) {
                            for (size_t i = begin; i < end; ++i) {
                              visits[i].fetch_add(1);
                            }
                          });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " threads "
                                     << threads;
    }
  }
}

TEST(ParallelRuntimeTest, OrderedReduceMergesInChunkOrder) {
  const size_t n = 500;
  std::vector<size_t> serial(n);
  std::iota(serial.begin(), serial.end(), 0);
  for (int threads : {1, 2, 4, 8}) {
    std::vector<size_t> merged;
    parallel::OrderedReduce<std::vector<size_t>>(
        threads, n,
        [&](size_t /*chunk*/, size_t begin, size_t end,
            std::vector<size_t>* out) {
          for (size_t i = begin; i < end; ++i) {
            out->push_back(i);
          }
        },
        [&](std::vector<size_t>&& chunk) {
          merged.insert(merged.end(), chunk.begin(), chunk.end());
        });
    EXPECT_EQ(merged, serial) << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// Overlay build + batched location.

std::shared_ptr<City> MakeCityWithCars(int threads, bool convex) {
  CityConfig config;
  config.seed = 20260807;
  config.grid_cols = 6;
  config.grid_rows = 6;
  config.nonconvex_fraction = convex ? 0.0 : 0.4;
  auto city = std::make_shared<City>(
      std::move(workload::GenerateCity(config)).ValueOrDie());
  city->db->set_num_threads(threads);

  TrajectoryConfig traj;
  traj.seed = 99;
  traj.num_objects = 40;
  traj.duration = 3600.0;
  traj.sample_period = 30.0;
  traj.speed = 12.0;
  auto moft = workload::GenerateTrajectories(*city, traj).ValueOrDie();
  EXPECT_TRUE(city->db->AddMoft("cars", std::move(moft)).ok());
  EXPECT_TRUE(
      city->db->BuildOverlay({city->neighborhoods_layer}, convex).ok());
  return city;
}

std::vector<Point> ProbeGrid(const geometry::BoundingBox& extent, int side) {
  std::vector<Point> points;
  points.reserve(static_cast<size_t>(side) * side);
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      points.emplace_back(
          extent.min_x + (extent.max_x - extent.min_x) * (c + 0.31) / side,
          extent.min_y + (extent.max_y - extent.min_y) * (r + 0.47) / side);
    }
  }
  return points;
}

TEST(OverlayParallelTest, BuildMatchesSerialForAnyThreadCount) {
  for (bool convex : {true, false}) {
    auto serial = MakeCityWithCars(1, convex);
    const gis::OverlayDb* ov1 = serial->db->overlay().ValueOrDie();
    std::vector<Point> probes = ProbeGrid(serial->extent, 20);
    for (int threads : {2, 4}) {
      auto parallel_city = MakeCityWithCars(threads, convex);
      const gis::OverlayDb* ovN = parallel_city->db->overlay().ValueOrDie();
      ASSERT_EQ(ov1->num_cells(), ovN->num_cells()) << "threads " << threads;
      for (const Point& p : probes) {
        gis::OverlayHit a = ov1->Locate(p);
        gis::OverlayHit b = ovN->Locate(p);
        ASSERT_EQ(a.per_layer, b.per_layer)
            << "convex=" << convex << " threads=" << threads << " at ("
            << p.x << "," << p.y << ")";
      }
    }
  }
}

TEST(OverlayParallelTest, LocateBatchMatchesPerPointLocate) {
  auto city = MakeCityWithCars(1, /*convex=*/true);
  const gis::OverlayDb* ov = city->db->overlay().ValueOrDie();
  std::vector<Point> probes = ProbeGrid(city->extent, 17);

  gis::BatchHits serial_hits = ov->LocateBatch(probes, 0, 1);
  ASSERT_EQ(serial_hits.offsets.size(), probes.size() + 1);
  for (size_t i = 0; i < probes.size(); ++i) {
    gis::OverlayHit one = ov->Locate(probes[i]);
    std::vector<gis::GeometryId> batch(
        serial_hits.ids.begin() + serial_hits.offsets[i],
        serial_hits.ids.begin() + serial_hits.offsets[i + 1]);
    ASSERT_EQ(batch, one.per_layer[0]) << "point " << i;
  }

  for (int threads : {2, 4, 8}) {
    gis::BatchHits par = ov->LocateBatch(probes, 0, threads);
    EXPECT_EQ(par.offsets, serial_hits.offsets) << "threads " << threads;
    EXPECT_EQ(par.ids, serial_hits.ids) << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// Engine: every query type, threads=1 vs threads=N, identical relations.

void ExpectSameTable(const Result<FactTable>& a, const Result<FactTable>& b,
                     const char* what) {
  ASSERT_TRUE(a.ok()) << what << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << what << ": " << b.status().ToString();
  const FactTable& ta = a.ValueOrDie();
  const FactTable& tb = b.ValueOrDie();
  ASSERT_EQ(ta.num_rows(), tb.num_rows()) << what;
  EXPECT_EQ(ta.rows(), tb.rows()) << what;
}

class EngineDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serial_ = MakeCityWithCars(1, /*convex=*/true);
    parallel_ = MakeCityWithCars(4, /*convex=*/true);
  }

  std::shared_ptr<City> serial_;
  std::shared_ptr<City> parallel_;
};

TEST_F(EngineDeterminismTest, AllQueryTypesMatchSerial) {
  QueryEngine e1(serial_->db.get());
  e1.set_num_threads(1);
  QueryEngine e4(parallel_->db.get());
  e4.set_num_threads(4);

  GeometryPredicate low = GeometryPredicate::AttributeLess("income", 1500.0);
  TimePredicate morning = TimePredicate().HourRange(0, 0);
  TimePredicate any;

  // Type 3: samples by time only.
  ExpectSameTable(e1.SamplesMatchingTime("cars", morning),
                  e4.SamplesMatchingTime("cars", morning),
                  "SamplesMatchingTime");

  // Type 4: sample/region under every strategy (incl. the cached overlay
  // classification), plus polyline and node proximity variants.
  for (Strategy s :
       {Strategy::kNaive, Strategy::kIndexed, Strategy::kOverlay}) {
    ExpectSameTable(
        e1.SampleRegion("cars", serial_->neighborhoods_layer, low, any, s),
        e4.SampleRegion("cars", parallel_->neighborhoods_layer, low, any, s),
        core::StrategyToString(s).data());
    // Second round hits the classification cache under kOverlay; results
    // must not change.
    ExpectSameTable(
        e1.SampleRegion("cars", serial_->neighborhoods_layer, low, any, s),
        e4.SampleRegion("cars", parallel_->neighborhoods_layer, low, any, s),
        "SampleRegion cached");
  }
  EXPECT_EQ(e1.stats().samples_scanned, e4.stats().samples_scanned);
  EXPECT_EQ(e1.stats().point_tests, e4.stats().point_tests);

  ExpectSameTable(e1.SamplesOnPolylines("cars", serial_->streets_layer, 2.0,
                                        any),
                  e4.SamplesOnPolylines("cars", parallel_->streets_layer,
                                        2.0, any),
                  "SamplesOnPolylines");
  ExpectSameTable(
      e1.SamplesNearNodes("cars", serial_->schools_layer, 25.0, any),
      e4.SamplesNearNodes("cars", parallel_->schools_layer, 25.0, any),
      "SamplesNearNodes");

  // Type 6: interpolated snapshot.
  temporal::TimePoint mid(1800.0);
  ExpectSameTable(
      e1.SnapshotInRegion("cars", serial_->neighborhoods_layer, low, mid),
      e4.SnapshotInRegion("cars", parallel_->neighborhoods_layer, low, mid),
      "SnapshotInRegion");

  // Type 7: interpolated intervals, region and node proximity.
  ExpectSameTable(
      e1.TrajectoryRegion("cars", serial_->neighborhoods_layer, low, any),
      e4.TrajectoryRegion("cars", parallel_->neighborhoods_layer, low, any),
      "TrajectoryRegion");
  ExpectSameTable(
      e1.TrajectoryNearNodes("cars", serial_->stops_layer, 30.0, any),
      e4.TrajectoryNearNodes("cars", parallel_->stops_layer, 30.0, any),
      "TrajectoryNearNodes");

  // Type 8: per-object trajectory aggregates.
  ExpectSameTable(
      e1.TrajectoryAggregates("cars", serial_->neighborhoods_layer, low),
      e4.TrajectoryAggregates("cars", parallel_->neighborhoods_layer, low),
      "TrajectoryAggregates");

  // Object-set queries (always-within, possibly-within).
  for (bool traj : {false, true}) {
    auto a = e1.ObjectsAlwaysWithin("cars", serial_->neighborhoods_layer,
                                    low, any, traj);
    auto b = e4.ObjectsAlwaysWithin("cars", parallel_->neighborhoods_layer,
                                    low, any, traj);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.ValueOrDie(), b.ValueOrDie()) << "traj=" << traj;
  }
  auto p1 = e1.ObjectsPossiblyWithin("cars", serial_->neighborhoods_layer,
                                     low, 50.0);
  auto p4 = e4.ObjectsPossiblyWithin("cars", parallel_->neighborhoods_layer,
                                     low, 50.0);
  ASSERT_TRUE(p1.ok() && p4.ok());
  EXPECT_EQ(p1.ValueOrDie(), p4.ValueOrDie());
}

TEST_F(EngineDeterminismTest, HighLevelQueriesMatchSerial) {
  QueryEngine e1(serial_->db.get());
  e1.set_num_threads(1);
  QueryEngine e4(parallel_->db.get());
  e4.set_num_threads(4);
  GeometryPredicate low = GeometryPredicate::AttributeLess("income", 1500.0);

  auto r1 = core::queries::CountPerHourInRegion(e1, "cars",
                                          serial_->neighborhoods_layer, low,
                                          TimePredicate(), Strategy::kOverlay);
  auto r4 = core::queries::CountPerHourInRegion(e4, "cars",
                                          parallel_->neighborhoods_layer, low,
                                          TimePredicate(), Strategy::kOverlay);
  ASSERT_TRUE(r1.ok() && r4.ok());
  EXPECT_EQ(r1.ValueOrDie().tuple_count, r4.ValueOrDie().tuple_count);
  EXPECT_EQ(r1.ValueOrDie().hour_count, r4.ValueOrDie().hour_count);
  EXPECT_DOUBLE_EQ(r1.ValueOrDie().per_hour, r4.ValueOrDie().per_hour);

  auto t1 = core::queries::AggregateTrajectories(e1, "cars",
                                           serial_->neighborhoods_layer, low);
  auto t4 = core::queries::AggregateTrajectories(
      e4, "cars", parallel_->neighborhoods_layer, low);
  ASSERT_TRUE(t1.ok() && t4.ok());
  EXPECT_DOUBLE_EQ(t1.ValueOrDie().total_distance,
                   t4.ValueOrDie().total_distance);
  EXPECT_DOUBLE_EQ(t1.ValueOrDie().total_seconds,
                   t4.ValueOrDie().total_seconds);
  EXPECT_EQ(t1.ValueOrDie().total_visits, t4.ValueOrDie().total_visits);
}

// ---------------------------------------------------------------------------
// Piet-QL evaluator: full query strings, threads=1 vs threads=4.

TEST(EvaluatorDeterminismTest, QueryResultsMatchSerial) {
  auto scenario1 = workload::BuildFigure1Scenario().ValueOrDie();
  auto scenario4 = workload::BuildFigure1Scenario().ValueOrDie();
  ASSERT_TRUE(
      scenario1.db->BuildOverlay({scenario1.neighborhoods_layer}).ok());
  scenario4.db->set_num_threads(4);
  ASSERT_TRUE(
      scenario4.db->BuildOverlay({scenario4.neighborhoods_layer}).ok());

  core::pietql::Evaluator e1(scenario1.db.get());
  e1.set_num_threads(1);
  core::pietql::Evaluator e4(scenario4.db.get());
  e4.set_num_threads(4);

  const char* kQueries[] = {
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT RATE PER HOUR FROM FMbus "
      "WHERE INSIDE RESULT AND TIME.timeOfDay = 'Morning' ",
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE INSIDE RESULT",
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE PASSES THROUGH RESULT",
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus WHERE NEAR(layer.Ls, 10)",
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus",
  };
  for (const char* q : kQueries) {
    auto a = e1.EvaluateString(q);
    auto b = e4.EvaluateString(q);
    ASSERT_TRUE(a.ok()) << q << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << q << ": " << b.status().ToString();
    EXPECT_EQ(a.ValueOrDie().geometry_ids, b.ValueOrDie().geometry_ids) << q;
    EXPECT_EQ(a.ValueOrDie().scalar.has_value(),
              b.ValueOrDie().scalar.has_value())
        << q;
    if (a.ValueOrDie().scalar && b.ValueOrDie().scalar) {
      EXPECT_EQ(*a.ValueOrDie().scalar, *b.ValueOrDie().scalar) << q;
    }
    ASSERT_EQ(a.ValueOrDie().table.has_value(),
              b.ValueOrDie().table.has_value())
        << q;
    if (a.ValueOrDie().table && b.ValueOrDie().table) {
      EXPECT_EQ(a.ValueOrDie().table->rows(), b.ValueOrDie().table->rows())
          << q;
    }
  }
}

// The linter stage must be unobservable when off: these are the rendered
// results of all eight query shapes captured before the linter and its
// fix-its existed. Any drift here means the off path is no longer
// byte-identical.
TEST(EvaluatorDeterminismTest, OffModeMatchesFrozenBaselines) {
  auto scenario = workload::BuildFigure1Scenario().ValueOrDie();
  ASSERT_TRUE(scenario.db->BuildOverlay({scenario.neighborhoods_layer}).ok());
  core::pietql::Evaluator off(scenario.db.get());  // Defaults to kOff.

  const struct {
    const char* query;
    const char* expected;
  } kBaselines[] = {
      {"SELECT layer.Ln; FROM PietSchema; "
       "WHERE ATTR(layer.Ln, income) < 1500 "
       "| SELECT RATE PER HOUR FROM FMbus "
       "WHERE INSIDE RESULT AND TIME.timeOfDay = 'Morning'",
       "result layer 'Ln': 1 geometries; aggregate = 1.33333"},
      {"SELECT layer.Ln; FROM PietSchema; "
       "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE INSIDE RESULT",
       "result layer 'Ln': 6 geometries; aggregate = 6"},
      {"SELECT layer.Ln; FROM PietSchema; "
       "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE PASSES THROUGH RESULT",
       "result layer 'Ln': 6 geometries; aggregate = 6"},
      {"SELECT layer.Ln; FROM PietSchema; "
       "| SELECT COUNT(*) FROM FMbus WHERE NEAR(layer.Ls, 10)",
       "result layer 'Ln': 6 geometries; aggregate = 3"},
      {"SELECT layer.Ln; FROM PietSchema; "
       "| SELECT COUNT(*) FROM FMbus",
       "result layer 'Ln': 6 geometries; aggregate = 12"},
      {"SELECT layer.Ln; FROM PietSchema; "
       "| SELECT COUNT(*) FROM FMbus "
       "WHERE T BETWEEN 189493200 AND 189500000",
       "result layer 'Ln': 6 geometries; aggregate = 4"},
      {"SELECT layer.Ln; FROM PietSchema; "
       "WHERE ATTR(layer.Ln, income) < 1500 "
       "| SELECT RATE PER HOUR FROM FMbus WHERE INSIDE RESULT "
       "GROUP BY TIME.hour",
       "result layer 'Ln': 1 geometries\n"
       "hour | value\n"
       "5 | 1\n"
       "6 | 1\n"
       "7 | 2\n"
       "8 | 1\n"},
      {"SELECT layer.Ln, layer.Lr; FROM PietSchema; "
       "WHERE INTERSECTION(layer.Ln, layer.Lr)",
       "result layer 'Ln': 5 geometries"},
  };
  // Each query's fix-it (FixQuery's edit printed back to Piet-QL) must hit
  // the exact same frozen strings: every fix is result-preserving by
  // contract.
  analysis::QueryContext context;
  context.gis = &scenario.db->gis();
  for (const auto& baseline : kBaselines) {
    auto result = off.EvaluateString(baseline.query);
    ASSERT_TRUE(result.ok())
        << baseline.query << ": " << result.status().ToString();
    EXPECT_EQ(result.ValueOrDie().ToString(), baseline.expected)
        << baseline.query;
    EXPECT_TRUE(result.ValueOrDie().diagnostics.empty()) << baseline.query;

    auto parsed = core::pietql::Parse(baseline.query);
    ASSERT_TRUE(parsed.ok()) << baseline.query;
    const std::string fixed = core::pietql::Print(
        analysis::lint::FixQuery(context, parsed.ValueOrDie()).query);
    auto rewritten = off.EvaluateString(fixed);
    ASSERT_TRUE(rewritten.ok())
        << fixed << ": " << rewritten.status().ToString();
    EXPECT_EQ(rewritten.ValueOrDie().ToString(), baseline.expected) << fixed;
  }
}

// ---------------------------------------------------------------------------
// Classification cache lifecycle.

TEST(ClassificationCacheTest, CachesAndInvalidates) {
  auto city = MakeCityWithCars(2, /*convex=*/true);
  core::GeoOlapDatabase* db = city->db.get();
  EXPECT_EQ(db->classification_cache_size(), 0u);
  uint64_t epoch0 = db->overlay_epoch();

  auto a = db->ClassifySamples("cars", city->neighborhoods_layer);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(db->classification_cache_size(), 1u);
  EXPECT_EQ(a.ValueOrDie()->epoch, epoch0);
  EXPECT_EQ(db->GetMoft("cars").ValueOrDie()->num_samples() + 1,
            a.ValueOrDie()->hits.offsets.size());

  // Repeat is served from cache: same shared block, same size.
  auto b = db->ClassifySamples("cars", city->neighborhoods_layer);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie().get(), b.ValueOrDie().get());
  EXPECT_EQ(db->classification_cache_size(), 1u);

  // AddMoft of another table keeps the entry: registered MOFTs are
  // immutable, so "cars" is served the same block without a miss and the
  // epoch stays.
  obs::SetEnabled(true);
  auto& registry = obs::MetricsRegistry::Global();
  TrajectoryConfig traj;
  traj.seed = 123;
  traj.num_objects = 3;
  traj.duration = 600.0;
  auto moft = workload::GenerateTrajectories(*city, traj).ValueOrDie();
  ASSERT_TRUE(db->AddMoft("bikes", std::move(moft)).ok());
  EXPECT_EQ(db->classification_cache_size(), 1u);
  EXPECT_EQ(db->overlay_epoch(), epoch0);
  const int64_t misses0 =
      registry.Snapshot().counter("db.classify.cache_misses");
  auto kept = db->ClassifySamples("cars", city->neighborhoods_layer);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.ValueOrDie().get(), a.ValueOrDie().get());
  EXPECT_EQ(registry.Snapshot().counter("db.classify.cache_misses"), misses0);

  // Classify the new table, then BuildOverlay invalidates both entries
  // once.
  ASSERT_TRUE(db->ClassifySamples("bikes", city->neighborhoods_layer).ok());
  EXPECT_EQ(db->classification_cache_size(), 2u);
  uint64_t epoch1 = db->overlay_epoch();
  const int64_t invalidations0 =
      registry.Snapshot().counter("db.classify.invalidations");
  ASSERT_TRUE(db->BuildOverlay({city->neighborhoods_layer}).ok());
  EXPECT_EQ(db->classification_cache_size(), 0u);
  EXPECT_GT(db->overlay_epoch(), epoch1);
  EXPECT_EQ(registry.Snapshot().counter("db.classify.invalidations"),
            invalidations0 + 1);
  obs::SetEnabled(false);

  // A stale handle taken before invalidation stays readable (shared_ptr),
  // but a fresh call recomputes at the new epoch.
  auto c = db->ClassifySamples("cars", city->neighborhoods_layer);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.ValueOrDie().get(), c.ValueOrDie().get());
  EXPECT_GT(c.ValueOrDie()->epoch, a.ValueOrDie()->epoch);
  EXPECT_EQ(a.ValueOrDie()->hits.ids, c.ValueOrDie()->hits.ids);
}

}  // namespace
}  // namespace piet
