// The materialized (hit set × hour bucket) aggregate cache: build
// invariants, the bit-identical-to-uncached serving contract (the
// exactness rule) across the engine helpers and the Piet-QL evaluator,
// epoch invalidation alongside the classification cache, entries that
// survive storage-tier swaps, decode failures, move semantics, and the
// observability surface (counters + the EXPLAIN ANALYZE agg_cache span).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/aggcache/agg_cache.h"
#include "core/database.h"
#include "core/engine.h"
#include "core/pietql/evaluator.h"
#include "core/queries.h"
#include "geometry/polygon.h"
#include "gis/overlay.h"
#include "moving/block_store.h"
#include "moving/moft.h"
#include "moving_test_util.h"
#include "obs/metrics.h"
#include "temporal/calendar.h"
#include "workload/city.h"
#include "workload/trajectories.h"

namespace piet {
namespace {

using core::GeometryPredicate;
using core::QueryEngine;
using core::Strategy;
using core::TimePredicate;
using core::aggcache::AggCacheEntry;
using core::aggcache::AggCacheMode;
using geometry::MakeRectangle;
using geometry::Point;
using moving::ObjectId;
using temporal::Interval;
using temporal::TimePoint;
using workload::City;
using workload::CityConfig;
using workload::TrajectoryConfig;

// Two-hour trajectory set over a 6x6 neighborhood grid, so the cache sees
// three hour buckets (0, 3600, 7200 — the last holding only the final
// sample of each object).
std::shared_ptr<City> MakeCity(int threads, bool convex) {
  CityConfig config;
  config.seed = 20260810;
  config.grid_cols = 6;
  config.grid_rows = 6;
  config.nonconvex_fraction = convex ? 0.0 : 0.4;
  auto city = std::make_shared<City>(
      std::move(workload::GenerateCity(config)).ValueOrDie());
  city->db->set_num_threads(threads);

  TrajectoryConfig traj;
  traj.seed = 77;
  traj.num_objects = 40;
  traj.duration = 7200.0;
  traj.sample_period = 60.0;
  traj.speed = 12.0;
  auto moft = workload::GenerateTrajectories(*city, traj).ValueOrDie();
  EXPECT_TRUE(city->db->AddMoft("cars", std::move(moft)).ok());
  EXPECT_TRUE(
      city->db->BuildOverlay({city->neighborhoods_layer}, convex).ok());
  return city;
}

// The time predicates the property tests sweep: unconstrained, windows
// that are bucket-aligned / fringe-only / spanning with fringes on both
// ends, an hour-of-day range, an hour-constant rollup, a sub-hour rollup
// (must fall back), and a window+range conjunction.
std::vector<std::pair<std::string, TimePredicate>> SweepWhens() {
  std::vector<std::pair<std::string, TimePredicate>> whens;
  whens.emplace_back("unconstrained", TimePredicate());
  whens.emplace_back("aligned_window",
                     TimePredicate().Window(Interval(TimePoint(0),
                                                     TimePoint(3600))));
  whens.emplace_back("fringe_window",
                     TimePredicate().Window(Interval(TimePoint(1700.25),
                                                     TimePoint(1900.75))));
  whens.emplace_back("spanning_window",
                     TimePredicate().Window(Interval(TimePoint(100),
                                                     TimePoint(7250))));
  whens.emplace_back("hour_range", TimePredicate().HourRange(0, 0));
  whens.emplace_back("night_rollup",
                     TimePredicate().RollupEquals("timeOfDay",
                                                  Value("Night")));
  whens.emplace_back("morning_rollup",  // No data: every bucket skips.
                     TimePredicate().RollupEquals("timeOfDay",
                                                  Value("Morning")));
  whens.emplace_back("minute_rollup",  // Sub-hour: cache must fall back.
                     TimePredicate().RollupEquals("minute", Value(0)));
  whens.emplace_back(
      "window_and_range",
      TimePredicate().Window(Interval(TimePoint(100), TimePoint(7250)))
          .HourRange(1, 1));
  return whens;
}

// ---------------------------------------------------------------------------
// TimePredicate helpers the bucket classification builds on.

TEST(TimePredicateCacheTest, MatchesIgnoringWindowDropsOnlyTheWindow) {
  temporal::TimeDimension dim;
  TimePredicate pred;
  pred.Window(Interval(TimePoint(0), TimePoint(10)));
  pred.RollupEquals("timeOfDay", Value("Night"));
  // 5000s = 01:23 — Night, but far outside the window.
  EXPECT_FALSE(pred.Matches(dim, TimePoint(5000)));
  EXPECT_TRUE(pred.MatchesIgnoringWindow(dim, TimePoint(5000)));
  // 30000s = 08:20 — Morning: both reject.
  EXPECT_FALSE(pred.Matches(dim, TimePoint(30000)));
  EXPECT_FALSE(pred.MatchesIgnoringWindow(dim, TimePoint(30000)));
}

TEST(TimePredicateCacheTest, SubHourRollupDetection) {
  EXPECT_FALSE(TimePredicate().has_sub_hour_rollup());
  EXPECT_FALSE(TimePredicate()
                   .RollupEquals("timeOfDay", Value("Night"))
                   .has_sub_hour_rollup());
  EXPECT_FALSE(TimePredicate()
                   .RollupEquals("hour", Value(0))
                   .has_sub_hour_rollup());
  EXPECT_TRUE(TimePredicate()
                  .RollupEquals("minute", Value(0))
                  .has_sub_hour_rollup());
  EXPECT_TRUE(TimePredicate()
                  .RollupEquals("timeId", Value(0.0))
                  .has_sub_hour_rollup());
}

TEST(TimePredicateCacheTest, HourBucketKeyIsSharedWithTheTimeDimension) {
  temporal::TimeDimension dim;
  for (double t : {0.0, 1.0, 3599.999, 3600.0, 7199.5, 86400.0 * 3 + 42}) {
    auto rollup = dim.Rollup("hourBucket", TimePoint(t));
    ASSERT_TRUE(rollup.ok());
    EXPECT_EQ(rollup.ValueOrDie(),
              Value(temporal::HourBucketKey(TimePoint(t))));
  }
}

// ---------------------------------------------------------------------------
// Build invariants.

/// The entry the database builds for (cars, neighborhoods).
std::shared_ptr<const AggCacheEntry> CarsEntry(const City& city) {
  auto entry = city.db->AggCache("cars", city.neighborhoods_layer);
  EXPECT_TRUE(entry.ok()) << entry.status().ToString();
  return entry.ok() ? entry.ValueOrDie() : nullptr;
}

TEST(AggCacheBuildTest, GroupsPartitionRowsAndOidsAreExact) {
  for (bool convex : {true, false}) {
    auto city = MakeCity(1, convex);
    const moving::Moft* moft = city->db->GetMoft("cars").ValueOrDie();
    std::shared_ptr<const AggCacheEntry> entry = CarsEntry(*city);
    ASSERT_NE(entry, nullptr);

    EXPECT_EQ(entry->num_rows(), moft->num_samples());
    EXPECT_TRUE(std::is_sorted(entry->buckets().begin(),
                               entry->buckets().end()));
    // Every bucket key is hour-aligned and equals HourBucketKey of itself.
    for (int64_t b : entry->buckets()) {
      EXPECT_EQ(b % 3600, 0) << "bucket " << b;
    }

    size_t grouped = 0;
    const AggCacheEntry::Group* prev = nullptr;
    for (const AggCacheEntry::Group& g : entry->groups()) {
      ASSERT_LT(g.hit_set, entry->num_hit_sets());
      EXPECT_TRUE(std::binary_search(entry->buckets().begin(),
                                     entry->buckets().end(), g.bucket));
      if (prev != nullptr) {  // Keys strictly ascend: one group per key.
        EXPECT_TRUE(std::make_pair(prev->hit_set, prev->bucket) <
                    std::make_pair(g.hit_set, g.bucket));
      }
      prev = &g;
      grouped += g.samples;

      std::vector<ObjectId> oids;
      entry->AppendGroupOids(g, &oids);
      ASSERT_FALSE(oids.empty());
      EXPECT_LE(oids.size(), g.samples);
      EXPECT_TRUE(std::is_sorted(oids.begin(), oids.end()));
      EXPECT_TRUE(std::adjacent_find(oids.begin(), oids.end()) ==
                  oids.end());
    }
    // The groups partition the rows.
    EXPECT_EQ(grouped, entry->num_rows());

    // The builder measured both distinct-Oid representations and chose
    // the smaller one.
    EXPECT_GT(entry->bytes_sorted_sets(), 0u);
    EXPECT_GT(entry->bytes_bitmap(), 0u);
    EXPECT_EQ(entry->uses_bitmap(),
              entry->bytes_bitmap() < entry->bytes_sorted_sets());
    EXPECT_GT(entry->memory_bytes(), 0u);
  }
}

// The classification fans out over the pool; the entry built over it is
// the same for every thread count.
TEST(AggCacheBuildTest, BuildIsThreadCountIndependent) {
  auto serial_city = MakeCity(1, /*convex=*/true);
  std::shared_ptr<const AggCacheEntry> serial = CarsEntry(*serial_city);
  ASSERT_NE(serial, nullptr);
  for (int threads : {2, 4}) {
    auto city = MakeCity(threads, /*convex=*/true);
    std::shared_ptr<const AggCacheEntry> parallel = CarsEntry(*city);
    ASSERT_NE(parallel, nullptr);
    ASSERT_EQ(parallel->buckets(), serial->buckets()) << "threads " << threads;
    ASSERT_EQ(parallel->num_hit_sets(), serial->num_hit_sets());
    ASSERT_EQ(parallel->num_groups(), serial->num_groups());
    EXPECT_EQ(parallel->uses_bitmap(), serial->uses_bitmap());
    for (size_t i = 0; i < serial->num_groups(); ++i) {
      const AggCacheEntry::Group& a = serial->groups()[i];
      const AggCacheEntry::Group& b = parallel->groups()[i];
      ASSERT_EQ(a.hit_set, b.hit_set);
      ASSERT_EQ(a.bucket, b.bucket);
      ASSERT_EQ(a.samples, b.samples);
      std::vector<ObjectId> oa;
      std::vector<ObjectId> ob;
      serial->AppendGroupOids(a, &oa);
      parallel->AppendGroupOids(b, &ob);
      ASSERT_EQ(oa, ob);
    }
  }
}

// A sample on the edge of two wanted polygons is one sample of the region;
// a sample on a wanted/unwanted edge is inside the wanted one. Both hold
// for full buckets (partials) and fringe buckets (block walk) alike.
TEST(AggCacheBuildTest, SharedBorderSamplesCountOnceAndAsMembers) {
  gis::Layer halves("halves", gis::GeometryKind::kPolygon);
  (void)halves.AddPolygon(MakeRectangle(0, 0, 50, 100));   // id 0
  (void)halves.AddPolygon(MakeRectangle(50, 0, 100, 100));  // id 1
  auto overlay = gis::OverlayDb::BuildConvex({&halves});
  ASSERT_TRUE(overlay.ok()) << overlay.status().ToString();

  moving::Moft moft;
  // Object 1: interior-left, border, interior-right (all bucket 0).
  ASSERT_TRUE(moft.Add(1, TimePoint(10), Point(25, 40)).ok());
  ASSERT_TRUE(moft.Add(1, TimePoint(20), Point(50, 40)).ok());
  ASSERT_TRUE(moft.Add(1, TimePoint(30), Point(75, 40)).ok());
  // Object 2: border-only, in bucket 3600.
  ASSERT_TRUE(moft.Add(2, TimePoint(3700), Point(50, 60)).ok());
  // Object 3: outside the overlay entirely.
  ASSERT_TRUE(moft.Add(3, TimePoint(40), Point(500, 500)).ok());

  // The classification GeoOlapDatabase::ClassifySamples computes.
  std::vector<Point> points;
  for (const moving::Sample& s : moving::AllSamplesOf(moft)) {
    points.push_back(s.pos);
  }
  auto cls = std::make_shared<core::SampleClassification>();
  cls->hits = overlay.ValueOrDie().LocateBatch(points, 0, 1);
  auto built = AggCacheEntry::Build(moft, cls);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const AggCacheEntry& entry = built.ValueOrDie();
  EXPECT_EQ(entry.num_rows(), 5u);

  temporal::TimeDimension dim;
  const std::vector<uint8_t> left_only = {1, 0};
  const std::vector<uint8_t> both = {1, 1};
  // Fringe-only: the window clips both buckets.
  const TimePredicate fringe =
      TimePredicate().Window(Interval(TimePoint(5), TimePoint(3750)));
  for (const TimePredicate& when : {TimePredicate(), fringe}) {
    const bool clipped = when.window().has_value();
    auto left = entry.RegionAggregates(left_only, when, dim);
    ASSERT_TRUE(left.ok()) << left.status().ToString();
    EXPECT_EQ(left.ValueOrDie().stats.fringe_buckets, clipped ? 2u : 0u);
    // Bucket 0: interior-left + border sample of object 1 = 2 member
    // samples; bucket 3600: the border-only sample of object 2.
    const core::gamma::State& l = left.ValueOrDie().per_bucket;
    ASSERT_EQ(l.size(), 2u);
    EXPECT_EQ(l.at(0).samples, 2);
    EXPECT_EQ(l.at(0).oids, (std::vector<ObjectId>{1}));
    EXPECT_EQ(l.at(3600).samples, 1);
    EXPECT_EQ(l.at(3600).oids, (std::vector<ObjectId>{2}));

    auto all = entry.RegionAggregates(both, when, dim);
    ASSERT_TRUE(all.ok());
    const core::gamma::State& a = all.ValueOrDie().per_bucket;
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a.at(0).samples, 3);  // The border sample once; 3 stays out.
    EXPECT_EQ(a.at(0).oids, (std::vector<ObjectId>{1}));
    EXPECT_EQ(a.at(3600).samples, 1);

    // Always-within under sample semantics: objects 1 and 2 never leave
    // the union; object 3 has only an outside sample.
    auto always = entry.ObjectsAlwaysWithin(both, when, dim);
    ASSERT_TRUE(always.ok());
    EXPECT_EQ(always.ValueOrDie().oids, (std::vector<ObjectId>{1, 2}));
    // The left half alone: object 1 crosses into the right half.
    always = entry.ObjectsAlwaysWithin(left_only, when, dim);
    ASSERT_TRUE(always.ok());
    EXPECT_EQ(always.ValueOrDie().oids, (std::vector<ObjectId>{2}));
  }
}

// ---------------------------------------------------------------------------
// Database cache: invalidation epochs + move semantics.

TEST(DatabaseAggCacheTest, ServedFromCacheAndInvalidatedByLoads) {
  auto city = MakeCity(1, /*convex=*/true);
  core::GeoOlapDatabase& db = *city->db;

  auto first = db.AggCache("cars", city->neighborhoods_layer);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(db.agg_cache_size(), 1u);
  EXPECT_EQ(first.ValueOrDie()->database_epoch(), db.overlay_epoch());

  auto second = db.AggCache("cars", city->neighborhoods_layer);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.ValueOrDie().get(), second.ValueOrDie().get())
      << "repeat lookups must share the cached entry";

  // AddMoft of another table keeps the entry: "cars" is unchanged and
  // the overlay epoch stays.
  const uint64_t epoch0 = db.overlay_epoch();
  moving::Moft other;
  ASSERT_TRUE(other.Add(1, TimePoint(0), Point(1, 1)).ok());
  ASSERT_TRUE(db.AddMoft("other", std::move(other)).ok());
  EXPECT_EQ(db.agg_cache_size(), 1u);
  EXPECT_EQ(db.overlay_epoch(), epoch0);
  auto kept = db.AggCache("cars", city->neighborhoods_layer);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.ValueOrDie().get(), first.ValueOrDie().get());

  // BuildOverlay invalidates (the overlay changed); the next lookup
  // rebuilds at the new epoch.
  ASSERT_TRUE(db.BuildOverlay({city->neighborhoods_layer}, true).ok());
  EXPECT_EQ(db.agg_cache_size(), 0u);
  EXPECT_GT(db.overlay_epoch(), epoch0);
  auto rebuilt = db.AggCache("cars", city->neighborhoods_layer);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(db.agg_cache_size(), 1u);
  EXPECT_EQ(rebuilt.ValueOrDie()->database_epoch(), db.overlay_epoch());
  EXPECT_NE(rebuilt.ValueOrDie().get(), first.ValueOrDie().get());
  ASSERT_TRUE(db.BuildOverlay({city->neighborhoods_layer}, true).ok());
  EXPECT_EQ(db.agg_cache_size(), 0u);

  // Unknown pairs fail without inserting.
  EXPECT_FALSE(db.AggCache("nope", city->neighborhoods_layer).ok());
  EXPECT_EQ(db.agg_cache_size(), 0u);
}

TEST(DatabaseAggCacheTest, MoveCarriesTheCache) {
  auto city = MakeCity(1, /*convex=*/true);
  auto entry = city->db->AggCache("cars", city->neighborhoods_layer);
  ASSERT_TRUE(entry.ok());
  ASSERT_EQ(city->db->agg_cache_size(), 1u);

  // Move construction: the entry travels with the database (the PR 4
  // classify-cache regression pattern).
  core::GeoOlapDatabase moved(std::move(*city->db));
  EXPECT_EQ(moved.agg_cache_size(), 1u);
  auto from_moved = moved.AggCache("cars", city->neighborhoods_layer);
  ASSERT_TRUE(from_moved.ok());
  EXPECT_EQ(from_moved.ValueOrDie().get(), entry.ValueOrDie().get());

  // Move assignment.
  auto other_city = MakeCity(1, /*convex=*/true);
  *other_city->db = std::move(moved);
  EXPECT_EQ(other_city->db->agg_cache_size(), 1u);
  auto from_assigned =
      other_city->db->AggCache("cars", other_city->neighborhoods_layer);
  ASSERT_TRUE(from_assigned.ok());
  EXPECT_EQ(from_assigned.ValueOrDie().get(), entry.ValueOrDie().get());
}

// ---------------------------------------------------------------------------
// The exactness contract: cached answers bit-identical to uncached, for
// every query helper, predicate, time predicate, overlay kind, and thread
// count.

TEST(AggCacheEquivalenceTest, EngineHelpersMatchUncachedBitForBit) {
  for (bool convex : {true, false}) {
    auto city = MakeCity(1, convex);
    const auto whens = SweepWhens();
    const std::vector<std::pair<std::string, GeometryPredicate>> preds = {
        {"low_income", GeometryPredicate::AttributeLess("income", 1500.0)},
        {"all", GeometryPredicate::All()},
        {"none", GeometryPredicate::AttributeGreater("income", 1e9)},
    };
    for (int threads : {1, 4}) {
      city->db->set_num_threads(threads);
      QueryEngine off(city->db.get());
      off.set_agg_cache_mode(AggCacheMode::kOff);
      off.set_num_threads(threads);
      QueryEngine on(city->db.get());
      on.set_agg_cache_mode(AggCacheMode::kOn);
      on.set_num_threads(threads);

      for (const auto& [wname, when] : whens) {
        const std::string tag = std::string(convex ? "convex" : "quadtree") +
                                "/" + wname + "/t" +
                                std::to_string(threads);
        for (const auto& [pname, pred] : preds) {
          auto a = core::queries::CountPerHourInRegion(
              off, "cars", city->neighborhoods_layer, pred, when,
              Strategy::kOverlay);
          auto b = core::queries::CountPerHourInRegion(
              on, "cars", city->neighborhoods_layer, pred, when,
              Strategy::kOverlay);
          ASSERT_TRUE(a.ok()) << tag << ": " << a.status().ToString();
          ASSERT_TRUE(b.ok()) << tag << ": " << b.status().ToString();
          EXPECT_EQ(a.ValueOrDie().tuple_count, b.ValueOrDie().tuple_count)
              << tag << "/" << pname;
          EXPECT_EQ(a.ValueOrDie().hour_count, b.ValueOrDie().hour_count)
              << tag << "/" << pname;
          EXPECT_EQ(a.ValueOrDie().per_hour, b.ValueOrDie().per_hour)
              << tag << "/" << pname;

          auto c = core::queries::CountObjectsCompletelyWithin(
              off, "cars", city->neighborhoods_layer, pred, when,
              /*trajectory_semantics=*/false);
          auto d = core::queries::CountObjectsCompletelyWithin(
              on, "cars", city->neighborhoods_layer, pred, when,
              /*trajectory_semantics=*/false);
          ASSERT_TRUE(c.ok()) << tag;
          ASSERT_TRUE(d.ok()) << tag;
          EXPECT_EQ(c.ValueOrDie(), d.ValueOrDie()) << tag << "/" << pname;
        }

        auto e = core::queries::CountObjectsInRegion(
            off, "cars", city->neighborhoods_layer, "neighborhood",
            Value("N3"), when, Strategy::kOverlay);
        auto f = core::queries::CountObjectsInRegion(
            on, "cars", city->neighborhoods_layer, "neighborhood",
            Value("N3"), when, Strategy::kOverlay);
        ASSERT_TRUE(e.ok()) << tag << ": " << e.status().ToString();
        ASSERT_TRUE(f.ok()) << tag;
        EXPECT_EQ(e.ValueOrDie(), f.ValueOrDie()) << tag;
      }
    }
  }
}

/// The hourly region operator's cache serve over `layer`, or nullopt when
/// the operator scanned instead (or failed).
std::optional<core::aggcache::AggServeStats> Served(
    const QueryEngine& engine, const std::string& layer,
    const GeometryPredicate& pred, const TimePredicate& when) {
  auto region = engine.RegionState("cars", layer, pred, when,
                                   core::gamma::Granule(), Strategy::kOverlay);
  return region.ok() ? region.ValueOrDie().served : std::nullopt;
}

TEST(AggCacheEquivalenceTest, ServeGateRefusesOnlySubHourPredicates) {
  auto city = MakeCity(1, /*convex=*/true);
  QueryEngine on(city->db.get());
  on.set_agg_cache_mode(AggCacheMode::kOn);
  GeometryPredicate low = GeometryPredicate::AttributeLess("income", 1500.0);

  for (const auto& [name, when] : SweepWhens()) {
    auto region = on.RegionState("cars", city->neighborhoods_layer, low, when,
                                 core::gamma::Granule(), Strategy::kOverlay);
    ASSERT_TRUE(region.ok()) << name << ": " << region.status().ToString();
    EXPECT_EQ(region.ValueOrDie().served.has_value(),
              !when.has_sub_hour_rollup())
        << name;
    EXPECT_EQ(region.ValueOrDie().cache_fallback, when.has_sub_hour_rollup())
        << name;
  }

  // Mode off refuses everything.
  QueryEngine off(city->db.get());
  off.set_agg_cache_mode(AggCacheMode::kOff);
  EXPECT_FALSE(Served(off, city->neighborhoods_layer, low, TimePredicate())
                   .has_value());
  // No overlay coverage refuses (streets is not an overlay layer).
  EXPECT_FALSE(
      Served(on, city->streets_layer, low, TimePredicate()).has_value());
}

TEST(AggCacheEquivalenceTest, InteriorCellsAreServedWithoutSampleTouches) {
  auto city = MakeCity(1, /*convex=*/true);
  QueryEngine on(city->db.get());
  on.set_agg_cache_mode(AggCacheMode::kOn);

  auto served = Served(on, city->neighborhoods_layer,
                       GeometryPredicate::All(), TimePredicate());
  ASSERT_TRUE(served.has_value());
  // No bucket is fringe: the whole answer comes from partials.
  EXPECT_GT(served->groups_from_partials, 0u);
  EXPECT_GT(served->full_buckets, 0u);
  EXPECT_EQ(served->fringe_buckets, 0u);
  EXPECT_EQ(served->fringe_rows, 0u);
  // The engine's stats mirror the zero-touch serve.
  EXPECT_EQ(on.stats().samples_scanned, 0u);
  EXPECT_EQ(on.stats().point_tests, 0u);

  // A proper subset skips the groups of the hit sets it does not meet,
  // and still touches no sample.
  auto subset = Served(on, city->neighborhoods_layer,
                       GeometryPredicate::AttributeLess("income", 1500.0),
                       TimePredicate());
  ASSERT_TRUE(subset.has_value());
  EXPECT_GT(subset->groups_from_partials, 0u);
  EXPECT_LT(subset->groups_from_partials, served->groups_from_partials);
  EXPECT_EQ(on.stats().samples_scanned, 0u);
}

TEST(AggCacheEquivalenceTest, EvaluatorMatchesUncachedBitForBit) {
  auto city = MakeCity(1, /*convex=*/true);
  const std::vector<std::string> aggs = {"COUNT(*)", "COUNT(DISTINCT OID)",
                                         "RATE PER HOUR"};
  const std::vector<std::string> times = {
      "",
      " AND T BETWEEN 100 AND 7250",
      " AND T BETWEEN 1700 AND 1900",
      " AND TIME.timeOfDay = 'Night'",
      " AND TIME.timeOfDay = 'Morning'",  // Empty: no morning samples.
  };
  const std::vector<std::string> groups = {
      "", " GROUP BY TIME.hour", " GROUP BY TIME.hourBucket",
      " GROUP BY TIME.minute",  // Sub-hour group level: falls back.
  };
  for (int threads : {1, 4}) {
    city->db->set_num_threads(threads);
    core::pietql::Evaluator off(city->db.get());
    off.set_agg_cache_mode(AggCacheMode::kOff);
    off.set_num_threads(threads);
    core::pietql::Evaluator on(city->db.get());
    on.set_agg_cache_mode(AggCacheMode::kOn);
    on.set_num_threads(threads);
    for (const std::string& agg : aggs) {
      for (const std::string& time : times) {
        for (const std::string& group : groups) {
          const std::string q =
              "SELECT layer.neighborhoods; FROM PietSchema; "
              "WHERE ATTR(layer.neighborhoods, income) < 1500 "
              "| SELECT " + agg + " FROM cars WHERE INSIDE RESULT" + time +
              group;
          auto a = off.EvaluateString(q);
          auto b = on.EvaluateString(q);
          ASSERT_TRUE(a.ok()) << q << ": " << a.status().ToString();
          ASSERT_TRUE(b.ok()) << q << ": " << b.status().ToString();
          EXPECT_EQ(a.ValueOrDie().ToString(), b.ValueOrDie().ToString())
              << q << " threads=" << threads;
        }
      }
    }
  }
}

TEST(AggCacheEvaluatorTest, ExplainAnalyzeShowsTheAggCacheSpan) {
  auto city = MakeCity(1, /*convex=*/true);
  core::pietql::Evaluator on(city->db.get());
  on.set_agg_cache_mode(AggCacheMode::kOn);
  const std::string q =
      "SELECT layer.neighborhoods; FROM PietSchema; "
      "WHERE ATTR(layer.neighborhoods, income) < 1500 "
      "| SELECT COUNT(*) FROM cars WHERE INSIDE RESULT "
      "AND T BETWEEN 100 AND 7250";
  auto profiled = on.EvaluateStringProfiled(q);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();

  const obs::SpanNode& root = profiled.ValueOrDie().profile;
  const obs::SpanNode* intersect = root.Find("moft_intersect");
  ASSERT_NE(intersect, nullptr);
  const obs::SpanNode* cache = intersect->Find("agg_cache");
  ASSERT_NE(cache, nullptr)
      << "the cached serve must surface its decomposition";
  EXPECT_FALSE(cache->Attr("groups_from_partials").empty());
  EXPECT_FALSE(cache->Attr("fringe_rows").empty());
  EXPECT_FALSE(cache->Attr("buckets").empty());
  // The window has two fringe buckets, read row by row.
  EXPECT_EQ(intersect->Attr("rows_scanned"), cache->Attr("fringe_rows"));
  EXPECT_NE(cache->Attr("fringe_rows"), "0");
  // The taxonomy stays the uncached one: moft_intersect and aggregate
  // siblings, with clause/tuples attributes intact.
  EXPECT_EQ(intersect->Attr("clause"), "inside_result");
  EXPECT_FALSE(intersect->Attr("tuples").empty());
  EXPECT_NE(root.Find("aggregate"), nullptr);

  // The result is bit-identical to the uncached profiled run.
  core::pietql::Evaluator off(city->db.get());
  off.set_agg_cache_mode(AggCacheMode::kOff);
  auto plain = off.EvaluateString(q);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(profiled.ValueOrDie().result.ToString(),
            plain.ValueOrDie().ToString());

  // Mode off never emits the span.
  auto off_profiled = off.EvaluateStringProfiled(q);
  ASSERT_TRUE(off_profiled.ok());
  const obs::SpanNode* off_intersect =
      off_profiled.ValueOrDie().profile.Find("moft_intersect");
  ASSERT_NE(off_intersect, nullptr);
  EXPECT_EQ(off_intersect->Find("agg_cache"), nullptr);
}

// ---------------------------------------------------------------------------
// Observability: cache counters ride the database Stats() snapshot.

TEST(AggCacheObsTest, CountersTrackBuildsHitsAndServes) {
  obs::SetEnabled(true);
  auto& registry = obs::MetricsRegistry::Global();
  auto city = MakeCity(1, /*convex=*/true);

  const int64_t hits0 = registry.Snapshot().counter("pietql.aggcache.hits");
  const int64_t miss0 =
      registry.Snapshot().counter("pietql.aggcache.misses");
  ASSERT_TRUE(city->db->AggCache("cars", city->neighborhoods_layer).ok());
  ASSERT_TRUE(city->db->AggCache("cars", city->neighborhoods_layer).ok());
  obs::MetricsSnapshot snap = city->db->Stats();
  EXPECT_EQ(snap.counter("pietql.aggcache.misses"), miss0 + 1);
  EXPECT_EQ(snap.counter("pietql.aggcache.hits"), hits0 + 1);
  EXPECT_EQ(snap.gauge("pietql.aggcache.entries"), 1);
  EXPECT_GT(snap.gauge("pietql.aggcache.bytes"), 0);
  const obs::HistogramData* build =
      snap.histogram("pietql.aggcache.build.latency");
  ASSERT_NE(build, nullptr);
  EXPECT_GE(build->count, 1u);

  // A cached evaluator serve bumps the served/decomposition counters.
  const int64_t served0 =
      registry.Snapshot().counter("pietql.aggcache.served");
  core::pietql::Evaluator on(city->db.get());
  on.set_agg_cache_mode(AggCacheMode::kOn);
  ASSERT_TRUE(on.EvaluateString(
                    "SELECT layer.neighborhoods; FROM PietSchema; "
                    "| SELECT COUNT(*) FROM cars WHERE INSIDE RESULT")
                  .ok());
  snap = city->db->Stats();
  EXPECT_EQ(snap.counter("pietql.aggcache.served"), served0 + 1);

  // An AddMoft of another table invalidates nothing; BuildOverlay
  // invalidation is counted once.
  const int64_t inv0 =
      registry.Snapshot().counter("pietql.aggcache.invalidations");
  moving::Moft other;
  ASSERT_TRUE(other.Add(7, TimePoint(0), Point(1, 1)).ok());
  ASSERT_TRUE(city->db->AddMoft("other", std::move(other)).ok());
  snap = city->db->Stats();
  EXPECT_EQ(snap.counter("pietql.aggcache.invalidations"), inv0);
  EXPECT_EQ(snap.gauge("pietql.aggcache.entries"), 1);
  ASSERT_TRUE(
      city->db->BuildOverlay({city->neighborhoods_layer}, true).ok());
  snap = city->db->Stats();
  EXPECT_EQ(snap.counter("pietql.aggcache.invalidations"), inv0 + 1);
  EXPECT_EQ(snap.gauge("pietql.aggcache.entries"), 0);
  obs::SetEnabled(false);
}

// A sub-hour rollup or group level defeats the hour-bucket cache; PR 8
// makes that fallback observable: a counter bump and an EXPLAIN ANALYZE
// attribute naming the level, with the scan result untouched.
TEST(AggCacheObsTest, SubHourFallbackIsCountedAndNamed) {
  obs::SetEnabled(true);
  auto& registry = obs::MetricsRegistry::Global();
  auto city = MakeCity(1, /*convex=*/true);
  core::pietql::Evaluator on(city->db.get());
  on.set_agg_cache_mode(AggCacheMode::kOn);

  const std::string sub_hour =
      "SELECT layer.neighborhoods; FROM PietSchema; "
      "| SELECT COUNT(*) FROM cars WHERE INSIDE RESULT "
      "GROUP BY TIME.minute";
  const int64_t fb0 =
      registry.Snapshot().counter("pietql.aggcache.fallback_subhour");
  auto profiled = on.EvaluateStringProfiled(sub_hour);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  EXPECT_EQ(registry.Snapshot().counter("pietql.aggcache.fallback_subhour"),
            fb0 + 1);
  const obs::SpanNode* intersect =
      profiled.ValueOrDie().profile.Find("moft_intersect");
  ASSERT_NE(intersect, nullptr);
  EXPECT_EQ(intersect->Attr("aggcache_fallback"), "minute");
  EXPECT_EQ(intersect->Find("agg_cache"), nullptr)
      << "a fallback query must not have been served from the cache";

  // Hour-or-coarser grouping serves from the cache without the counter.
  const int64_t fb1 =
      registry.Snapshot().counter("pietql.aggcache.fallback_subhour");
  ASSERT_TRUE(on.EvaluateString(
                    "SELECT layer.neighborhoods; FROM PietSchema; "
                    "| SELECT COUNT(*) FROM cars WHERE INSIDE RESULT "
                    "GROUP BY TIME.hour")
                  .ok());
  EXPECT_EQ(registry.Snapshot().counter("pietql.aggcache.fallback_subhour"),
            fb1);
  obs::SetEnabled(false);
}

/// The cache-answerable helpers' answers over `moft` for `when`.
struct HelperAnswers {
  int64_t tuple_count = 0;
  int64_t hour_count = 0;
  double per_hour = 0.0;
  int64_t within = 0;
  bool operator==(const HelperAnswers&) const = default;
};

HelperAnswers Answer(const QueryEngine& engine, const City& city,
                     const std::string& moft, const TimePredicate& when) {
  const GeometryPredicate low =
      GeometryPredicate::AttributeLess("income", 1500.0);
  HelperAnswers out;
  auto per_hour = core::queries::CountPerHourInRegion(
      engine, moft, city.neighborhoods_layer, low, when, Strategy::kOverlay);
  EXPECT_TRUE(per_hour.ok()) << per_hour.status().ToString();
  if (per_hour.ok()) {
    out.tuple_count = per_hour.ValueOrDie().tuple_count;
    out.hour_count = per_hour.ValueOrDie().hour_count;
    out.per_hour = per_hour.ValueOrDie().per_hour;
  }
  auto within = core::queries::CountObjectsCompletelyWithin(
      engine, moft, city.neighborhoods_layer, low, when,
      /*trajectory_semantics=*/false);
  EXPECT_TRUE(within.ok()) << within.status().ToString();
  out.within = within.ok() ? within.ValueOrDie() : -1;
  return out;
}

/// A copy of the fleet in compressed 256-row blocks, registered as "vans".
void AddVans(const City& city) {
  TrajectoryConfig traj;  // MakeCity's fleet.
  traj.seed = 77;
  traj.num_objects = 40;
  traj.duration = 7200.0;
  traj.sample_period = 60.0;
  traj.speed = 12.0;
  auto vans = workload::GenerateTrajectories(city, traj).ValueOrDie();
  moving::BlockOptions opts;
  opts.block_rows = 256;
  opts.compress = true;
  vans.SetBlockOptions(opts);
  ASSERT_TRUE(city.db->AddMoft("vans", std::move(vans)).ok());
}

// ReleaseHot and SpillToDisk swap the block tier in place. The entry
// borrows no MOFT storage, so it survives both, and its serves read the
// new tier's blocks without rebuilding the hot columns.
TEST(DatabaseAggCacheTest, EntrySurvivesReleaseHotAndSpillToDisk) {
  obs::SetEnabled(true);
  auto& registry = obs::MetricsRegistry::Global();
  auto city = MakeCity(1, /*convex=*/true);
  core::GeoOlapDatabase& db = *city->db;
  AddVans(*city);
  const moving::Moft* moft = db.GetMoft("vans").ValueOrDie();

  QueryEngine off(&db);
  off.set_agg_cache_mode(AggCacheMode::kOff);
  QueryEngine on(&db);
  on.set_agg_cache_mode(AggCacheMode::kOn);
  // Fringes on both ends, full buckets between.
  const TimePredicate when =
      TimePredicate().Window(Interval(TimePoint(100), TimePoint(7250)));
  const HelperAnswers want = Answer(off, *city, "vans", when);
  ASSERT_GT(want.tuple_count, 0);
  ASSERT_NE(moft->block_store(), nullptr);  // The scan sealed the table.
  ASSERT_TRUE(moft->block_store()->compressed());

  auto first = db.AggCache("vans", city->neighborhoods_layer);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto cls = db.ClassifySamples("vans", city->neighborhoods_layer);
  ASSERT_TRUE(cls.ok());

  for (const char* step : {"release_hot", "spill_to_disk"}) {
    if (std::string(step) == "release_hot") {
      moft->ReleaseHot();
    } else {
      ASSERT_TRUE(moft->SpillToDisk().ok());
      ASSERT_TRUE(moft->block_store()->mapped());
    }
    auto again = db.AggCache("vans", city->neighborhoods_layer);
    ASSERT_TRUE(again.ok()) << step;
    EXPECT_EQ(again.ValueOrDie().get(), first.ValueOrDie().get()) << step;

    const int64_t mats0 =
        registry.GetCounter("moft.hot_materializations").Value();
    const GeometryPredicate low =
        GeometryPredicate::AttributeLess("income", 1500.0);
    auto served = on.RegionState("vans", city->neighborhoods_layer, low,
                                 when, core::gamma::Granule(),
                                 Strategy::kOverlay);
    ASSERT_TRUE(served.ok()) << step << ": " << served.status().ToString();
    ASSERT_TRUE(served.ValueOrDie().served.has_value()) << step;
    EXPECT_EQ(served.ValueOrDie().served->fringe_buckets, 2u) << step;
    EXPECT_GT(served.ValueOrDie().served->fringe_rows, 0u) << step;
    EXPECT_EQ(Answer(on, *city, "vans", when), want) << step;
    EXPECT_EQ(registry.GetCounter("moft.hot_materializations").Value(), mats0)
        << step << ": a cache serve rebuilt the hot tier";
    EXPECT_EQ(moft->Footprint().live_pins, 0) << step;
    EXPECT_EQ(Answer(off, *city, "vans", when), want) << step;
  }

  // The classification is indexed by global row, which neither swap
  // moves, so it survives too.
  auto cls2 = db.ClassifySamples("vans", city->neighborhoods_layer);
  ASSERT_TRUE(cls2.ok());
  EXPECT_EQ(cls.ValueOrDie().get(), cls2.ValueOrDie().get());
  EXPECT_EQ(cls2.ValueOrDie()->hits.offsets.size(), moft->num_samples() + 1);
  obs::SetEnabled(false);
}

// A block that fails to decode never yields a cached answer: the build
// fails, nothing is cached, and the query reports the codec's Status.
TEST(DatabaseAggCacheTest, UndecodableBlockFailsCachedServes) {
  auto city = MakeCity(1, /*convex=*/true);
  core::GeoOlapDatabase& db = *city->db;
  moving::BlockOptions opts;
  opts.block_rows = 256;
  auto bad = moving::MoftFromGarbledBlockFile(
      db.GetMoft("cars").ValueOrDie()->Columns(), opts,
      "aggcache_garbled.pietblk");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  ASSERT_TRUE(db.AddMoft("bad", std::move(bad).ValueOrDie()).ok());

  EXPECT_FALSE(db.AggCache("bad", city->neighborhoods_layer).ok());
  QueryEngine on(&db);
  on.set_agg_cache_mode(AggCacheMode::kOn);
  // Fringe-only inside bucket 0; the garbled first block holds it.
  const TimePredicate fringe = TimePredicate().Window(
      Interval(TimePoint(1700.25), TimePoint(1900.75)));
  for (const TimePredicate& when : {fringe, TimePredicate()}) {
    auto region = on.RegionState("bad", city->neighborhoods_layer,
                                 GeometryPredicate::All(), when,
                                 core::gamma::Granule(), Strategy::kOverlay);
    EXPECT_FALSE(region.ok());
    auto within = core::queries::CountObjectsCompletelyWithin(
        on, "bad", city->neighborhoods_layer, GeometryPredicate::All(), when,
        /*trajectory_semantics=*/false);
    EXPECT_FALSE(within.ok());
  }
  core::pietql::Evaluator eval(&db);
  eval.set_agg_cache_mode(AggCacheMode::kOn);
  EXPECT_FALSE(eval.EvaluateString(
                       "SELECT layer.neighborhoods; FROM PietSchema; "
                       "| SELECT COUNT(*) FROM bad WHERE INSIDE RESULT "
                       "AND T BETWEEN 1700 AND 1900")
                   .ok());
  EXPECT_EQ(db.GetMoft("bad").ValueOrDie()->Footprint().live_pins, 0);
}

}  // namespace
}  // namespace piet
