// E13 — the materialized (hit set × hour bucket) aggregate cache: cold
// build cost (the sample classification plus the grouping walk, what a
// cold GeoOlapDatabase::AggCache pays, and the walk alone over a cached
// classification), then warm repeated-query latency cached (AggCacheMode
// kOn) vs uncached (kOff) for the region-aggregate helpers and the
// Piet-QL INSIDE RESULT aggregates. The cached serve answers full buckets
// from partials and touches samples only in fringe buckets;
// `rows_touched` counters record exactly how many.
//
// Shape goals: cold build is a one-off comparable to one classification
// pass; warm repeated aggregates are >= 5x faster than the uncached scan,
// with results bit-identical (verified at startup before timing).

#include <benchmark/benchmark.h>

#include "obs_dump.h"

#include <cstdio>
#include <memory>
#include <string>

#include "core/aggcache/agg_cache.h"
#include "core/database.h"
#include "core/engine.h"
#include "core/pietql/evaluator.h"
#include "core/queries.h"
#include "workload/city.h"
#include "workload/trajectories.h"

namespace {

using piet::Value;
using piet::core::GeometryPredicate;
using piet::core::QueryEngine;
using piet::core::Strategy;
using piet::core::TimePredicate;
using piet::core::aggcache::AggCacheEntry;
using piet::core::aggcache::AggCacheMode;
using piet::core::pietql::Evaluator;
using piet::temporal::Interval;
using piet::temporal::TimePoint;
using piet::workload::City;
using piet::workload::CityConfig;
using piet::workload::TrajectoryConfig;

struct Fixture {
  City city;
  size_t num_samples = 0;
};

// 8 trajectory hours over an 8x8 grid: ~385k samples across 9 hour
// buckets, enough for the interior/boundary split to dominate.
std::shared_ptr<Fixture> MakeFixture(int objects) {
  CityConfig city_config;
  city_config.seed = 4242;
  city_config.grid_cols = 8;
  city_config.grid_rows = 8;
  auto fixture = std::make_shared<Fixture>();
  fixture->city =
      std::move(piet::workload::GenerateCity(city_config)).ValueOrDie();

  TrajectoryConfig traj;
  traj.seed = 99;
  traj.num_objects = objects;
  traj.duration = 8 * 3600.0;
  traj.sample_period = 30.0;
  traj.speed = 12.0;
  auto moft =
      piet::workload::GenerateTrajectories(fixture->city, traj).ValueOrDie();
  fixture->num_samples = moft.num_samples();
  (void)fixture->city.db->AddMoft("cars", std::move(moft));
  (void)fixture->city.db->BuildOverlay({fixture->city.neighborhoods_layer});
  return fixture;
}

TimePredicate SpanningWindow() {
  // Fringe buckets on both ends, full buckets in the middle.
  return TimePredicate().Window(
      Interval(TimePoint(1800), TimePoint(8 * 3600.0 - 1800)));
}

/// Sanity gate before timing: cached and uncached answers must match.
bool VerifyIdentical(Fixture& fixture) {
  const City& city = fixture.city;
  QueryEngine off(city.db.get());
  off.set_agg_cache_mode(AggCacheMode::kOff);
  QueryEngine on(city.db.get());
  on.set_agg_cache_mode(AggCacheMode::kOn);
  GeometryPredicate low = GeometryPredicate::AttributeLess("income", 1500.0);
  bool ok = true;
  std::printf("=== E13: cached vs uncached result identity ===\n");

  auto a = piet::core::queries::CountPerHourInRegion(
      off, "cars", city.neighborhoods_layer, low, SpanningWindow(),
      Strategy::kOverlay);
  auto b = piet::core::queries::CountPerHourInRegion(
      on, "cars", city.neighborhoods_layer, low, SpanningWindow(),
      Strategy::kOverlay);
  bool same = a.ok() && b.ok() &&
              a.ValueOrDie().tuple_count == b.ValueOrDie().tuple_count &&
              a.ValueOrDie().hour_count == b.ValueOrDie().hour_count &&
              a.ValueOrDie().per_hour == b.ValueOrDie().per_hour;
  std::printf("%-24s %s\n", "per_hour_in_region",
              same ? "identical" : "MISMATCH");
  ok = ok && same;

  GeometryPredicate all = GeometryPredicate::AttributeGreaterEq("income", 0.0);
  auto c = piet::core::queries::CountObjectsCompletelyWithin(
      off, "cars", city.neighborhoods_layer, all, SpanningWindow(), false);
  auto d = piet::core::queries::CountObjectsCompletelyWithin(
      on, "cars", city.neighborhoods_layer, all, SpanningWindow(), false);
  same = c.ok() && d.ok() && c.ValueOrDie() == d.ValueOrDie();
  std::printf("%-24s %s\n", "completely_within",
              same ? "identical" : "MISMATCH");
  ok = ok && same;

  Evaluator eoff(city.db.get());
  eoff.set_agg_cache_mode(AggCacheMode::kOff);
  Evaluator eon(city.db.get());
  eon.set_agg_cache_mode(AggCacheMode::kOn);
  const std::string q =
      "SELECT layer." + city.neighborhoods_layer + "; FROM SimCity; "
      "WHERE ATTR(layer." + city.neighborhoods_layer + ", income) < 1500 "
      "| SELECT COUNT(DISTINCT OID) FROM cars WHERE INSIDE RESULT "
      "AND T BETWEEN 1800 AND 27000 GROUP BY TIME.hourBucket";
  auto e = eoff.EvaluateString(q);
  auto f = eon.EvaluateString(q);
  same = e.ok() && f.ok() &&
         e.ValueOrDie().ToString() == f.ValueOrDie().ToString();
  std::printf("%-24s %s\n", "pietql_grouped", same ? "identical" : "MISMATCH");
  ok = ok && same;
  std::printf("\n");
  return ok;
}

void BM_ColdBuild(benchmark::State& state, std::shared_ptr<Fixture> fixture) {
  const int threads = static_cast<int>(state.range(0));
  piet::core::GeoOlapDatabase& db = *fixture->city.db;
  const std::string& layer = fixture->city.neighborhoods_layer;
  db.set_num_threads(threads);
  for (auto _ : state) {
    state.PauseTiming();
    (void)db.BuildOverlay({layer});  // Drops both caches.
    state.ResumeTiming();
    auto entry = db.AggCache("cars", layer);
    benchmark::DoNotOptimize(entry.ok());
  }
  db.set_num_threads(0);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["samples"] = static_cast<double>(fixture->num_samples);
}

void BM_BuildFromClassification(benchmark::State& state,
                                std::shared_ptr<Fixture> fixture) {
  const auto* moft = fixture->city.db->GetMoft("cars").ValueOrDie();
  auto cls = fixture->city.db
                 ->ClassifySamples("cars", fixture->city.neighborhoods_layer)
                 .ValueOrDie();
  for (auto _ : state) {
    auto entry = AggCacheEntry::Build(*moft, cls);
    benchmark::DoNotOptimize(entry.ok());
  }
  state.counters["samples"] = static_cast<double>(fixture->num_samples);
}

void BM_PerHourInRegion(benchmark::State& state,
                        std::shared_ptr<Fixture> fixture, AggCacheMode mode) {
  const City& city = fixture->city;
  QueryEngine engine(city.db.get());
  engine.set_agg_cache_mode(mode);
  GeometryPredicate low = GeometryPredicate::AttributeLess("income", 1500.0);
  TimePredicate when = SpanningWindow();
  // Warm both caches (classification / partials) outside the timing loop:
  // the benchmark measures the repeated-query regime.
  (void)piet::core::queries::CountPerHourInRegion(
      engine, "cars", city.neighborhoods_layer, low, when,
      Strategy::kOverlay);
  for (auto _ : state) {
    auto r = piet::core::queries::CountPerHourInRegion(
        engine, "cars", city.neighborhoods_layer, low, when,
        Strategy::kOverlay);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.ValueOrDie().per_hour);
  }
  state.counters["cached"] = mode == AggCacheMode::kOn ? 1.0 : 0.0;
  state.counters["rows_touched"] =
      static_cast<double>(engine.stats().samples_scanned);
}

// Scan-heavy regime: the tautology region keeps most objects inside, so
// the uncached path cannot early-exit at an object's first outside sample
// and must touch nearly every row. (Selective regions that eject most
// objects early are already cheap uncached; the cache is not a win there.)
void BM_CompletelyWithin(benchmark::State& state,
                         std::shared_ptr<Fixture> fixture, AggCacheMode mode) {
  const City& city = fixture->city;
  QueryEngine engine(city.db.get());
  engine.set_agg_cache_mode(mode);
  GeometryPredicate low = GeometryPredicate::AttributeGreaterEq("income", 0.0);
  TimePredicate when = SpanningWindow();
  (void)piet::core::queries::CountObjectsCompletelyWithin(
      engine, "cars", city.neighborhoods_layer, low, when, false);
  for (auto _ : state) {
    auto r = piet::core::queries::CountObjectsCompletelyWithin(
        engine, "cars", city.neighborhoods_layer, low, when, false);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.ValueOrDie());
  }
  state.counters["cached"] = mode == AggCacheMode::kOn ? 1.0 : 0.0;
  state.counters["rows_touched"] =
      static_cast<double>(engine.stats().samples_scanned);
}

void BM_PietqlAggregate(benchmark::State& state,
                        std::shared_ptr<Fixture> fixture, std::string text,
                        AggCacheMode mode) {
  Evaluator evaluator(fixture->city.db.get());
  evaluator.set_agg_cache_mode(mode);
  (void)evaluator.EvaluateString(text);
  for (auto _ : state) {
    auto r = evaluator.EvaluateString(text);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.ValueOrDie().geometry_ids.size());
  }
  state.counters["cached"] = mode == AggCacheMode::kOn ? 1.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  auto fixture = MakeFixture(400);
  if (!VerifyIdentical(*fixture)) {
    std::fprintf(stderr, "cached vs uncached results diverge; aborting\n");
    return 1;
  }
  for (int threads : {1, 4}) {
    benchmark::RegisterBenchmark("BM_AggCache/cold_build", BM_ColdBuild,
                                 fixture)
        ->Arg(threads)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("BM_AggCache/build_from_classification",
                               BM_BuildFromClassification, fixture)
      ->Unit(benchmark::kMillisecond);
  for (AggCacheMode mode : {AggCacheMode::kOff, AggCacheMode::kOn}) {
    const char* tag = mode == AggCacheMode::kOn ? "cached" : "uncached";
    benchmark::RegisterBenchmark(
        (std::string("BM_AggCache/per_hour_in_region/") + tag).c_str(),
        BM_PerHourInRegion, fixture, mode)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_AggCache/completely_within/") + tag).c_str(),
        BM_CompletelyWithin, fixture, mode)
        ->Unit(benchmark::kMicrosecond);
    const std::string& nb = fixture->city.neighborhoods_layer;
    benchmark::RegisterBenchmark(
        (std::string("BM_AggCache/pietql_grouped/") + tag).c_str(),
        BM_PietqlAggregate, fixture,
        "SELECT layer." + nb + "; FROM SimCity; "
        "WHERE ATTR(layer." + nb + ", income) < 1500 "
        "| SELECT COUNT(DISTINCT OID) FROM cars WHERE INSIDE RESULT "
        "AND T BETWEEN 1800 AND 27000 GROUP BY TIME.hourBucket",
        mode)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_AggCache/pietql_rate/") + tag).c_str(),
        BM_PietqlAggregate, fixture,
        "SELECT layer." + nb + "; FROM SimCity; "
        "WHERE ATTR(layer." + nb + ", income) < 1500 "
        "| SELECT RATE PER HOUR FROM cars WHERE INSIDE RESULT",
        mode)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  piet::benchutil::DumpMetricsSnapshotIfRequested();
  return 0;
}
