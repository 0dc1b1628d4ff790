#ifndef PIET_TESTS_ERA_CITY_H_
#define PIET_TESTS_ERA_CITY_H_

// A seeded synthetic city whose cars MOFT is staggered across eras, and a
// seeded Piet-QL query generator over it. The stagger (object spans
// shifted by whole multiples of the trajectory duration) gives the
// zonemaps real skipping structure. Shared by the estimator's soundness
// tests and the γ oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/database.h"
#include "moving/block_store.h"
#include "moving/moft.h"
#include "temporal/time_point.h"
#include "workload/city.h"
#include "workload/trajectories.h"

namespace piet::test_support {

inline constexpr double kEraBase = 1767657600.0;  // 2026-01-06 00:00:00 UTC.
inline constexpr double kEraDuration = 2.0 * 3600.0;
inline constexpr int kEras = 3;

/// The era city: 36 cars sampled every `sample_period` seconds, sealed
/// under `opts`, with the neighborhoods overlay built when `overlay`.
inline std::unique_ptr<core::GeoOlapDatabase> MakeEraCity(
    const moving::BlockOptions& opts, bool overlay,
    double sample_period = 120.0) {
  workload::CityConfig cc;
  cc.seed = 2026;
  cc.grid_cols = 6;
  cc.grid_rows = 6;
  auto city_or = workload::GenerateCity(cc);
  EXPECT_TRUE(city_or.ok()) << city_or.status().ToString();
  workload::City city = std::move(city_or).ValueOrDie();

  workload::TrajectoryConfig tc;
  tc.seed = 11;
  tc.num_objects = 36;
  tc.start = temporal::TimePoint(kEraBase);
  tc.duration = kEraDuration;
  tc.sample_period = sample_period;
  auto gen_or = workload::GenerateTrajectories(city, tc);
  EXPECT_TRUE(gen_or.ok()) << gen_or.status().ToString();
  const moving::MoftColumns& gen = gen_or.ValueOrDie().Columns();

  moving::Moft cars;
  cars.SetBlockOptions(opts);
  for (size_t sp = 0; sp < gen.spans.size(); ++sp) {
    const double offset =
        kEraDuration *
        static_cast<double>((sp * static_cast<size_t>(kEras)) /
                            gen.spans.size());
    for (size_t i = gen.spans[sp].begin; i < gen.spans[sp].end; ++i) {
      moving::Sample s = gen.at(i);
      (void)cars.Add(s.oid, temporal::TimePoint(s.t.seconds + offset), s.pos);
    }
  }
  (void)cars.Scan();  // Seal.

  std::unique_ptr<core::GeoOlapDatabase> db = std::move(city.db);
  EXPECT_TRUE(db->AddMoft("cars", std::move(cars)).ok());
  if (overlay) {
    EXPECT_TRUE(db->BuildOverlay({city.neighborhoods_layer}).ok());
  }
  return db;
}

/// 48 seeded random queries over every clause form: inside_result /
/// passes_through / near / time_only, windowed (including inverted and
/// out-of-range windows) and unwindowed, counted with COUNT(*) or
/// COUNT(DISTINCT OID), scalar or grouped by hour, minute, timeId or
/// timeOfDay. Deterministic so failures replay.
inline std::vector<std::string> MakeEraQueries(uint64_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
  auto stamp = [](double s) {
    return std::to_string(static_cast<int64_t>(s));
  };
  const double span = kEras * kEraDuration;
  std::vector<std::string> out;
  for (int i = 0; i < 48; ++i) {
    std::string geo = "SELECT layer.neighborhoods; FROM City;";
    switch (pick(3)) {
      case 1:
        geo += " WHERE ATTR(layer.neighborhoods, income) < 1500";
        break;
      case 2:
        geo += " WHERE ATTR(layer.neighborhoods, income) < 0";
        break;
      default:
        break;
    }
    std::string q = geo;
    q += " | SELECT ";
    q += pick(2) == 0 ? "COUNT(*)" : "COUNT(DISTINCT OID)";
    q += " FROM cars WHERE ";
    const int clause = pick(4);
    switch (clause) {
      case 0:
        q += "INSIDE RESULT";
        break;
      case 1:
        q += "PASSES THROUGH RESULT";
        break;
      case 2:
        q += "NEAR(layer.stops, 60)";
        break;
      default:
        break;  // time_only: the window below is the whole clause.
    }
    const bool windowed = clause == 3 || pick(2) == 0;
    if (windowed) {
      const int steps = static_cast<int>(span / 300.0) + 12;
      const double a = kEraBase + 300.0 * pick(steps) - 1800.0;
      const double b = kEraBase + 300.0 * pick(steps) - 1800.0;
      if (clause != 3) {
        q += " AND ";
      }
      q += "T BETWEEN " + stamp(a) + " AND " + stamp(b);
    }
    switch (pick(6)) {
      case 0:
        q += " GROUP BY TIME.hour";
        break;
      case 1:
        q += " GROUP BY TIME.minute";
        break;
      case 2:
        q += " GROUP BY TIME.timeId";
        break;
      case 3:
        q += " GROUP BY TIME.timeOfDay";
        break;
      default:
        break;
    }
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace piet::test_support

#endif  // PIET_TESTS_ERA_CITY_H_
