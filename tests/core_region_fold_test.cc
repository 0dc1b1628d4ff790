// Oracle for the γ fold of the sample-semantics region counts:
// queries::CountPerHourInRegion and CountObjectsInRegion fold region C into
// γ's per-hour state inside the scan (QueryEngine::RegionState).
// The reference is built here the way the helpers built it before the
// fold: SampleRegion's rows inserted into a std::set. Every strategy runs
// over raw and compressed blocks, hot, released and spilled, at 1 and 4
// threads, under time predicates that take the window probe, the row
// walk, a single instant and nothing, and under a geometric predicate
// that qualifies no polygon. The fold must keep the scan's counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/queries.h"
#include "moving/block_store.h"
#include "moving/moft.h"
#include "temporal/calendar.h"
#include "workload/city.h"
#include "workload/scenario.h"
#include "workload/trajectories.h"

namespace piet {
namespace {

using core::GeometryPredicate;
using core::QueryEngine;
using core::Strategy;
using core::TimePredicate;
using core::aggcache::AggCacheMode;
using moving::BlockOptions;
using moving::Moft;
using moving::MoftColumns;
using moving::ObjectId;
using moving::Sample;
using temporal::Interval;
using temporal::kHour;
using temporal::TimePoint;
using workload::City;
using Key = std::pair<ObjectId, int64_t>;

/// Histories run 10:00-14:00, so the Morning rollup keeps two of the four
/// hours; samples fall every 45 s from kStart on.
constexpr double kStart = 10 * kHour;

enum class Tier { kRawBlocks, kCompressed, kReleased, kSpilled };

struct FoldParam {
  Strategy strategy;
  Tier tier;
  int threads;
};
// Without a PrintTo, gtest prints the parameter's raw bytes into the test
// names ctest registers. With no padding those bytes are the three field
// values, so the names are the same in every build; a field that adds
// padding must come with a PrintTo (like OracleParam's in
// core_gamma_oracle_test.cc).
static_assert(sizeof(FoldParam) ==
              sizeof(Strategy) + sizeof(Tier) + sizeof(int));

/// `base` re-packed into block_rows-sized blocks (the PIET_BLOCK_ROWS
/// knob), raw or compressed, with the hot tier kept, released or spilled.
Moft Pack(const Moft& base, Tier tier) {
  BlockOptions opts;
  opts.block_rows = 256;
  opts.compress = tier != Tier::kRawBlocks;
  opts.spill_dir = ::testing::TempDir();
  Moft out;
  out.SetBlockOptions(opts);
  const MoftColumns& cols = base.Columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    const Sample s = cols.at(i);
    EXPECT_TRUE(out.Add(s.oid, s.t, s.pos).ok());
  }
  (void)out.Columns();  // Seal with the tier's options.
  if (tier == Tier::kSpilled) {
    EXPECT_TRUE(out.SpillToDisk().ok());
  } else if (tier == Tier::kReleased) {
    out.ReleaseHot();
  }
  return out;
}

/// A seeded non-convex city with "cars": unblocked when `tier` is empty.
std::shared_ptr<City> MakeCity(int threads, std::optional<Tier> tier,
                               bool overlay) {
  workload::CityConfig config;
  config.seed = 4242;
  config.grid_cols = 8;
  config.grid_rows = 8;
  config.nonconvex_fraction = 0.3;
  config.low_income_fraction = 0.35;
  auto city = std::make_shared<City>(
      std::move(workload::GenerateCity(config)).ValueOrDie());
  city->db->set_num_threads(threads);
  workload::TrajectoryConfig traj;
  traj.seed = 17;
  traj.num_objects = 30;
  traj.start = TimePoint(kStart);
  traj.duration = 4 * kHour;
  traj.sample_period = 45.0;
  traj.speed = 12.0;
  Moft base = workload::GenerateTrajectories(*city, traj).ValueOrDie();
  EXPECT_TRUE(
      city->db->AddMoft("cars", tier ? Pack(base, *tier) : std::move(base))
          .ok());
  if (overlay) {
    EXPECT_TRUE(
        city->db->BuildOverlay({city->neighborhoods_layer}, false, 8).ok());
  }
  return city;
}

TimePredicate Win(double t0, double t1) {
  return TimePredicate().Window(Interval(TimePoint(t0), TimePoint(t1)));
}

struct Case {
  std::string name;
  TimePredicate when;
  bool no_polygon = false;  ///< The geometric predicate qualifies nothing.
};

std::vector<Case> Cases() {
  TimePredicate morning;
  morning.RollupEquals("timeOfDay", Value("Morning"));
  return {
      {"any", TimePredicate()},
      {"window", Win(kStart + 1500.0, kStart + 6000.0)},
      {"morning", morning},
      {"point window", Win(kStart + 900.0, kStart + 900.0)},
      {"inverted window", Win(kStart + 6000.0, kStart + 1500.0)},
      {"no polygon", TimePredicate(), /*no_polygon=*/true},
  };
}

/// The parent's evaluation: SampleRegion's rows into a std::set of
/// (Oid, hour bucket) pairs; `rows` gets the table's row count.
std::set<Key> ReferencePairs(const QueryEngine& engine, const City& city,
                             const GeometryPredicate& pred,
                             const TimePredicate& when, Strategy strategy,
                             size_t* rows) {
  auto region = engine.SampleRegion("cars", city.neighborhoods_layer, pred,
                                    when, strategy);
  EXPECT_TRUE(region.ok()) << region.status().ToString();
  std::set<Key> pairs;
  if (!region.ok()) {
    return pairs;
  }
  for (const olap::Row& r : region.ValueOrDie().rows()) {
    const TimePoint t(r[1].AsDoubleUnchecked());
    pairs.emplace(r[0].AsIntUnchecked(), temporal::HourBucketKey(t));
  }
  *rows = region.ValueOrDie().num_rows();
  return pairs;
}

/// The (Oid, hour bucket) keys of γ's state, ascending; an Oid listed
/// twice in one bucket shows as a repeated key.
std::vector<Key> Keys(const core::gamma::State& state) {
  std::vector<Key> keys;
  for (const auto& [bucket, partial] : state) {
    for (const ObjectId oid : partial.oids) {
      keys.emplace_back(oid, static_cast<int64_t>(bucket));
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

class RegionFoldOracleTest : public ::testing::TestWithParam<FoldParam> {};

TEST_P(RegionFoldOracleTest, CountsMatchSampleRegionSets) {
  const FoldParam p = GetParam();
  const bool overlay = p.strategy == Strategy::kOverlay;
  std::shared_ptr<City> ref_city = MakeCity(1, std::nullopt, false);
  std::shared_ptr<City> city = MakeCity(p.threads, p.tier, overlay);
  QueryEngine ref_engine(ref_city->db.get());
  ref_engine.set_num_threads(1);
  QueryEngine engine(city->db.get());
  engine.set_num_threads(p.threads);
  // The fold under test, not the aggregate cache's serve path.
  engine.set_agg_cache_mode(AggCacheMode::kOff);
  const std::string nb = city->neighborhoods_layer;
  const GeometryPredicate low =
      GeometryPredicate::AttributeLess("income", 1500.0);
  const GeometryPredicate none =
      GeometryPredicate::AttributeLess("income", -1.0);

  // One low-income neighborhood that some sample visits, for the
  // distinct-object count.
  size_t rows = 0;
  const auto visited =
      ref_engine
          .SampleRegion("cars", nb, low, TimePredicate(), Strategy::kNaive)
          .ValueOrDie();
  ASSERT_GT(visited.num_rows(), 0u);
  // Built in two steps: GCC 12 -Wrestrict misfires on "N" + to_string.
  std::string name = "N";
  name += std::to_string(visited.rows()[0][2].AsIntUnchecked());
  const Value member(name);

  size_t hours_any = 0;
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    const GeometryPredicate& pred = c.no_polygon ? none : low;
    const std::set<Key> want =
        ReferencePairs(engine, *city, pred, c.when, p.strategy, &rows);
    const core::EngineStats scan = engine.stats();
    EXPECT_EQ(scan.rows_matched, rows);
    size_t ref_rows = 0;
    EXPECT_EQ(want, ReferencePairs(ref_engine, *ref_city, pred, c.when,
                                   Strategy::kNaive, &ref_rows));
    std::set<int64_t> hours;
    for (const Key& k : want) {
      hours.insert(k.second);
    }
    if (c.name == "any") {
      hours_any = hours.size();
      EXPECT_GT(hours_any, 2u);
    } else if (c.name == "window" || c.name == "morning") {
      EXPECT_FALSE(want.empty());
      EXPECT_LT(hours.size(), hours_any);
    } else if (c.name != "point window") {
      EXPECT_TRUE(want.empty());
    }

    // The fold: γ's state over hour buckets with the scan's counters.
    auto region = engine.RegionState("cars", nb, pred, c.when,
                                     core::gamma::Granule(), p.strategy);
    ASSERT_TRUE(region.ok()) << region.status().ToString();
    EXPECT_EQ(Keys(region.ValueOrDie().state),
              std::vector<Key>(want.begin(), want.end()));
    EXPECT_EQ(core::gamma::Tuples(region.ValueOrDie().state),
              static_cast<int64_t>(rows));
    EXPECT_EQ(engine.stats().samples_scanned, scan.samples_scanned);
    EXPECT_EQ(engine.stats().point_tests, scan.point_tests);
    EXPECT_EQ(engine.stats().rows_matched, rows);
    EXPECT_EQ(engine.stats().blocks.blocks_pinned,
              scan.blocks.blocks_pinned);
    EXPECT_EQ(engine.stats().blocks.blocks_skipped,
              scan.blocks.blocks_skipped);

    auto per_hour =
        core::queries::CountPerHourInRegion(engine, "cars", nb, pred, c.when,
                                            p.strategy);
    ASSERT_TRUE(per_hour.ok()) << per_hour.status().ToString();
    EXPECT_EQ(per_hour.ValueOrDie().tuple_count,
              static_cast<int64_t>(want.size()));
    EXPECT_EQ(per_hour.ValueOrDie().hour_count,
              static_cast<int64_t>(hours.size()));
    EXPECT_EQ(per_hour.ValueOrDie().per_hour,
              hours.empty() ? 0.0
                            : static_cast<double>(want.size()) /
                                  static_cast<double>(hours.size()));

    const Value one = c.no_polygon ? Value("no such neighborhood") : member;
    std::set<ObjectId> want_oids;
    for (const Key& k : ReferencePairs(
             engine, *city,
             GeometryPredicate::AlphaEquals(&city->db->gis(), "neighborhood",
                                            one),
             c.when, p.strategy, &rows)) {
      want_oids.insert(k.first);
    }
    auto objects = core::queries::CountObjectsInRegion(
        engine, "cars", nb, "neighborhood", one, c.when, p.strategy);
    ASSERT_TRUE(objects.ok()) << objects.status().ToString();
    EXPECT_EQ(objects.ValueOrDie(), static_cast<int64_t>(want_oids.size()));
    if (c.name == "any") {
      EXPECT_GT(want_oids.size(), 0u);
    }
  }
}

std::vector<FoldParam> Params() {
  std::vector<FoldParam> out;
  for (Strategy s :
       {Strategy::kNaive, Strategy::kIndexed, Strategy::kOverlay}) {
    for (Tier tier : {Tier::kRawBlocks, Tier::kCompressed, Tier::kReleased,
                      Tier::kSpilled}) {
      for (int threads : {1, 4}) {
        out.push_back({s, tier, threads});
      }
    }
  }
  return out;
}

std::string ParamName(const ::testing::TestParamInfo<FoldParam>& info) {
  static constexpr const char* kTiers[] = {"raw", "compressed", "released",
                                           "spilled"};
  std::string name(core::StrategyToString(info.param.strategy));
  name += "_";
  name += kTiers[static_cast<int>(info.param.tier)];
  name += "_t";
  name += std::to_string(info.param.threads);
  return name;
}

INSTANTIATE_TEST_SUITE_P(Tiers, RegionFoldOracleTest,
                         ::testing::ValuesIn(Params()), ParamName);

// Remark 1 through the fold: exactly 4/3 for every strategy and thread
// count, with the aggregate cache out of the way.
TEST(RegionFoldRemark1Test, FourThirdsForEveryStrategy) {
  auto scenario = workload::BuildFigure1Scenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  workload::Figure1Scenario& s = scenario.ValueOrDie();
  ASSERT_TRUE(s.db->BuildOverlay({s.neighborhoods_layer}).ok());
  TimePredicate morning;
  morning.RollupEquals("timeOfDay", Value("Morning"));
  for (int threads : {1, 4}) {
    QueryEngine engine(s.db.get());
    engine.set_num_threads(threads);
    engine.set_agg_cache_mode(AggCacheMode::kOff);
    for (Strategy strategy :
         {Strategy::kNaive, Strategy::kIndexed, Strategy::kOverlay}) {
      auto result = core::queries::CountPerHourInRegion(
          engine, s.moft_name, s.neighborhoods_layer,
          GeometryPredicate::AttributeLess("income", s.income_threshold),
          morning, strategy);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.ValueOrDie().tuple_count, 4);
      EXPECT_EQ(result.ValueOrDie().hour_count, 3);
      EXPECT_EQ(result.ValueOrDie().per_hour, 4.0 / 3.0)
          << core::StrategyToString(strategy) << " t" << threads;
    }
  }
}

}  // namespace
}  // namespace piet
