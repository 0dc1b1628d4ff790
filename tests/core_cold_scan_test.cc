// Cold-scan oracle: every engine method and every Piet-QL moft_intersect
// branch — each sample scan under both a pure window (the window probe)
// and a window with a rollup conjunct (the row walk) — answers the same
// over each storage tier — one hot block, 256-row hot blocks without
// payloads, compressed blocks with the hot tier released, and a spilled
// file with the hot tier released — at 1 and 4 threads. On the released
// tiers no query rebuilds the whole-table hot tier, each query decodes an
// admitted block at most once, and every pin is back once the query
// returns. Each Piet-QL query's fix-it answers like the query as written,
// and a query FixQuery leaves alone scans alike in both runs. A block file
// whose payload fails to decode fails the query instead of dropping rows.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint/query_lint.h"
#include "core/engine.h"
#include "core/pietql/evaluator.h"
#include "core/pietql/parser.h"
#include "core/pietql/printer.h"
#include "moving/block_store.h"
#include "moving/moft.h"
#include "moving_test_util.h"
#include "obs/metrics.h"
#include "workload/city.h"
#include "workload/trajectories.h"

namespace piet {
namespace {

using core::GeometryPredicate;
using core::QueryEngine;
using core::Strategy;
using core::TimePredicate;
using moving::BlockOptions;
using moving::Moft;
using moving::MoftColumns;
using moving::Sample;
using temporal::Interval;
using temporal::TimePoint;
using workload::City;

constexpr double kEraSeconds = 3600.0;
constexpr int kEras = 3;

enum class Tier { kHot, kHotBlocks, kCompressed, kSpilled };

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kHot: return "hot";
    case Tier::kHotBlocks: return "hot_blocks";
    case Tier::kCompressed: return "compressed";
    case Tier::kSpilled: return "spilled";
  }
  return "?";
}

bool Released(Tier tier) {
  return tier == Tier::kCompressed || tier == Tier::kSpilled;
}

/// A 6x6 city whose fleet is staggered across eras (object rank r lives in
/// era r * kEras / n), so blocks cover distinct time ranges and a window
/// admits only some of them.
std::unique_ptr<City> MakeCity() {
  workload::CityConfig config;
  config.seed = 4711;
  config.grid_cols = 6;
  config.grid_rows = 6;
  return std::make_unique<City>(
      std::move(workload::GenerateCity(config)).ValueOrDie());
}

Moft MakeCars(const City& city, Tier tier) {
  workload::TrajectoryConfig traj;
  traj.seed = 31;
  traj.num_objects = 36;
  traj.duration = kEraSeconds;
  traj.sample_period = 30.0;
  traj.speed = 12.0;
  const Moft base = workload::GenerateTrajectories(city, traj).ValueOrDie();
  const MoftColumns& cols = base.Columns();
  BlockOptions opts;
  if (tier != Tier::kHot) {
    opts.block_rows = 256;
    opts.compress = tier != Tier::kHotBlocks;
    opts.spill_dir = ::testing::TempDir();
  }
  Moft out;
  out.SetBlockOptions(opts);
  for (size_t sp = 0; sp < cols.spans.size(); ++sp) {
    const double offset =
        kEraSeconds * static_cast<double>((sp * kEras) / cols.spans.size());
    for (size_t i = cols.spans[sp].begin; i < cols.spans[sp].end; ++i) {
      const Sample s = cols.at(i);
      EXPECT_TRUE(
          out.Add(s.oid, TimePoint(s.t.seconds + offset), s.pos).ok());
    }
  }
  (void)out.Columns();  // Seal with the tier's options.
  if (tier == Tier::kSpilled) {
    EXPECT_TRUE(out.SpillToDisk().ok());
  } else if (tier == Tier::kCompressed) {
    out.ReleaseHot();
  }
  return out;
}

std::string Stamp(double s) {
  return std::to_string(static_cast<int64_t>(s));
}

// A window inside era 1 and the same window with a rollup conjunct, which
// forces the row-scan paths instead of the window probe.
const Interval kWindow(TimePoint(kEraSeconds + 600.0),
                       TimePoint(kEraSeconds + 1800.0));

std::vector<std::string> PietQlQueries() {
  const std::string between =
      " T BETWEEN " + Stamp(kWindow.begin.seconds) + " AND " +
      Stamp(kWindow.end.seconds);
  const std::string low =
      "SELECT layer.neighborhoods; FROM City; "
      "WHERE ATTR(layer.neighborhoods, income) < 1500 | ";
  const std::string all = "SELECT layer.neighborhoods; FROM City; | ";
  std::vector<std::string> out;
  for (const std::string& time :
       {between, between + " AND TIME.dayOfWeek = 'Saturday'"}) {
    out.push_back(all + "SELECT COUNT(*) FROM cars WHERE" + time);
    out.push_back(all + "SELECT COUNT(*) FROM cars WHERE NEAR(layer.stops, "
                        "60) AND" + time);
    out.push_back(low + "SELECT COUNT(*) FROM cars WHERE INSIDE RESULT AND" +
                  time + " GROUP BY TIME.hour");
    out.push_back(low +
                  "SELECT COUNT(DISTINCT OID) FROM cars WHERE PASSES "
                  "THROUGH RESULT AND" + time);
  }
  return out;
}

/// Every answer of one configuration, in a fixed order: the engine's
/// relations row by row, the Piet-QL results as printed.
struct Answers {
  std::vector<std::vector<olap::Row>> engine;
  std::vector<std::string> pietql;
};

class ColdScan {
 public:
  ColdScan(City* city, int threads)
      : city_(city), engine_(city->db.get()), threads_(threads) {
    engine_.set_num_threads(threads);
    city_->db->set_num_threads(threads);
    moft_ = city_->db->GetMoft("cars").ValueOrDie();
  }

  /// Runs `fn`, then checks the block I/O contract of one query.
  template <typename Fn>
  auto Run(const std::string& what, size_t admitted_blocks, Fn&& fn) {
    auto& registry = obs::MetricsRegistry::Global();
    const int64_t decodes0 = registry.GetCounter("moft.block.decodes").Value();
    const int64_t mats0 =
        registry.GetCounter("moft.hot_materializations").Value();
    auto answer = fn();
    EXPECT_EQ(moft_->Footprint().live_pins, 0) << what;
    if (Released(tier_)) {
      EXPECT_EQ(registry.GetCounter("moft.hot_materializations").Value(),
                mats0)
          << what << ": a query rebuilt the released hot tier";
    }
    EXPECT_LE(registry.GetCounter("moft.block.decodes").Value() - decodes0,
              static_cast<int64_t>(admitted_blocks))
        << what << ": an admitted block was decoded more than once";
    return answer;
  }

  Answers RunAll(Tier tier) {
    tier_ = tier;
    Answers out;
    // Blocks the window admits; every query here carries the window.
    const moving::MoftBlockStore& store = *moft_->block_store();
    moving::ZoneFilter filter;
    filter.window = kWindow;
    size_t admitted = 0;
    for (size_t b = 0; b < store.num_blocks(); ++b) {
      admitted += filter.Admits(store.meta(b)) ? 1 : 0;
    }
    if (tier != Tier::kHot) {
      EXPECT_LT(admitted, store.num_blocks()) << "the window prunes nothing";
    }
    const size_t all_blocks = store.num_blocks();
    const std::string& nb = city_->neighborhoods_layer;
    const GeometryPredicate low =
        GeometryPredicate::AttributeLess("income", 1500.0);
    // A pure window takes the window probe; the same window with an
    // always-true rollup conjunct takes the row walk.
    const TimePredicate window = TimePredicate().Window(kWindow);
    const TimePredicate rollup =
        TimePredicate().Window(kWindow).HourRange(0, 23);
    auto table = [](const Result<olap::FactTable>& t) {
      EXPECT_TRUE(t.ok()) << t.status().ToString();
      return t.ok() ? t.ValueOrDie().rows() : std::vector<olap::Row>{};
    };
    auto ids = [](const Result<std::vector<moving::ObjectId>>& r) {
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      std::vector<olap::Row> rows;
      for (moving::ObjectId id : r.ok() ? r.ValueOrDie()
                                        : std::vector<moving::ObjectId>{}) {
        rows.push_back({Value(id)});
      }
      return rows;
    };
    for (const TimePredicate& when : {window, rollup}) {
      out.engine.push_back(Run("SamplesMatchingTime", admitted, [&] {
        return table(engine_.SamplesMatchingTime("cars", when));
      }));
      for (Strategy s :
           {Strategy::kNaive, Strategy::kIndexed, Strategy::kOverlay}) {
        if (s == Strategy::kOverlay && !city_->db->HasOverlay()) {
          continue;
        }
        out.engine.push_back(Run("SampleRegion", admitted, [&] {
          return table(engine_.SampleRegion("cars", nb, low, when, s));
        }));
      }
      out.engine.push_back(Run("SamplesOnPolylines", admitted, [&] {
        return table(engine_.SamplesOnPolylines(
            "cars", city_->streets_layer, 2.0, when));
      }));
      out.engine.push_back(Run("SamplesNearNodes", admitted, [&] {
        return table(engine_.SamplesNearNodes("cars", city_->stops_layer,
                                              60.0, when));
      }));
      out.engine.push_back(Run("TrajectoryRegion", admitted, [&] {
        return table(engine_.TrajectoryRegion("cars", nb, low, when));
      }));
      out.engine.push_back(Run("TrajectoryNearNodes", admitted, [&] {
        return table(engine_.TrajectoryNearNodes("cars", city_->stops_layer,
                                                 60.0, when));
      }));
      for (bool trajectory : {false, true}) {
        out.engine.push_back(Run("ObjectsAlwaysWithin", admitted, [&] {
          return ids(engine_.ObjectsAlwaysWithin(
              "cars", nb, GeometryPredicate::All(), when, trajectory));
        }));
      }
    }
    // The methods without a time predicate: a snapshot inside the window,
    // and the whole-history ones.
    out.engine.push_back(Run("SnapshotInRegion", admitted, [&] {
      return table(engine_.SnapshotInRegion(
          "cars", nb, low, TimePoint(kWindow.begin.seconds + 300.0)));
    }));
    out.engine.push_back(Run("TrajectoryAggregates", all_blocks, [&] {
      return table(engine_.TrajectoryAggregates("cars", nb, low));
    }));
    out.engine.push_back(Run("ObjectsPossiblyWithin", all_blocks, [&] {
      return ids(engine_.ObjectsPossiblyWithin("cars", nb, low, 15.0));
    }));

    core::pietql::Evaluator eval(city_->db.get());
    eval.set_num_threads(threads_);
    // The aggregate cache borrows the hot columns by design; this test
    // covers the scan branches.
    eval.set_agg_cache_mode(core::aggcache::AggCacheMode::kOff);
    analysis::QueryContext context;
    context.gis = &city_->db->gis();
    size_t unchanged = 0;
    for (const std::string& q : PietQlQueries()) {
      // A fix-it (FixQuery's edit printed back to Piet-QL) answers like the
      // query as written; when FixQuery leaves the query alone, the two
      // runs also scan alike.
      auto parsed = core::pietql::Parse(q);
      if (!parsed.ok()) {
        ADD_FAILURE() << q << ": " << parsed.status().ToString();
        continue;
      }
      const analysis::lint::FixedQuery plan =
          analysis::lint::FixQuery(context, parsed.ValueOrDie());
      std::vector<core::pietql::ProfiledResult> runs;
      for (const std::string& text : {q, core::pietql::Print(plan.query)}) {
        auto r = Run(text, admitted,
                     [&] { return eval.EvaluateStringProfiled(text); });
        EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
        out.pietql.push_back(r.ok() ? r.ValueOrDie().result.ToString()
                                    : r.status().ToString());
        if (r.ok()) {
          runs.push_back(std::move(r).ValueOrDie());
        }
      }
      if (runs.size() != 2) {
        continue;
      }
      EXPECT_EQ(runs[0].result.ToString(), runs[1].result.ToString()) << q;
      if (!plan.applied.empty()) {
        continue;
      }
      ++unchanged;
      const obs::SpanNode* written = runs[0].profile.Find("moft_intersect");
      const obs::SpanNode* fixed = runs[1].profile.Find("moft_intersect");
      if (written == nullptr || fixed == nullptr) {
        ADD_FAILURE() << q << ": no moft_intersect span";
        continue;
      }
      for (const char* attr : {"rows_scanned", "blocks_decoded"}) {
        EXPECT_EQ(written->Attr(attr), fixed->Attr(attr))
            << q << ": " << attr;
      }
    }
    EXPECT_GT(unchanged, 0u);
    return out;
  }

 private:
  City* city_;
  QueryEngine engine_;
  int threads_;
  const Moft* moft_ = nullptr;
  Tier tier_ = Tier::kHot;
};

TEST(ColdScanTest, EveryTierAnswersLikeTheHotTable) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  std::unique_ptr<Answers> hot_plain;
  std::unique_ptr<Answers> hot_classified;
  for (Tier tier :
       {Tier::kHot, Tier::kHotBlocks, Tier::kCompressed, Tier::kSpilled}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(TierName(tier)) + "/threads=" +
                   std::to_string(threads));
      std::unique_ptr<City> city = MakeCity();
      ASSERT_TRUE(city->db->AddMoft("cars", MakeCars(*city, tier)).ok());
      const moving::MoftBlockStore* store =
          city->db->GetMoft("cars").ValueOrDie()->block_store();
      ASSERT_NE(store, nullptr);
      EXPECT_EQ(store->compressed(),
                tier == Tier::kCompressed || tier == Tier::kSpilled);
      ColdScan scan(city.get(), threads);
      // Without an overlay INSIDE RESULT tests polygons; with one it
      // serves the classification (built here, outside any query).
      Answers plain = scan.RunAll(tier);
      ASSERT_TRUE(city->db->BuildOverlay({city->neighborhoods_layer}).ok());
      ASSERT_TRUE(city->db
                      ->ClassifySamples("cars", city->neighborhoods_layer)
                      .ok());
      Answers classified = scan.RunAll(tier);
      EXPECT_EQ(plain.pietql, classified.pietql);
      if (hot_plain == nullptr) {
        hot_plain = std::make_unique<Answers>(std::move(plain));
        hot_classified = std::make_unique<Answers>(std::move(classified));
        continue;
      }
      EXPECT_EQ(plain.engine, hot_plain->engine);
      EXPECT_EQ(plain.pietql, hot_plain->pietql);
      EXPECT_EQ(classified.engine, hot_classified->engine);
    }
  }
  obs::SetEnabled(was_enabled);
}

TEST(ColdScanTest, CorruptBlockFailsTheQuery) {
  std::unique_ptr<City> city = MakeCity();
  const Moft cars = MakeCars(*city, Tier::kHot);
  BlockOptions opts;
  opts.block_rows = 256;
  auto bad = moving::MoftFromGarbledBlockFile(cars.Columns(), opts,
                                              "cold_scan_garbled.pietblk");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  ASSERT_TRUE(city->db->AddMoft("cars", std::move(bad).ValueOrDie()).ok());
  const Moft* moft = city->db->GetMoft("cars").ValueOrDie();
  const TimePredicate all_time = TimePredicate().Window(
      Interval(TimePoint(0.0), TimePoint(kEras * kEraSeconds)));

  for (int threads : {1, 4}) {
    QueryEngine engine(city->db.get());
    engine.set_num_threads(threads);
    auto window = engine.SamplesMatchingTime("cars", all_time);
    EXPECT_FALSE(window.ok());
    auto region = engine.SampleRegion(
        "cars", city->neighborhoods_layer,
        GeometryPredicate::AttributeLess("income", 1e9), TimePredicate(),
        Strategy::kIndexed);
    EXPECT_FALSE(region.ok());

    core::pietql::Evaluator eval(city->db.get());
    eval.set_num_threads(threads);
    auto counted = eval.EvaluateString(
        "SELECT layer.neighborhoods; FROM City; | SELECT COUNT(*) FROM cars "
        "WHERE T BETWEEN 0 AND " + Stamp(kEras * kEraSeconds));
    EXPECT_FALSE(counted.ok());
    EXPECT_EQ(moft->Footprint().live_pins, 0);
  }
}

}  // namespace
}  // namespace piet
