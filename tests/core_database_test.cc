#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/queries.h"
#include "gis/density.h"
#include "workload/scenario.h"

namespace piet::core {
namespace {

using workload::Figure1Scenario;

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = workload::BuildFigure1Scenario();
    ASSERT_TRUE(scenario.ok());
    scenario_ = std::move(scenario).ValueOrDie();
  }
  Figure1Scenario scenario_;
};

TEST_F(DatabaseTest, MoftRegistry) {
  GeoOlapDatabase& db = *scenario_.db;
  EXPECT_TRUE(db.GetMoft("FMbus").ok());
  EXPECT_TRUE(db.GetMoft("nope").status().IsNotFound());
  EXPECT_EQ(db.MoftNames(), std::vector<std::string>{"FMbus"});
  moving::Moft extra;
  ASSERT_TRUE(extra.Add(1, temporal::TimePoint(0), {0, 0}).ok());
  EXPECT_TRUE(db.AddMoft("FMbus", std::move(extra)).IsAlreadyExists());
}

TEST_F(DatabaseTest, FactTableRegistry) {
  GeoOlapDatabase& db = *scenario_.db;
  olap::FactTable facts = olap::FactTable::Make({"neighborhood"}, {"pop"});
  ASSERT_TRUE(facts.Append({Value("N0"), Value(1000.0)}).ok());
  ASSERT_TRUE(db.AddFactTable("population", std::move(facts)).ok());
  EXPECT_TRUE(db.GetFactTable("population").ok());
  EXPECT_TRUE(db.GetFactTable("missing").status().IsNotFound());
  olap::FactTable dup = olap::FactTable::Make({"x"}, {});
  EXPECT_TRUE(db.AddFactTable("population", std::move(dup)).IsAlreadyExists());
}

TEST_F(DatabaseTest, OverlayLifecycle) {
  GeoOlapDatabase& db = *scenario_.db;
  EXPECT_FALSE(db.HasOverlay());
  EXPECT_TRUE(db.overlay().status().IsNotFound());
  EXPECT_TRUE(db.OverlayLayerIndex("Ln").status().IsNotFound());

  ASSERT_TRUE(db.BuildOverlay({"Ln"}).ok());
  EXPECT_TRUE(db.HasOverlay());
  EXPECT_EQ(db.OverlayLayerIndex("Ln").ValueOrDie(), 0u);
  EXPECT_TRUE(db.OverlayLayerIndex("Lr").status().IsNotFound());

  // Building over a polyline layer fails.
  EXPECT_FALSE(db.BuildOverlay({"Lr"}).ok());
  // Unknown layer fails.
  EXPECT_TRUE(db.BuildOverlay({"Bogus"}).IsNotFound());
}

TEST_F(DatabaseTest, Type8TrajectoryAggregates) {
  GeoOlapDatabase& db = *scenario_.db;
  QueryEngine engine(&db);
  GeometryPredicate low = GeometryPredicate::AttributeLess("income", 1500.0);

  auto table = engine.TrajectoryAggregates("FMbus", "Ln", low);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  // O1 (entire trajectory), O2 (pass through), O6 (unsampled drive-by).
  std::set<int64_t> oids;
  for (const auto& row : table.ValueOrDie().rows()) {
    oids.insert(row[0].AsIntUnchecked());
  }
  EXPECT_EQ(oids, (std::set<int64_t>{1, 2, 6}));

  auto agg = queries::AggregateTrajectories(engine, "FMbus", "Ln", low);
  ASSERT_TRUE(agg.ok());
  const auto& a = agg.ValueOrDie();
  EXPECT_EQ(a.objects, 3);
  EXPECT_GT(a.total_distance, 0.0);
  // O1 alone contributes its full 3h domain.
  EXPECT_GT(a.total_seconds, 3 * 3600.0);
  EXPECT_GE(a.total_visits, 3);

  // O1's distance inside == its whole path length.
  auto moft = db.GetMoft("FMbus").ValueOrDie();
  auto o1 = moving::LinearTrajectory::FromSample(
                moving::TrajectorySample::FromMoft(*moft, 1).ValueOrDie())
                .ValueOrDie();
  double o1_inside = 0.0;
  for (const auto& row : table.ValueOrDie().rows()) {
    if (row[0].AsIntUnchecked() == 1) {
      o1_inside += row[2].AsDoubleUnchecked();
    }
  }
  EXPECT_NEAR(o1_inside, o1.Length(), 1e-9);
}

TEST_F(DatabaseTest, Type1SummableTotalMass) {
  GeoOlapDatabase& db = *scenario_.db;
  QueryEngine engine(&db);
  auto layer = db.gis().GetLayer("Ln").ValueOrDie();

  // Population density 2 people per unit area everywhere.
  gis::ConstantDensity density(2.0);
  auto low_mass = queries::TotalMassInRegions(
      engine, "Ln", GeometryPredicate::AttributeLess("income", 1500.0),
      density);
  ASSERT_TRUE(low_mass.ok());
  // N1 = 40x40 cell -> area 1600 -> mass 3200.
  EXPECT_DOUBLE_EQ(low_mass.ValueOrDie(), 3200.0);

  auto all_mass = queries::TotalMassInRegions(
      engine, "Ln", GeometryPredicate::All(), density);
  ASSERT_TRUE(all_mass.ok());
  EXPECT_DOUBLE_EQ(all_mass.ValueOrDie(), 2.0 * 120.0 * 80.0);
  (void)layer;
}

TEST_F(DatabaseTest, Type2NumericConditionInRegion) {
  // "Provinces crossed by a river with population above X": combine an
  // attribute condition with the geometric one. Here: low-income regions
  // containing a school.
  GeoOlapDatabase& db = *scenario_.db;
  QueryEngine engine(&db);
  auto schools = db.gis().GetLayer("Ls").ValueOrDie();
  GeometryPredicate has_school(
      [schools](const gis::Layer& layer, gis::GeometryId id) {
        auto pg = layer.GetPolygon(id);
        if (!pg.ok()) {
          return false;
        }
        for (gis::GeometryId s : schools->ids()) {
          auto p = schools->GetPoint(s);
          if (p.ok() && pg.ValueOrDie()->Contains(p.ValueOrDie())) {
            return true;
          }
        }
        return false;
      });
  GeometryPredicate low = GeometryPredicate::AttributeLess("income", 1500.0);
  auto ids = engine.QualifyingGeometries("Ln", low.And(has_school));
  ASSERT_TRUE(ids.ok());
  // Only N1 is low-income AND has the (70,25) school.
  ASSERT_EQ(ids.ValueOrDie().size(), 1u);
  EXPECT_EQ(ids.ValueOrDie()[0], scenario_.low_income_neighborhood);
}

TEST_F(DatabaseTest, MoveTransfersClassificationCache) {
  GeoOlapDatabase& db = *scenario_.db;
  ASSERT_TRUE(db.BuildOverlay({"Ln"}).ok());
  auto before = db.ClassifySamples("FMbus", "Ln");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(db.classification_cache_size(), 1u);
  const uint64_t epoch = db.overlay_epoch();

  // Move construction: the cache entry, its epoch, and the overlay travel
  // together; the moved-from database keeps a valid-but-empty cache (its
  // MOFTs are gone, so surviving entries would dangle).
  GeoOlapDatabase moved(std::move(db));
  EXPECT_EQ(moved.classification_cache_size(), 1u);
  EXPECT_EQ(db.classification_cache_size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.overlay_epoch(), epoch);

  // Move-then-use: the cached classification is served (same shared
  // block, no recomputation) and still holds one hit list per row of the
  // moved MOFT.
  auto after = moved.ClassifySamples("FMbus", "Ln");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().get(), before.ValueOrDie().get());
  const auto* moft = moved.GetMoft("FMbus").ValueOrDie();
  EXPECT_EQ(after.ValueOrDie()->hits.offsets.size(),
            moft->num_samples() + 1);

  // Queries against the moved-to database answer as before the move.
  QueryEngine engine(&moved);
  auto table = engine.TrajectoryAggregates(
      "FMbus", "Ln", GeometryPredicate::AttributeLess("income", 1500.0));
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  std::set<int64_t> oids;
  for (const auto& row : table.ValueOrDie().rows()) {
    oids.insert(row[0].AsIntUnchecked());
  }
  EXPECT_EQ(oids, (std::set<int64_t>{1, 2, 6}));

  // Move assignment transfers the cache the same way.
  auto scenario2 = workload::BuildFigure1Scenario();
  ASSERT_TRUE(scenario2.ok());
  GeoOlapDatabase& target = *scenario2.ValueOrDie().db;
  target = std::move(moved);
  EXPECT_EQ(target.classification_cache_size(), 1u);
  EXPECT_EQ(moved.classification_cache_size(), 0u);  // NOLINT(bugprone-use-after-move)
  auto assigned = target.ClassifySamples("FMbus", "Ln");
  ASSERT_TRUE(assigned.ok());
  EXPECT_EQ(assigned.ValueOrDie().get(), before.ValueOrDie().get());
}

TEST_F(DatabaseTest, WithinDistanceOfLayerPredicate) {
  // "Neighborhoods within distance d of the river": the river grazes the
  // northern row's bottom edge and the southern row's top edge, so at
  // d = 0 all six touch it except N1 (the river bows up to y=41 over N1's
  // x-range, staying 1 unit away at closest)... measure instead with a
  // small positive distance and an impossible one.
  QueryEngine engine(scenario_.db.get());
  GeometryPredicate near_river = GeometryPredicate::WithinDistanceOfLayer(
      &scenario_.db->gis(), "Lr", 2.0);
  auto ids = engine.QualifyingGeometries("Ln", near_river);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.ValueOrDie().size(), 6u);  // Within 2 of the river: all.

  GeometryPredicate touching = GeometryPredicate::WithinDistanceOfLayer(
      &scenario_.db->gis(), "Lr", 0.0);
  auto touch_ids = engine.QualifyingGeometries("Ln", touching);
  ASSERT_TRUE(touch_ids.ok());
  // The river touches everything except N1 (it arcs above y=40 there).
  EXPECT_EQ(touch_ids.ValueOrDie().size(), 5u);
  for (auto id : touch_ids.ValueOrDie()) {
    EXPECT_NE(id, scenario_.low_income_neighborhood);
  }

  // Proximity to schools (node layer): N1 hosts the (70,25) school.
  GeometryPredicate near_school = GeometryPredicate::WithinDistanceOfLayer(
      &scenario_.db->gis(), "Ls", 0.0);
  auto school_ids = engine.QualifyingGeometries("Ln", near_school);
  ASSERT_TRUE(school_ids.ok());
  EXPECT_EQ(school_ids.ValueOrDie().size(), 3u);  // N0, N1, N5 host schools.

  // Unknown layer: predicate is false everywhere (no crash).
  GeometryPredicate bogus = GeometryPredicate::WithinDistanceOfLayer(
      &scenario_.db->gis(), "Nope", 10.0);
  EXPECT_EQ(engine.QualifyingGeometries("Ln", bogus).ValueOrDie().size(), 0u);
}

}  // namespace
}  // namespace piet::core
