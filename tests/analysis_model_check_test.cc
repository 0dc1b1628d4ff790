#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/lint/schema_lint.h"
#include "analysis/model_check.h"
#include "core/database.h"
#include "geometry/polygon.h"
#include "gis/fact_table.h"
#include "gis/instance.h"
#include "gis/layer.h"
#include "gis/schema.h"
#include "moving/moft.h"
#include "moving_test_util.h"
#include "moving/trajectory.h"
#include "obs/metrics.h"
#include "workload/city.h"
#include "workload/scenario.h"

namespace piet::analysis {
namespace {

using geometry::MakeRectangle;
using gis::GeometryKind;
using gis::Layer;

using KindEdge = std::pair<GeometryKind, GeometryKind>;
using lint::LintSchema;
using lint::SchemaModel;

/// The schema lattice checks over one raw layer graph named "L".
DiagnosticList LintGraph(std::vector<KindEdge> edges) {
  SchemaModel model;
  model.graphs.push_back({"L", std::move(edges)});
  return LintSchema(model);
}

TEST(DiagnosticListTest, SeveritiesAndStatus) {
  DiagnosticList list;
  EXPECT_TRUE(list.empty());
  EXPECT_TRUE(list.ToStatus().ok());

  list.AddWarning("traj-speed-bound", "moft 'M' oid 1", "fast leg");
  EXPECT_FALSE(list.HasErrors());
  EXPECT_TRUE(list.ToStatus().ok());

  list.AddError("moft-time-monotonic", "moft 'M' oid 2", "t went backwards");
  EXPECT_TRUE(list.HasErrors());
  EXPECT_EQ(list.NumErrors(), 1u);
  EXPECT_TRUE(list.Has("moft-time-monotonic"));
  EXPECT_FALSE(list.Has("overlay-partition"));

  Status status = list.ToStatus();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("moft-time-monotonic"), std::string::npos);
  EXPECT_NE(status.message().find("moft 'M' oid 2"), std::string::npos);

  list.DowngradeErrorsToWarnings();
  EXPECT_FALSE(list.HasErrors());
  EXPECT_TRUE(list.ToStatus().ok());
  EXPECT_EQ(list.size(), 2u);  // Downgrading keeps the findings.
}

TEST(ModelCheckTest, Figure1DatabaseIsClean) {
  auto scenario = workload::BuildFigure1Scenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  DiagnosticList diags = scenario.ValueOrDie().db->CheckAll();
  EXPECT_TRUE(diags.empty()) << diags.ToString();
}

// The Def. 1 graph checks are lint::LintSchema's; the model checker reports
// them for a live instance through CheckInstance.

TEST(ModelCheckTest, GraphCycleFires) {
  const DiagnosticList out = LintGraph({
      {GeometryKind::kNode, GeometryKind::kPolygon},
      {GeometryKind::kPolygon, GeometryKind::kNode},
  });
  EXPECT_TRUE(out.Has("lint-graph-cycle")) << out.ToString();
}

bool HasMessage(const DiagnosticList& list, const std::string& check_id,
                const std::string& text) {
  for (const Diagnostic& d : list) {
    if (d.check_id == check_id && d.message.find(text) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(ModelCheckTest, GraphSourceAndSinkFire) {
  // point has an incoming edge and nothing reaches All: both Def. 1
  // distinguished-node conditions are violated.
  const DiagnosticList out =
      LintGraph({{GeometryKind::kPolygon, GeometryKind::kPoint}});
  EXPECT_TRUE(HasMessage(out, "lint-graph-shape", "enters 'point'"))
      << out.ToString();
  EXPECT_TRUE(HasMessage(out, "lint-graph-shape", "does not reach All"))
      << out.ToString();

  // A cycle through All is reported as the cycle, which subsumes the rest.
  const DiagnosticList sink_only = LintGraph({
      {GeometryKind::kPoint, GeometryKind::kAll},
      {GeometryKind::kAll, GeometryKind::kPoint},
  });
  EXPECT_TRUE(sink_only.Has("lint-graph-cycle")) << sink_only.ToString();
  EXPECT_FALSE(sink_only.Has("lint-graph-shape")) << sink_only.ToString();
}

TEST(ModelCheckTest, CanonicalGraphsAreClean) {
  SchemaModel model;
  model.graphs = {
      {"polygon", gis::GeometryGraph::PolygonLayerGraph().edges()},
      {"polyline", gis::GeometryGraph::PolylineLayerGraph().edges()},
      {"node", gis::GeometryGraph::NodeLayerGraph().edges()},
  };
  const DiagnosticList out = LintSchema(model);
  EXPECT_TRUE(out.empty()) << out.ToString();
}

TEST(ModelCheckTest, RollupViolationsFire) {
  gis::GisDimensionSchema schema;
  ASSERT_TRUE(
      schema.AddLayerGraph("L", gis::GeometryGraph::PolylineLayerGraph()).ok());
  gis::GisDimensionInstance instance(std::move(schema));
  auto lines = std::make_shared<Layer>("L", GeometryKind::kLine);
  gis::GeometryId a =
      lines->AddPolyline(geometry::Polyline({{0, 0}, {1, 0}})).ValueOrDie();
  gis::GeometryId b =
      lines->AddPolyline(geometry::Polyline({{1, 0}, {2, 0}})).ValueOrDie();
  ASSERT_TRUE(instance.AddLayer(lines).ok());

  // a -> {100, 101}: not a function. b has no image: not total. 99 is not an
  // element of L: dangling.
  ASSERT_TRUE(instance
                  .AddGeometryRollup("L", GeometryKind::kLine, a,
                                     GeometryKind::kPolyline, 100)
                  .ok());
  ASSERT_TRUE(instance
                  .AddGeometryRollup("L", GeometryKind::kLine, a,
                                     GeometryKind::kPolyline, 101)
                  .ok());
  ASSERT_TRUE(instance
                  .AddGeometryRollup("L", GeometryKind::kLine, 99,
                                     GeometryKind::kPolyline, 100)
                  .ok());
  (void)b;

  ModelChecker checker;
  DiagnosticList out;
  checker.CheckInstance(instance, &out);
  EXPECT_TRUE(out.Has("lint-rollup-functional")) << out.ToString();
  EXPECT_TRUE(out.Has("lint-rollup-total")) << out.ToString();
  EXPECT_TRUE(out.Has("lint-rollup-dangling")) << out.ToString();
}

TEST(ModelCheckTest, MissingLayerInstanceFires) {
  gis::GisDimensionSchema schema;
  ASSERT_TRUE(
      schema.AddLayerGraph("Ln", gis::GeometryGraph::PolygonLayerGraph()).ok());
  gis::GisDimensionInstance instance(std::move(schema));

  ModelChecker checker;
  DiagnosticList out;
  checker.CheckInstance(instance, &out);
  EXPECT_TRUE(out.Has("instance-layer-missing")) << out.ToString();
}

TEST(ModelCheckTest, SampleStreamViolationsFire) {
  ModelChecker checker;
  DiagnosticList out;
  std::vector<moving::Sample> samples = {
      {1, temporal::TimePoint(1.0), {0, 0}},
      {1, temporal::TimePoint(1.0), {5, 5}},  // duplicate (Oid, t)
      {1, temporal::TimePoint(0.5), {6, 6}},  // time went backwards
      {2,
       temporal::TimePoint(2.0),
       {std::numeric_limits<double>::quiet_NaN(), 0}},  // non-finite
  };
  checker.CheckSamples("moft 'M'", samples, &out);
  EXPECT_TRUE(out.Has("moft-duplicate-sample")) << out.ToString();
  EXPECT_TRUE(out.Has("moft-time-monotonic")) << out.ToString();
  EXPECT_TRUE(out.Has("moft-finite-coords")) << out.ToString();
  // Interleaved objects are tracked independently: oid 2's single sample
  // raises no ordering diagnostics.
  EXPECT_EQ(out.NumErrors(), 3u) << out.ToString();
}

TEST(ModelCheckTest, NonFiniteCoordsFireOnRealMoft) {
  // Moft::Add refuses NaN positions, but a block file bypasses it —
  // exactly the corruption CheckMoft must catch.
  Result<moving::Moft> opened = moving::MoftFromBlockFile(
      moving::NanPositionColumns(), "piet_model_check_nan.pietblk");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const moving::Moft& moft = opened.ValueOrDie();

  ModelChecker checker;
  DiagnosticList out;
  checker.CheckMoft("FMbus", moft, &out);
  EXPECT_TRUE(out.Has("moft-finite-coords")) << out.ToString();
}

TEST(ModelCheckTest, TrajectoryContinuityFires) {
  ModelChecker checker;
  DiagnosticList out;
  std::vector<moving::TimedPoint> backwards = {
      {temporal::TimePoint(2.0), {0, 0}},
      {temporal::TimePoint(1.0), {1, 1}},
  };
  checker.CheckTrajectory("moft 'M' oid 1", backwards, &out);
  EXPECT_TRUE(out.Has("traj-continuity")) << out.ToString();

  DiagnosticList jump;
  std::vector<moving::TimedPoint> teleport = {
      {temporal::TimePoint(1.0), {0, 0}},
      {temporal::TimePoint(1.0), {10, 0}},
  };
  checker.CheckTrajectory("moft 'M' oid 2", teleport, &jump);
  EXPECT_TRUE(jump.Has("traj-continuity")) << jump.ToString();
}

TEST(ModelCheckTest, SpeedBoundIsAWarning) {
  ModelCheckOptions options;
  options.max_speed = 10.0;
  ModelChecker checker(options);
  DiagnosticList out;
  std::vector<moving::TimedPoint> fast = {
      {temporal::TimePoint(0.0), {0, 0}},
      {temporal::TimePoint(1.0), {100, 0}},  // 100 units/s
  };
  checker.CheckTrajectory("moft 'M' oid 1", fast, &out);
  ASSERT_TRUE(out.Has("traj-speed-bound")) << out.ToString();
  EXPECT_FALSE(out.HasErrors());  // Implausible, not ill-formed.

  // Within the bound: silent.
  DiagnosticList ok;
  std::vector<moving::TimedPoint> slow = {
      {temporal::TimePoint(0.0), {0, 0}},
      {temporal::TimePoint(1.0), {5, 0}},
  };
  checker.CheckTrajectory("moft 'M' oid 1", slow, &ok);
  EXPECT_TRUE(ok.empty()) << ok.ToString();
}

TEST(ModelCheckTest, OverlayViolationsFire) {
  ModelChecker checker;
  DiagnosticList out;
  // Two unit squares overlapping on [0.5, 1] x [0, 1].
  std::vector<geometry::Polygon> overlapping = {
      MakeRectangle(0, 0, 1, 1),
      MakeRectangle(0.5, 0, 1.5, 1),
  };
  checker.CheckOverlayCells("overlay", overlapping, /*expected_area=*/-1.0,
                            &out);
  EXPECT_TRUE(out.Has("overlay-partition")) << out.ToString();

  DiagnosticList area;
  std::vector<geometry::Polygon> disjoint = {
      MakeRectangle(0, 0, 1, 1),
      MakeRectangle(2, 0, 3, 1),
  };
  checker.CheckOverlayCells("overlay", disjoint, /*expected_area=*/5.0, &area);
  EXPECT_TRUE(area.Has("overlay-area-conservation")) << area.ToString();

  DiagnosticList clean;
  checker.CheckOverlayCells("overlay", disjoint, /*expected_area=*/2.0,
                            &clean);
  EXPECT_TRUE(clean.empty()) << clean.ToString();
}

TEST(ModelCheckTest, FactTableTotalityFires) {
  Layer layer("Ln", GeometryKind::kPolygon);
  gis::GeometryId a = layer.AddPolygon(MakeRectangle(0, 0, 1, 1)).ValueOrDie();
  gis::GeometryId b = layer.AddPolygon(MakeRectangle(1, 0, 2, 1)).ValueOrDie();
  gis::GisFactTable table(&layer, {"population"});
  ASSERT_TRUE(table.Set(a, {100.0}).ok());
  (void)b;  // b carries no fact.

  // Def. 3 totality is the lint summability precondition over the table's
  // coverage of its layer's level.
  SchemaModel model;
  model.graphs.push_back(
      {"Ln", gis::GeometryGraph::PolygonLayerGraph().edges()});
  model.levels.push_back({"Ln", GeometryKind::kPolygon, layer.ids()});
  SchemaModel::FactTable fact{"pop", "Ln", GeometryKind::kPolygon, {}};
  for (gis::GeometryId id : layer.ids()) {
    if (table.Get(id).ok()) {
      fact.ids.push_back(id);
    }
  }
  model.fact_tables.push_back(fact);
  const DiagnosticList out = LintSchema(model);
  ASSERT_EQ(out.size(), 1u) << out.ToString();
  EXPECT_EQ(out[0].check_id, "lint-summability");
  EXPECT_NE(out[0].entity.find("pop"), std::string::npos);
  EXPECT_NE(out[0].message.find("member " + std::to_string(b)),
            std::string::npos)
      << out.ToString();
}

TEST(ModelCheckTest, AtLeastSixDistinctCheckIdsDemonstrable) {
  // The acceptance bar: distinct check IDs must be demonstrably reachable
  // from corrupted inputs. Collect everything the tests above corrupt.
  ModelChecker checker;
  DiagnosticList out;
  out.Merge(LintGraph({{GeometryKind::kNode, GeometryKind::kPolygon},
                       {GeometryKind::kPolygon, GeometryKind::kNode}}));
  out.Merge(LintGraph({{GeometryKind::kPolygon, GeometryKind::kPoint}}));
  checker.CheckSamples("m",
                       {{1, temporal::TimePoint(1.0), {0, 0}},
                        {1, temporal::TimePoint(1.0), {5, 5}},
                        {1, temporal::TimePoint(0.5), {6, 6}},
                        {2,
                         temporal::TimePoint(0.0),
                         {std::numeric_limits<double>::infinity(), 0}}},
                       &out);
  checker.CheckTrajectory("t",
                          {{temporal::TimePoint(2.0), {0, 0}},
                           {temporal::TimePoint(1.0), {1, 1}}},
                          &out);
  checker.CheckOverlayCells(
      "o", {MakeRectangle(0, 0, 1, 1), MakeRectangle(0.5, 0, 1.5, 1)},
      /*expected_area=*/10.0, &out);
  EXPECT_GE(out.CheckIds().size(), 6u) << out.ToString();
}

// ---------------------------------------------------------------------------
// A check-mode load walks the MOFT's blocks like a query scan: an opened
// (cold) table is decoded block by block, its hot tier is never rebuilt,
// and a block that fails to decode fails a strict load.

/// 40 objects of 25 samples each, sorted by (oid, t) with spans built.
moving::MoftColumns ManyObjectColumns() {
  moving::Moft moft;
  moft.SetBlockOptions(moving::BlockOptions{});
  for (moving::ObjectId oid = 1; oid <= 40; ++oid) {
    for (int i = 0; i < 25; ++i) {
      EXPECT_TRUE(moft.Add(oid, temporal::TimePoint(60.0 * i),
                           {static_cast<double>(oid), 2.0 * i})
                      .ok());
    }
  }
  return moft.Columns();
}

std::unique_ptr<core::GeoOlapDatabase> StrictEmptyDb() {
  auto db = std::make_unique<core::GeoOlapDatabase>(
      gis::GisDimensionInstance(gis::GisDimensionSchema()));
  db->set_check_mode(CheckMode::kStrict);
  return db;
}

TEST(ModelCheckTest, StrictLoadLeavesAnOpenedMoftCold) {
  obs::SetEnabled(true);
  Result<moving::Moft> opened = moving::MoftFromBlockFile(
      ManyObjectColumns(), "piet_model_check_cold.pietblk");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_FALSE(opened.ValueOrDie().Footprint().hot);

  auto& registry = obs::MetricsRegistry::Global();
  const int64_t mats0 =
      registry.GetCounter("moft.hot_materializations").Value();
  std::unique_ptr<core::GeoOlapDatabase> db = StrictEmptyDb();
  ASSERT_TRUE(db->AddMoft("cold", std::move(opened).ValueOrDie()).ok());
  EXPECT_TRUE(db->last_load_diagnostics().empty())
      << db->last_load_diagnostics().ToString();
  EXPECT_EQ(registry.GetCounter("moft.hot_materializations").Value(), mats0);
  EXPECT_FALSE(db->GetMoft("cold").ValueOrDie()->Footprint().hot);
}

TEST(ModelCheckTest, GarbledBlockFileFailsStrictLoad) {
  moving::BlockOptions opts;
  opts.block_rows = 100;
  Result<moving::Moft> garbled = moving::MoftFromGarbledBlockFile(
      ManyObjectColumns(), opts, "piet_model_check_garbled.pietblk");
  ASSERT_TRUE(garbled.ok()) << garbled.status().ToString();

  DiagnosticList out;
  ModelChecker().CheckMoft("bad", garbled.ValueOrDie(), &out);
  EXPECT_TRUE(out.Has("moft-block-decode")) << out.ToString();

  std::unique_ptr<core::GeoOlapDatabase> db = StrictEmptyDb();
  const Status loaded = db->AddMoft("bad", std::move(garbled).ValueOrDie());
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.message().find("moft-block-decode"), std::string::npos)
      << loaded.ToString();
}

// ---------------------------------------------------------------------------
// Seeded corruption sweep: generated cities are clean under CheckAll(), and
// each defect injected through the public gis API makes CheckAll() report
// exactly its one check ID.

std::vector<std::string> CheckIdsOf(const core::GeoOlapDatabase& db) {
  return db.CheckAll().CheckIds();
}

/// Stores r^{polygon,All} for every neighborhood but `skip`.
void AddNeighborhoodRollup(workload::City* city, size_t skip) {
  const std::vector<gis::GeometryId> ids =
      city->db->gis().GetLayer(city->neighborhoods_layer).ValueOrDie()->ids();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i != skip) {
      ASSERT_TRUE(city->db->mutable_gis()
                      .AddGeometryRollup(city->neighborhoods_layer,
                                         GeometryKind::kPolygon, ids[i],
                                         GeometryKind::kAll, 0)
                      .ok());
    }
  }
}

TEST(ModelCheckTest, SeededCorruptionSweep) {
  using Ids = std::vector<std::string>;
  constexpr size_t kNone = static_cast<size_t>(-1);
  for (int side : {3, 6, 12}) {
    workload::CityConfig config;
    config.grid_cols = side;
    config.grid_rows = side;
    auto make = [&config]() {
      Result<workload::City> city = workload::GenerateCity(config);
      EXPECT_TRUE(city.ok()) << city.status().ToString();
      return std::move(city).ValueOrDie();
    };
    const std::string at = "city " + std::to_string(side);

    workload::City clean = make();
    AddNeighborhoodRollup(&clean, kNone);
    EXPECT_EQ(CheckIdsOf(*clean.db), Ids{}) << at;

    workload::City nonfunctional = make();
    AddNeighborhoodRollup(&nonfunctional, kNone);
    ASSERT_TRUE(nonfunctional.db->mutable_gis()
                    .AddGeometryRollup("neighborhoods", GeometryKind::kPolygon,
                                       0, GeometryKind::kAll, 1)
                    .ok());
    EXPECT_EQ(CheckIdsOf(*nonfunctional.db), Ids{"lint-rollup-functional"})
        << at;

    workload::City partial = make();
    AddNeighborhoodRollup(&partial, /*skip=*/1);
    EXPECT_EQ(CheckIdsOf(*partial.db), Ids{"lint-rollup-total"}) << at;

    workload::City dangling_fine = make();
    AddNeighborhoodRollup(&dangling_fine, kNone);
    ASSERT_TRUE(dangling_fine.db->mutable_gis()
                    .AddGeometryRollup("neighborhoods", GeometryKind::kPolygon,
                                       99999, GeometryKind::kAll, 0)
                    .ok());
    EXPECT_EQ(CheckIdsOf(*dangling_fine.db), Ids{"lint-rollup-dangling"})
        << at;

    // The streets layer stores polylines, so a line->polyline relation's
    // coarse ids are checked against it.
    workload::City dangling_coarse = make();
    ASSERT_TRUE(dangling_coarse.db->mutable_gis()
                    .AddGeometryRollup("streets", GeometryKind::kLine, 0,
                                       GeometryKind::kPolyline, 99999)
                    .ok());
    EXPECT_EQ(CheckIdsOf(*dangling_coarse.db), Ids{"lint-rollup-dangling"})
        << at;

    // BindAlpha refuses a missing geometry, so α can only dangle in a raw
    // model: corrupt one pair of the city's snapshot.
    SchemaModel alpha_model = SchemaModel::FromInstance(clean.db->gis());
    ASSERT_FALSE(alpha_model.alphas.empty());
    alpha_model.alphas.front().pairs.front().second = 99999;
    EXPECT_EQ(LintSchema(alpha_model).CheckIds(), Ids{"lint-alpha-dangling"})
        << at;

    // A schema layer with no instance: the city's schema plus "parks", and
    // every city layer registered again (empty).
    gis::GisDimensionSchema schema = clean.db->gis().schema();
    ASSERT_TRUE(
        schema.AddLayerGraph("parks", gis::GeometryGraph::PolygonLayerGraph())
            .ok());
    gis::GisDimensionInstance missing(std::move(schema));
    for (const std::string& name : clean.db->gis().LayerNames()) {
      const Layer* layer = clean.db->gis().GetLayer(name).ValueOrDie();
      ASSERT_TRUE(
          missing.AddLayer(std::make_shared<Layer>(name, layer->kind())).ok());
    }
    const core::GeoOlapDatabase missing_db(std::move(missing));
    EXPECT_EQ(CheckIdsOf(missing_db), Ids{"instance-layer-missing"}) << at;
  }
}

// A 128x128 city whose r^{polygon,All} rollup covers one neighborhood: one
// lint-rollup-total finding per other neighborhood, all kept, in id order.
TEST(ModelCheckTest, DefectHeavyCityKeepsEveryFindingInOrder) {
  workload::CityConfig config;
  config.grid_cols = 128;
  config.grid_rows = 128;
  Result<workload::City> city = workload::GenerateCity(config);
  ASSERT_TRUE(city.ok()) << city.status().ToString();
  workload::City& c = city.ValueOrDie();
  const std::vector<gis::GeometryId> ids =
      c.db->gis().GetLayer(c.neighborhoods_layer).ValueOrDie()->ids();
  ASSERT_TRUE(c.db->mutable_gis()
                  .AddGeometryRollup(c.neighborhoods_layer,
                                     GeometryKind::kPolygon, ids[0],
                                     GeometryKind::kAll, 0)
                  .ok());

  const DiagnosticList diags = c.db->CheckAll();
  ASSERT_EQ(diags.size(), ids.size() - 1);
  for (size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    ASSERT_EQ(d.check_id, "lint-rollup-total") << i;
    ASSERT_EQ(d.severity, Severity::kError) << i;
    ASSERT_EQ(d.entity, "rollup polygon->All in layer 'neighborhoods'") << i;
    ASSERT_EQ(d.message, "fine id " + std::to_string(ids[i + 1]) +
                             " has no image; rollup must be total")
        << i;
  }
}

}  // namespace
}  // namespace piet::analysis
