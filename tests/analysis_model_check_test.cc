#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/model_check.h"
#include "geometry/polygon.h"
#include "gis/fact_table.h"
#include "gis/instance.h"
#include "gis/layer.h"
#include "gis/schema.h"
#include "moving/moft.h"
#include "moving_test_util.h"
#include "moving/trajectory.h"
#include "workload/scenario.h"

namespace piet::analysis {
namespace {

using geometry::MakeRectangle;
using gis::GeometryKind;
using gis::Layer;

using KindEdge = std::pair<GeometryKind, GeometryKind>;

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

TEST(ModelCheckTest, GraphCycleFires) {
  ModelChecker checker;
  DiagnosticList out;
  std::vector<KindEdge> edges = {
      {GeometryKind::kNode, GeometryKind::kPolygon},
      {GeometryKind::kPolygon, GeometryKind::kNode},
  };
  checker.CheckGraphEdges("layer 'L'", edges, &out);
  EXPECT_TRUE(out.Has("schema-graph-acyclic")) << out.ToString();
}

TEST(ModelCheckTest, GraphSourceAndSinkFire) {
  ModelChecker checker;
  DiagnosticList out;
  // point has an incoming edge and nothing reaches All: both Def. 1
  // distinguished-node conditions are violated.
  std::vector<KindEdge> edges = {{GeometryKind::kPolygon, GeometryKind::kPoint}};
  checker.CheckGraphEdges("layer 'L'", edges, &out);
  EXPECT_TRUE(out.Has("schema-graph-source")) << out.ToString();
  EXPECT_TRUE(out.Has("schema-graph-sink")) << out.ToString();

  DiagnosticList sink_only;
  std::vector<KindEdge> all_outgoing = {
      {GeometryKind::kPoint, GeometryKind::kAll},
      {GeometryKind::kAll, GeometryKind::kPoint},
  };
  checker.CheckGraphEdges("layer 'L'", all_outgoing, &sink_only);
  // A cycle through All is reported as the cycle, which subsumes the rest.
  EXPECT_TRUE(sink_only.Has("schema-graph-acyclic")) << sink_only.ToString();
}

TEST(ModelCheckTest, CanonicalGraphsAreClean) {
  ModelChecker checker;
  DiagnosticList out;
  checker.CheckGraphEdges("polygon", gis::GeometryGraph::PolygonLayerGraph().edges(), &out);
  checker.CheckGraphEdges("polyline", gis::GeometryGraph::PolylineLayerGraph().edges(), &out);
  checker.CheckGraphEdges("node", gis::GeometryGraph::NodeLayerGraph().edges(), &out);
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
  EXPECT_TRUE(out.Has("rollup-functional")) << out.ToString();
  EXPECT_TRUE(out.Has("rollup-total")) << out.ToString();
  EXPECT_TRUE(out.Has("rollup-dangling")) << out.ToString();
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

  ModelChecker checker;
  DiagnosticList out;
  checker.CheckGisFactTable("pop", table, &out);
  ASSERT_TRUE(out.Has("fact-table-total")) << out.ToString();
  EXPECT_NE(out[0].entity.find("Ln"), std::string::npos);
}

TEST(ModelCheckTest, AtLeastSixDistinctCheckIdsDemonstrable) {
  // The acceptance bar: distinct check IDs must be demonstrably reachable
  // from corrupted inputs. Collect everything the tests above corrupt.
  ModelChecker checker;
  DiagnosticList out;
  checker.CheckGraphEdges("g",
                          {{GeometryKind::kNode, GeometryKind::kPolygon},
                           {GeometryKind::kPolygon, GeometryKind::kNode}},
                          &out);
  checker.CheckGraphEdges(
      "g2", {{GeometryKind::kPolygon, GeometryKind::kPoint}}, &out);
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

}  // namespace
}  // namespace piet::analysis
