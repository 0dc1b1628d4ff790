#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "core/database.h"
#include "gis/overlay.h"
#include "workload/city.h"

namespace piet::gis {
namespace {

using geometry::MakeRectangle;
using geometry::Point;

// Two partition layers over [0,100]^2: a 4x4 grid and a 2x2 grid.
struct TwoLayers {
  std::shared_ptr<Layer> fine;
  std::shared_ptr<Layer> coarse;
};

TwoLayers MakeGrids() {
  TwoLayers out;
  out.fine = std::make_shared<Layer>("fine", GeometryKind::kPolygon);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      (void)out.fine->AddPolygon(
          MakeRectangle(c * 25, r * 25, (c + 1) * 25, (r + 1) * 25));
    }
  }
  out.coarse = std::make_shared<Layer>("coarse", GeometryKind::kPolygon);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      (void)out.coarse->AddPolygon(
          MakeRectangle(c * 50, r * 50, (c + 1) * 50, (r + 1) * 50));
    }
  }
  return out;
}

TEST(ConvexOverlayTest, BuildsAndLocates) {
  TwoLayers layers = MakeGrids();
  auto overlay =
      OverlayDb::BuildConvex({layers.fine.get(), layers.coarse.get()});
  ASSERT_TRUE(overlay.ok()) << overlay.status().ToString();
  const OverlayDb& db = overlay.ValueOrDie();
  EXPECT_TRUE(db.is_convex_exact());
  // Each fine cell sits in exactly one coarse cell: 16 overlay cells.
  EXPECT_EQ(db.num_cells(), 16u);

  OverlayHit hit = db.Locate({10, 10});
  ASSERT_EQ(hit.per_layer.size(), 2u);
  ASSERT_EQ(hit.per_layer[0].size(), 1u);
  EXPECT_EQ(hit.per_layer[0][0], 0);  // Fine cell (0,0).
  ASSERT_EQ(hit.per_layer[1].size(), 1u);
  EXPECT_EQ(hit.per_layer[1][0], 0);  // Coarse cell (0,0).
}

TEST(ConvexOverlayTest, LocationMatchesDirectTests) {
  TwoLayers layers = MakeGrids();
  auto overlay =
      OverlayDb::BuildConvex({layers.fine.get(), layers.coarse.get()});
  ASSERT_TRUE(overlay.ok());
  const OverlayDb& db = overlay.ValueOrDie();

  Random rng(33);
  for (int i = 0; i < 500; ++i) {
    Point p(rng.UniformDouble(0, 100), rng.UniformDouble(0, 100));
    OverlayHit hit = db.Locate(p);
    auto direct_fine = layers.fine->GeometriesContaining(p);
    auto direct_coarse = layers.coarse->GeometriesContaining(p);
    std::sort(direct_fine.begin(), direct_fine.end());
    std::sort(direct_coarse.begin(), direct_coarse.end());
    EXPECT_EQ(hit.per_layer[0], direct_fine) << p.ToString();
    EXPECT_EQ(hit.per_layer[1], direct_coarse) << p.ToString();
  }
}

TEST(ConvexOverlayTest, BoundaryPointsHitBothSides) {
  TwoLayers layers = MakeGrids();
  auto overlay = OverlayDb::BuildConvex({layers.fine.get()});
  ASSERT_TRUE(overlay.ok());
  auto ids = overlay.ValueOrDie().LocateInLayer({25, 10}, 0);
  EXPECT_EQ(ids.size(), 2u);  // Border of two fine cells.
}

TEST(ConvexOverlayTest, OutsidePointsLocateNothing) {
  TwoLayers layers = MakeGrids();
  auto overlay = OverlayDb::BuildConvex({layers.fine.get()});
  ASSERT_TRUE(overlay.ok());
  EXPECT_TRUE(overlay.ValueOrDie().LocateInLayer({200, 200}, 0).empty());
}

TEST(ConvexOverlayTest, RejectsNonConvex) {
  auto layer = std::make_shared<Layer>("l", GeometryKind::kPolygon);
  geometry::Ring lring(
      {{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}});
  (void)layer->AddPolygon(geometry::Polygon(lring));
  EXPECT_TRUE(
      OverlayDb::BuildConvex({layer.get()}).status().IsInvalidArgument());
}

TEST(ConvexOverlayTest, RejectsNonPartitionSecondLayer) {
  auto base = std::make_shared<Layer>("base", GeometryKind::kPolygon);
  (void)base->AddPolygon(MakeRectangle(0, 0, 100, 100));
  auto partial = std::make_shared<Layer>("partial", GeometryKind::kPolygon);
  (void)partial->AddPolygon(MakeRectangle(0, 0, 10, 10));  // Covers 1%.
  EXPECT_TRUE(OverlayDb::BuildConvex({base.get(), partial.get()})
                  .status()
                  .IsInvalidArgument());
}

TEST(QuadtreeOverlayTest, HandlesNonConvex) {
  auto layer = std::make_shared<Layer>("l", GeometryKind::kPolygon);
  geometry::Ring lring(
      {{0, 0}, {100, 0}, {100, 50}, {50, 50}, {50, 100}, {0, 100}});
  (void)layer->AddPolygon(geometry::Polygon(lring));
  (void)layer->AddPolygon(MakeRectangle(50, 50, 100, 100));

  auto overlay = OverlayDb::BuildQuadtree({layer.get()}, 6);
  ASSERT_TRUE(overlay.ok());
  const OverlayDb& db = overlay.ValueOrDie();
  EXPECT_FALSE(db.is_convex_exact());

  EXPECT_EQ(db.LocateInLayer({25, 25}, 0), (std::vector<GeometryId>{0}));
  EXPECT_EQ(db.LocateInLayer({75, 75}, 0), (std::vector<GeometryId>{1}));
  EXPECT_EQ(db.LocateInLayer({75, 25}, 0), (std::vector<GeometryId>{0}));
}

TEST(QuadtreeOverlayTest, MatchesDirectOnRandomPoints) {
  TwoLayers layers = MakeGrids();
  auto overlay = OverlayDb::BuildQuadtree(
      {layers.fine.get(), layers.coarse.get()}, 7);
  ASSERT_TRUE(overlay.ok());
  const OverlayDb& db = overlay.ValueOrDie();

  Random rng(44);
  for (int i = 0; i < 500; ++i) {
    Point p(rng.UniformDouble(0, 100), rng.UniformDouble(0, 100));
    OverlayHit hit = db.Locate(p);
    auto direct_fine = layers.fine->GeometriesContaining(p);
    std::sort(direct_fine.begin(), direct_fine.end());
    EXPECT_EQ(hit.per_layer[0], direct_fine) << p.ToString();
  }
}

TEST(QuadtreeOverlayTest, DepthCapKeepsCandidates) {
  // Depth 0: the root never refines, everything stays a candidate, yet
  // answers remain exact (candidates resolved at query time).
  TwoLayers layers = MakeGrids();
  auto overlay = OverlayDb::BuildQuadtree({layers.fine.get()}, 0);
  ASSERT_TRUE(overlay.ok());
  EXPECT_EQ(overlay.ValueOrDie().num_cells(), 1u);
  auto ids = overlay.ValueOrDie().LocateInLayer({10, 10}, 0);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 0);
}

TEST(QuadtreeOverlayTest, GridAlignedCityBuildsOneLeafPerBlock) {
  // The 16x16 city of 100-unit blocks with a quarter of its 2x2 groups
  // turned into an L plus a square. Every edge lies on the block grid, so
  // the 100x100 leaves of depth 4 are each covered by one polygon; the
  // neighbours that only touch a leaf's edges are no candidates.
  workload::CityConfig config;
  config.seed = 4242;
  config.grid_cols = 16;
  config.grid_rows = 16;
  config.nonconvex_fraction = 0.25;
  auto city = workload::GenerateCity(config);
  ASSERT_TRUE(city.ok()) << city.status().ToString();
  const Layer* neighborhoods =
      city.ValueOrDie()
          .db->gis()
          .GetLayer(city.ValueOrDie().neighborhoods_layer)
          .ValueOrDie();
  auto overlay = OverlayDb::BuildQuadtree({neighborhoods}, 10);
  ASSERT_TRUE(overlay.ok()) << overlay.status().ToString();
  const OverlayDb& db = overlay.ValueOrDie();
  EXPECT_LT(db.num_cells(), 1000u);
  for (size_t c = 0; c < db.num_cells(); ++c) {
    EXPECT_TRUE(db.CellCandidates(c).empty()) << "leaf " << c;
    EXPECT_EQ(db.CellCovered(c).size(), 1u) << "leaf " << c;
  }
}

TEST(OverlayTest, ErrorsOnBadInput) {
  EXPECT_TRUE(OverlayDb::BuildConvex({}).status().IsInvalidArgument());
  auto lines = std::make_shared<Layer>("pl", GeometryKind::kPolyline);
  EXPECT_TRUE(
      OverlayDb::BuildConvex({lines.get()}).status().IsInvalidArgument());
  EXPECT_TRUE(
      OverlayDb::BuildQuadtree({lines.get()}).status().IsInvalidArgument());
}

}  // namespace
}  // namespace piet::gis
