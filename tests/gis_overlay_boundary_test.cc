// Boundary-exact oracle for the quadtree overlay: every answer of
// OverlayDb::Locate, LocateInLayer and LocateBatch (1 and 4 threads) is
// checked against Layer::GeometriesContaining on the points where a
// pruning rule can go wrong — ring vertices, points along every shared and
// oblique edge, every leaf corner and points along every leaf edge — at
// every depth cap from 0 to 10. All coordinates are small dyadic
// rationals, so the point-on-edge tests involve no rounding. A second
// test puts a MOFT's samples on a generated city's grid lines and corners
// and checks that the three sample-matching strategies agree, with the
// aggregate cache on and off.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "core/queries.h"
#include "gis/overlay.h"
#include "moving/moft.h"
#include "workload/city.h"

namespace piet {
namespace {

using core::GeometryPredicate;
using core::QueryEngine;
using core::Strategy;
using core::TimePredicate;
using core::aggcache::AggCacheMode;
using geometry::MakeRectangle;
using geometry::Point;
using geometry::Polygon;
using geometry::Ring;
using gis::GeometryId;
using gis::GeometryKind;
using gis::Layer;
using gis::OverlayDb;
using temporal::TimePoint;

Polygon Poly(std::vector<Point> shell, std::vector<Ring> holes = {}) {
  return Polygon(Ring(std::move(shell)), std::move(holes));
}

/// Two layers over [0, 64]^2. Layer "parts" has axis-aligned shared edges,
/// a non-convex L with the square filling its notch, two triangles sharing
/// an oblique edge, a polygon with a hole plus the square that fills the
/// hole, two diamonds touching at one vertex, two overlapping rectangles,
/// a steep triangle and gaps. Layer "coarse" tiles the domain with a
/// shared oblique edge.
struct BoundaryLayers {
  std::unique_ptr<Layer> parts;
  std::unique_ptr<Layer> coarse;
};

BoundaryLayers MakeBoundaryLayers() {
  BoundaryLayers out;
  out.parts = std::make_unique<Layer>("parts", GeometryKind::kPolygon);
  const std::vector<Polygon> parts = {
      MakeRectangle(0, 0, 24, 20),
      MakeRectangle(24, 0, 40, 20),
      Poly({{0, 20}, {24, 20}, {24, 32}, {12, 32}, {12, 44}, {0, 44}}),
      MakeRectangle(12, 32, 24, 44),
      Poly({{24, 20}, {40, 20}, {40, 36}}),
      Poly({{24, 20}, {40, 36}, {24, 36}}),
      Poly({{40, 0}, {64, 0}, {64, 24}, {40, 24}},
           {Ring({{49, 9}, {51, 9}, {51, 11}, {49, 11}})}),
      MakeRectangle(49, 9, 51, 11),
      Poly({{48, 36}, {52, 40}, {48, 44}, {44, 40}}),
      Poly({{56, 36}, {60, 40}, {56, 44}, {52, 40}}),
      MakeRectangle(0, 48, 16, 64),
      MakeRectangle(8, 52, 24, 60),
      Poly({{24, 44}, {32, 60}, {24, 60}}),
      MakeRectangle(56, 56, 64, 64),
  };
  for (const Polygon& pg : parts) {
    EXPECT_TRUE(out.parts->AddPolygon(pg).ok());
  }
  out.coarse = std::make_unique<Layer>("coarse", GeometryKind::kPolygon);
  const std::vector<Polygon> coarse = {
      MakeRectangle(0, 0, 32, 32),
      MakeRectangle(32, 0, 64, 32),
      Poly({{0, 32}, {32, 32}, {0, 64}}),
      Poly({{32, 32}, {64, 32}, {64, 64}, {0, 64}}),
  };
  for (const Polygon& pg : coarse) {
    EXPECT_TRUE(out.coarse->AddPolygon(pg).ok());
  }
  return out;
}

/// Adds the points at k/steps, k = 0..steps, along every edge of `ring`
/// (exact for the dyadic coordinates used here).
void AddRingPoints(const Ring& ring, int steps,
                   std::set<std::pair<double, double>>* out) {
  for (size_t i = 0; i < ring.size(); ++i) {
    const geometry::Segment e = ring.edge(i);
    for (int k = 0; k <= steps; ++k) {
      const double t = static_cast<double>(k) / steps;
      out->insert({e.a.x + t * (e.b.x - e.a.x), e.a.y + t * (e.b.y - e.a.y)});
    }
  }
}

std::vector<GeometryId> Direct(const Layer& layer, Point p) {
  std::vector<GeometryId> ids = layer.GeometriesContaining(p);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(QuadtreeBoundaryOracleTest, MatchesDirectOnBoundaryPointsAtEveryDepth) {
  const BoundaryLayers layers = MakeBoundaryLayers();
  const std::vector<const Layer*> list = {layers.parts.get(),
                                          layers.coarse.get()};

  // Points that do not depend on the tree: every ring point and a few
  // uniform ones.
  std::set<std::pair<double, double>> fixed;
  for (const Layer* layer : list) {
    for (GeometryId id : layer->ids()) {
      const Polygon* pg = layer->GetPolygon(id).ValueOrDie();
      AddRingPoints(pg->shell(), 16, &fixed);
      for (const Ring& hole : pg->holes()) {
        AddRingPoints(hole, 16, &fixed);
      }
    }
  }
  Random rng(20261019);
  for (int i = 0; i < 200; ++i) {
    fixed.insert({rng.UniformDouble(0, 64), rng.UniformDouble(0, 64)});
  }

  for (int depth = 0; depth <= 10; ++depth) {
    auto built = OverlayDb::BuildQuadtree(list, depth, /*threads=*/1);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const OverlayDb& db = built.ValueOrDie();

    // Every leaf corner and the points at k/4 along every leaf edge.
    std::set<std::pair<double, double>> coords = fixed;
    for (size_t c = 0; c < db.num_cells(); ++c) {
      AddRingPoints(db.CellPolygon(c).shell(), 4, &coords);
    }
    std::vector<Point> points;
    points.reserve(coords.size());
    for (const auto& [x, y] : coords) {
      points.emplace_back(x, y);
    }

    for (size_t li = 0; li < list.size(); ++li) {
      const gis::BatchHits serial = db.LocateBatch(points, li, 1);
      const gis::BatchHits fanned = db.LocateBatch(points, li, 4);
      ASSERT_EQ(serial.offsets.size(), points.size() + 1);
      EXPECT_EQ(serial.offsets, fanned.offsets) << "depth " << depth;
      EXPECT_EQ(serial.ids, fanned.ids) << "depth " << depth;
      size_t mismatches = 0;
      for (size_t i = 0; i < points.size() && mismatches < 10; ++i) {
        const Point p = points[i];
        const std::vector<GeometryId> want = Direct(*list[li], p);
        const std::vector<GeometryId> batch(
            serial.ids.begin() + serial.offsets[i],
            serial.ids.begin() + serial.offsets[i + 1]);
        const std::vector<GeometryId> single = db.LocateInLayer(p, li);
        const std::vector<GeometryId> all = db.Locate(p).per_layer[li];
        if (single != want || batch != want || all != want) {
          ++mismatches;
          ADD_FAILURE() << "depth " << depth << " layer " << li << " at "
                        << p.ToString();
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Samples on a generated city's grid lines and corners: the overlay,
// R-tree and naive strategies agree, and the aggregate cache answers like
// the scans.

class GridLineSampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::CityConfig config;
    config.seed = 31;
    config.grid_cols = 8;
    config.grid_rows = 8;
    config.nonconvex_fraction = 0.5;
    auto city = workload::GenerateCity(config);
    ASSERT_TRUE(city.ok()) << city.status().ToString();
    city_ = std::make_unique<workload::City>(std::move(city).ValueOrDie());
    const double s = config.cell_size;
    const double w = config.grid_cols * s;
    const double h = config.grid_rows * s;

    // Each object walks a grid line (corners, points on the lines, the
    // outer edge) and dips into cell interiors; one object starts outside.
    moving::Moft moft;
    Random rng(5);
    for (moving::ObjectId oid = 1; oid <= 24; ++oid) {
      double t = 0.0;
      for (int k = 0; k < 40; ++k) {
        t += 150.0 + rng.UniformInt(0, 3) * 75.0;
        const double gx = rng.UniformInt(0, config.grid_cols) * s;
        const double gy = rng.UniformInt(0, config.grid_rows) * s;
        Point p;
        switch (rng.UniformInt(0, 3)) {
          case 0:  // A grid corner (the city's outer corners included).
            p = Point(gx, gy);
            break;
          case 1:  // On a vertical grid line.
            p = Point(gx, rng.UniformInt(0, 4 * config.grid_rows) * s / 4);
            break;
          case 2:  // On a horizontal grid line.
            p = Point(rng.UniformInt(0, 4 * config.grid_cols) * s / 4, gy);
            break;
          default:  // A cell interior.
            p = Point(rng.UniformDouble(1, w - 1), rng.UniformDouble(1, h - 1));
            break;
        }
        if (oid == 24 && k == 0) {
          p = Point(-s, -s);
        }
        ASSERT_TRUE(moft.Add(oid, TimePoint(t), p).ok());
      }
    }
    ASSERT_TRUE(city_->db->AddMoft("cars", std::move(moft)).ok());
    ASSERT_TRUE(city_->db->BuildOverlay({city_->neighborhoods_layer},
                                        /*convex=*/false)
                    .ok());
  }

  std::unique_ptr<workload::City> city_;
};

TEST_F(GridLineSampleTest, StrategiesAndCacheAgree) {
  const std::string nb = city_->neighborhoods_layer;
  const std::vector<GeometryPredicate> preds = {
      GeometryPredicate::All(),
      GeometryPredicate::AttributeLess("income", 1500.0),
  };
  const std::vector<TimePredicate> whens = {
      TimePredicate(),
      TimePredicate().Window(temporal::Interval(TimePoint(1000),
                                                TimePoint(5000))),
  };
  for (int threads : {1, 4}) {
    city_->db->set_num_threads(threads);
    QueryEngine off(city_->db.get());
    off.set_agg_cache_mode(AggCacheMode::kOff);
    off.set_num_threads(threads);
    QueryEngine on(city_->db.get());
    on.set_agg_cache_mode(AggCacheMode::kOn);
    on.set_num_threads(threads);
    for (size_t pi = 0; pi < preds.size(); ++pi) {
      for (size_t wi = 0; wi < whens.size(); ++wi) {
        std::string tag = std::to_string(threads);
        tag += " threads, pred " + std::to_string(pi);
        tag += ", when " + std::to_string(wi);
        const GeometryPredicate& pred = preds[pi];
        const TimePredicate& when = whens[wi];

        // The R-tree reports a border sample's polygons in its own order,
        // so rows are compared as sorted multisets.
        auto rows = [&](Strategy s) {
          auto table = off.SampleRegion("cars", nb, pred, when, s);
          EXPECT_TRUE(table.ok()) << table.status().ToString();
          std::vector<olap::Row> out =
              table.ok() ? table.ValueOrDie().rows() : std::vector<olap::Row>{};
          std::sort(out.begin(), out.end());
          return out;
        };
        const std::vector<olap::Row> naive = rows(Strategy::kNaive);
        EXPECT_GT(naive.size(), 0u) << tag;
        for (Strategy s : {Strategy::kIndexed, Strategy::kOverlay}) {
          EXPECT_EQ(rows(s), naive) << tag << "/" << core::StrategyToString(s);
        }

        auto want = core::queries::CountPerHourInRegion(off, "cars", nb, pred,
                                                        when, Strategy::kNaive);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        for (const QueryEngine* engine : {&off, &on}) {
          for (Strategy s : {Strategy::kIndexed, Strategy::kOverlay}) {
            auto got = core::queries::CountPerHourInRegion(*engine, "cars", nb,
                                                           pred, when, s);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            EXPECT_EQ(got.ValueOrDie().tuple_count,
                      want.ValueOrDie().tuple_count)
                << tag;
            EXPECT_EQ(got.ValueOrDie().hour_count,
                      want.ValueOrDie().hour_count)
                << tag;
          }
        }

        auto within_off = core::queries::CountObjectsCompletelyWithin(
            off, "cars", nb, pred, when, /*trajectory_semantics=*/false);
        auto within_on = core::queries::CountObjectsCompletelyWithin(
            on, "cars", nb, pred, when, /*trajectory_semantics=*/false);
        ASSERT_TRUE(within_off.ok()) << within_off.status().ToString();
        ASSERT_TRUE(within_on.ok()) << within_on.status().ToString();
        EXPECT_EQ(within_off.ValueOrDie(), within_on.ValueOrDie()) << tag;
      }
    }
    for (const char* member : {"N0", "N5", "N17"}) {
      auto want = core::queries::CountObjectsInRegion(
          off, "cars", nb, "neighborhood", Value(member), TimePredicate(),
          Strategy::kNaive);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      for (const QueryEngine* engine : {&off, &on}) {
        auto got = core::queries::CountObjectsInRegion(
            *engine, "cars", nb, "neighborhood", Value(member),
            TimePredicate(), Strategy::kOverlay);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got.ValueOrDie(), want.ValueOrDie()) << member;
      }
    }
  }
}

}  // namespace
}  // namespace piet
