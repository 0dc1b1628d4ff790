#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "geometry/polygon.h"
#include "geometry/predicates.h"

namespace piet::geometry {
namespace {

Ring UnitSquare() {
  return Ring({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
}

TEST(RingTest, CreateValidates) {
  EXPECT_TRUE(Ring::Create({{0, 0}, {1, 0}}).status().IsInvalidArgument());
  EXPECT_TRUE(Ring::Create({{0, 0}, {1, 0}, {1, 0}, {0, 1}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      Ring::Create({{0, 0}, {1, 1}, {2, 2}}).status().IsInvalidArgument());
  // Self-intersecting "bowtie".
  EXPECT_TRUE(Ring::Create({{0, 0}, {2, 2}, {2, 0}, {0, 2}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Ring::Create({{0, 0}, {1, 0}, {1, 1}, {0, 1}}).ok());
}

TEST(RingTest, CreateDropsClosingVertexAndNormalizesCcw) {
  auto ring =
      Ring::Create({{0, 0}, {0, 1}, {1, 1}, {1, 0}, {0, 0}});  // CW, closed.
  ASSERT_TRUE(ring.ok());
  EXPECT_EQ(ring.ValueOrDie().size(), 4u);
  EXPECT_TRUE(ring.ValueOrDie().IsCounterClockwise());
}

TEST(RingTest, AreaPerimeterCentroid) {
  Ring sq = UnitSquare();
  EXPECT_DOUBLE_EQ(sq.Area(), 1.0);
  EXPECT_DOUBLE_EQ(sq.SignedArea(), 1.0);
  EXPECT_DOUBLE_EQ(sq.Perimeter(), 4.0);
  EXPECT_EQ(sq.Centroid(), Point(0.5, 0.5));

  Ring tri({{0, 0}, {6, 0}, {0, 6}});
  EXPECT_DOUBLE_EQ(tri.Area(), 18.0);
  EXPECT_EQ(tri.Centroid(), Point(2, 2));
}

TEST(RingTest, Convexity) {
  EXPECT_TRUE(UnitSquare().IsConvex());
  // L-shape is concave.
  Ring l({{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}});
  EXPECT_FALSE(l.IsConvex());
  EXPECT_TRUE(l.IsSimple());
}

TEST(RingTest, Locate) {
  Ring sq = UnitSquare();
  EXPECT_EQ(sq.Locate({0.5, 0.5}), PointLocation::kInside);
  EXPECT_EQ(sq.Locate({0.0, 0.5}), PointLocation::kBoundary);
  EXPECT_EQ(sq.Locate({0.0, 0.0}), PointLocation::kBoundary);
  EXPECT_EQ(sq.Locate({1.5, 0.5}), PointLocation::kOutside);
  EXPECT_EQ(sq.Locate({0.5, -0.1}), PointLocation::kOutside);
}

TEST(RingTest, LocateConcave) {
  Ring l({{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(l.Locate({0.5, 0.5}), PointLocation::kInside);
  EXPECT_EQ(l.Locate({1.5, 0.5}), PointLocation::kInside);
  EXPECT_EQ(l.Locate({1.5, 1.5}), PointLocation::kOutside);  // The notch.
  EXPECT_EQ(l.Locate({1.0, 1.5}), PointLocation::kBoundary);
}

TEST(PolygonTest, HolesRespected) {
  Ring shell({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  Ring hole({{4, 4}, {6, 4}, {6, 6}, {4, 6}});
  auto polygon = Polygon::Create(shell, {hole});
  ASSERT_TRUE(polygon.ok());
  const Polygon& pg = polygon.ValueOrDie();
  EXPECT_DOUBLE_EQ(pg.Area(), 96.0);
  EXPECT_EQ(pg.Locate({5, 5}), PointLocation::kOutside);   // In the hole.
  EXPECT_EQ(pg.Locate({4, 5}), PointLocation::kBoundary);  // Hole border.
  EXPECT_EQ(pg.Locate({2, 2}), PointLocation::kInside);
  EXPECT_TRUE(pg.Contains({4, 5}));
  EXPECT_FALSE(pg.Contains({5, 5}));
}

TEST(PolygonTest, HoleOutsideShellRejected) {
  Ring shell({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  Ring hole({{5, 5}, {6, 5}, {6, 6}, {5, 6}});
  EXPECT_TRUE(Polygon::Create(shell, {hole}).status().IsInvalidArgument());
}

TEST(PolygonTest, SharedBoundaryBelongsToBoth) {
  // The paper's Example 1: a point on the common border of two adjacent
  // polygons belongs to both.
  Polygon left = MakeRectangle(0, 0, 1, 1);
  Polygon right = MakeRectangle(1, 0, 2, 1);
  Point border(1.0, 0.5);
  EXPECT_TRUE(left.Contains(border));
  EXPECT_TRUE(right.Contains(border));
  EXPECT_FALSE(left.ContainsInterior(border));
}

TEST(PolygonTest, IntersectsSegment) {
  Polygon sq = MakeRectangle(0, 0, 2, 2);
  EXPECT_TRUE(sq.IntersectsSegment({{1, 1}, {5, 5}}));   // Starts inside.
  EXPECT_TRUE(sq.IntersectsSegment({{-1, 1}, {3, 1}}));  // Crosses.
  EXPECT_TRUE(sq.IntersectsSegment({{-1, 2}, {3, 2}}));  // Along the edge.
  EXPECT_FALSE(sq.IntersectsSegment({{3, 3}, {5, 5}}));
}

TEST(PolygonTest, PolygonIntersects) {
  Polygon a = MakeRectangle(0, 0, 2, 2);
  Polygon b = MakeRectangle(1, 1, 3, 3);
  Polygon c = MakeRectangle(5, 5, 6, 6);
  Polygon d = MakeRectangle(2, 0, 3, 1);  // Edge-adjacent to a.
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Intersects(d));  // Closed semantics: touching counts.
  // Containment without vertex containment also intersects.
  Polygon big = MakeRectangle(-1, -1, 4, 4);
  EXPECT_TRUE(big.Intersects(a));
  EXPECT_TRUE(a.Intersects(big));
}

TEST(PolygonTest, ContainsPolygon) {
  Polygon big = MakeRectangle(0, 0, 10, 10);
  Polygon small = MakeRectangle(2, 2, 4, 4);
  Polygon cross = MakeRectangle(8, 8, 12, 12);
  EXPECT_TRUE(big.ContainsPolygon(small));
  EXPECT_FALSE(big.ContainsPolygon(cross));
  EXPECT_FALSE(small.ContainsPolygon(big));
  EXPECT_TRUE(big.ContainsPolygon(big));
}

TEST(PolygonTest, ContainsPolygonRespectsHoles) {
  const Ring hole({{8, 8}, {12, 8}, {12, 12}, {8, 12}});
  const Polygon holed(Ring({{0, 0}, {20, 0}, {20, 20}, {0, 20}}), {hole});
  // The hole strictly inside `other`: no vertex of `other` falls in it.
  EXPECT_FALSE(holed.ContainsPolygon(MakeRectangle(5, 5, 15, 15)));
  // The hole touching `other` from outside: at a vertex, along a whole
  // edge, along part of one.
  EXPECT_TRUE(holed.ContainsPolygon(MakeRectangle(12, 12, 16, 16)));
  EXPECT_TRUE(holed.ContainsPolygon(MakeRectangle(12, 8, 16, 12)));
  EXPECT_TRUE(holed.ContainsPolygon(MakeRectangle(12, 10, 16, 14)));
  // Every vertex of the hole on `other`'s boundary, the hole's interior
  // inside `other`'s.
  EXPECT_FALSE(holed.ContainsPolygon(MakeRectangle(8, 6, 12, 14)));
  EXPECT_FALSE(holed.ContainsPolygon(
      Polygon(Ring({{10, 6}, {14, 10}, {10, 14}, {6, 10}}))));
  // `other` is the hole itself; `other` has the same hole.
  EXPECT_FALSE(holed.ContainsPolygon(MakeRectangle(8, 8, 12, 12)));
  EXPECT_TRUE(holed.ContainsPolygon(
      Polygon(Ring({{5, 5}, {15, 5}, {15, 15}, {5, 15}}), {hole})));
}

TEST(PolygonTest, MakeRegularPolygon) {
  Polygon hex = MakeRegularPolygon({0, 0}, 2.0, 6);
  EXPECT_EQ(hex.shell().size(), 6u);
  EXPECT_TRUE(hex.IsConvex());
  // Area of regular hexagon with circumradius r: (3*sqrt(3)/2) r^2.
  EXPECT_NEAR(hex.Area(), 1.5 * std::sqrt(3.0) * 4.0, 1e-9);
  EXPECT_TRUE(hex.Contains({0, 0}));
}

TEST(PolygonTest, CentroidWithHole) {
  Ring shell({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  Ring hole({{0.5, 0.5}, {1.5, 0.5}, {1.5, 1.5}, {0.5, 1.5}});
  Polygon pg(shell, {hole});
  Point c = pg.Centroid();
  // Removing mass from the lower-left pushes the centroid up-right.
  EXPECT_GT(c.x, 2.0);
  EXPECT_GT(c.y, 2.0);
}

// Property: Locate agrees with the winding parity of random points for
// random convex polygons.
TEST(PolygonProperty, ConvexLocateMatchesHalfPlanes) {
  Random rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    Point center(rng.UniformDouble(-5, 5), rng.UniformDouble(-5, 5));
    double radius = rng.UniformDouble(1, 4);
    int sides = static_cast<int>(rng.UniformInt(3, 9));
    Polygon pg = MakeRegularPolygon(center, radius, sides,
                                    rng.UniformDouble(0, 1));
    for (int i = 0; i < 50; ++i) {
      Point p(center.x + rng.UniformDouble(-5, 5),
              center.y + rng.UniformDouble(-5, 5));
      // Half-plane test for convex polygons (CCW): inside iff left of every
      // edge.
      bool inside_hp = true;
      bool on_boundary = false;
      const Ring& shell = pg.shell();
      for (size_t e = 0; e < shell.size(); ++e) {
        Segment edge = shell.edge(e);
        int o = Orientation(edge.a, edge.b, p);
        if (o < 0) {
          inside_hp = false;
        } else if (o == 0 && OnSegment(p, edge.a, edge.b)) {
          on_boundary = true;
        }
      }
      PointLocation loc = pg.Locate(p);
      if (on_boundary) {
        EXPECT_EQ(loc, PointLocation::kBoundary);
      } else if (inside_hp) {
        EXPECT_EQ(loc, PointLocation::kInside);
      } else {
        EXPECT_EQ(loc, PointLocation::kOutside);
      }
    }
  }
}

}  // namespace
}  // namespace piet::geometry
